//! Fig 17 — tensor core performance on the V100/Titan V in different
//! scenarios: cuBLAS with and without tensor cores (FP16/FP32), the
//! optimized WMMA kernel, max-performance stress kernels, and the
//! theoretical 125 TFLOPS limit, as matrix size varies.
//!
//! Fig 17 is a pure hardware-profiling figure in the paper; here the
//! series come from the analytic Titan V surrogate (datasheet rooflines +
//! efficiency ramps — DESIGN.md §3) and are cross-checked against the
//! cycle-level simulator at sizes the simulator can reach.

use tcsim_bench::{
    ascii_chart, fnum, gemm_sweep, parse_cli, print_table, write_results, FIG17_SIZES,
};
use tcsim_cutlass::{GemmKernel, GemmPrecision, GemmProblem};
use tcsim_hw::{HwModel, KernelClass};
use tcsim_sim::GpuConfig;
use tcsim_trace::json::JsonWriter;

fn main() {
    let cli = parse_cli();
    println!("Fig 17: tensor core performance (TFLOPS) vs square matrix size");
    let hw = HwModel::titan_v();
    let series: [(KernelClass, &str); 8] = [
        (KernelClass::CublasFp32, "CUBLAS_WO_TC_FP32"),
        (KernelClass::CublasFp16, "CUBLAS_WO_TC_FP16"),
        (KernelClass::WmmaOptimized, "WMMA OPTIMIZED"),
        (KernelClass::CublasTcFp32, "CUBLAS_WITH_TC_FP32"),
        (KernelClass::CublasTcFp16, "CUBLAS_WITH_TC_FP16"),
        (KernelClass::MaxPerfFp16, "MAX PERF KERNEL(FP16)"),
        (KernelClass::MaxPerfMixed, "MAX PERF KERNEL(FP32)"),
        (KernelClass::TheoreticalLimit, "THEORETICAL LIMIT"),
    ];

    let mut rows = Vec::new();
    for (class, label) in series {
        let mut row = vec![label.to_string()];
        for &s in &FIG17_SIZES {
            row.push(fnum(hw.gemm_tflops(s, class), 1));
        }
        rows.push(row);
    }
    let mut headers = vec!["kernel".to_string()];
    headers.extend(FIG17_SIZES.iter().map(|s| s.to_string()));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table("Hardware surrogate TFLOPS", &headers_ref, &rows);

    let x: Vec<String> = FIG17_SIZES.iter().map(|s| s.to_string()).collect();
    let chart_series: Vec<(&str, Vec<f64>)> = vec![
        (
            "Theoretical limit",
            FIG17_SIZES
                .iter()
                .map(|&s| hw.gemm_tflops(s, KernelClass::TheoreticalLimit))
                .collect(),
        ),
        (
            "Max-perf fp16",
            FIG17_SIZES
                .iter()
                .map(|&s| hw.gemm_tflops(s, KernelClass::MaxPerfFp16))
                .collect(),
        ),
        (
            "Cublas TC fp16",
            FIG17_SIZES
                .iter()
                .map(|&s| hw.gemm_tflops(s, KernelClass::CublasTcFp16))
                .collect(),
        ),
        (
            "Wmma optimized",
            FIG17_SIZES
                .iter()
                .map(|&s| hw.gemm_tflops(s, KernelClass::WmmaOptimized))
                .collect(),
        ),
        (
            "hGEMM (no TC)",
            FIG17_SIZES
                .iter()
                .map(|&s| hw.gemm_tflops(s, KernelClass::CublasFp16))
                .collect(),
        ),
        (
            "sGEMM (no TC)",
            FIG17_SIZES
                .iter()
                .map(|&s| hw.gemm_tflops(s, KernelClass::CublasFp32))
                .collect(),
        ),
    ];
    ascii_chart("Fig 17 (TFLOPS vs size)", &x, &chart_series, false, 18);

    // Headline numbers.
    let best = hw.gemm_tflops(8192, KernelClass::CublasTcFp16);
    println!("\nbest GEMM: {:.1} TFLOPS at 8192 (paper: ~96)", best);
    println!(
        "max sustainable: {:.1} (FP16) / {:.1} (mixed) TFLOPS (paper: 109.6 / 108.7)",
        hw.gemm_tflops(8192, KernelClass::MaxPerfFp16),
        hw.gemm_tflops(8192, KernelClass::MaxPerfMixed)
    );
    for s in [2048usize, 8192] {
        let tc = hw.gemm_tflops(s, KernelClass::CublasTcFp16);
        println!(
            "at {s}: TC / SGEMM = {:.1}x (paper: 3-6x), TC / HGEMM = {:.1}x (paper: ~3x)",
            tc / hw.gemm_tflops(s, KernelClass::CublasFp32),
            tc / hw.gemm_tflops(s, KernelClass::CublasFp16)
        );
    }

    // Simulator cross-check at sizes the cycle-level model can reach: the
    // ordering (TC kernels > HGEMM > SGEMM) must hold in the simulator
    // across the size sweep too. All kernel×size points run concurrently
    // through the sweep engine.
    const SIM_SIZES: [usize; 5] = [64, 128, 192, 256, 320];
    println!("\nSimulator cross-check (achieved TFLOPS at 1.53 GHz):");
    let variants = [
        (GemmKernel::Sgemm, GemmPrecision::Fp32, "SGEMM (FFMA)"),
        (GemmKernel::Hgemm, GemmPrecision::Fp16, "HGEMM (HFMA2)"),
        (
            GemmKernel::WmmaShared,
            GemmPrecision::MixedF32,
            "WMMA shared (TC)",
        ),
    ];
    let mut labelled: Vec<(usize, &str)> = Vec::new();
    let mut points: Vec<(GemmProblem, GemmKernel)> = Vec::new();
    for &(kernel, precision, label) in &variants {
        for &size in &SIM_SIZES {
            labelled.push((size, label));
            points.push((
                GemmProblem {
                    precision,
                    ..GemmProblem::square(size)
                },
                kernel,
            ));
        }
    }
    let runs = gemm_sweep(&GpuConfig::titan_v(), &points, false, cli.threads);
    let mut rows = Vec::new();
    let mut crosscheck = JsonWriter::array();
    for (&(size, label), run) in labelled.iter().zip(&runs) {
        rows.push(vec![
            label.to_string(),
            size.to_string(),
            run.stats.cycles.to_string(),
            fnum(run.tflops(), 2),
        ]);
        crosscheck.begin_object();
        crosscheck.field_str("kernel", label);
        crosscheck.field_u64("size", size as u64);
        crosscheck.field_f64("tflops", run.tflops());
        run.stats.write_json(crosscheck.key("sim"));
        crosscheck.end_object();
    }
    print_table(
        "sim cross-check",
        &["kernel", "size", "cycles", "TFLOPS"],
        &rows,
    );
    // At every size the tensor-core kernel must beat HGEMM, which must
    // beat SGEMM (the paper's Fig 17 ordering).
    let tflops_of = |label: &str, size: usize| {
        labelled
            .iter()
            .zip(&runs)
            .find(|(&(s, l), _)| s == size && l == label)
            .map(|(_, run)| run.tflops())
            .expect("point present")
    };
    for &size in &SIM_SIZES {
        let sgemm = tflops_of("SGEMM (FFMA)", size);
        let hgemm = tflops_of("HGEMM (HFMA2)", size);
        let wmma = tflops_of("WMMA shared (TC)", size);
        assert!(
            wmma > hgemm && wmma > sgemm,
            "tensor cores lost at {size}: wmma {wmma:.2} hgemm {hgemm:.2} sgemm {sgemm:.2}"
        );
        // HGEMM's half-precision advantage only materializes once the
        // launch/stride overhead amortizes (the paper's curves cross at
        // small sizes too).
        if size >= 192 {
            assert!(
                hgemm > sgemm,
                "HGEMM should beat SGEMM at {size}: {hgemm:.2} vs {sgemm:.2}"
            );
        }
    }

    if let Some(path) = &cli.json {
        // Surrogate series plus the simulator cross-check rows.
        let mut top = JsonWriter::object();
        top.key("surrogate").begin_array();
        for (class, label) in series {
            for &s in &FIG17_SIZES {
                top.begin_object();
                top.field_str("kernel", label);
                top.field_u64("size", s as u64);
                top.field_f64("hw_tflops", hw.gemm_tflops(s, class));
                top.end_object();
            }
        }
        top.end_array();
        top.raw_field("sim_crosscheck", &crosscheck.finish());
        write_results(path, &top.finish());
    }
}
