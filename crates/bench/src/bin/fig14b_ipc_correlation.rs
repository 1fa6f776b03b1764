//! Fig 14b — IPC correlation of CUTLASS GEMM kernels: simulator vs
//! (surrogate) hardware. The paper reports 99.6% correlation over
//! CUTLASS-generated tensor-core kernels.
//!
//! Each point is one workload (problem shape × tiling configuration). The
//! instruction count is an architectural property of the kernel binary —
//! identical on both sides — so IPC_hw = instructions / cycles_hw and
//! IPC_sim = instructions / cycles_sim.

use tcsim_bench::{fnum, gemm_sweep, parse_cli, print_table, write_results};
use tcsim_cutlass::{CutlassConfig, GemmKernel, GemmProblem};
use tcsim_hw::{HwModel, KernelClass};
use tcsim_sim::{pearson, GpuConfig};
use tcsim_trace::json::JsonWriter;

fn main() {
    let cli = parse_cli();
    println!("Fig 14b: CUTLASS GEMM IPC correlation (sim vs hardware surrogate)");
    let hw = HwModel::titan_v();
    let cfg64 = CutlassConfig::default_64x64();
    let cfg_single = CutlassConfig {
        cta_m: 64,
        cta_n: 64,
        warp_m: 32,
        warp_n: 32,
        stages: 1,
    };
    let cfg_wide = CutlassConfig {
        cta_m: 64,
        cta_n: 64,
        warp_m: 32,
        warp_n: 64,
        stages: 2,
    };

    // Workload set: the paper's Fig 14b points all come from CUTLASS
    // tensor-core kernels (shape sweep × tiling configurations).
    let mut workloads: Vec<(GemmProblem, GemmKernel, KernelClass)> = Vec::new();
    for &s in &[64usize, 128, 192, 256, 384, 512, 768] {
        workloads.push((
            GemmProblem::square(s),
            GemmKernel::Cutlass(cfg64),
            KernelClass::CutlassTc,
        ));
    }
    for &s in &[128usize, 256, 512] {
        workloads.push((
            GemmProblem::square(s),
            GemmKernel::Cutlass(cfg_single),
            KernelClass::CutlassTc,
        ));
        workloads.push((
            GemmProblem::square(s),
            GemmKernel::Cutlass(cfg_wide),
            KernelClass::CutlassTc,
        ));
    }
    // Rectangular shapes.
    for &(m, n, k) in &[
        (256usize, 128usize, 256usize),
        (128, 512, 128),
        (512, 256, 192),
        (192, 384, 256),
        (640, 128, 128),
    ] {
        workloads.push((
            GemmProblem {
                m,
                n,
                k,
                precision: tcsim_cutlass::GemmPrecision::MixedF32,
            },
            GemmKernel::Cutlass(cfg64),
            KernelClass::CutlassTc,
        ));
    }

    let runnable: Vec<(GemmProblem, GemmKernel, KernelClass)> = workloads
        .into_iter()
        .filter(|(problem, kernel, _)| {
            let (gm, gn) = kernel.granularity_mn();
            problem.m % gm == 0 && problem.n % gn == 0
        })
        .collect();
    let points: Vec<(GemmProblem, GemmKernel)> = runnable.iter().map(|&(p, k, _)| (p, k)).collect();
    let runs = gemm_sweep(&GpuConfig::titan_v(), &points, false, cli.threads);

    let mut rows = Vec::new();
    let mut sim_ipc = Vec::new();
    let mut hw_ipc = Vec::new();
    let mut points = JsonWriter::array();
    for (&(problem, kernel, class), run) in runnable.iter().zip(&runs) {
        let hw_cycles = hw.gemm_cycles(problem.m, problem.n, problem.k, class);
        let i_hw = run.stats.instructions as f64 / hw_cycles;
        let i_sim = run.stats.ipc();
        sim_ipc.push(i_sim);
        hw_ipc.push(i_hw);
        rows.push(vec![
            format!("{}x{}x{}", problem.m, problem.n, problem.k),
            format!("{kernel:?}"),
            fnum(i_hw, 1),
            fnum(i_sim, 1),
        ]);
        points.begin_object();
        points
            .key("problem")
            .display(format_args!("{}x{}x{}", problem.m, problem.n, problem.k));
        points.key("kernel").display(format_args!("{kernel:?}"));
        points.field_f64("hw_ipc", i_hw);
        run.stats.write_json(points.key("sim"));
        points.end_object();
    }
    print_table(
        "IPC scatter points",
        &["problem", "kernel", "hardware IPC", "sim IPC"],
        &rows,
    );

    let r = pearson(&sim_ipc, &hw_ipc);
    println!("\nIPC correlation: {:.2}% (paper: 99.60%)", r * 100.0);
    if let Some(path) = &cli.json {
        let mut top = JsonWriter::object();
        top.field_f64("pearson", r);
        top.raw_field("points", &points.finish());
        write_results(path, &top.finish());
    }
    assert!(r > 0.9, "IPC correlation collapsed: {r}");
}
