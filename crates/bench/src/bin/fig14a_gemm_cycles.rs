//! Fig 14a — WMMA-based GEMM kernel cycle count as matrix size varies:
//! simulator vs (surrogate) hardware.
//!
//! The paper reports GPGPU-Sim "tracks real hardware very accurately with
//! a standard deviation of less than 5%" over sizes 16..512. Our hardware
//! side is the analytic Titan V surrogate (`tcsim-hw`, see DESIGN.md §3);
//! the comparison measures whether the detailed cycle-level model tracks
//! an independent first-principles reference across the size sweep.

use tcsim_bench::{
    ascii_chart, fnum, gemm_sweep, parse_cli, print_table, write_results, FIG14A_SIZES,
};
use tcsim_cutlass::{GemmKernel, GemmProblem};
use tcsim_hw::{HwModel, KernelClass};
use tcsim_sim::{pearson, GpuConfig};
use tcsim_trace::json::JsonWriter;

fn main() {
    let cli = parse_cli();
    println!("Fig 14a: WMMA shared-memory GEMM cycles vs matrix size");
    let hw = HwModel::titan_v();
    // The main series: the shared-memory kernel needs 32-granular tiles;
    // the paper's smallest sizes run on the simple kernel. Alongside it,
    // the global-operand kernel runs at every 32-granular size as a
    // variant-comparison series (the staging benefit of Fig 16's
    // discussion) — one combined sweep, so all points simulate
    // concurrently.
    let main_kernel = |size: usize| {
        if size.is_multiple_of(32) {
            GemmKernel::WmmaShared
        } else {
            GemmKernel::WmmaSimple
        }
    };
    let variant_sizes: Vec<usize> = FIG14A_SIZES
        .iter()
        .copied()
        .filter(|s| s.is_multiple_of(32))
        .collect();
    let mut points: Vec<(GemmProblem, GemmKernel)> = FIG14A_SIZES
        .iter()
        .map(|&size| (GemmProblem::square(size), main_kernel(size)))
        .collect();
    points.extend(
        variant_sizes
            .iter()
            .map(|&size| (GemmProblem::square(size), GemmKernel::WmmaSimple)),
    );
    let runs = gemm_sweep(&GpuConfig::titan_v(), &points, false, cli.threads);
    let (main_runs, variant_runs) = runs.split_at(FIG14A_SIZES.len());

    let mut rows = Vec::new();
    let mut sim_series = Vec::new();
    let mut hw_series = Vec::new();
    let mut json = JsonWriter::array();
    for (&size, run) in FIG14A_SIZES.iter().zip(main_runs) {
        let hw_cycles = hw.gemm_cycles(size, size, size, KernelClass::WmmaOptimized);
        sim_series.push(run.stats.cycles as f64);
        hw_series.push(hw_cycles);
        rows.push(vec![
            size.to_string(),
            fnum(hw_cycles / 1000.0, 1),
            fnum(run.stats.cycles as f64 / 1000.0, 1),
            fnum(run.stats.ipc(), 1),
        ]);
        json.begin_object();
        json.field_u64("size", size as u64);
        json.field_f64("hw_cycles", hw_cycles);
        run.stats.write_json(json.key("sim"));
        json.end_object();
    }
    if let Some(path) = &cli.json {
        write_results(path, &json.finish());
    }
    print_table(
        "Cycle counts (thousands)",
        &[
            "size",
            "hardware (surrogate) kcycles",
            "sim kcycles",
            "sim IPC",
        ],
        &rows,
    );

    // Kernel-variant comparison: shared-memory staging vs global operands
    // at the same sizes. The benefit must grow (or at least hold) with
    // size as operand reuse amortizes the staging cost.
    let mut variant_rows = Vec::new();
    for (&size, simple) in variant_sizes.iter().zip(variant_runs) {
        let main_idx = FIG14A_SIZES
            .iter()
            .position(|&s| s == size)
            .expect("subset");
        let shared = &main_runs[main_idx];
        variant_rows.push(vec![
            size.to_string(),
            fnum(simple.stats.cycles as f64 / 1000.0, 1),
            fnum(shared.stats.cycles as f64 / 1000.0, 1),
            fnum(simple.stats.cycles as f64 / shared.stats.cycles as f64, 2),
        ]);
    }
    print_table(
        "WMMA variant comparison (global operands vs shared staging)",
        &["size", "global kcycles", "shared kcycles", "speedup"],
        &variant_rows,
    );

    let r = pearson(&sim_series, &hw_series);
    // Normalized deviation after a least-squares scale fit (the paper's
    // "<5% standard deviation" is against matched absolute hardware; ours
    // is against an independent analytic model, so we report the scale
    // factor and residual spread).
    let scale = sim_series
        .iter()
        .zip(&hw_series)
        .map(|(s, h)| s * h)
        .sum::<f64>()
        / hw_series.iter().map(|h| h * h).sum::<f64>();
    let residual: f64 = (sim_series
        .iter()
        .zip(&hw_series)
        .map(|(s, h)| {
            let e = s - scale * h;
            e * e
        })
        .sum::<f64>()
        / sim_series.len() as f64)
        .sqrt()
        / (sim_series.iter().sum::<f64>() / sim_series.len() as f64);
    let x: Vec<String> = FIG14A_SIZES.iter().map(|s| s.to_string()).collect();
    ascii_chart(
        "Fig 14a (kcycles vs size, log y)",
        &x,
        &[
            (
                "Hardware (surrogate)",
                hw_series.iter().map(|v| v / 1000.0).collect(),
            ),
            ("Sim", sim_series.iter().map(|v| v / 1000.0).collect()),
        ],
        true,
        14,
    );

    let log_sim: Vec<f64> = sim_series.iter().map(|v| v.ln()).collect();
    let log_hw: Vec<f64> = hw_series.iter().map(|v| v.ln()).collect();
    let r_log = pearson(&log_sim, &log_hw);
    println!(
        "\ncycle-count correlation (Pearson): {:.4} linear, {:.4} log-log",
        r, r_log
    );
    println!(
        "sim = {scale:.3} x hw; residual spread {:.1}% of mean",
        residual * 100.0
    );
    println!("(paper compares against a physical Titan V and reports <5% stdev; ours");
    println!(" compares against the independent analytic surrogate, so only the trend");
    println!(" agreement is meaningful — see DESIGN.md §3 and EXPERIMENTS.md)");
    assert!(
        r > 0.9 && r_log > 0.95,
        "simulator must track the hardware trend"
    );
}
