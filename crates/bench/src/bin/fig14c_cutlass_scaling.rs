//! Fig 14c — CUTLASS-based GEMM kernel performance as matrix size varies
//! (sim vs surrogate hardware IPC). The paper notes GPGPU-Sim "tends to
//! have higher performance versus hardware as matrix size increases".

use tcsim_bench::{fnum, gemm_sweep, parse_cli, print_table, write_results, FIG14C_SIZES};
use tcsim_cutlass::{CutlassConfig, GemmKernel, GemmProblem};
use tcsim_hw::{HwModel, KernelClass};
use tcsim_sim::GpuConfig;
use tcsim_trace::json::JsonWriter;

fn main() {
    let cli = parse_cli();
    println!("Fig 14c: CUTLASS GEMM scaling (IPC vs matrix size)");
    let hw = HwModel::titan_v();
    // Large-tile configuration (CUTLASS uses 128×128 CTA tiles at these
    // sizes to keep DRAM traffic low enough for the tensor cores).
    let kernel = GemmKernel::Cutlass(CutlassConfig {
        cta_m: 128,
        cta_n: 128,
        warp_m: 64,
        warp_n: 32,
        stages: 2,
    });
    let points: Vec<(GemmProblem, GemmKernel)> = FIG14C_SIZES
        .iter()
        .map(|&size| (GemmProblem::square(size), kernel))
        .collect();
    let runs = gemm_sweep(&GpuConfig::titan_v(), &points, false, cli.threads);

    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    let mut json = JsonWriter::array();
    for (&size, run) in FIG14C_SIZES.iter().zip(&runs) {
        let hw_cycles = hw.gemm_cycles(size, size, size, KernelClass::CutlassTc);
        let hw_ipc = run.stats.instructions as f64 / hw_cycles;
        let sim_ipc = run.stats.ipc();
        ratios.push(sim_ipc / hw_ipc);
        rows.push(vec![
            size.to_string(),
            fnum(hw_cycles / 1000.0, 0),
            fnum(run.stats.cycles as f64 / 1000.0, 0),
            fnum(hw_ipc, 1),
            fnum(sim_ipc, 1),
            fnum(sim_ipc / hw_ipc, 2),
        ]);
        json.begin_object();
        json.field_u64("size", size as u64);
        json.field_f64("hw_cycles", hw_cycles);
        json.field_f64("hw_ipc", hw_ipc);
        run.stats.write_json(json.key("sim"));
        json.end_object();
    }
    if let Some(path) = &cli.json {
        write_results(path, &json.finish());
    }
    print_table(
        "CUTLASS 128x128 double-buffered kernel",
        &[
            "size",
            "hw kcycles",
            "sim kcycles",
            "hw IPC",
            "sim IPC",
            "sim/hw",
        ],
        &rows,
    );
    println!(
        "\nsim/hw IPC ratio at 128: {:.2}, at 2048: {:.2} (paper: simulator optimistic at large sizes)",
        ratios[0],
        ratios.last().expect("non-empty")
    );
}
