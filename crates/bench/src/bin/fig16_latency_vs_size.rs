//! Fig 16 — median `wmma.load` / `wmma.mma` / `wmma.store` latency versus
//! matrix size, with and without shared-memory operand staging.
//!
//! The paper's headline: staging operands in shared memory reduces median
//! `wmma.load` latency by more than 100× on large matrices (its load plot
//! uses a log axis). Here both kernel variants run on the simulator with
//! WMMA profiling enabled.

use tcsim_bench::{fnum, print_table, FIG16_SIZES};
use tcsim_cutlass::{run_gemm, GemmKernel, GemmProblem};
use tcsim_sim::{Distribution, Gpu, GpuConfig, SimOptions};
use tcsim_sm::WmmaKind;

fn medians(size: usize, kernel: GemmKernel) -> (u64, u64, u64) {
    let mut gpu = Gpu::new(SimOptions::new(GpuConfig::titan_v()).profile_wmma(true));
    let run = run_gemm(&mut gpu, GemmProblem::square(size), kernel, false);
    let med = |kind| {
        Distribution::of(&run.stats.wmma_latencies(kind))
            .map(|d| d.median)
            .unwrap_or(0)
    };
    (
        med(WmmaKind::Load),
        med(WmmaKind::Mma),
        med(WmmaKind::Store),
    )
}

fn main() {
    println!("Fig 16: median wmma latencies vs matrix size (with vs without shared memory)");

    let mut rows = Vec::new();
    let mut last_ratio = 0.0;
    for &size in &FIG16_SIZES {
        let (l_g, m_g, s_g) = medians(size, GemmKernel::WmmaSimple);
        let (l_s, m_s, s_s) = medians(size, GemmKernel::WmmaShared);
        last_ratio = l_g as f64 / l_s.max(1) as f64;
        rows.push(vec![
            size.to_string(),
            l_g.to_string(),
            l_s.to_string(),
            fnum(last_ratio, 1),
            m_g.to_string(),
            m_s.to_string(),
            s_g.to_string(),
            s_s.to_string(),
        ]);
    }
    print_table(
        "Median latencies (cycles); w/o = global operands, w/ = shared staging",
        &[
            "size",
            "load w/o",
            "load w/",
            "load ratio",
            "mma w/o",
            "mma w/",
            "store w/o",
            "store w/",
        ],
        &rows,
    );

    println!("\nwmma.load latency ratio (global / shared) at the largest size: {last_ratio:.0}x");
    println!("Paper: shared memory reduces median load latency by >100x on large");
    println!("matrices (the global-path latency explodes with contention while the");
    println!("shared path stays flat).");
    assert!(last_ratio > 3.0, "shared staging must win decisively");
}
