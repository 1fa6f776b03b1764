//! Fig 15 — distribution of `wmma.load`, `wmma.mma` and `wmma.store`
//! latency over the iterations of a 1024×1024 shared-memory WMMA GEMM.
//!
//! The paper measured minimum latencies of 125 (load), 70 (mma) and 120
//! (store) cycles on the Titan V, with occasional high-latency spikes
//! attributed to warp scheduling and memory traffic. This binary profiles
//! every WMMA instruction executed by the simulator for the same workload
//! and prints the distributions.

use tcsim_bench::{fnum, print_table};
use tcsim_cutlass::{run_gemm, GemmKernel, GemmProblem};
use tcsim_hw::HwModel;
use tcsim_sim::{Distribution, Gpu, GpuConfig, SimOptions};
use tcsim_sm::WmmaKind;

/// The paper's GEMM size.
const SIZE: usize = 1024;

fn main() {
    println!("Fig 15: wmma instruction latency distributions ({SIZE}x{SIZE} shared-memory GEMM)");

    let mut gpu = Gpu::new(SimOptions::new(GpuConfig::titan_v()).profile_wmma(true));
    let run = run_gemm(
        &mut gpu,
        GemmProblem::square(SIZE),
        GemmKernel::WmmaShared,
        false,
    );

    let paper_min = HwModel::titan_v().wmma_min_latencies();
    let mut rows = Vec::new();
    for (kind, label, pmin) in [
        (WmmaKind::Load, "wmma.load", paper_min.0),
        (WmmaKind::Mma, "wmma.mma", paper_min.1),
        (WmmaKind::Store, "wmma.store", paper_min.2),
    ] {
        let lat = run.stats.wmma_latencies(kind);
        let d = Distribution::of(&lat).expect("profiled samples");
        rows.push(vec![
            label.to_string(),
            d.count.to_string(),
            pmin.to_string(),
            d.min.to_string(),
            d.median.to_string(),
            fnum(d.mean, 1),
            d.p95.to_string(),
            d.max.to_string(),
        ]);
    }
    print_table(
        "Latency distributions (cycles)",
        &[
            "instr",
            "samples",
            "paper min",
            "min",
            "median",
            "mean",
            "p95",
            "max",
        ],
        &rows,
    );

    // Histogram of load latencies (text sparkline over log buckets).
    for (kind, label) in [
        (WmmaKind::Load, "wmma.load"),
        (WmmaKind::Mma, "wmma.mma"),
        (WmmaKind::Store, "wmma.store"),
    ] {
        let lat = run.stats.wmma_latencies(kind);
        let buckets = [32u64, 64, 96, 128, 192, 256, 384, 512, 1024, u64::MAX];
        let mut counts = vec![0usize; buckets.len()];
        for &l in &lat {
            let i = buckets
                .iter()
                .position(|&b| l <= b)
                .unwrap_or(buckets.len() - 1);
            counts[i] += 1;
        }
        let total = lat.len().max(1);
        let mut rows = Vec::new();
        let mut lo = 0u64;
        for (i, &b) in buckets.iter().enumerate() {
            if counts[i] > 0 {
                let bar = "#".repeat((counts[i] * 50 / total).max(1));
                rows.push(vec![
                    if b == u64::MAX {
                        format!(">{lo}")
                    } else {
                        format!("{lo}-{b}")
                    },
                    counts[i].to_string(),
                    bar,
                ]);
            }
            lo = b;
        }
        print_table(
            &format!("{label} latency histogram"),
            &["cycles", "count", ""],
            &rows,
        );
    }

    println!("\nPaper shape: occasional high latencies from scheduling/memory traffic;");
    println!("mma latency is tightest; load shows the widest spread. Observed spreads:");
    for (kind, label) in [
        (WmmaKind::Load, "load"),
        (WmmaKind::Mma, "mma"),
        (WmmaKind::Store, "store"),
    ] {
        let lat = run.stats.wmma_latencies(kind);
        let d = Distribution::of(&lat).expect("samples");
        println!("  {label}: max/min = {:.1}", d.max as f64 / d.min as f64);
    }
}
