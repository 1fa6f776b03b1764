//! `tcsim-prof` — cycle-level trace profiler for the simulator.
//!
//! Runs a 64×64×64 WMMA GEMM with a [`RingTracer`]
//! installed and emits:
//!
//! * a Chrome `trace_event` JSON file (`--out`, default
//!   `results/prof_gemm64.trace.json`) loadable in `chrome://tracing`
//!   and Perfetto — one track per SM sub-core and tensor-core octet;
//! * the plain-text Fig 10-style HMMA step-cadence timeline;
//! * the trace-derived metrics: stall-reason breakdown, per-interval
//!   IPC and tensor-pipe occupancy.
//!
//! `--overhead-guard` instead runs the same GEMM twice — untraced
//! (NullTracer, the default) and traced — and asserts the timing model
//! is byte-identical in both, i.e. observation never perturbs the
//! simulation. CI runs both modes: the export through
//! `tests/figures_golden.rs`, the guard in `scripts/ci.sh`.

use tcsim_bench::{fnum, print_table};
use tcsim_cutlass::{run_gemm, GemmKernel, GemmProblem};
use tcsim_sim::{Gpu, GpuConfig, SimOptions};
use tcsim_trace::{
    chrome_trace, hmma_step_timeline, interval_ipc, json::validate_json, EventKind, RingTracer,
    TraceSummary,
};

/// The traced GEMM's size.
const SIZE: usize = 64;

struct ProfArgs {
    out: String,
    overhead_guard: bool,
}

fn parse_args() -> ProfArgs {
    let mut out = ProfArgs {
        out: String::from("results/prof_gemm64.trace.json"),
        overhead_guard: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out.out = args.next().expect("--out requires a path"),
            "--overhead-guard" => out.overhead_guard = true,
            _ => {}
        }
    }
    out
}

fn main() {
    let args = parse_args();
    let problem = GemmProblem::square(SIZE);
    let kernel = GemmKernel::WmmaShared;

    if args.overhead_guard {
        overhead_guard(problem, kernel);
        return;
    }

    println!(
        "tcsim-prof: tracing a {}x{}x{} WMMA GEMM (shared-memory kernel, Titan V config)",
        problem.m, problem.n, problem.k
    );
    let mut gpu =
        Gpu::new(SimOptions::new(GpuConfig::titan_v()).tracer(RingTracer::with_capacity(1 << 21)));
    let run = run_gemm(&mut gpu, problem, kernel, true);
    let events = gpu.trace_events();
    let dropped = gpu.tracer().dropped();

    let hmma_events = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::HmmaStep { .. }))
        .count();
    assert!(
        hmma_events > 0,
        "a WMMA GEMM must emit HMMA set/step events"
    );

    // Chrome trace_event export, validated before it is written.
    let chrome = chrome_trace(&events);
    validate_json(&chrome).expect("chrome trace must be valid JSON");
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&args.out, &chrome).expect("write trace file");
    println!(
        "wrote {} ({} events, {} HMMA steps, {} dropped) — open in chrome://tracing or Perfetto",
        args.out,
        events.len(),
        hmma_events,
        dropped
    );

    // Fig 10-style step cadence of the first traced warp.
    println!("\n{}", hmma_step_timeline(&events, 72));

    // Derived metrics.
    let summary = TraceSummary::from_events(&events, dropped);
    let mut rows = Vec::new();
    for (name, count, cycles) in summary.stall_table() {
        rows.push(vec![
            name.to_string(),
            count.to_string(),
            cycles.to_string(),
        ]);
    }
    print_table(
        "Stall breakdown",
        &["reason", "events", "stall cycles"],
        &rows,
    );
    println!(
        "\nlaunch: {} cycles, {} instructions, IPC {}",
        run.stats.cycles,
        run.stats.instructions,
        fnum(run.stats.ipc(), 2)
    );
    println!(
        "trace window: cycles {}..{}, trace IPC {}, tensor-pipe occupancy {}%",
        summary.first_cycle,
        summary.last_cycle,
        fnum(summary.ipc(), 2),
        fnum(summary.hmma_occupancy() * 100.0, 1)
    );
    let intervals = interval_ipc(&events, 512);
    let peak = intervals.iter().map(|i| i.ipc).fold(0.0f64, f64::max);
    println!(
        "per-interval IPC (512-cycle windows): {} intervals, peak {}",
        intervals.len(),
        fnum(peak, 2)
    );
    if let Some(trace) = &run.stats.trace {
        assert_eq!(trace, &summary, "LaunchStats must carry the same summary");
    } else {
        panic!("tracer installed but LaunchStats.trace is None");
    }
    if let Some(err) = run.max_abs_err {
        println!("verification: max |err| = {err}");
    }
}

/// Runs the same problem untraced and traced; the timing model must not
/// notice the observer.
fn overhead_guard(problem: GemmProblem, kernel: GemmKernel) {
    use std::time::Instant;
    println!(
        "tcsim-prof --overhead-guard: {}x{}x{} GEMM untraced vs traced",
        problem.m, problem.n, problem.k
    );
    let t0 = Instant::now();
    let mut gpu_null = Gpu::new(GpuConfig::titan_v());
    let base = run_gemm(&mut gpu_null, problem, kernel, false);
    let untraced = t0.elapsed();

    let t1 = Instant::now();
    let mut gpu_ring =
        Gpu::new(SimOptions::new(GpuConfig::titan_v()).tracer(RingTracer::with_capacity(1 << 21)));
    let traced = run_gemm(&mut gpu_ring, problem, kernel, false);
    let traced_wall = t1.elapsed();

    // Strip the trace summary (present only on the traced run) and
    // compare everything else exactly.
    let mut a = base.stats.clone();
    let mut b = traced.stats.clone();
    a.trace = None;
    b.trace = None;
    assert_eq!(a, b, "tracing must not change simulation results");
    assert!(
        b.to_json() == a.to_json(),
        "stripped stats serialize identically"
    );
    println!(
        "identical LaunchStats ({} cycles); wall: untraced {:.1} ms, traced {:.1} ms",
        a.cycles,
        untraced.as_secs_f64() * 1e3,
        traced_wall.as_secs_f64() * 1e3
    );
    println!("overhead guard passed");
}
