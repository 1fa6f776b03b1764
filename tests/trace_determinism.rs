//! Determinism and schedule-fidelity contract of the trace subsystem:
//!
//! * the serialized Chrome trace of a launch is **byte-identical** from
//!   run to run, and identical whether the simulation executed on the
//!   calling thread or inside a parallel-sweep worker thread;
//! * the recorded HMMA set/step events reproduce the paper's Fig 9a/10
//!   schedule (Table III cadence) exactly;
//! * installing a tracer never changes the timing model's results.

use tcsim::core::VOLTA_MIXED_CUMULATIVE;
use tcsim::cutlass::{run_gemm, GemmKernel, GemmProblem};
use tcsim::sim::{Gpu, GpuConfig, SimOptions, Sweep};
use tcsim::trace::json::validate_json;
use tcsim::trace::{chrome_trace, EventKind, RingTracer, TraceEvent};

/// A mini GPU with a generously sized ring tracer installed at build time.
fn traced_gpu() -> Gpu {
    Gpu::new(SimOptions::new(GpuConfig::mini()).tracer(RingTracer::with_capacity(1 << 20)))
}

fn traced_chrome(size: usize) -> String {
    let mut gpu = traced_gpu();
    run_gemm(
        &mut gpu,
        GemmProblem::square(size),
        GemmKernel::WmmaShared,
        false,
    );
    chrome_trace(&gpu.trace_events())
}

#[test]
fn chrome_trace_is_byte_identical_run_to_run() {
    let a = traced_chrome(32);
    let b = traced_chrome(32);
    assert!(
        a.len() > 1000,
        "trace must be non-trivial ({} bytes)",
        a.len()
    );
    assert_eq!(a, b, "repeated runs must serialize byte-identically");
    validate_json(&a).expect("chrome trace is valid JSON");
}

#[test]
fn sweep_worker_trace_matches_serial() {
    // The same traced simulation, run inline and inside parallel-sweep
    // worker threads: every byte of the exported trace must agree,
    // regardless of which OS thread stepped the GPU.
    let serial = traced_chrome(32);
    let mut sweep = Sweep::new();
    for _ in 0..3 {
        // The tracer is an options-time choice now, so the job builds its
        // own traced GPU — still on the worker thread.
        sweep.add(GpuConfig::mini(), |_| {
            let mut gpu = traced_gpu();
            run_gemm(
                &mut gpu,
                GemmProblem::square(32),
                GemmKernel::WmmaShared,
                false,
            );
            chrome_trace(&gpu.trace_events())
        });
    }
    let out = sweep.run_parallel(3);
    for worker_trace in &out.results {
        assert_eq!(
            worker_trace, &serial,
            "worker-thread trace must match serial"
        );
    }
}

#[test]
fn trace_summary_is_deterministic_across_sweep() {
    // LaunchStats (including the integer-only TraceSummary) must be
    // byte-identical between serial and parallel execution.
    fn run() -> tcsim::sim::LaunchStats {
        let mut gpu = traced_gpu();
        run_gemm(
            &mut gpu,
            GemmProblem::square(32),
            GemmKernel::WmmaShared,
            false,
        )
        .stats
    }
    let serial = run();
    assert!(serial.trace.is_some());
    let mut sweep = Sweep::new();
    sweep.add(GpuConfig::mini(), |_| run());
    sweep.add(GpuConfig::mini(), |_| run());
    let out = sweep.run_parallel(2);
    for stats in &out.results {
        assert_eq!(stats, &serial);
    }
}

#[test]
fn hmma_steps_reproduce_fig10_schedule() {
    // One warp, one wmma.mma per k-slice: the traced set/step completions
    // must land exactly at the Fig 9a cumulative cycles after the first
    // HMMA's issue, and issues must follow the 10-cycle set pitch /
    // 2-cycle step interval of Table III.
    let mut gpu = traced_gpu();
    run_gemm(
        &mut gpu,
        GemmProblem::square(16),
        GemmKernel::WmmaSimple,
        true,
    );
    let events = gpu.trace_events();
    let first = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::HmmaStep { octet: 0, .. }))
        .expect("WMMA GEMM emits HMMA steps");
    let (sm, warp) = match first.kind {
        EventKind::HmmaStep { warp, .. } => (first.sm, warp),
        _ => unreachable!(),
    };
    let steps: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| {
            e.sm == sm
                && matches!(e.kind, EventKind::HmmaStep { octet: 0, warp: w, .. } if w == warp)
        })
        .take(16)
        .collect();
    assert_eq!(steps.len(), 16, "one wmma.mma = 4 sets x 4 steps");
    let base = steps[0].cycle;
    let expected_issue = [
        0u64, 2, 4, 6, 10, 12, 14, 16, 20, 22, 24, 26, 30, 32, 34, 36,
    ];
    for (i, e) in steps.iter().enumerate() {
        let EventKind::HmmaStep {
            set,
            step,
            complete,
            ..
        } = e.kind
        else {
            unreachable!()
        };
        assert_eq!(
            e.cycle - base,
            expected_issue[i],
            "issue cadence at index {i}"
        );
        assert_eq!(
            complete - base,
            u64::from(VOLTA_MIXED_CUMULATIVE[i]),
            "completion at index {i}"
        );
        assert_eq!(usize::from(set), i / 4 + 1);
        assert_eq!(usize::from(step), i % 4);
    }
}

#[test]
fn tracing_never_perturbs_the_timing_model() {
    let mut plain = Gpu::new(GpuConfig::mini());
    let a = run_gemm(
        &mut plain,
        GemmProblem::square(32),
        GemmKernel::WmmaShared,
        false,
    )
    .stats;
    let mut traced = traced_gpu();
    let mut b = run_gemm(
        &mut traced,
        GemmProblem::square(32),
        GemmKernel::WmmaShared,
        false,
    )
    .stats;
    assert!(a.trace.is_none());
    assert!(b.trace.is_some());
    b.trace = None;
    assert_eq!(a, b, "observation must not change simulated timing");
}
