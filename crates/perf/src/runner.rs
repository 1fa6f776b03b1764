//! Timed runs of the simulation workloads: repeated set-up, calibrated
//! passes until the time budget is spent, and the end-to-end metrics.

use crate::calib::{quiet, quiet_norm_s, Normaliser, Timed};
use crate::report::{Metrics, RunResult, Spec};
use crate::simwl::{shuffled, Outcome, SimWorkload};
use crate::stats::{median, range_pct};
use std::time::Instant;

/// How a run was asked for.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Seed for launch order, nn weights/inputs and the serve job set.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// One pass over the smallest sizes.
    pub smoke: bool,
}

/// Fewest set-ups per timed run: `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Set-ups are repeated beyond [`SETUP_REPS`] until they have taken this
/// long in total, so that a 20 ms set-up is not judged on five samples.
pub const SETUP_MIN_TOTAL_S: f64 = 1.5;
/// Most set-ups per timed run.
pub const SETUP_MAX_REPS: usize = 40;

/// Passes a timed run makes even when the budget is already spent.
pub const MIN_PASSES: usize = 3;

/// Runs `build` repeatedly — once for `smoke`, otherwise [`SETUP_REPS`]
/// times and on until the repetitions add up to [`SETUP_MIN_TOTAL_S`] (at
/// most [`SETUP_MAX_REPS`]) — each between calibration samples. Returns
/// the last result and the calibration-scaled seconds of every repetition.
/// The previous result is dropped before the next is built, so one
/// workload's buffers are resident at a time.
pub fn repeat_set_up<T>(
    norm: &mut Normaliser,
    smoke: bool,
    mut build: impl FnMut() -> T,
) -> (T, Vec<f64>) {
    let mut last = None;
    let mut setup_s = Vec::new();
    let mut raw_total = 0.0;
    loop {
        drop(last.take());
        let (built, timed) = norm.time(&mut build);
        raw_total += timed.raw_s;
        setup_s.push(timed.norm_s());
        let done = setup_s.len();
        let more = !smoke
            && (done < SETUP_REPS || (raw_total < SETUP_MIN_TOTAL_S && done < SETUP_MAX_REPS));
        if !more {
            return (built, setup_s);
        }
        last = Some(built);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not say.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A workload after set-up: its units' golden outcomes and what the
/// set-ups cost.
pub struct Ready {
    /// The workload.
    pub workload: SimWorkload,
    /// Per-unit outcome of the checked pass; later passes must reproduce
    /// its identity exactly.
    pub golden: Vec<Outcome>,
    /// Calibration-scaled seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Operations attempted during set-up (one output check per unit).
    pub attempted: u64,
    /// Output checks that failed.
    pub failed: u64,
}

/// Builds the workload (see [`repeat_set_up`]): inputs, kernels, and one
/// checked pass that verifies every unit's output and doubles as the
/// warm-up.
pub fn set_up(build: &dyn Fn() -> SimWorkload, norm: &mut Normaliser, smoke: bool) -> Ready {
    let (mut attempted, mut failed) = (0, 0);
    let ((workload, golden), setup_s) = repeat_set_up(norm, smoke, || {
        let workload = build();
        let golden: Vec<Outcome> = workload
            .units
            .iter()
            .map(|u| {
                attempted += 1;
                (u.check)().unwrap_or_else(|| {
                    failed += 1;
                    eprintln!("output check failed: {}", u.label);
                    (u.run)(false)
                })
            })
            .collect();
        (workload, golden)
    });
    Ready {
        workload,
        golden,
        setup_s,
        attempted,
        failed,
    }
}

/// Timings of the measured passes: `per_unit[k]` holds unit `k`'s sample
/// from every pass.
pub struct Passes {
    /// Per-unit samples, index-aligned with the workload's units.
    pub per_unit: Vec<Vec<Timed>>,
    /// Passes made.
    pub passes: usize,
    /// Identity checks made.
    pub attempted: u64,
    /// Identity checks failed.
    pub failed: u64,
}

impl Passes {
    /// Raw wall seconds of each pass (sum over its units).
    pub fn raw_pass_s(&self) -> Vec<f64> {
        (0..self.passes)
            .map(|p| self.per_unit.iter().map(|u| u[p].raw_s).sum())
            .collect()
    }

    /// Quiet-machine normalised seconds of each unit.
    pub fn quiet_unit_s(&self) -> Vec<f64> {
        self.per_unit.iter().map(|u| quiet_norm_s(u)).collect()
    }
}

/// Runs untraced passes in seeded order, each unit between calibration
/// samples, until `seconds` have gone by (and at least `min_passes`). Every
/// unit's statistics must equal the golden pass byte for byte.
pub fn measure(
    ready: &Ready,
    norm: &mut Normaliser,
    seed: u64,
    seconds: f64,
    min_passes: usize,
) -> Passes {
    let units = &ready.workload.units;
    let mut out = Passes {
        per_unit: vec![Vec::new(); units.len()],
        passes: 0,
        attempted: 0,
        failed: 0,
    };
    let t0 = Instant::now();
    let mut longest_pass = 0.0f64;
    loop {
        let started = t0.elapsed().as_secs_f64();
        if out.passes >= min_passes && started + longest_pass > seconds {
            break;
        }
        for k in shuffled(units.len(), seed, out.passes as u64) {
            let (o, timed) = norm.time(|| (units[k].run)(false));
            out.attempted += 1;
            if o.identity != ready.golden[k].identity {
                out.failed += 1;
                eprintln!(
                    "pass {}: {} statistics differ from pass 0",
                    out.passes, units[k].label
                );
            }
            out.per_unit[k].push(timed);
        }
        out.passes += 1;
        longest_pass = longest_pass.max(t0.elapsed().as_secs_f64() - started);
    }
    out
}

/// The timed run of a simulation workload: every end-to-end metric.
pub fn timed_run<'a>(
    spec: &'a Spec,
    build: &dyn Fn() -> SimWorkload,
    opts: Options,
) -> RunResult<'a> {
    let mut norm = Normaliser::new();
    let ready = set_up(build, &mut norm, opts.smoke);
    let min_passes = if opts.smoke { 1 } else { MIN_PASSES };
    let passes = measure(&ready, &mut norm, opts.seed, opts.seconds, min_passes);

    let units = &ready.workload.units;
    let instr: u64 = ready.golden.iter().map(|g| g.instr).sum();
    let quiet_s = passes.quiet_unit_s();
    let norm_pass: f64 = quiet_s.iter().sum();
    let unit_ms: Vec<f64> = quiet_s.iter().map(|q| q * 1e3).collect();

    // The contract has every workload print every end-to-end metric. A
    // job here is a unit (one `run_gemm` / chase launch / inference), so
    // the last two come from the same unit times as the first;
    // `compare` marks them derived and gates on the first alone.
    let mut m = Metrics::new(&spec.end_to_end);
    m.set("setup_s", median(&ready.setup_s));
    m.set("norm_warp_instr_per_s", instr as f64 / norm_pass);
    m.set("peak_rss_mib", peak_rss_mib());
    m.set("norm_jobs_per_s", units.len() as f64 / norm_pass);
    m.set("job_latency_ms_p50", median(&unit_ms));

    let raw = passes.raw_pass_s();
    println!(
        "# {} passes; raw pass median {:.3} s (spread {:.1}%); calibration quiet {:.2} ms, median {:.2} ms",
        passes.passes,
        median(&raw),
        range_pct(&raw),
        quiet(&norm.samples) * 1e3,
        median(&norm.samples) * 1e3,
    );
    for (u, (q, g)) in units.iter().zip(quiet_s.iter().zip(&ready.golden)) {
        println!(
            "#   {:<20} quiet norm {:8.2} ms  {:>9} warp-instr  {:>8} cycles",
            u.label,
            q * 1e3,
            g.instr,
            g.cycles
        );
    }
    RunResult {
        attempted: ready.attempted + passes.attempted,
        failed: ready.failed + passes.failed,
        metrics: m,
    }
}
