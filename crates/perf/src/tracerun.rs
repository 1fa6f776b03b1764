//! The traced run of a simulation workload: spans around every call into
//! a layer, a `RingTracer` on every launch for the simulated-side counts,
//! the functional replay, and the layer probes. Prints the per-layer
//! metrics; the gap between its traced and untraced passes is
//! `trace.overhead_share`.

use crate::calib::{quiet_norm_s, Normaliser, Timed, CALIB_REF_S};
use crate::probes;
use crate::replay::{replay, timer_overhead_s, Replay};
use crate::report::{Metrics, RunResult, Spec};
use crate::runner::{set_up, Options, Ready};
use crate::simwl::{shuffled, Outcome, SimWorkload};
use crate::span::Recorder;
use crate::stats::{median, range_pct};
use std::path::PathBuf;
use tcsim_nn::{Graph, Tensor};

/// Untraced and traced passes a traced run makes (each).
pub const PASSES: usize = 4;

/// Where span files go: `out/` beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Writes the recorder's spans to `out/<workload>.spans.json`; a failure
/// to write is reported, not fatal (the metrics do not depend on it).
pub fn write_spans(rec: &Recorder, workload: &str) {
    let dir = out_dir();
    let path = dir.join(format!("{workload}.spans.json"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_json()));
    match written {
        Ok(()) => println!(
            "# {} spans written to {}",
            rec.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Share of the root span's time that its children cover: the run is
/// attributed when this is close to 1.
pub fn root_coverage(rec: &Recorder) -> f64 {
    let spans = rec.spans();
    let Some(root) = spans.first() else {
        return 0.0;
    };
    let total = (root.end_ns - root.start_ns) as f64;
    if total == 0.0 {
        return 0.0;
    }
    1.0 - rec.self_times_ns()[0] as f64 / total
}

/// Samples and last outcomes of the untraced and the traced passes.
struct PassSet {
    /// Per-unit samples, `[untraced, traced]`, one entry per pass.
    per_unit: [Vec<Vec<Timed>>; 2],
    /// Outcomes of the last traced pass, index-aligned with the units.
    traced: Vec<Option<Outcome>>,
    attempted: u64,
    failed: u64,
}

/// Alternates untraced and traced passes, so both kinds see the same
/// stretch of wall time and their difference is the tracer's cost.
fn passes(
    ready: &Ready,
    rec: &mut Recorder,
    norm: &mut Normaliser,
    seed: u64,
    count: usize,
) -> PassSet {
    let units = &ready.workload.units;
    let mut out = PassSet {
        per_unit: [vec![Vec::new(); units.len()], vec![Vec::new(); units.len()]],
        traced: units.iter().map(|_| None).collect(),
        attempted: 0,
        failed: 0,
    };
    for pass in 0..2 * count {
        let traced = pass % 2 == 1;
        let kind = if traced {
            "sim.launch_traced"
        } else {
            "sim.launch"
        };
        let pass_span = rec.enter(format!("pass:{kind}"));
        for k in shuffled(units.len(), seed, pass as u64 / 2) {
            rec.next_op();
            let name = format!("{kind}:{}", units[k].label);
            let (o, timed) = norm.time(|| rec.span(name, || (units[k].run)(traced)));
            out.per_unit[usize::from(traced)][k].push(timed);
            if traced {
                out.traced[k] = Some(o);
                continue;
            }
            out.attempted += 1;
            if o.identity != ready.golden[k].identity {
                out.failed += 1;
                eprintln!(
                    "{}: statistics differ from the checked pass",
                    units[k].label
                );
            }
        }
        rec.exit(pass_span);
    }
    out
}

/// Replays of one unit: the fastest (after calibration scaling) is kept.
pub const REPLAY_REPS: usize = 3;

/// Replays every unit that has a launch descriptor; returns the merged
/// measurements (calibration-scaled), the indices of the replayed units,
/// and the number of checks attempted and failed.
fn replays(
    w: &SimWorkload,
    ready: &Ready,
    rec: &mut Recorder,
    norm: &mut Normaliser,
    reps: usize,
) -> (Replay, Vec<usize>, u64, u64) {
    let overhead = rec.span("host.timer_overhead", timer_overhead_s);
    let mut total = Replay::default();
    let mut replayed = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (k, u) in w.units.iter().enumerate() {
        let Some(spec) = &u.replay else { continue };
        rec.next_op();
        let mut best: Option<Replay> = None;
        for rep in 0..reps {
            let name = format!("isa.replay:{}", u.label);
            let ((mut r, mem, addrs), timed) =
                norm.time(|| rec.span(name, || replay(&spec.case, &w.cfg, overhead)));
            if rep == 0 {
                attempted += 1;
                let ok = rec.span("check:replay_output", || (spec.output_ok)(&mem, &addrs));
                if r.steps != ready.golden[k].instr || !ok {
                    failed += 1;
                    eprintln!(
                        "{}: replay executed {} warp instructions (launch: {}) or wrote wrong output",
                        u.label, r.steps, ready.golden[k].instr
                    );
                }
            }
            r.scale(CALIB_REF_S / timed.calib_s);
            if best
                .as_ref()
                .is_none_or(|b| r.exec_s() + r.mem_s() < b.exec_s() + b.mem_s())
            {
                best = Some(r);
            }
        }
        total.merge(&best.expect("at least one replay"));
        replayed.push(k);
    }
    (total, replayed, attempted, failed)
}

/// Fills the simulated-machine counts from the checked pass's statistics
/// and the traced pass's summaries. Units without `LaunchStats` (the
/// `nn_zoo` sweep) contribute only cycles, instructions and launches.
fn simulated_counts(m: &mut Metrics<'_>, ready: &Ready, traced: &[Option<Outcome>]) {
    let g = &ready.golden;
    let sum = |f: &dyn Fn(&Outcome) -> u64| g.iter().map(f).sum::<u64>() as f64;
    let (cycles, instr) = (sum(&|o| o.cycles), sum(&|o| o.instr));
    m.set("sim.cycles", cycles);
    m.set("sim.warp_instr", instr);
    m.set("sim.launches", sum(&|o| o.launches));
    m.set("sim.ipc", instr / cycles);

    let errs: Vec<f64> = ready
        .workload
        .units
        .iter()
        .zip(g)
        .filter_map(|(u, o)| Some((u.hw_cycles? / o.cycles as f64 - 1.0).abs() * 100.0))
        .collect();
    if !errs.is_empty() {
        m.set(
            "sim.ipc_mape_vs_hw_pct",
            errs.iter().sum::<f64>() / errs.len() as f64,
        );
    }

    let stats: Vec<_> = g.iter().flat_map(|o| &o.stats).collect();
    if !stats.is_empty() {
        let s = |f: &dyn Fn(&tcsim_sim::LaunchStats) -> u64| {
            stats.iter().map(|s| f(s)).sum::<u64>() as f64
        };
        m.set("mem.global_txns", s(&|s| s.sm.global_txns));
        let (l1, l1_miss) = (s(&|s| s.l1.accesses()), s(&|s| s.l1.misses));
        let (l2, l2_miss) = (s(&|s| s.l2.accesses()), s(&|s| s.l2.misses));
        m.set("mem.l1_accesses", l1);
        m.set(
            "mem.l1_miss_rate",
            if l1 > 0.0 { l1_miss / l1 } else { 0.0 },
        );
        m.set("mem.l2_accesses", l2);
        m.set(
            "mem.l2_miss_rate",
            if l2 > 0.0 { l2_miss / l2 } else { 0.0 },
        );
        m.set("mem.dram_sectors", s(&|s| s.dram_sectors));
        m.set("sm.active_cycles", s(&|s| s.sm.active_cycles));
        for (name, unit) in [
            ("sm.issued_sp", tcsim_isa::UnitClass::Sp),
            ("sm.issued_int", tcsim_isa::UnitClass::Int),
            ("sm.issued_tensor", tcsim_isa::UnitClass::Tensor),
            ("sm.issued_mem", tcsim_isa::UnitClass::Mem),
        ] {
            m.set(
                name,
                s(&|s| s.sm.issued_by_unit[tcsim_sm::unit_index(unit)]),
            );
        }
        m.set("sm.reg_bank_stalls", s(&|s| s.sm.reg_bank_stalls));
        m.set(
            "sm.shared_conflict_passes",
            s(&|s| s.sm.shared_conflict_passes),
        );
        m.set("sm.barriers", s(&|s| s.sm.barriers));
    }

    let traced: Vec<&Outcome> = traced.iter().flatten().collect();
    let summaries: Vec<_> = traced
        .iter()
        .flat_map(|o| &o.stats)
        .filter_map(|s| s.trace.as_ref())
        .collect();
    if !summaries.is_empty() {
        let t = |f: &dyn Fn(&tcsim_trace::TraceSummary) -> u64| {
            summaries.iter().map(|s| f(s)).sum::<u64>() as f64
        };
        for (name, reason) in [
            ("sm.stall_cycles_raw", tcsim_trace::StallReason::Raw),
            (
                "sm.stall_cycles_struct",
                tcsim_trace::StallReason::Structural,
            ),
            ("sm.stall_cycles_mem", tcsim_trace::StallReason::Memory),
            ("sm.stall_cycles_barrier", tcsim_trace::StallReason::Barrier),
        ] {
            m.set(name, t(&|s| s.stall_cycles[reason.index()]));
        }
        m.set("core.hmma_steps", t(&|s| s.hmma_steps));
        m.set("core.fedp_stages", t(&|s| s.fedp_stages));
        m.set("trace.events", t(&|s| s.events));
        m.set("trace.dropped", t(&|s| s.dropped));
    }
    let occ: Vec<f64> = traced
        .iter()
        .flat_map(|o| o.hmma_occupancy.iter().copied())
        .collect();
    if !occ.is_empty() {
        m.set(
            "core.hmma_occupancy",
            occ.iter().sum::<f64>() / occ.len() as f64,
        );
    }
}

/// The traced run: every per-layer metric (0 for layers the workload does
/// not exercise).
pub fn traced_run<'a>(
    spec: &'a Spec,
    name: &str,
    build: &dyn Fn() -> SimWorkload,
    nn_models: Option<&[(String, Graph, Tensor)]>,
    opts: Options,
) -> RunResult<'a> {
    let mut norm = Normaliser::new();
    let ready = set_up(build, &mut norm, true);
    let w = &ready.workload;
    let count = if opts.smoke { 1 } else { PASSES };
    let mut rec = Recorder::new();
    let root = rec.enter(format!("trace:{name}"));

    let ps = passes(&ready, &mut rec, &mut norm, opts.seed, count);
    let replay_reps = if opts.smoke { 1 } else { REPLAY_REPS };
    let replay_span = rec.enter("replays");
    let (rep, replayed, rep_attempted, rep_failed) =
        replays(w, &ready, &mut rec, &mut norm, replay_reps);
    rec.exit(replay_span);

    let mut m = Metrics::new(&spec.per_layer);
    let probe_span = rec.enter("probes");
    let mut bench = probes::Bench {
        rec: &mut rec,
        norm: &mut norm,
    };
    probes::common(&mut bench, &mut m, &w.cfg);
    if let Some(models) = nn_models {
        probes::nn(&mut bench, &mut m, &w.cfg, models, opts.seed);
    }
    rec.exit(probe_span);
    rec.exit(root);

    // Host-side figures.
    let [plain, traced] = &ps.per_unit;
    let quiet_plain: Vec<f64> = plain.iter().map(|u| quiet_norm_s(u)).collect();
    let quiet_traced: Vec<f64> = traced.iter().map(|u| quiet_norm_s(u)).collect();
    let launch_s: f64 = quiet_plain.iter().sum();
    let raw_pass: Vec<f64> = (0..count)
        .map(|p| plain.iter().map(|u| u[p].raw_s).sum())
        .collect();
    let calib_ms: Vec<f64> = norm.samples.iter().map(|s| s * 1e3).collect();
    let instr: u64 = ready.golden.iter().map(|g| g.instr).sum();
    m.set("host.calib_ms_p50", median(&calib_ms));
    m.set("host.calib_spread_pct", range_pct(&calib_ms));
    m.set("host.raw_pass_s_p50", median(&raw_pass));
    m.set("host.raw_pass_spread_pct", range_pct(&raw_pass));
    m.set(
        "host.raw_warp_instr_per_s",
        instr as f64 / median(&raw_pass),
    );
    m.set("sim.launch_s", launch_s);
    m.set(
        "trace.overhead_share",
        (quiet_traced.iter().sum::<f64>() - launch_s) / launch_s,
    );

    simulated_counts(&mut m, &ready, &ps.traced);

    if !replayed.is_empty() {
        let replayed_launch_s: f64 = replayed.iter().map(|&k| quiet_plain[k]).sum();
        m.set("isa.exec_replay_s", rep.exec_s());
        m.set("isa.exec_share", rep.exec_s() / replayed_launch_s);
        m.set("isa.simt_ns_per_instr", rep.simt.ns_per());
        m.set("core.wmma_load_ns", rep.wmma_load.ns_per());
        m.set("core.wmma_mma_ns", rep.wmma_mma.ns_per());
        m.set("core.wmma_store_ns", rep.wmma_store.ns_per());
        m.set("mem.coalesce_ns_per_instr", rep.coalesce.ns_per());
        m.set("mem.l1_access_ns_per_txn", rep.l1.ns_per());
        m.set("mem.sys_access_ns_per_txn", rep.sys.ns_per());
        m.set("mem.replay_s", rep.mem_s());
        m.set(
            "sim.timing_residual_share",
            1.0 - (rep.exec_s() + rep.mem_s()) / replayed_launch_s,
        );
    }
    m.zero_fill();

    println!(
        "# top-level spans cover {:.1}% of the traced run",
        100.0 * root_coverage(&rec)
    );
    write_spans(&rec, name);
    RunResult {
        attempted: ready.attempted + ps.attempted + rep_attempted,
        failed: ready.failed + ps.failed + rep_failed,
        metrics: m,
    }
}
