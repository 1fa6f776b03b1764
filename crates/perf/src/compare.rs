//! Sets of runs and their comparison.
//!
//! `tcsim-perf set` runs every workload several times — each run its own
//! child process, each with another seed — and writes the result lines to
//! one file; `tcsim-perf compare A B` holds two such files against the
//! bounds in `BENCHMARK.json`.

use crate::report::{Better, MetricSpec, Spec};
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use tcsim_serve::json::{self, JsonValue};
use tcsim_sim::JsonWriter;

/// One run's result line with the arguments that produced it.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Seed of the run.
    pub seed: u64,
    /// Whether it was the traced run.
    pub traced: bool,
    /// What the run printed.
    pub result: ResultLine,
}

/// The fields of a result line.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultLine {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses one result line as printed by `tcsim-perf run`.
pub fn parse_result_line(line: &str) -> Result<ResultLine, String> {
    let v = json::parse(line).map_err(|e| format!("bad result line: {e}"))?;
    let correct = v
        .get("correct")
        .and_then(JsonValue::as_bool)
        .ok_or("result line: missing `correct`")?;
    let count = |k: &str| {
        v.u64_field(k)
            .ok_or_else(|| format!("result line: missing count `{k}`"))
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    let JsonValue::Object { members, .. } = v.get("metrics").ok_or("result line: no `metrics`")?
    else {
        return Err("result line: `metrics` is not an object".into());
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in members {
        let value = m
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("metric {name}: missing numeric `value`"))?;
        metrics.insert(name.clone(), value);
    }
    Ok(ResultLine {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Runs this executable as `run --workload W --seed S --seconds N
/// --trace T` and returns the record of its last output line.
pub fn spawn_run(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start run of {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "run of {workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    Ok(RunRecord {
        workload: workload.to_string(),
        seed,
        traced,
        result: parse_result_line(last)?,
    })
}

/// Serialises records as the set file: `{"runs":[...]}`.
pub fn set_to_json(records: &[RunRecord]) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            let mut m = JsonWriter::object();
            for (k, v) in &r.result.metrics {
                m.raw_field(k, &crate::report::fmt_value(*v));
            }
            let mut w = JsonWriter::object();
            w.field_str("workload", &r.workload);
            w.field_u64("seed", r.seed);
            w.raw_field("traced", if r.traced { "true" } else { "false" });
            w.raw_field("correct", if r.result.correct { "true" } else { "false" });
            w.field_u64("attempted", r.result.attempted);
            w.field_u64("failed", r.result.failed);
            w.raw_field("metrics", &m.finish());
            w.finish()
        })
        .collect();
    format!("{{\"runs\":[\n{}\n]}}\n", rows.join(",\n"))
}

/// Parses a set file.
pub fn set_from_json(text: &str) -> Result<Vec<RunRecord>, String> {
    let v = json::parse(text).map_err(|e| format!("bad set file: {e}"))?;
    let runs = v
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or("set file: missing array `runs`")?;
    runs.iter()
        .map(|r| {
            let JsonValue::Object { members, .. } =
                r.get("metrics").ok_or("set file: run without `metrics`")?
            else {
                return Err("set file: `metrics` is not an object".to_string());
            };
            let count = |k: &str| {
                r.u64_field(k)
                    .ok_or_else(|| format!("set file: run without `{k}`"))
            };
            Ok(RunRecord {
                workload: r
                    .str_field("workload")
                    .ok_or("set file: run without `workload`")?
                    .to_string(),
                seed: count("seed")?,
                traced: r
                    .get("traced")
                    .and_then(JsonValue::as_bool)
                    .ok_or("set file: run without `traced`")?,
                result: ResultLine {
                    correct: r
                        .get("correct")
                        .and_then(JsonValue::as_bool)
                        .ok_or("set file: run without `correct`")?,
                    attempted: count("attempted")?,
                    failed: count("failed")?,
                    metrics: members
                        .iter()
                        .filter_map(|(k, m)| Some((k.clone(), m.as_f64()?)))
                        .collect(),
                },
            })
        })
        .collect()
}

/// Reads and parses a set file.
pub fn read_set(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    set_from_json(&text)
}

/// Values of `metric` over the timed (or traced) runs of `workload`.
pub fn values(records: &[RunRecord], workload: &str, metric: &str, traced: bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.result.metrics.get(metric).copied())
        .collect()
}

/// One workload's point on the performance trajectory: quartiles of every
/// end-to-end metric over the set's timed runs, and the per-layer metrics
/// of its first traced run.
pub fn baseline_json(spec: &Spec, records: &[RunRecord], workload: &str) -> String {
    let mut e2e = JsonWriter::object();
    for m in &spec.end_to_end {
        let v = values(records, workload, &m.name, false);
        if v.len() < 2 {
            continue;
        }
        let [q1, q2, q3] = crate::stats::quartiles(&v);
        let mut w = JsonWriter::object();
        w.field_str("unit", &m.unit);
        w.field_u64("runs", v.len() as u64);
        for (k, x) in [("q1", q1), ("median", q2), ("q3", q3)] {
            w.raw_field(k, &crate::report::fmt_value(x));
        }
        w.raw_field(
            "quartile_spread",
            &crate::report::fmt_value(quartile_spread(&v)),
        );
        e2e.raw_field(&m.name, &w.finish());
    }
    let mut layers = JsonWriter::object();
    if let Some(r) = records.iter().find(|r| r.traced && r.workload == workload) {
        for m in &spec.per_layer {
            if let Some(v) = r.result.metrics.get(&m.name) {
                let mut w = JsonWriter::object();
                w.raw_field("value", &crate::report::fmt_value(*v));
                w.field_str("unit", &m.unit);
                layers.raw_field(&m.name, &w.finish());
            }
        }
    }
    let mut top = JsonWriter::object();
    top.field_str("workload", workload);
    top.raw_field("end_to_end", &e2e.finish());
    top.raw_field("per_layer", &layers.finish());
    top.finish().replace("},\"", "},\n\"") + "\n"
}

/// Verdict on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's (or better).
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// One side's own quartile spread exceeds the bound, so the medians
    /// cannot be told apart at this bound.
    Unresolved,
    /// One side has no value: nothing was compared, which is a failure.
    Missing,
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of set A (the base of the ratio).
    pub base: f64,
    /// Median of set B.
    pub new: f64,
    /// Quartile spread of A as a share of its median.
    pub spread_a: f64,
    /// Quartile spread of B as a share of its median.
    pub spread_b: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// Whether the row restates another row of its workload (see
    /// [`is_derived`]): shown, but not counted and not gated on.
    pub derived: bool,
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when it is better; infinite when a base of 0 got worse at all).
pub fn worsening(m: &MetricSpec, base: f64, new: f64) -> f64 {
    let worse_by = match m.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base != 0.0 {
        worse_by / base.abs()
    } else if worse_by > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// The contract has every workload print every end-to-end metric, so
/// some are computed from the very samples of another: on the simulation
/// workloads a job is a unit, and `norm_jobs_per_s` and
/// `job_latency_ms_p50` come from the unit times `norm_warp_instr_per_s`
/// sums; on `serve_mix`, `norm_warp_instr_per_s` is `norm_jobs_per_s`
/// times the job set's instructions per job. One regression must not
/// count three times.
pub fn is_derived(workload: &str, metric: &str) -> bool {
    match metric {
        "norm_warp_instr_per_s" => workload == "serve_mix",
        "norm_jobs_per_s" | "job_latency_ms_p50" => workload != "serve_mix",
        _ => false,
    }
}

fn row(workload: &str, m: &MetricSpec, va: &[f64], vb: &[f64]) -> Row {
    let bound = m.bound.unwrap_or(0.0);
    let spread = |v: &[f64]| {
        if v.len() >= 2 {
            quartile_spread(v)
        } else {
            0.0
        }
    };
    let mid = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    let (spread_a, spread_b) = (spread(va), spread(vb));
    let (base, new) = (mid(va), mid(vb));
    let verdict = if va.is_empty() || vb.is_empty() {
        Verdict::Missing
    } else if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worsening(m, base, new) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    Row {
        workload: workload.to_string(),
        metric: m.name.clone(),
        base,
        new,
        spread_a,
        spread_b,
        bound,
        verdict,
        derived: is_derived(workload, &m.name),
    }
}

/// Failed ÷ attempted operations over every run of `workload`, or
/// nothing when the set has no run of it.
fn failed_share(records: &[RunRecord], workload: &str) -> Vec<f64> {
    let (failed, attempted) = records
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0, 0), |(f, a), r| {
            (f + r.result.failed, a + r.result.attempted)
        });
    if attempted == 0 {
        Vec::new()
    } else {
        vec![failed as f64 / attempted as f64]
    }
}

/// Compares two sets on every workload of `spec`: each end-to-end metric
/// over the timed runs, then the two metrics the issue fixes at bound 0
/// and the contract keeps out of `BENCHMARK.json` (a metric there may be
/// neither 0 nor undefined on a workload) — `ops_failed_share` over all
/// runs, where any failed operation in B is a regression, and
/// `ipc_mape_vs_hw_pct` from the traced runs of the workloads with GEMM
/// points. A workload × metric that one side lacks is `Missing`.
pub fn compare_sets(spec: &Spec, a: &[RunRecord], b: &[RunRecord]) -> Vec<Row> {
    let exact = |name: &str, unit: &str| MetricSpec {
        name: name.to_string(),
        unit: unit.to_string(),
        better: Better::Lower,
        bound: Some(0.0),
    };
    let (failed, mape) = (
        exact("ops_failed_share", "share"),
        exact("ipc_mape_vs_hw_pct", "%"),
    );
    let mut rows = Vec::new();
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            rows.push(row(
                w,
                m,
                &values(a, w, &m.name, false),
                &values(b, w, &m.name, false),
            ));
        }
        let mut r = row(w, &failed, &failed_share(a, w), &failed_share(b, w));
        if r.new > 0.0 || b.iter().any(|r| &r.workload == w && !r.result.correct) {
            r.verdict = Verdict::Regression;
        }
        rows.push(r);
        let traced = |set| values(set, w, "sim.ipc_mape_vs_hw_pct", true);
        let (va, vb) = (traced(a), traced(b));
        if va.iter().chain(&vb).any(|&v| v != 0.0) {
            rows.push(row(w, &mape, &va, &vb));
        }
    }
    rows
}

/// `(workload, seed, what)` of every simulated-machine count whose traced
/// value differs between the two sets at the same seed, and of every
/// traced run of A that B has no twin for (and every workload A has no
/// traced run of): what was not compared did not pass. The counts must
/// repeat bit for bit: a difference means the simulated machine changed,
/// not the host's speed.
pub fn exact_mismatches(
    spec: &Spec,
    a: &[RunRecord],
    b: &[RunRecord],
) -> Vec<(String, u64, String)> {
    let mut out = Vec::new();
    for w in &spec.workloads {
        let traced = |r: &&RunRecord| r.traced && &r.workload == w;
        if !a.iter().any(|r| traced(&r)) {
            out.push((w.clone(), 0, "A has no traced run".to_string()));
        }
        for ra in a.iter().filter(traced) {
            let Some(rb) = b.iter().filter(traced).find(|rb| rb.seed == ra.seed) else {
                out.push((w.clone(), ra.seed, "B has no traced run".to_string()));
                continue;
            };
            for m in spec.per_layer.iter().filter(|m| is_exact(m)) {
                if ra.result.metrics.get(&m.name) != rb.result.metrics.get(&m.name) {
                    out.push((w.clone(), ra.seed, m.name.clone()));
                }
            }
        }
    }
    out
}

/// Per-layer metrics that are counts or ratios of the *simulated*
/// machine, besides every `sm.*` metric. They repeat bit for bit at a
/// given seed, so a change that only makes the host faster leaves them
/// identical. (The `serve.*` counters are not listed: coalescing and
/// event order depend on thread timing.)
pub const EXACT: [&str; 16] = [
    "sim.cycles",
    "sim.warp_instr",
    "sim.launches",
    "sim.ipc",
    "sim.ipc_mape_vs_hw_pct",
    "core.hmma_steps",
    "core.fedp_stages",
    "core.hmma_occupancy",
    "mem.global_txns",
    "mem.l1_accesses",
    "mem.l1_miss_rate",
    "mem.l2_accesses",
    "mem.l2_miss_rate",
    "mem.dram_sectors",
    "trace.events",
    "trace.dropped",
];

/// Whether `m` is one of the simulated-machine metrics.
pub fn is_exact(m: &MetricSpec) -> bool {
    m.name.starts_with("sm.") || EXACT.contains(&m.name.as_str())
}

/// Whether the comparison passes: no gated row is a regression or
/// missing, and nothing exact differs or went uncompared.
pub fn passes(rows: &[Row], mismatches: &[(String, u64, String)]) -> bool {
    mismatches.is_empty()
        && !rows
            .iter()
            .any(|r| !r.derived && matches!(r.verdict, Verdict::Regression | Verdict::Missing))
}

/// The comparison as a table, one row per workload × metric, every ratio
/// with its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<10} {:<24} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "B/A", "iqr A", "iqr B", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<24} {:>14.4} {:>14.4} {:>8.4} {:>6.1}% {:>6.1}% {:>5.0}%  {}{}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            if r.base == r.new { 1.0 } else { r.new / r.base },
            r.spread_a * 100.0,
            r.spread_b * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
                Verdict::Missing => "MISSING",
            },
            if r.derived {
                " (derived, not gated)"
            } else {
                ""
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::parse(
            r#"{"command":["x"],"paths":["p"],"run_seconds":1,
            "workloads":[{"name":"w","why":"y"}],
            "end_to_end":[
              {"name":"setup_s","unit":"s","better":"lower","bound":0.25},
              {"name":"norm_warp_instr_per_s","unit":"1/s","better":"higher","bound":0.1},
              {"name":"norm_jobs_per_s","unit":"1/s","better":"higher","bound":0.1}],
            "per_layer":[{"name":"sim.cycles","unit":"cycles","better":"lower"},
                         {"name":"sim.ipc_mape_vs_hw_pct","unit":"%","better":"lower"},
                         {"name":"sim.launch_s","unit":"s","better":"lower"}]}"#,
        )
        .unwrap()
    }

    fn record(seed: u64, traced: bool, metrics: &[(&str, f64)]) -> RunRecord {
        RunRecord {
            workload: "w".into(),
            seed,
            traced,
            result: ResultLine {
                correct: true,
                attempted: 20,
                failed: 0,
                metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            },
        }
    }

    /// Timed runs with the given rates (`norm_jobs_per_s` is the derived
    /// copy, a tenth of the rate) and one traced run at seed 0.
    fn runs(rates: &[f64], traced_cycles: f64) -> Vec<RunRecord> {
        let mut v: Vec<RunRecord> = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let timed = [
                    ("norm_warp_instr_per_s", r),
                    ("norm_jobs_per_s", r / 10.0),
                    ("setup_s", 1.0 + 0.01 * i as f64),
                ];
                record(i as u64, false, &timed)
            })
            .collect();
        let traced = [
            ("sim.cycles", traced_cycles),
            ("sim.ipc_mape_vs_hw_pct", 40.0),
            ("sim.launch_s", 0.5),
        ];
        v.push(record(0, true, &traced));
        v
    }

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let spec = spec();
        let a = runs(&STEADY, 7.0);
        let same = compare_sets(&spec, &a, &a);
        assert!(same.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(passes(&same, &exact_mismatches(&spec, &a, &a)));
        // The two bound-0 metrics have rows of their own.
        assert_eq!(verdict(&same, "ops_failed_share"), Verdict::Ok);
        assert_eq!(verdict(&same, "ipc_mape_vs_hw_pct"), Verdict::Ok);
        // 20 % lower throughput against a 10 % bound.
        let slow: Vec<f64> = STEADY.iter().map(|v| v * 0.8).collect();
        let rows = compare_sets(&spec, &a, &runs(&slow, 7.0));
        let rate = rows
            .iter()
            .find(|r| r.metric == "norm_warp_instr_per_s")
            .unwrap();
        assert_eq!(rate.verdict, Verdict::Regression);
        assert!((rate.new / rate.base - 0.8).abs() < 1e-9);
        assert!(!passes(&rows, &[]));
        // Better is never a regression.
        let fast: Vec<f64> = STEADY.iter().map(|v| v * 1.5).collect();
        let rows = compare_sets(&spec, &a, &runs(&fast, 7.0));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        // A side noisier than the bound cannot resolve it — `setup_s` too.
        let mut noisy = runs(&[60.0, 100.0, 140.0, 80.0, 120.0], 7.0);
        for (i, r) in noisy.iter_mut().filter(|r| !r.traced).enumerate() {
            r.result.metrics.insert("setup_s".into(), 1.0 + i as f64);
        }
        let rows = compare_sets(&spec, &a, &noisy);
        assert_eq!(verdict(&rows, "norm_warp_instr_per_s"), Verdict::Unresolved);
        assert_eq!(verdict(&rows, "setup_s"), Verdict::Unresolved);
        assert!(render(&rows).contains("unresolved"));
        assert!(passes(&rows, &[]), "unresolved is reported, not failed");
    }

    #[test]
    fn a_derived_row_is_shown_but_not_gated() {
        let spec = spec();
        let a = runs(&STEADY, 7.0);
        let mut b = a.clone();
        for r in b.iter_mut().filter(|r| !r.traced) {
            *r.result.metrics.get_mut("norm_jobs_per_s").unwrap() *= 0.5;
        }
        let rows = compare_sets(&spec, &a, &b);
        let jobs = rows.iter().find(|r| r.metric == "norm_jobs_per_s").unwrap();
        assert!(jobs.derived && jobs.verdict == Verdict::Regression);
        assert!(render(&rows).contains("REGRESSION (derived, not gated)"));
        assert!(passes(&rows, &[]));
        // On `serve_mix` the roles are the other way round.
        assert!(is_derived("serve_mix", "norm_warp_instr_per_s"));
        assert!(!is_derived("serve_mix", "norm_jobs_per_s"));
        assert!(!is_derived("serve_mix", "job_latency_ms_p50"));
        assert!(!is_derived("w", "setup_s") && !is_derived("w", "peak_rss_mib"));
    }

    #[test]
    fn failed_operations_in_b_never_pass() {
        let spec = spec();
        let a = runs(&STEADY, 7.0);
        let mut b = a.clone();
        b[2].result.failed = 1;
        b[2].result.correct = false;
        let rows = compare_sets(&spec, &a, &b);
        let share = rows
            .iter()
            .find(|r| r.metric == "ops_failed_share")
            .unwrap();
        assert_eq!(share.verdict, Verdict::Regression);
        assert_eq!((share.base, share.new), (0.0, 1.0 / 120.0));
        assert!(!passes(&rows, &[]));
        // Equally many failures in A do not excuse them.
        assert!(!passes(&compare_sets(&spec, &b, &b), &[]));
        // A run marked incorrect fails the set even with `failed` at 0.
        let mut c = a.clone();
        c[0].result.correct = false;
        assert!(!passes(&compare_sets(&spec, &a, &c), &[]));
    }

    #[test]
    fn what_one_side_lacks_did_not_pass() {
        let spec = spec();
        let a = runs(&STEADY, 7.0);
        let mut b = a.clone();
        for r in &mut b {
            r.result.metrics.remove("setup_s");
        }
        let rows = compare_sets(&spec, &a, &b);
        assert_eq!(verdict(&rows, "setup_s"), Verdict::Missing);
        assert!(!passes(&rows, &[]));
        // The accuracy row needs both traced runs.
        let timed_only: Vec<RunRecord> = a.iter().filter(|r| !r.traced).cloned().collect();
        let rows = compare_sets(&spec, &a, &timed_only);
        assert_eq!(verdict(&rows, "ipc_mape_vs_hw_pct"), Verdict::Missing);
        // No twin, no identity check.
        assert_eq!(
            exact_mismatches(&spec, &a, &timed_only),
            vec![("w".to_string(), 0, "B has no traced run".to_string())]
        );
        assert_eq!(
            exact_mismatches(&spec, &timed_only, &a),
            vec![("w".to_string(), 0, "A has no traced run".to_string())]
        );
        assert!(!passes(&[], &exact_mismatches(&spec, &a, &timed_only)));
    }

    #[test]
    fn exact_counts_must_repeat_but_timings_need_not() {
        let spec = spec();
        let a = runs(&[1.0], 7.0);
        assert!(exact_mismatches(&spec, &a, &runs(&[1.0], 7.0)).is_empty());
        assert_eq!(
            exact_mismatches(&spec, &a, &runs(&[1.0], 8.0)),
            vec![("w".to_string(), 0, "sim.cycles".to_string())]
        );
    }

    #[test]
    fn a_worse_accuracy_is_a_regression_at_bound_zero() {
        let spec = spec();
        let a = runs(&STEADY, 7.0);
        let mut b = a.clone();
        let traced = b.iter_mut().find(|r| r.traced).unwrap();
        *traced
            .result
            .metrics
            .get_mut("sim.ipc_mape_vs_hw_pct")
            .unwrap() = 40.5;
        let rows = compare_sets(&spec, &a, &b);
        assert_eq!(verdict(&rows, "ipc_mape_vs_hw_pct"), Verdict::Regression);
    }

    #[test]
    fn set_files_round_trip() {
        let mut a = runs(&[1.5, 2.5], 7.0);
        a[1].result.failed = 3;
        a[1].result.correct = false;
        let back = set_from_json(&set_to_json(&a)).unwrap();
        assert_eq!(back.len(), a.len());
        for (x, y) in a.iter().zip(&back) {
            assert_eq!((x.seed, x.traced, &x.result), (y.seed, y.traced, &y.result));
        }
        assert!(set_from_json(r#"{"runs":[{"workload":"w","seed":1}]}"#).is_err());
    }

    #[test]
    fn result_lines_parse() {
        let line = r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"latency_ms":{"value":1.25,"unit":"ms"}}}"#;
        let r = parse_result_line(line).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (3, 0));
        assert_eq!(r.metrics["latency_ms"], 1.25);
        assert!(parse_result_line(r#"{"correct":true,"metrics":{}}"#).is_err());
    }
}
