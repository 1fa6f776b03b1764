//! `tcsim-loadgen`: a seeded open-loop load generator and benchmark
//! client for `tcsim-serve`.
//!
//! ```text
//! tcsim-loadgen --connect ADDR [--corpus DIR] [--gen N] [--repeat K]
//!               [--rate R] [--seed S] [--json PATH] [--smoke]
//!               [--min-hit-rate X] [--expect-digest PATH] [--shutdown]
//! ```
//!
//! The workload is the conformance corpus (`--corpus`, default
//! `tests/corpus`) plus `--gen N` generator-derived cases, the whole mix
//! repeated `--repeat K` times. With `--rate R` jobs/s the submissions
//! follow a seeded open-loop Poisson arrival process (exponential
//! inter-arrivals from the workspace xorshift64* PRNG); with the default
//! rate 0 they are submitted back-to-back. `--smoke` submits the whole
//! workload as one `batch` request — the CI path.
//!
//! The report (stdout, and `--json PATH`) carries throughput, cache hit
//! rate, client-side p50/p95/p99 latency, and `results_digest` — an
//! FNV-1a/128 digest over every completion's `(id, key, output digest,
//! stats JSON)` in id order. Two runs of the same workload must agree on
//! the digest whether results were computed or cached; `--expect-digest
//! PREV.json` enforces that against a previous report and
//! `--min-hit-rate X` turns the hit rate into an exit code, which is how
//! the CI smoke pins the warm pass.

use std::collections::HashMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};
use tcsim_check::corpus::case_from_text;
use tcsim_check::gen::{generate, GenConfig, KindSel};
use tcsim_check::oracle::Case;
use tcsim_check::rng::ExpArrivals;
use tcsim_serve::{Client, Event, JobSpec, Request};
use tcsim_trace::hash::Fnv128;
use tcsim_trace::json::{self, JsonWriter};

struct Args {
    connect: String,
    corpus: PathBuf,
    gen: u64,
    repeat: u32,
    rate: f64,
    seed: u64,
    json_path: Option<PathBuf>,
    smoke: bool,
    min_hit_rate: Option<f64>,
    expect_digest: Option<PathBuf>,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        connect: String::new(),
        corpus: PathBuf::from("tests/corpus"),
        gen: 0,
        repeat: 1,
        rate: 0.0,
        seed: 1,
        json_path: None,
        smoke: false,
        min_hit_rate: None,
        expect_digest: None,
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    fn value(name: &str, it: &mut std::iter::Skip<std::env::Args>) -> Result<String, String> {
        it.next().ok_or_else(|| format!("{name} needs a value"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connect" => args.connect = value("--connect", &mut it)?,
            "--corpus" => args.corpus = PathBuf::from(value("--corpus", &mut it)?),
            "--gen" => {
                args.gen = value("--gen", &mut it)?
                    .parse()
                    .map_err(|e| format!("--gen: {e}"))?
            }
            "--repeat" => {
                args.repeat = value("--repeat", &mut it)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--rate" => {
                args.rate = value("--rate", &mut it)?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed", &mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--json" => args.json_path = Some(PathBuf::from(value("--json", &mut it)?)),
            "--smoke" => args.smoke = true,
            "--min-hit-rate" => {
                args.min_hit_rate = Some(
                    value("--min-hit-rate", &mut it)?
                        .parse()
                        .map_err(|e| format!("--min-hit-rate: {e}"))?,
                )
            }
            "--expect-digest" => {
                args.expect_digest = Some(PathBuf::from(value("--expect-digest", &mut it)?))
            }
            "--shutdown" => args.shutdown = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.connect.is_empty() {
        return Err("--connect ADDR is required".into());
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(args)
}

/// Loads the corpus `.case` files (sorted by name, so the workload is
/// stable) and appends `gen` generator cases derived from the seed.
fn build_workload(args: &Args) -> Result<Vec<JobSpec>, String> {
    let mut base: Vec<JobSpec> = Vec::new();
    if args.corpus.is_dir() {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&args.corpus)
            .map_err(|e| format!("cannot read {}: {e}", args.corpus.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "case"))
            .collect();
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let case = case_from_text(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            base.push(JobSpec::from_case(&case));
        }
    }
    let cfg = GenConfig {
        max_ops: 16,
        kind: KindSel::Auto,
        arch: None,
    };
    for i in 0..args.gen {
        let kernel_seed = args.seed.wrapping_add(i);
        let program = generate(kernel_seed, &cfg);
        let case = Case::from_program(&program, kernel_seed ^ 0xDA7A_5EED);
        base.push(JobSpec::from_case(&case));
    }
    if base.is_empty() {
        return Err(format!(
            "no jobs: {} has no .case files and --gen is 0",
            args.corpus.display()
        ));
    }
    let mut jobs = Vec::with_capacity(base.len() * args.repeat as usize);
    for _ in 0..args.repeat {
        jobs.extend(base.iter().cloned());
    }
    Ok(jobs)
}

struct Completion {
    kind: &'static str,
    key: String,
    cached: bool,
    output_fnv: String,
    stats_json: String,
    reason: String,
    latency_us: u64,
}

impl Completion {
    fn terminal(kind: &'static str, reason: String) -> Completion {
        Completion {
            kind,
            key: String::new(),
            cached: false,
            output_fnv: String::new(),
            stats_json: String::new(),
            reason,
            latency_us: 0,
        }
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    // Nearest-rank.
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let jobs = build_workload(args)?;
    let ids: Vec<String> = (0..jobs.len()).map(|i| format!("j{i:05}")).collect();

    let mut client =
        Client::connect(&args.connect).map_err(|e| format!("connect {}: {e}", args.connect))?;

    // Drain events on a dedicated thread so paced submission never
    // blocks behind a slow completion (open-loop, not closed-loop).
    let mut reader = client.split_reader().map_err(|e| format!("split: {e}"))?;
    let (tx, rx) = channel::<(Instant, Event)>();
    let reader_thread = std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            match Event::from_line(trimmed) {
                Ok(ev) => {
                    if tx.send((Instant::now(), ev)).is_err() {
                        break;
                    }
                }
                Err(e) => eprintln!("tcsim-loadgen: bad event line: {e}"),
            }
        }
    });

    // Submit: one batch line in smoke mode, paced singles otherwise.
    let started = Instant::now();
    let mut submitted_at: HashMap<String, Instant> = HashMap::new();
    if args.smoke {
        let pairs: Vec<(String, JobSpec)> = ids.iter().cloned().zip(jobs.iter().cloned()).collect();
        let now = Instant::now();
        for id in &ids {
            submitted_at.insert(id.clone(), now);
        }
        client
            .send(&Request::Batch { jobs: pairs })
            .map_err(|e| format!("batch submit: {e}"))?;
    } else {
        let mut arrivals = (args.rate > 0.0).then(|| ExpArrivals::new(args.seed, args.rate));
        let mut due = Instant::now();
        for (id, job) in ids.iter().zip(&jobs) {
            if let Some(arrivals) = arrivals.as_mut() {
                let inter = arrivals.next_interval();
                due += Duration::from_secs_f64(inter);
                if let Some(sleep) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(sleep);
                }
            }
            submitted_at.insert(id.clone(), Instant::now());
            client
                .send(&Request::Submit {
                    id: id.clone(),
                    job: job.clone(),
                })
                .map_err(|e| format!("submit {id}: {e}"))?;
        }
    }

    // Collect a terminal event per job.
    let mut completions: HashMap<String, Completion> = HashMap::new();
    let mut coalesced = 0u64;
    while completions.len() < jobs.len() {
        let (at, ev) = rx
            .recv_timeout(Duration::from_secs(300))
            .map_err(|_| "timed out waiting for completions".to_string())?;
        match ev {
            Event::Accepted {
                coalesced: true, ..
            } => coalesced += 1,
            Event::Accepted { .. } | Event::Running { .. } | Event::Stats(_) => {}
            Event::Done {
                id,
                key,
                cached,
                output_fnv,
                latency_us: _,
                stats_json,
            } => {
                let latency_us = submitted_at
                    .get(&id)
                    .map(|t| at.duration_since(*t).as_micros() as u64)
                    .unwrap_or(0);
                completions.insert(
                    id,
                    Completion {
                        kind: "done",
                        key,
                        cached,
                        output_fnv,
                        stats_json,
                        reason: String::new(),
                        latency_us,
                    },
                );
            }
            Event::Failed { id, reason } => {
                completions.insert(id, Completion::terminal("failed", reason));
            }
            Event::Rejected { id, reason } => {
                completions.insert(id, Completion::terminal("rejected", reason));
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();

    // Server-side counters for the report. The reply must come through
    // the same reader thread — a second reader on the shared socket
    // would race it for bytes.
    client
        .send(&Request::Stats)
        .map_err(|e| format!("stats request: {e}"))?;
    let server_stats = loop {
        let (_, ev) = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "timed out waiting for server stats".to_string())?;
        if let Event::Stats(s) = ev {
            break s;
        }
    };
    if args.shutdown {
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
    }
    // Shut the socket down (not just drop): the reader thread holds its
    // own descriptor clone and would otherwise block in read_line
    // forever, deadlocking the join below.
    let _ = client.close();
    drop(client);
    let _ = reader_thread.join();

    // Aggregate.
    let done: Vec<(&String, &Completion)> = ids
        .iter()
        .filter_map(|id| completions.get(id).map(|c| (id, c)))
        .filter(|(_, c)| c.kind == "done")
        .collect();
    let hits = done.iter().filter(|(_, c)| c.cached).count();
    let failed = completions.values().filter(|c| c.kind == "failed").count();
    let rejected = completions
        .values()
        .filter(|c| c.kind == "rejected")
        .count();
    let hit_rate = if done.is_empty() {
        0.0
    } else {
        hits as f64 / done.len() as f64
    };
    let mut lat: Vec<u64> = done.iter().map(|(_, c)| c.latency_us).collect();
    lat.sort_unstable();
    let (p50, p95, p99) = (
        percentile(&lat, 50.0),
        percentile(&lat, 95.0),
        percentile(&lat, 99.0),
    );

    // Deterministic digest of every completion's content, in id order.
    // Failures are included (their reasons are deterministic); rejects
    // are admission-timing artifacts and only counted.
    let mut digest = Fnv128::new();
    for (id, c) in ids
        .iter()
        .filter_map(|id| completions.get(id).map(|c| (id, c)))
    {
        digest.field(id.as_bytes());
        digest.field(c.kind.as_bytes());
        if c.kind == "done" {
            digest.field(c.key.as_bytes());
            digest.field(c.output_fnv.as_bytes());
            digest.field(c.stats_json.as_bytes());
        } else if c.kind == "failed" {
            digest.field(c.reason.as_bytes());
        }
    }
    let results_digest = digest.hex();

    let mut w = JsonWriter::object();
    w.field_str("schema", "tcsim-serve-loadgen-v1");
    w.field_u64("seed", args.seed);
    w.raw_field("rate_jobs_per_sec", &format!("{:.3}", args.rate));
    w.field_u64("jobs_submitted", ids.len() as u64);
    w.field_u64("done", done.len() as u64);
    w.field_u64("failed", failed as u64);
    w.field_u64("rejected", rejected as u64);
    w.field_u64("cache_hits", hits as u64);
    w.field_u64("coalesced", coalesced);
    w.field_f64("hit_rate", hit_rate);
    w.field_f64("wall_seconds", wall);
    w.raw_field(
        "throughput_jobs_per_sec",
        &format!("{:.3}", done.len() as f64 / wall.max(1e-9)),
    );
    w.field_u64("latency_p50_us", p50);
    w.field_u64("latency_p95_us", p95);
    w.field_u64("latency_p99_us", p99);
    w.field_str("results_digest", &results_digest);
    w.key("server").begin_object();
    w.field_u64("jobs_done", server_stats.jobs_done);
    w.field_u64("cache_hits", server_stats.cache_hits);
    w.field_u64("cache_misses", server_stats.cache_misses);
    w.field_u64("coalesced", server_stats.coalesced);
    w.field_u64("rejected", server_stats.rejected);
    w.field_u64("failed", server_stats.failed);
    w.field_u64("cache_entries", server_stats.cache_entries);
    w.end_object();
    let report = w.finish();
    println!("{report}");
    if let Some(path) = &args.json_path {
        std::fs::write(path, format!("{report}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    eprintln!(
        "tcsim-loadgen: {} job(s): {} done ({} cached, {:.0}% hit), {} failed, \
         {} rejected in {wall:.2}s (p50 {p50}us p95 {p95}us p99 {p99}us)",
        ids.len(),
        done.len(),
        hits,
        hit_rate * 100.0,
        failed,
        rejected
    );

    // Gates.
    if let Some(min) = args.min_hit_rate {
        if hit_rate < min {
            eprintln!("tcsim-loadgen: hit rate {hit_rate:.3} below required {min:.3}");
            return Ok(ExitCode::FAILURE);
        }
    }
    if let Some(prev_path) = &args.expect_digest {
        let prev_text = std::fs::read_to_string(prev_path)
            .map_err(|e| format!("cannot read {}: {e}", prev_path.display()))?;
        let prev = json::parse(&prev_text).map_err(|e| format!("{}: {e}", prev_path.display()))?;
        let want = prev
            .str_field("results_digest")
            .ok_or_else(|| format!("{}: no results_digest", prev_path.display()))?;
        if want != results_digest {
            eprintln!(
                "tcsim-loadgen: results digest {results_digest} differs from {} ({want})",
                prev_path.display()
            );
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tcsim-loadgen: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tcsim-loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
