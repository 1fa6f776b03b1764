//! Timed and traced runs of `serve_mix`.

use crate::calib::{process_cpu_s, quiet, Normaliser, Timed};
use crate::probes;
use crate::report::{Metrics, RunResult, Spec};
use crate::runner::{peak_rss_mib, repeat_set_up, Options};
use crate::servewl::{
    batch, interactive, job_set, start_server, submission_order, Completed, Conn, JobSet,
    EVENT_TIMEOUT, PASSES,
};
use crate::span::Recorder;
use crate::stats::{median, percentile, range_pct};
use crate::tracerun::{root_coverage, write_spans};
use std::time::Instant;
use tcsim_serve::{ConfigId, ServerStats};

/// Distinct jobs of the interactive phase ([`PASSES`] submissions each:
/// 102 samples, so a p90 has ten samples beyond it).
pub const INTERACTIVE_JOBS: usize = 34;
/// Distinct jobs of one batch repetition.
pub const BATCH_JOBS: usize = 50;
/// Batch repetitions made even when the time budget is already spent.
pub const MIN_BATCH_REPS: usize = 5;

/// Phase sizes for a run.
pub fn sizes(smoke: bool) -> (usize, usize) {
    if smoke {
        (10, 12)
    } else {
        (INTERACTIVE_JOBS, BATCH_JOBS)
    }
}

/// Builds the job set with its serial goldens and starts and stops a
/// server once (see [`repeat_set_up`]). Returns the set, the scaled
/// seconds of each repetition and the number of serial runs made.
pub fn set_up(
    seed: u64,
    jobs: usize,
    norm: &mut Normaliser,
    smoke: bool,
) -> (JobSet, Vec<f64>, u64) {
    let mut attempted = 0;
    let (set, setup_s) = repeat_set_up(norm, smoke, || {
        let set = job_set(seed, jobs);
        start_server().shutdown();
        attempted += set.attempted;
        set
    });
    (set, setup_s, attempted)
}

/// Runs `f` on a connection to a fresh server, then closes both.
pub fn with_server<T>(f: impl FnOnce(&mut Conn) -> T) -> T {
    let server = start_server();
    let mut conn = Conn::open(server.local_addr(), EVENT_TIMEOUT);
    let out = f(&mut conn);
    conn.close();
    server.shutdown();
    out
}

/// The timed run: every end-to-end metric.
pub fn timed_run(spec: &Spec, opts: Options) -> RunResult<'_> {
    let (n_inter, n_batch) = sizes(opts.smoke);
    let mut norm = Normaliser::new();
    let (set, setup_s, mut attempted) =
        set_up(opts.seed, n_inter.max(n_batch), &mut norm, opts.smoke);
    let t0 = Instant::now();

    let inter = with_server(|conn| interactive(conn, &set, n_inter, opts.seed));

    let min_reps = if opts.smoke { 1 } else { MIN_BATCH_REPS };
    let mut reps: Vec<Timed> = Vec::new();
    let mut batch_done = Vec::new();
    let (mut cpu_s, mut wall_s) = (0.0, 0.0);
    let mut longest = 0.0f64;
    norm.resync();
    while reps.len() < min_reps || t0.elapsed().as_secs_f64() + longest < opts.seconds {
        let started = Instant::now();
        let rep_seed = opts.seed.wrapping_add(reps.len() as u64);
        let (((done, secs), cpu), timed) = norm.time(|| {
            let cpu0 = process_cpu_s();
            let rep = with_server(|conn| batch(conn, &set, n_batch, rep_seed));
            (rep, process_cpu_s().zip(cpu0).map(|(c1, c0)| c1 - c0))
        });
        if let Some(cpu) = cpu {
            cpu_s += cpu;
            wall_s += timed.raw_s;
        }
        // The repetition proper: first send to last `done`, without the
        // server's start and shutdown.
        reps.push(Timed {
            raw_s: secs,
            ..timed
        });
        batch_done.extend(done);
        longest = longest.max(started.elapsed().as_secs_f64());
    }
    // Share of a repetition this process spent on a CPU; the rest it
    // waited (today: on Nagle and delayed-ACK timers), and waiting is not
    // scaled. Where `/proc` cannot say, everything is scaled.
    let cpu_share = if wall_s > 0.0 {
        (cpu_s / wall_s).min(1.0)
    } else {
        1.0
    };

    let failed = inter.iter().chain(&batch_done).filter(|c| !c.ok).count() as u64;
    attempted += (inter.len() + batch_done.len()) as u64;
    let jobs_per_rep = (n_batch * PASSES) as f64;
    let instr_per_rep: u64 =
        set.jobs[..n_batch].iter().map(|j| j.instr).sum::<u64>() * PASSES as u64;
    let scaled: Vec<f64> = reps.iter().map(|t| t.scaled_s(cpu_share)).collect();
    let norm_rep = quiet(&scaled);
    // A job that failed, was rejected or timed out is a failed operation,
    // not a latency sample.
    let latencies_ms: Vec<f64> = inter
        .iter()
        .filter(|c| c.ok)
        .map(|c| c.latency_s * 1e3)
        .collect();

    let mut m = Metrics::new(&spec.end_to_end);
    m.set("setup_s", median(&setup_s));
    m.set("norm_jobs_per_s", jobs_per_rep / norm_rep);
    m.set("job_latency_ms_p50", median(&latencies_ms));
    m.set("peak_rss_mib", peak_rss_mib());
    // Printed because the contract has every workload print every
    // end-to-end metric: the instructions of the results delivered, so
    // `norm_jobs_per_s` times a constant (`compare` marks it derived).
    m.set("norm_warp_instr_per_s", instr_per_rep as f64 / norm_rep);
    let raw: Vec<f64> = reps.iter().map(|t| t.raw_s).collect();
    println!(
        "# {} interactive samples; {} batch repetitions, raw median {:.3} s, on-CPU share {:.2}; calibration median {:.2} ms",
        inter.len(),
        reps.len(),
        median(&raw),
        cpu_share,
        median(&norm.samples) * 1e3
    );
    RunResult {
        attempted,
        failed,
        metrics: m,
    }
}

/// Batch repetitions of a traced run.
pub const TRACED_BATCH_REPS: usize = 3;

fn add_counters(total: &mut ServerStats, s: &ServerStats) {
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
    total.coalesced += s.coalesced;
    total.rejected += s.rejected;
    total.failed += s.failed;
}

/// The traced run: spans around every job as the client sees it, the
/// stage probes, and every per-layer metric (0 for the simulator-trace
/// metrics, which need a `RingTracer` the server does not expose).
pub fn traced_run(spec: &Spec, opts: Options) -> RunResult<'_> {
    let (n_inter, n_batch) = sizes(opts.smoke);
    let mut norm = Normaliser::new();
    let (set, _, mut attempted) = set_up(opts.seed, n_inter.max(n_batch), &mut norm, true);
    let mut rec = Recorder::new();
    let root = rec.enter("trace:serve_mix");
    let mut counters = ServerStats::default();
    let mut reorders = 0;

    // Interactive phase, one span per job with its send and wait parts.
    let phase = rec.enter("serve.interactive");
    let (inter, rtt_ms) = with_server(|conn| {
        conn.count_bytes = true;
        let mut inter = Vec::new();
        for idx in submission_order(n_inter, opts.seed) {
            rec.next_op();
            let job = rec.enter("serve.job");
            let send = rec.enter("serve.send");
            conn.submit(&set, idx);
            rec.exit(send);
            let wait = rec.enter("serve.wait");
            inter.push(conn.next_done(&set));
            rec.exit(wait);
            rec.exit(job);
        }
        let rtt_ms: Vec<f64> = (0..10).map(|_| conn.stats_round_trip().0 * 1e3).collect();
        add_counters(&mut counters, &conn.stats_round_trip().1);
        reorders += conn.reorders;
        (inter, rtt_ms)
    });
    rec.exit(phase);
    norm.resync();

    // Batch phase: jobs overlap, so their spans are recorded afterwards.
    let reps = if opts.smoke { 1 } else { TRACED_BATCH_REPS };
    let mut rep_s = Vec::new();
    let mut batch_done = Vec::new();
    for rep in 0..reps {
        let phase = rec.enter("serve.batch");
        let (done, secs) = with_server(|conn| {
            let rep = batch(conn, &set, n_batch, opts.seed.wrapping_add(rep as u64));
            add_counters(&mut counters, &conn.stats_round_trip().1);
            reorders += conn.reorders;
            rep
        });
        for c in &done {
            let start = rec.ns_of(c.sent);
            let op = rec.next_op();
            rec.record("serve.job", start, start + (c.latency_s * 1e9) as u64, op);
        }
        rec.exit(phase);
        norm.resync();
        rep_s.push(secs);
        batch_done.extend(done);
    }

    let mut m = Metrics::new(&spec.per_layer);
    let probe_span = rec.enter("probes");
    let mut bench = probes::Bench {
        rec: &mut rec,
        norm: &mut norm,
    };
    probes::common(&mut bench, &mut m, &ConfigId::Mini.to_config());
    probes::serve(&mut bench, &mut m, &set);
    rec.exit(probe_span);
    rec.exit(root);

    let batch_jobs = &set.jobs[..n_batch];
    let instr: u64 = batch_jobs.iter().map(|j| j.instr).sum();
    let cycles: u64 = batch_jobs.iter().map(|j| j.cycles).sum();
    let calib_ms: Vec<f64> = norm.samples.iter().map(|s| s * 1e3).collect();
    m.set("host.calib_ms_p50", median(&calib_ms));
    m.set("host.calib_spread_pct", range_pct(&calib_ms));
    m.set("host.raw_pass_s_p50", median(&rep_s));
    m.set("host.raw_pass_spread_pct", range_pct(&rep_s));
    m.set(
        "host.raw_warp_instr_per_s",
        (instr * PASSES as u64) as f64 / median(&rep_s),
    );
    m.set("sim.cycles", cycles as f64);
    m.set("sim.warp_instr", instr as f64);
    m.set("sim.launches", n_batch as f64);
    m.set("sim.ipc", instr as f64 / cycles as f64);

    // A job that failed, was rejected or timed out is a failed operation,
    // not a sample.
    let served: Vec<&Completed> = inter.iter().filter(|c| c.ok).collect();
    let ms = |sel: &dyn Fn(&Completed) -> bool| -> Vec<f64> {
        served
            .iter()
            .filter(|c| sel(c))
            .map(|c| c.latency_s * 1e3)
            .collect()
    };
    let (all, hits, misses) = (ms(&|_| true), ms(&|c| c.cached), ms(&|c| !c.cached));
    m.set(
        "serve.job_latency_ms_p90",
        percentile(&all, 90.0).unwrap_or(0.0),
    );
    m.set("serve.hit_latency_ms_p50", median(&hits));
    m.set("serve.miss_latency_ms_p50", median(&misses));
    m.set("serve.rtt_floor_ms", median(&rtt_ms));
    let server_us: Vec<f64> = served.iter().map(|c| c.server_latency_us as f64).collect();
    m.set("serve.server_latency_us_p50", median(&server_us));
    m.set(
        "serve.bytes_per_job",
        served.iter().map(|c| c.bytes).sum::<u64>() as f64 / served.len() as f64,
    );
    m.set("serve.cache_hits", counters.cache_hits as f64);
    m.set("serve.cache_misses", counters.cache_misses as f64);
    m.set("serve.coalesced", counters.coalesced as f64);
    m.set("serve.rejected", counters.rejected as f64);
    m.set("serve.failed", counters.failed as f64);
    m.set("serve.event_reorders", reorders as f64);
    m.zero_fill();

    println!(
        "# top-level spans cover {:.1}% of the traced run; job set {}",
        100.0 * root_coverage(&rec),
        set.digest
    );
    write_spans(&rec, "serve_mix");
    let failed = inter.iter().chain(&batch_done).filter(|c| !c.ok).count() as u64;
    attempted += (inter.len() + batch_done.len()) as u64;
    RunResult {
        attempted,
        failed,
        metrics: m,
    }
}
