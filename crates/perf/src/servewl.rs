//! `serve_mix`: an in-process `tcsim-serve` server driven over real TCP
//! by the benchmark's own client.
//!
//! The client matches events to jobs by id over raw `Client::send` /
//! `Client::recv` and never uses `Client::run` / `Client::wait`: the
//! server sends `accepted` after it has enqueued the job, so `running` or
//! `done` can overtake it, and `wait` then fails on the next id. Every
//! such overtaking is counted ([`Conn::reorders`]). It reads events
//! through `Client::split_reader` with a read timeout, so a server that
//! stops answering costs failed operations, not a hung run.

use crate::simwl::shuffled;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use tcsim_check::corpus::case_from_text;
use tcsim_check::gen::{generate, GenConfig, KindSel};
use tcsim_check::oracle::Case;
use tcsim_serve::hash::Fnv128;
use tcsim_serve::{Client, Event, JobOutcome, JobSpec, Request, ServeOptions, Server, ServerStats};

/// The nine committed conformance cases, in file-name order.
const CORPUS: [&str; 9] = [
    include_str!("../../../tests/corpus/seed_mma_bf16.case"),
    include_str!("../../../tests/corpus/seed_mma_sparse.case"),
    include_str!("../../../tests/corpus/seed_nn_gelu.case"),
    include_str!("../../../tests/corpus/seed_nn_softmax.case"),
    include_str!("../../../tests/corpus/seed_simt_a.case"),
    include_str!("../../../tests/corpus/seed_simt_b.case"),
    include_str!("../../../tests/corpus/seed_wmma_a.case"),
    include_str!("../../../tests/corpus/seed_wmma_b.case"),
    include_str!("../../../tests/corpus/seed_wmma_f16acc.case"),
];

/// Generator seed of the first generated program.
const PROGRAM_SEED: u64 = 0x7C51_0000;

/// Jobs in flight in the batch phase.
pub const BATCH_WINDOW: usize = 16;
/// Longest the client waits for the next event (a job takes 88 ms today).
/// When it expires, every job in flight, and every later one on the
/// connection, is a failed operation.
pub const EVENT_TIMEOUT: Duration = Duration::from_secs(20);
/// Times each distinct job is submitted per phase: one cold pass and two
/// warm ones, a 2/3 hit rate.
pub const PASSES: usize = 3;

/// One distinct job with the result a serial run gives it.
pub struct Job {
    /// The job.
    pub spec: JobSpec,
    /// Its content hash.
    pub key: String,
    /// What `JobSpec::run` produced: the server must return exactly this,
    /// cold or cached.
    pub golden: JobOutcome,
    /// Simulated warp instructions of the job.
    pub instr: u64,
    /// Simulated cycles of the job.
    pub cycles: u64,
}

/// The seeded job set.
pub struct JobSet {
    /// Distinct jobs: the corpus first, then generated cases.
    pub jobs: Vec<Job>,
    /// Digest of the keys in order: equal seeds give equal digests.
    pub digest: String,
    /// Serial runs made to build the goldens.
    pub attempted: u64,
}

fn stat_field(stats_json: &str, name: &str) -> u64 {
    tcsim_serve::json::parse(stats_json)
        .ok()
        .and_then(|v| v.u64_field(name))
        .unwrap_or(0)
}

/// Builds `n` distinct jobs: the nine corpus cases plus generated mini-GPU
/// cases (the load generator's generator settings). The generated
/// *programs* are the same on every run — their instruction counts vary
/// fivefold from one to the next, and a job set whose work depended on the
/// seed would make throughput incomparable between seeds — while `seed`
/// draws every generated job's input data, and with it its cache key.
/// Generated cases whose serial run fails to launch are skipped, so no
/// operation of the workload fails by construction.
pub fn job_set(seed: u64, n: usize) -> JobSet {
    let cfg = GenConfig {
        max_ops: 16,
        kind: KindSel::Auto,
        arch: None,
    };
    let corpus = CORPUS
        .iter()
        .map(|text| case_from_text(text).expect("committed corpus case parses"));
    let generated = (0u64..).map(|i| {
        let data_seed = seed.wrapping_mul(1_000_003).wrapping_add(i) ^ 0xDA7A_5EED;
        Case::from_program(&generate(PROGRAM_SEED + i, &cfg), data_seed)
    });
    let mut jobs: Vec<Job> = Vec::new();
    let mut attempted = 0;
    for case in corpus.chain(generated) {
        if jobs.len() == n {
            break;
        }
        let spec = JobSpec::from_case(&case);
        let key = spec.cache_key();
        if jobs.iter().any(|j| j.key == key) {
            continue;
        }
        attempted += 1;
        let Ok(golden) = spec.run() else { continue };
        jobs.push(Job {
            instr: stat_field(&golden.stats_json, "instructions"),
            cycles: stat_field(&golden.stats_json, "cycles"),
            spec,
            key,
            golden,
        });
    }
    let mut h = Fnv128::new();
    for j in &jobs {
        h.field(j.key.as_bytes());
    }
    JobSet {
        jobs,
        digest: h.hex(),
        attempted,
    }
}

/// A fresh single-worker, memory-only server on an ephemeral port.
pub fn start_server() -> Server {
    Server::start(
        "127.0.0.1:0",
        ServeOptions {
            workers: 1,
            cache_dir: None,
            ..ServeOptions::default()
        },
    )
    .expect("bind an ephemeral loopback port")
}

struct Pending {
    job: usize,
    sent: Instant,
    accepted: bool,
}

/// A job's terminal event as the client saw it.
pub struct Completed {
    /// When the request was sent.
    pub sent: Instant,
    /// Send-to-`done` wall seconds.
    pub latency_s: f64,
    /// Whether the server answered from its cache.
    pub cached: bool,
    /// The `done` line's server-side latency.
    pub server_latency_us: u64,
    /// Bytes of the request and event lines of this job (0 unless the
    /// connection counts bytes).
    pub bytes: u64,
    /// Whether the job ended `done` with the golden result.
    pub ok: bool,
}

/// One client connection that tracks jobs by id.
pub struct Conn {
    client: Client,
    /// The connection's only reader (`Client::recv` is never called).
    events: BufReader<TcpStream>,
    /// Set once a read timed out or the connection broke.
    dead: bool,
    pending: HashMap<String, Pending>,
    bytes: HashMap<String, u64>,
    next_id: u64,
    /// Whether to add up each job's request and event bytes (re-encodes
    /// every line, so it is off in timed runs).
    pub count_bytes: bool,
    /// `running`/`done` events that arrived before their job's
    /// `accepted`.
    pub reorders: u64,
}

impl Conn {
    /// Connects to the server at `addr`; no event is waited for longer
    /// than `timeout`.
    pub fn open(addr: SocketAddr, timeout: Duration) -> Conn {
        let client = Client::connect(addr).expect("connect to own server");
        let events = client.split_reader().expect("clone own socket");
        events
            .get_ref()
            .set_read_timeout(Some(timeout))
            .expect("a non-zero read timeout");
        Conn {
            client,
            events,
            dead: false,
            pending: HashMap::new(),
            bytes: HashMap::new(),
            next_id: 0,
            count_bytes: false,
            reorders: 0,
        }
    }

    /// The next event, or `None` (for good) once a read timed out, the
    /// server closed the connection or sent a line that is no event.
    fn recv(&mut self) -> Option<Event> {
        let mut line = String::new();
        while !self.dead {
            line.clear();
            match self.events.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => break,
            }
            if !line.trim().is_empty() {
                let ev = Event::from_line(line.trim()).ok();
                self.dead = ev.is_none();
                return ev;
            }
        }
        self.dead = true;
        None
    }

    /// Jobs submitted and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Submits job `idx` of `set` under a fresh id.
    pub fn submit(&mut self, set: &JobSet, idx: usize) {
        let id = format!("j{}", self.next_id);
        self.next_id += 1;
        let req = Request::Submit {
            id: id.clone(),
            job: set.jobs[idx].spec.clone(),
        };
        let sent = Instant::now();
        if !self.dead && self.client.send(&req).is_err() {
            self.dead = true;
        }
        if self.count_bytes {
            self.bytes
                .insert(id.clone(), req.to_line().len() as u64 + 1);
        }
        self.pending.insert(
            id,
            Pending {
                job: idx,
                sent,
                accepted: false,
            },
        );
    }

    /// Blocks for the next terminal event of any in-flight job. On a dead
    /// connection one in-flight job fails instead, at once.
    ///
    /// # Panics
    ///
    /// Panics with nothing in flight.
    pub fn next_done(&mut self, set: &JobSet) -> Completed {
        loop {
            let Some(ev) = self.recv() else {
                let id = self.pending.keys().next().expect("a job in flight").clone();
                let p = self.pending.remove(&id).expect("pending job");
                return Completed {
                    sent: p.sent,
                    latency_s: p.sent.elapsed().as_secs_f64(),
                    cached: false,
                    server_latency_us: 0,
                    bytes: self.bytes.remove(&id).unwrap_or(0),
                    ok: false,
                };
            };
            let (id, terminal) = match &ev {
                Event::Accepted { id, .. } | Event::Running { id } => (id.clone(), false),
                Event::Done { id, .. } | Event::Failed { id, .. } | Event::Rejected { id, .. } => {
                    (id.clone(), true)
                }
                Event::Stats(_) => continue,
            };
            let Some(p) = self.pending.get_mut(&id) else {
                continue; // e.g. a `bad-request` rejection under id "-"
            };
            if self.count_bytes {
                *self.bytes.entry(id.clone()).or_default() += ev.to_line().len() as u64 + 1;
            }
            match &ev {
                Event::Accepted { .. } => p.accepted = true,
                _ if !p.accepted => self.reorders += 1,
                _ => {}
            }
            if !terminal {
                continue;
            }
            let latency_s = p.sent.elapsed().as_secs_f64();
            let p = self.pending.remove(&id).expect("pending job");
            let bytes = self.bytes.remove(&id).unwrap_or(0);
            let golden = &set.jobs[p.job].golden;
            let (cached, server_latency_us, ok) = match ev {
                Event::Done {
                    cached,
                    latency_us,
                    output_fnv,
                    stats_json,
                    ..
                } => (
                    cached,
                    latency_us,
                    output_fnv == golden.output_fnv && stats_json == golden.stats_json,
                ),
                _ => (false, 0, false),
            };
            return Completed {
                sent: p.sent,
                latency_s,
                cached,
                server_latency_us,
                bytes,
                ok,
            };
        }
    }

    /// Round trip of a `stats` request on this connection, in seconds,
    /// and the counters it returned (all zero from a dead connection).
    /// Only valid with nothing in flight.
    pub fn stats_round_trip(&mut self) -> (f64, ServerStats) {
        assert!(self.pending.is_empty(), "stats probe with jobs in flight");
        let t0 = Instant::now();
        if self.client.send(&Request::Stats).is_err() {
            self.dead = true;
        }
        let stats = loop {
            match self.recv() {
                Some(Event::Stats(s)) => break s,
                Some(_) => {}
                None => break ServerStats::default(),
            }
        };
        (t0.elapsed().as_secs_f64(), stats)
    }

    /// Closes the connection.
    pub fn close(self) {
        let _ = self.client.close();
    }
}

/// Submission order of a phase: [`PASSES`] passes over the first `n`
/// jobs, each pass in its own seeded order.
pub fn submission_order(n: usize, seed: u64) -> Vec<usize> {
    (0..PASSES as u64)
        .flat_map(|pass| shuffled(n, seed, pass))
        .collect()
}

/// Interactive phase: closed loop, one job outstanding. Returns every
/// completion in submission order.
pub fn interactive(conn: &mut Conn, set: &JobSet, n: usize, seed: u64) -> Vec<Completed> {
    submission_order(n, seed)
        .into_iter()
        .map(|idx| {
            conn.submit(set, idx);
            conn.next_done(set)
        })
        .collect()
}

/// One batch repetition: closed loop with [`BATCH_WINDOW`] outstanding
/// over [`PASSES`] passes of the first `n` jobs, against `conn`'s (fresh)
/// server. Returns the completions and the wall seconds from first send
/// to last `done`.
pub fn batch(conn: &mut Conn, set: &JobSet, n: usize, seed: u64) -> (Vec<Completed>, f64) {
    let order = submission_order(n, seed);
    let mut done = Vec::with_capacity(order.len());
    let t0 = Instant::now();
    let mut next = order.iter();
    loop {
        while conn.in_flight() < BATCH_WINDOW {
            match next.next() {
                Some(&idx) => conn.submit(set, idx),
                None => break,
            }
        }
        if conn.in_flight() == 0 {
            break;
        }
        done.push(conn.next_done(set));
    }
    (done, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_job_set_different_seed_different() {
        let a = job_set(3, 14);
        let b = job_set(3, 14);
        let c = job_set(4, 14);
        assert_eq!(a.jobs.len(), 14);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        // The corpus is in every set; the generated tail is what differs.
        assert_eq!(
            a.jobs[..9].iter().map(|j| &j.key).collect::<Vec<_>>(),
            c.jobs[..9].iter().map(|j| &j.key).collect::<Vec<_>>()
        );
        let mut keys: Vec<&String> = a.jobs.iter().map(|j| &j.key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 14, "jobs are distinct");
    }

    #[test]
    fn served_results_equal_serial_goldens_cold_and_warm() {
        let set = job_set(1, 10);
        let server = start_server();
        let mut conn = Conn::open(server.local_addr(), EVENT_TIMEOUT);
        let done = interactive(&mut conn, &set, 10, 1);
        assert_eq!(done.len(), 10 * PASSES);
        assert!(done.iter().all(|c| c.ok));
        assert_eq!(done.iter().filter(|c| c.cached).count(), 10 * (PASSES - 1));
        let (_, stats) = conn.stats_round_trip();
        assert_eq!(stats.cache_misses, 10);
        assert_eq!(stats.cache_hits, 20);
        let (done, secs) = batch(&mut conn, &set, 10, 2);
        assert!(secs > 0.0 && done.iter().all(|c| c.ok && c.cached));
        conn.close();
        server.shutdown();
    }

    #[test]
    fn a_silent_server_costs_failed_jobs_not_a_hung_run() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let set = job_set(1, 2);
        let mut conn = Conn::open(listener.local_addr().unwrap(), Duration::from_millis(50));
        let _peer = listener.accept().unwrap();
        conn.submit(&set, 0);
        conn.submit(&set, 1);
        let t0 = Instant::now();
        assert!(!conn.next_done(&set).ok);
        // The connection is given up: no second wait.
        assert!(!conn.next_done(&set).ok);
        conn.submit(&set, 0);
        assert!(!conn.next_done(&set).ok);
        assert_eq!(conn.in_flight(), 0);
        assert_eq!(conn.stats_round_trip().1.cache_hits, 0);
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
