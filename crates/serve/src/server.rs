//! The persistent job server: admission control, content-addressed
//! dedup, and a dispatcher that shards misses across the
//! [`tcsim_sim::Sweep`] worker pool.
//!
//! # Architecture
//!
//! ```text
//!             accept thread ──► one reader thread per connection
//!                                   │ submit/batch/stats/shutdown
//!                                   ▼
//!  ┌───────────────── Mutex<Core> ───────────────────┐
//!  │ bounded queue · in-flight waiter map · cache ·   │
//!  │ counters                                         │
//!  └──────────────────────────────────────────────────┘
//!                                   │ condvar
//!                                   ▼
//!             dispatcher thread: drain ≤ batch_max jobs,
//!             run them as one Sweep::run_parallel(workers),
//!             install results in the cache, fan completions
//!             out to waiters
//! ```
//!
//! Each client connection owns an mpsc channel drained by a dedicated
//! writer thread, so completions computed by the dispatcher stream to
//! the right socket without any cross-connection locking.
//!
//! # Admission control
//!
//! A submission is **rejected** (never silently dropped) when the job
//! fails validation, the distinct-job queue is at `max_pending`, or the
//! connection already has `quota` jobs in flight. A submission whose key
//! matches a cached result completes immediately; one matching a queued
//! or running job is **coalesced** — it waits on the same execution and
//! is delivered the same bytes, costing no simulation time.
//!
//! # Determinism
//!
//! Workers run every job on a fresh [`tcsim_sim::Gpu`] built from the
//! job's own config (the sweep engine's contract), so the `LaunchStats`
//! JSON a client receives is byte-identical whether it was computed
//! serially, by a cold server, or replayed from the cache — the
//! end-to-end gate in `tests/serve_determinism.rs` pins all three.

use crate::cache::{CacheEntry, ResultCache};
use crate::job::JobSpec;
use crate::proto::{Event, Request, ServerStats};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use tcsim_sim::Sweep;

/// Server sizing and policy knobs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Sweep worker threads per dispatch batch.
    pub workers: usize,
    /// Bounded admission queue: distinct jobs that may wait.
    pub max_pending: usize,
    /// Per-connection in-flight job quota.
    pub quota: usize,
    /// Maximum distinct jobs drained into one dispatch batch.
    pub batch_max: usize,
    /// Persistent cache directory (`None` = in-memory only).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 4,
            max_pending: 256,
            quota: 64,
            batch_max: 32,
            cache_dir: None,
        }
    }
}

/// A completion subscriber: one `submit` from one connection.
struct Waiter {
    id: String,
    tx: Sender<String>,
    submitted: Instant,
    conn_inflight: Arc<AtomicUsize>,
}

struct PendingJob {
    key: String,
    spec: JobSpec,
}

#[derive(Default)]
struct Counters {
    jobs_done: u64,
    cache_hits: u64,
    cache_misses: u64,
    coalesced: u64,
    rejected: u64,
    failed: u64,
}

struct Core {
    queue: VecDeque<PendingJob>,
    in_flight: HashMap<String, Vec<Waiter>>,
    cache: ResultCache,
    counters: Counters,
    shutdown: bool,
}

struct Shared {
    mu: Mutex<Core>,
    cv: Condvar,
    opts: ServeOptions,
    addr: SocketAddr,
    stopping: AtomicBool,
}

impl Shared {
    fn stats_snapshot(&self) -> ServerStats {
        let core = self.mu.lock().unwrap();
        ServerStats {
            jobs_done: core.counters.jobs_done,
            cache_hits: core.counters.cache_hits,
            cache_misses: core.counters.cache_misses,
            coalesced: core.counters.coalesced,
            rejected: core.counters.rejected,
            failed: core.counters.failed,
            queue_depth: core.queue.len() as u64,
            in_flight: core.in_flight.len() as u64,
            cache_entries: core.cache.len() as u64,
        }
    }

    fn trigger_shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut core = self.mu.lock().unwrap();
            core.shutdown = true;
        }
        self.cv.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`Server::shutdown`] (or send a `shutdown` request).
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    dispatch_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), opens
    /// the cache, and starts the accept and dispatcher threads.
    pub fn start(addr: &str, opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let cache = match &opts.cache_dir {
            Some(dir) => ResultCache::open(dir)?,
            None => ResultCache::in_memory(),
        };
        let shared = Arc::new(Shared {
            mu: Mutex::new(Core {
                queue: VecDeque::new(),
                in_flight: HashMap::new(),
                cache,
                counters: Counters::default(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            opts,
            addr: local,
            stopping: AtomicBool::new(false),
        });

        let accept_shared = shared.clone();
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        let dispatch_shared = shared.clone();
        let dispatch_thread = std::thread::spawn(move || dispatch_loop(dispatch_shared));
        Ok(Server {
            shared,
            accept_thread: Some(accept_thread),
            dispatch_thread: Some(dispatch_thread),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Warm-start count: cache entries loaded from disk at startup.
    pub fn cache_loaded_from_disk(&self) -> usize {
        self.shared.mu.lock().unwrap().cache.loaded_from_disk()
    }

    /// Current counters (same data as the `stats` protocol event).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats_snapshot()
    }

    /// Stops accepting, lets the dispatcher finish its current batch,
    /// and joins both service threads.
    pub fn shutdown(mut self) {
        self.shared.trigger_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.dispatch_thread.take() {
            let _ = t.join();
        }
    }

    /// Blocks until the server is shut down by a protocol request.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.dispatch_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = shared.clone();
        std::thread::spawn(move || connection_loop(stream, conn_shared));
    }
}

fn connection_loop(stream: TcpStream, shared: Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<String>();
    let writer = std::thread::spawn(move || {
        let mut out = io::BufWriter::new(write_half);
        while let Ok(line) = rx.recv() {
            if out.write_all(line.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
                break;
            }
            // Flush per event: completions must stream, not sit in a
            // buffer until the connection closes.
            if out.flush().is_err() {
                break;
            }
        }
    });

    let conn_inflight = Arc::new(AtomicUsize::new(0));
    let mut reader = BufReader::new(stream);
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
        match Request::from_line(trimmed) {
            Err(e) => {
                let _ = tx.send(
                    Event::Rejected {
                        id: "-".into(),
                        reason: format!("bad-request: {e}"),
                    }
                    .to_line(),
                );
            }
            Ok(Request::Submit { id, job }) => {
                submit(&shared, &tx, &conn_inflight, id, job);
            }
            Ok(Request::Batch { jobs }) => {
                for (id, job) in jobs {
                    submit(&shared, &tx, &conn_inflight, id, job);
                }
            }
            Ok(Request::Stats) => {
                let _ = tx.send(Event::Stats(shared.stats_snapshot()).to_line());
            }
            Ok(Request::Shutdown) => {
                shared.trigger_shutdown();
                break;
            }
        }
    }
    drop(tx);
    let _ = writer.join();
}

fn submit(
    shared: &Arc<Shared>,
    tx: &Sender<String>,
    conn_inflight: &Arc<AtomicUsize>,
    id: String,
    spec: JobSpec,
) {
    let reject = |reason: String| {
        let mut core = shared.mu.lock().unwrap();
        core.counters.rejected += 1;
        drop(core);
        let _ = tx.send(
            Event::Rejected {
                id: id.clone(),
                reason,
            }
            .to_line(),
        );
    };
    if let Err(e) = spec.validate() {
        reject(format!("bad-job: {e}"));
        return;
    }
    let submitted = Instant::now();
    // Hash outside the lock: key derivation materializes the input
    // stream, which can be megabytes.
    let key = spec.cache_key();

    let accepted = |coalesced| {
        let _ = tx.send(
            Event::Accepted {
                id: id.clone(),
                key: key.clone(),
                coalesced,
            }
            .to_line(),
        );
    };

    // A job that waits on the dispatcher is announced `accepted` under
    // the lock, before the dispatcher can see it, so its `running` and
    // `done` cannot overtake the announcement.
    let mut core = shared.mu.lock().unwrap();
    if let Some(entry) = core.cache.get(&key) {
        core.counters.cache_hits += 1;
        core.counters.jobs_done += 1;
        drop(core);
        accepted(false);
        let _ = tx.send(
            Event::Done {
                id,
                key,
                cached: true,
                output_fnv: entry.outcome.output_fnv.clone(),
                latency_us: submitted.elapsed().as_micros() as u64,
                stats_json: entry.outcome.stats_json.clone(),
            }
            .to_line(),
        );
        return;
    }
    if conn_inflight.load(Ordering::SeqCst) >= shared.opts.quota {
        drop(core);
        reject("quota-exceeded".into());
        return;
    }
    let waiter = Waiter {
        id: id.clone(),
        tx: tx.clone(),
        submitted,
        conn_inflight: conn_inflight.clone(),
    };
    if let Some(waiters) = core.in_flight.get_mut(&key) {
        // Identical job already queued or running: share its execution.
        accepted(true);
        waiters.push(waiter);
        core.counters.coalesced += 1;
        conn_inflight.fetch_add(1, Ordering::SeqCst);
        return;
    }
    if core.queue.len() >= shared.opts.max_pending {
        drop(core);
        reject("queue-full".into());
        return;
    }
    accepted(false);
    core.in_flight.insert(key.clone(), vec![waiter]);
    core.queue.push_back(PendingJob { key, spec });
    conn_inflight.fetch_add(1, Ordering::SeqCst);
    drop(core);
    shared.cv.notify_one();
}

fn dispatch_loop(shared: Arc<Shared>) {
    loop {
        // Wait for work (or shutdown), then drain one batch.
        let batch: Vec<PendingJob> = {
            let mut core = shared.mu.lock().unwrap();
            while core.queue.is_empty() && !core.shutdown {
                core = shared.cv.wait(core).unwrap();
            }
            if core.queue.is_empty() && core.shutdown {
                return;
            }
            let n = core.queue.len().min(shared.opts.batch_max);
            let batch: Vec<PendingJob> = core.queue.drain(..n).collect();
            // Announce the batch while still holding the lock, so a
            // coalescing submit never races between `running` and `done`.
            for job in &batch {
                if let Some(waiters) = core.in_flight.get(&job.key) {
                    for w in waiters {
                        let _ = w.tx.send(Event::Running { id: w.id.clone() }.to_line());
                    }
                }
            }
            batch
        };

        // Shard the batch across the sweep pool.
        let mut sweep = Sweep::new();
        for job in &batch {
            let spec = job.spec.clone();
            sweep.add(spec.config.to_config(), move |gpu| {
                catch_unwind(AssertUnwindSafe(|| spec.run_on(gpu))).unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&str>().copied())
                        .unwrap_or("launch panicked");
                    Err(format!("launch panicked: {msg}"))
                })
            });
        }
        let outcome = sweep.run_parallel(shared.opts.workers);

        let mut core = shared.mu.lock().unwrap();
        for (job, result) in batch.iter().zip(outcome.results) {
            let waiters = core.in_flight.remove(&job.key).unwrap_or_default();
            match result {
                Ok(out) => {
                    core.counters.cache_misses += 1;
                    core.counters.jobs_done += waiters.len() as u64;
                    let entry = CacheEntry {
                        key: job.key.clone(),
                        outcome: out,
                    };
                    let entry = match core.cache.insert(entry) {
                        Ok(e) => e,
                        Err(io_err) => {
                            // Persistence failure degrades to a warm
                            // in-memory cache; the job still completes.
                            eprintln!("tcsim-serve: cache write for {} failed: {io_err}", job.key);
                            core.cache.get(&job.key).expect("in-memory insert")
                        }
                    };
                    for w in waiters {
                        w.conn_inflight.fetch_sub(1, Ordering::SeqCst);
                        let _ = w.tx.send(
                            Event::Done {
                                id: w.id,
                                key: job.key.clone(),
                                cached: false,
                                output_fnv: entry.outcome.output_fnv.clone(),
                                latency_us: w.submitted.elapsed().as_micros() as u64,
                                stats_json: entry.outcome.stats_json.clone(),
                            }
                            .to_line(),
                        );
                    }
                }
                Err(reason) => {
                    core.counters.failed += waiters.len() as u64;
                    for w in waiters {
                        w.conn_inflight.fetch_sub(1, Ordering::SeqCst);
                        let _ = w.tx.send(
                            Event::Failed {
                                id: w.id,
                                reason: reason.clone(),
                            }
                            .to_line(),
                        );
                    }
                }
            }
        }
    }
}
