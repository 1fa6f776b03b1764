//! Deterministic discrete-event serving loop: seeded arrivals, dynamic
//! batching, KV-cache admission.
//!
//! The model is a single-server queue in integer GPU cycles. Requests
//! arrive open-loop from a seeded Poisson process; each admitted request
//! reserves a fixed KV-cache footprint until it completes; a batching
//! policy groups waiting requests into batches; a dispatched batch
//! occupies the GPU for exactly the memoized simulated cost of the
//! encoder block at that batch size. One batch is in flight at a time —
//! the block is lowered as a dense sequence of dependent kernel
//! launches, so there is no intra-GPU overlap to model.
//!
//! Event ordering at equal cycles is fixed (completion, then arrival,
//! then dispatch) so a completion frees KV for a same-cycle arrival and
//! a same-cycle arrival can still join the batch being sealed. With
//! that, the whole trajectory is a pure function of `(seed, rate,
//! policy, kv, cost model)` and report JSON is byte-stable — the
//! property the CI smoke gate byte-compares.

use std::collections::{BTreeMap, VecDeque};

use crate::cost::CostModel;
use tcsim_check::rng::ExpArrivals;
use tcsim_trace::json::JsonWriter;

/// How waiting requests are grouped into batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Window batching: the batch led by the oldest waiting request is
    /// sealed at `min(head_arrival + window_cycles, arrival of the
    /// max_batch-th member)` — i.e. it dispatches early when full,
    /// otherwise when the head has waited out its window. Requests
    /// arriving after the seal wait for the next batch even if the GPU
    /// is still busy.
    Static {
        /// Largest batch a single dispatch may carry.
        max_batch: usize,
        /// How long the head request waits for company, in cycles.
        window_cycles: u64,
    },
    /// Continuous batching: whenever the GPU goes idle and requests are
    /// waiting, dispatch immediately with up to `max_batch` of them.
    /// Requests that arrived while the previous batch was running join
    /// the next one — the property that distinguishes it from window
    /// batching under load.
    Continuous {
        /// Largest batch a single dispatch may carry.
        max_batch: usize,
    },
}

impl Policy {
    /// Short policy name used in reports ("static" / "continuous").
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Static { .. } => "static",
            Policy::Continuous { .. } => "continuous",
        }
    }

    /// The batch-size cap.
    pub fn max_batch(&self) -> usize {
        match *self {
            Policy::Static { max_batch, .. } | Policy::Continuous { max_batch } => max_batch,
        }
    }

    /// The batching window (0 for continuous batching).
    pub fn window_cycles(&self) -> u64 {
        match *self {
            Policy::Static { window_cycles, .. } => window_cycles,
            Policy::Continuous { .. } => 0,
        }
    }

    /// The cycle at which the next dispatch would happen, given the
    /// waiting queue (non-empty, arrival-ordered) and the cycle the GPU
    /// became free.
    fn dispatch_cycle(&self, waiting: &VecDeque<u64>, t_free: u64) -> u64 {
        let head = waiting[0];
        match *self {
            Policy::Static {
                max_batch,
                window_cycles,
            } => {
                let mut seal = head.saturating_add(window_cycles);
                if waiting.len() >= max_batch {
                    seal = seal.min(waiting[max_batch - 1]);
                }
                seal.max(t_free)
            }
            Policy::Continuous { .. } => head.max(t_free),
        }
    }

    /// Removes and returns the members of the batch dispatched at
    /// cycle `now`.
    fn take_batch(&self, waiting: &mut VecDeque<u64>, now: u64) -> Vec<u64> {
        match *self {
            Policy::Static {
                max_batch,
                window_cycles,
            } => {
                let head = waiting[0];
                let mut seal = head.saturating_add(window_cycles);
                if waiting.len() >= max_batch {
                    seal = seal.min(waiting[max_batch - 1]);
                }
                // `now` may be later than the seal (the GPU was busy);
                // the batch stays sealed — late arrivals do not join.
                let mut members = Vec::new();
                while members.len() < max_batch && waiting.front().is_some_and(|&a| a <= seal) {
                    members.push(waiting.pop_front().expect("checked non-empty"));
                }
                debug_assert!(!members.is_empty() && now >= seal);
                members
            }
            Policy::Continuous { max_batch } => {
                let n = waiting.len().min(max_batch);
                waiting.drain(..n).collect()
            }
        }
    }
}

/// A bounded KV-cache: every in-flight (waiting or running) request
/// holds `bytes_per_seq` until it completes; arrivals that would push
/// the total past `capacity_bytes` are rejected at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvCache {
    /// Per-sequence reservation, in bytes.
    pub bytes_per_seq: u64,
    /// Total capacity, in bytes.
    pub capacity_bytes: u64,
}

impl KvCache {
    /// A cache admitting at most `seqs` concurrent sequences of the
    /// encoder's KV footprint (K and V, `seq × d_model` f16 each).
    pub fn for_encoder(seqs: u64) -> KvCache {
        KvCache {
            bytes_per_seq: encoder_kv_bytes(),
            capacity_bytes: seqs * encoder_kv_bytes(),
        }
    }

    /// A cache that never rejects.
    pub fn unbounded() -> KvCache {
        KvCache {
            bytes_per_seq: encoder_kv_bytes(),
            capacity_bytes: u64::MAX,
        }
    }
}

/// The encoder block's per-sequence KV footprint: keys and values for
/// every position, in f16 (`2 × seq × d_model × 2` bytes).
pub fn encoder_kv_bytes() -> u64 {
    use tcsim_nn::models::{ENCODER_D_MODEL, ENCODER_SEQ};
    2 * (ENCODER_SEQ as u64) * (ENCODER_D_MODEL as u64) * 2
}

/// An open-loop request stream: `requests` arrivals drawn from the
/// seeded exponential process at `rate_per_mcycle` requests per million
/// GPU cycles, quantized to integer cycles.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Arrival-stream seed (shared salt/sequence with `tcsim-loadgen`).
    pub seed: u64,
    /// Number of requests in the stream.
    pub requests: usize,
    /// Offered load, in requests per million cycles.
    pub rate_per_mcycle: f64,
}

impl Workload {
    /// The arrival cycle of every request, non-decreasing.
    pub fn arrival_cycles(&self) -> Vec<u64> {
        let mut arr = ExpArrivals::new(self.seed, self.rate_per_mcycle);
        let mut t = 0.0f64; // Mcycles
        (0..self.requests)
            .map(|_| {
                t += arr.next_interval();
                (t * 1e6).round() as u64
            })
            .collect()
    }
}

/// The outcome of one serving run: per-request latencies, per-dispatch
/// batch sizes, rejection and KV-pressure accounting.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// Policy name ("static" / "continuous").
    pub policy: String,
    /// Batch-size cap of the policy.
    pub max_batch: usize,
    /// Batching window of the policy (0 for continuous).
    pub window_cycles: u64,
    /// Arrival seed of the workload.
    pub seed: u64,
    /// Offered load, requests per Mcycle.
    pub rate_per_mcycle: f64,
    /// Requests offered.
    pub requests: usize,
    /// Requests rejected at admission (KV cache full).
    pub rejected: u64,
    /// Cycle of the last completion (0 if nothing completed).
    pub makespan_cycles: u64,
    /// Completed-request latencies (completion − arrival), sorted
    /// ascending.
    pub latencies: Vec<u64>,
    /// Size of every dispatched batch, in dispatch order.
    pub batch_sizes: Vec<usize>,
    /// Peak concurrent KV reservation, bytes.
    pub kv_peak_bytes: u64,
    /// The KV-cache configuration the run was admitted against.
    pub kv: KvCache,
    /// Core clock of the modeled GPU, for microsecond conversions.
    pub clock_mhz: u32,
}

impl ServingReport {
    /// Completed request count.
    pub fn completed(&self) -> usize {
        self.latencies.len()
    }

    /// Nearest-rank percentile of the latency distribution, in cycles.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let n = self.latencies.len();
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        self.latencies[rank.min(n) - 1]
    }

    /// Mean latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        self.latencies.iter().sum::<u64>() as f64 / self.latencies.len() as f64
    }

    /// Goodput: completed requests per million cycles of makespan.
    pub fn throughput_per_mcycle(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.completed() as f64 * 1e6 / self.makespan_cycles as f64
    }

    /// Mean dispatched batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batch_sizes.is_empty() {
            return 0.0;
        }
        self.batch_sizes.iter().sum::<usize>() as f64 / self.batch_sizes.len() as f64
    }

    /// Power-of-two latency histogram: `(bucket_floor_cycles, count)`
    /// where bucket `[2^k, 2^(k+1))` is keyed by `2^k` (latency 0, if it
    /// ever occurred, is keyed by 0).
    pub fn latency_histogram(&self) -> Vec<(u64, u64)> {
        let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
        for &lat in &self.latencies {
            let floor = if lat == 0 {
                0
            } else {
                1u64 << (63 - lat.leading_zeros())
            };
            *buckets.entry(floor).or_insert(0) += 1;
        }
        buckets.into_iter().collect()
    }

    /// Batch-size histogram: `(size, count)`, ascending by size.
    pub fn batch_histogram(&self) -> Vec<(usize, u64)> {
        let mut buckets: BTreeMap<usize, u64> = BTreeMap::new();
        for &b in &self.batch_sizes {
            *buckets.entry(b).or_insert(0) += 1;
        }
        buckets.into_iter().collect()
    }

    fn write_latency_stats(&self, w: &mut JsonWriter, scale: f64) {
        w.begin_object();
        for (name, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
            w.field_f64(name, self.percentile(p) as f64 * scale);
        }
        w.field_f64("mean", self.mean_latency() * scale);
        w.field_f64(
            "max",
            self.latencies.last().copied().unwrap_or(0) as f64 * scale,
        );
        w.end_object();
    }

    /// Deterministic JSON for this run — byte-stable for a fixed
    /// `(seed, rate, policy, kv, cost model)`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::value();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes [`ServingReport::to_json`]'s object into `w`, in place.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("policy", &self.policy);
        w.field_u64("max_batch", self.max_batch as u64);
        w.field_u64("window_cycles", self.window_cycles);
        w.field_u64("seed", self.seed);
        w.field_f64("rate_per_mcycle", self.rate_per_mcycle);
        w.field_u64("requests", self.requests as u64);
        w.field_u64("completed", self.completed() as u64);
        w.field_u64("rejected", self.rejected);
        w.field_u64("makespan_cycles", self.makespan_cycles);
        w.field_f64("throughput_per_mcycle", self.throughput_per_mcycle());
        self.write_latency_stats(w.key("latency_cycles"), 1.0);
        // cycles / MHz = microseconds.
        self.write_latency_stats(w.key("latency_us"), 1.0 / self.clock_mhz as f64);
        w.key("latency_histogram").begin_array();
        for (lo, n) in self.latency_histogram() {
            w.u64s(&[lo, n]);
        }
        w.end_array();
        w.field_u64("batches", self.batch_sizes.len() as u64);
        w.field_f64("mean_batch", self.mean_batch());
        w.key("batch_histogram").begin_array();
        for (b, n) in self.batch_histogram() {
            w.u64s(&[b as u64, n]);
        }
        w.end_array();
        w.key("kv").begin_object();
        w.field_u64("bytes_per_seq", self.kv.bytes_per_seq);
        if self.kv.capacity_bytes == u64::MAX {
            w.field_str("capacity_bytes", "unbounded");
        } else {
            w.field_u64("capacity_bytes", self.kv.capacity_bytes);
        }
        w.field_u64("peak_bytes", self.kv_peak_bytes);
        w.end_object();
        w.end_object();
    }
}

/// Runs the serving loop for one workload under one policy.
///
/// # Panics
///
/// Panics if the policy's `max_batch` is zero.
pub fn simulate(
    cost: &mut CostModel,
    workload: &Workload,
    policy: &Policy,
    kv: &KvCache,
) -> ServingReport {
    let arrivals = workload.arrival_cycles();
    let mut report = run(cost, &arrivals, policy, kv);
    report.seed = workload.seed;
    report.rate_per_mcycle = workload.rate_per_mcycle;
    report
}

/// Runs `simulate` across a sweep of offered loads (the
/// throughput-vs-load curve).
pub fn rate_sweep(
    cost: &mut CostModel,
    seed: u64,
    requests: usize,
    rates: &[f64],
    policy: &Policy,
    kv: &KvCache,
) -> Vec<ServingReport> {
    rates
        .iter()
        .map(|&rate_per_mcycle| {
            let w = Workload {
                seed,
                requests,
                rate_per_mcycle,
            };
            simulate(cost, &w, policy, kv)
        })
        .collect()
}

/// The event loop proper, over explicit arrival cycles (non-decreasing).
fn run(cost: &mut CostModel, arrivals: &[u64], policy: &Policy, kv: &KvCache) -> ServingReport {
    assert!(policy.max_batch() > 0, "max_batch must be positive");
    let mut waiting: VecDeque<u64> = VecDeque::new();
    let mut running: Option<(u64, Vec<u64>)> = None; // (done_at, member arrivals)
    let mut next_idx = 0usize;
    let mut t_free = 0u64;
    let mut inflight = 0u64;
    let mut kv_peak = 0u64;
    let mut rejected = 0u64;
    let mut makespan = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut batch_sizes: Vec<usize> = Vec::new();

    loop {
        let next_done = running.as_ref().map(|&(done, _)| done);
        let next_arr = arrivals.get(next_idx).copied();
        let next_dispatch = if running.is_none() && !waiting.is_empty() {
            Some(policy.dispatch_cycle(&waiting, t_free))
        } else {
            None
        };
        let Some(now) = [next_done, next_arr, next_dispatch]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };

        // Tie order at equal cycles: completion frees KV before the
        // arrival is admitted; the arrival is enqueued before the batch
        // is sealed.
        if next_done == Some(now) {
            let (done, members) = running.take().expect("completion event without a batch");
            t_free = done;
            makespan = done;
            inflight -= kv.bytes_per_seq * members.len() as u64;
            for arrival in members {
                latencies.push(done - arrival);
            }
        } else if next_arr == Some(now) {
            next_idx += 1;
            if inflight.saturating_add(kv.bytes_per_seq) > kv.capacity_bytes {
                rejected += 1;
            } else {
                inflight += kv.bytes_per_seq;
                kv_peak = kv_peak.max(inflight);
                waiting.push_back(now);
            }
        } else {
            let members = policy.take_batch(&mut waiting, now);
            let block = cost.block_cost(members.len());
            batch_sizes.push(members.len());
            running = Some((now + block.cycles, members));
        }
    }

    latencies.sort_unstable();
    ServingReport {
        policy: policy.name().to_string(),
        max_batch: policy.max_batch(),
        window_cycles: policy.window_cycles(),
        seed: 0,
        rate_per_mcycle: 0.0,
        requests: arrivals.len(),
        rejected,
        makespan_cycles: makespan,
        latencies,
        batch_sizes,
        kv_peak_bytes: kv_peak,
        kv: *kv,
        clock_mhz: cost.clock_mhz(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::BlockCost;
    use tcsim_sim::GpuConfig;

    /// A cost model with hand-primed per-batch costs (no simulation), so
    /// the queueing arithmetic can be checked exactly.
    fn primed(costs: &[(usize, u64)]) -> CostModel {
        let mut cm = CostModel::new(GpuConfig::mini(), 0);
        for &(batch, cycles) in costs {
            cm.prime(
                batch,
                BlockCost {
                    cycles,
                    instructions: cycles / 2,
                },
            );
        }
        cm
    }

    #[test]
    fn arrivals_are_deterministic_and_nondecreasing() {
        let w = Workload {
            seed: 9,
            requests: 64,
            rate_per_mcycle: 200.0,
        };
        let a = w.arrival_cycles();
        let b = w.arrival_cycles();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        assert_eq!(a.len(), 64);
        // Different seed, different stream.
        let c = Workload { seed: 10, ..w }.arrival_cycles();
        assert_ne!(a, c);
    }

    #[test]
    fn static_window_seals_partial_batch() {
        let mut cm = primed(&[(1, 1000), (2, 1500)]);
        let policy = Policy::Static {
            max_batch: 4,
            window_cycles: 500,
        };
        let r = run(&mut cm, &[0, 100, 3000], &policy, &KvCache::unbounded());
        // Head (t=0) waits out its 500-cycle window, picks up the t=100
        // arrival, runs 1500 cycles; the t=3000 arrival rides alone.
        assert_eq!(r.batch_sizes, vec![2, 1]);
        assert_eq!(r.makespan_cycles, 3500 + 1000);
        // Completions at 2000 (arrivals 0, 100) and 4500 (arrival 3000).
        let mut lats = vec![2000, 2000 - 100, 4500 - 3000];
        lats.sort_unstable();
        assert_eq!(r.latencies, lats);
    }

    #[test]
    fn static_full_batch_dispatches_before_window() {
        let mut cm = primed(&[(4, 2000)]);
        let policy = Policy::Static {
            max_batch: 4,
            window_cycles: 500,
        };
        let r = run(&mut cm, &[0, 10, 20, 30], &policy, &KvCache::unbounded());
        // The 4th arrival fills the batch at t=30 — no need to wait out
        // the window.
        assert_eq!(r.batch_sizes, vec![4]);
        assert_eq!(r.makespan_cycles, 30 + 2000);
    }

    #[test]
    fn static_seal_excludes_arrivals_during_service() {
        let mut cm = primed(&[(1, 1000), (2, 1500)]);
        let policy = Policy::Static {
            max_batch: 4,
            window_cycles: 100,
        };
        // t=0 seals at 100 and runs alone until 1100. t=500 arrives
        // mid-service; its own batch seals at 600 but can only launch at
        // 1100. t=590 joins it (≤ its seal); nothing else does.
        let r = run(&mut cm, &[0, 500, 590], &policy, &KvCache::unbounded());
        assert_eq!(r.batch_sizes, vec![1, 2]);
        assert_eq!(r.makespan_cycles, 1100 + 1500);
    }

    #[test]
    fn continuous_joins_arrivals_that_came_during_service() {
        let mut cm = primed(&[(1, 1000), (2, 1500)]);
        let policy = Policy::Continuous { max_batch: 4 };
        // Same arrivals as the static test above: t=0 dispatches
        // immediately and alone; t=500 and t=590 both wait for idle at
        // t=1000 and share a batch — continuous batching has no seal.
        let r = run(&mut cm, &[0, 500, 590], &policy, &KvCache::unbounded());
        assert_eq!(r.batch_sizes, vec![1, 2]);
        assert_eq!(r.makespan_cycles, 1000 + 1500);
        let mut lats = vec![1000, 2500 - 500, 2500 - 590];
        lats.sort_unstable();
        assert_eq!(r.latencies, lats);
    }

    #[test]
    fn continuous_respects_max_batch() {
        let mut cm = primed(&[(2, 1500)]);
        let policy = Policy::Continuous { max_batch: 2 };
        let r = run(&mut cm, &[0, 0, 0, 0], &policy, &KvCache::unbounded());
        assert_eq!(r.batch_sizes, vec![2, 2]);
        assert_eq!(r.makespan_cycles, 3000);
    }

    #[test]
    fn kv_admission_rejects_when_full_and_frees_on_completion() {
        let mut cm = primed(&[(1, 1000)]);
        let policy = Policy::Continuous { max_batch: 1 };
        let kv = KvCache {
            bytes_per_seq: 100,
            capacity_bytes: 150,
        };
        // t=10 is rejected (t=0 still holds its reservation); t=2000 is
        // admitted after t=0 completed at 1000.
        let r = run(&mut cm, &[0, 10, 2000], &policy, &kv);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.completed(), 2);
        assert_eq!(r.kv_peak_bytes, 100);
        assert_eq!(r.requests, 3);
    }

    #[test]
    fn completion_frees_kv_for_same_cycle_arrival() {
        let mut cm = primed(&[(1, 1000)]);
        let policy = Policy::Continuous { max_batch: 1 };
        let kv = KvCache {
            bytes_per_seq: 100,
            capacity_bytes: 100,
        };
        // The t=1000 arrival lands exactly when the first request
        // completes; completion is processed first, so it is admitted.
        let r = run(&mut cm, &[0, 1000], &policy, &kv);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.completed(), 2);
        assert_eq!(r.makespan_cycles, 2000);
    }

    #[test]
    fn percentiles_and_histograms() {
        let r = ServingReport {
            policy: "static".into(),
            max_batch: 4,
            window_cycles: 0,
            seed: 0,
            rate_per_mcycle: 0.0,
            requests: 4,
            rejected: 0,
            makespan_cycles: 1_000_000,
            latencies: vec![1, 2, 3, 1000],
            batch_sizes: vec![1, 3],
            kv_peak_bytes: 0,
            kv: KvCache::unbounded(),
            clock_mhz: 1000,
        };
        assert_eq!(r.percentile(50.0), 2);
        assert_eq!(r.percentile(99.0), 1000);
        assert_eq!(r.latency_histogram(), vec![(1, 1), (2, 2), (512, 1)]);
        assert_eq!(r.batch_histogram(), vec![(1, 1), (3, 1)]);
        assert_eq!(r.throughput_per_mcycle(), 4.0);
        assert_eq!(r.mean_batch(), 2.0);
    }

    #[test]
    fn report_json_is_deterministic() {
        let mut cm = primed(&[(1, 1000), (2, 1500), (3, 1800), (4, 2000)]);
        let w = Workload {
            seed: 5,
            requests: 40,
            rate_per_mcycle: 900.0,
        };
        let policy = Policy::Static {
            max_batch: 4,
            window_cycles: 400,
        };
        let kv = KvCache::for_encoder(8);
        let a = simulate(&mut cm, &w, &policy, &kv).to_json();
        let b = simulate(&mut cm, &w, &policy, &kv).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"policy\":\"static\""), "{a}");
    }
}
