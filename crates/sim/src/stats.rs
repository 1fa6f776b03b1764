//! Launch statistics: cycles, IPC, memory traffic and WMMA latency
//! distributions.

use tcsim_mem::CacheStats;
use tcsim_sm::{SmStats, WmmaKind};
use tcsim_trace::json::JsonWriter;
use tcsim_trace::TraceSummary;

/// Results of one kernel launch.
///
/// Derives `PartialEq` so parallel-sweep results can be asserted
/// byte-identical to serial runs (the determinism contract of
/// [`crate::Sweep`]).
#[derive(Clone, Debug, PartialEq)]
pub struct LaunchStats {
    /// Total GPU cycles from launch to the last CTA's completion.
    pub cycles: u64,
    /// Warp instructions issued.
    pub instructions: u64,
    /// Merged per-SM counters.
    pub sm: SmStats,
    /// Aggregate L1 statistics across SMs.
    pub l1: CacheStats,
    /// Aggregate L2 statistics across partitions.
    pub l2: CacheStats,
    /// DRAM sectors transferred.
    pub dram_sectors: u64,
    /// Core clock (MHz), for time/TFLOPS conversions.
    pub clock_mhz: u32,
    /// Trace-derived metrics (stall breakdown, HMMA occupancy); `None`
    /// unless a tracer was installed via `SimOptions::tracer` or
    /// `LaunchBuilder::tracer`.
    pub trace: Option<TraceSummary>,
}

impl LaunchStats {
    /// Warp instructions per cycle — the correlation metric of Fig 14b.
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles as f64
    }

    /// Wall-clock execution time implied by the cycle count, in seconds.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (self.clock_mhz as f64 * 1e6)
    }

    /// Achieved TFLOPS for a workload of `flops` floating-point operations.
    pub fn tflops(&self, flops: f64) -> f64 {
        flops / self.seconds() / 1e12
    }

    /// Latencies of all profiled WMMA instructions of `kind`, in issue
    /// order (requires `SimOptions::profile_wmma(true)`).
    pub fn wmma_latencies(&self, kind: WmmaKind) -> Vec<u64> {
        self.sm
            .wmma_samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.latency)
            .collect()
    }

    /// Serializes the statistics as a JSON object. The WMMA sample list
    /// is summarized by count, not dumped, to keep result files small.
    ///
    /// # Example
    ///
    /// ```
    /// # use tcsim_sim::LaunchStats;
    /// let s = LaunchStats {
    ///     cycles: 100, instructions: 50,
    ///     sm: Default::default(), l1: Default::default(),
    ///     l2: Default::default(), dram_sectors: 0, clock_mhz: 1000,
    ///     trace: None,
    /// };
    /// assert!(s.to_json().starts_with("{\"cycles\":100,"));
    /// ```
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::value();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes [`LaunchStats::to_json`]'s object into `w`, in place.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("cycles", self.cycles);
        w.field_u64("instructions", self.instructions);
        w.field_f64("ipc", self.ipc());
        w.field_u64("clock_mhz", self.clock_mhz as u64);
        w.field_f64("seconds", self.seconds());
        w.field_u64("sm_issued", self.sm.issued);
        w.key("sm_issued_by_unit").u64s(&self.sm.issued_by_unit);
        w.field_u64("sm_active_cycles", self.sm.active_cycles);
        w.field_u64("sm_barriers", self.sm.barriers);
        w.field_u64("sm_ctas_completed", self.sm.ctas_completed);
        w.field_u64("sm_global_txns", self.sm.global_txns);
        w.field_u64("sm_shared_conflict_passes", self.sm.shared_conflict_passes);
        w.field_u64("sm_reg_bank_stalls", self.sm.reg_bank_stalls);
        w.field_u64("sm_wmma_samples", self.sm.wmma_samples.len() as u64);
        w.field_u64("l1_hits", self.l1.hits);
        w.field_u64("l1_misses", self.l1.misses);
        w.field_u64("l1_mshr_merges", self.l1.mshr_merges);
        w.field_u64("l1_writebacks", self.l1.writebacks);
        w.field_u64("l2_hits", self.l2.hits);
        w.field_u64("l2_misses", self.l2.misses);
        w.field_u64("l2_mshr_merges", self.l2.mshr_merges);
        w.field_u64("l2_writebacks", self.l2.writebacks);
        w.field_u64("dram_sectors", self.dram_sectors);
        if let Some(trace) = &self.trace {
            trace.write_json(w.key("trace"));
        }
        w.end_object();
    }
}

/// Summary statistics of a latency distribution (Fig 15/16 reporting).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Distribution {
    /// Sample count.
    pub count: usize,
    /// Minimum latency.
    pub min: u64,
    /// Median latency.
    pub median: u64,
    /// 95th-percentile latency.
    pub p95: u64,
    /// Maximum latency.
    pub max: u64,
    /// Mean latency.
    pub mean: f64,
}

impl Distribution {
    /// Computes the summary of a latency sample set.
    ///
    /// Returns `None` for an empty set.
    pub fn of(samples: &[u64]) -> Option<Distribution> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_unstable();
        let n = v.len();
        Some(Distribution {
            count: n,
            min: v[0],
            median: v[n / 2],
            p95: v[(n * 95 / 100).min(n - 1)],
            max: v[n - 1],
            mean: v.iter().sum::<u64>() as f64 / n as f64,
        })
    }
}

/// Pearson correlation coefficient between two series — the paper's IPC
/// correlation metric (99.6%, §V-B).
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    assert!(!x.is_empty());
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_stats_json_is_valid_with_and_without_trace() {
        let mut s = LaunchStats {
            cycles: 100,
            instructions: 50,
            sm: Default::default(),
            l1: Default::default(),
            l2: Default::default(),
            dram_sectors: 0,
            clock_mhz: 1000,
            trace: None,
        };
        tcsim_trace::json::validate_json(&s.to_json()).expect("no-trace JSON");
        assert!(!s.to_json().contains("\"trace\""));
        s.trace = Some(TraceSummary::default());
        let json = s.to_json();
        tcsim_trace::json::validate_json(&json).expect("with-trace JSON");
        assert!(json.contains("\"trace\":{"));
    }

    #[test]
    fn distribution_summary() {
        let d = Distribution::of(&[5, 1, 9, 3, 7]).unwrap();
        assert_eq!(d.count, 5);
        assert_eq!(d.min, 1);
        assert_eq!(d.median, 5);
        assert_eq!(d.max, 9);
        assert_eq!(d.mean, 5.0);
        assert!(Distribution::of(&[]).is_none());
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_uncorrelated_is_small() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let y = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        assert!(pearson(&x, &y).abs() < 0.3);
    }

    #[test]
    fn ipc_and_tflops_math() {
        let s = LaunchStats {
            cycles: 1000,
            instructions: 500,
            sm: Default::default(),
            l1: Default::default(),
            l2: Default::default(),
            dram_sectors: 0,
            clock_mhz: 1000,
            trace: None,
        };
        assert_eq!(s.ipc(), 0.5);
        assert!((s.seconds() - 1e-6).abs() < 1e-15);
        // 1e9 FLOPs in 1 µs = 1000 TFLOPS.
        assert!((s.tflops(1e9) - 1000.0).abs() < 1e-6);
    }
}
