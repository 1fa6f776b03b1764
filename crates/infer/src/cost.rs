//! Memoized per-batch cycle cost of the transformer encoder block.
//!
//! The serving loop asks for the cost of a batch thousands of times but
//! only ever sees a handful of distinct batch sizes (1..=max_batch).
//! Simulating the lowered block takes seconds; looking it up must be
//! free. So each distinct `(model, seed, batch, GpuConfig)` tuple is
//! simulated once — with the full differential check against the host
//! f32 reference, so a serving run can never be costed by a block that
//! computes the wrong numbers — and keyed by content hash thereafter:
//! [`tcsim_trace::hash::Fnv128`] over the identity, the same scheme
//! `tcsim-serve` uses for its result cache.

use std::collections::HashMap;

use tcsim_nn::models::{encoder, input_for};
use tcsim_nn::run_chained;
use tcsim_sim::GpuConfig;
use tcsim_trace::hash::Fnv128;

/// The simulated cost of one encoder-block invocation at a fixed batch
/// size: every lowered kernel launch, summed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockCost {
    /// Total GPU cycles across all stages of the block.
    pub cycles: u64,
    /// Total instructions retired across all stages.
    pub instructions: u64,
}

/// Simulates-once-then-memoizes the encoder block cost per batch size.
///
/// # Example
///
/// ```no_run
/// use tcsim_infer::CostModel;
/// use tcsim_sim::GpuConfig;
///
/// let mut cm = CostModel::new(GpuConfig::mini(), 1);
/// let c1 = cm.block_cost(1);
/// let c2 = cm.block_cost(1); // cache hit: no second simulation
/// assert_eq!(c1, c2);
/// assert_eq!(cm.sim_invocations(), 1);
/// ```
#[derive(Debug)]
pub struct CostModel {
    cfg: GpuConfig,
    seed: u64,
    cache: HashMap<String, BlockCost>,
    sim_invocations: u64,
}

impl CostModel {
    /// Creates a cost model for the encoder built from `seed`, timed on
    /// `cfg`.
    pub fn new(cfg: GpuConfig, seed: u64) -> CostModel {
        CostModel {
            cfg,
            seed,
            cache: HashMap::new(),
            sim_invocations: 0,
        }
    }

    /// The content-hash cache key for a batch size: model identity, data
    /// seed, batch, and the full `GpuConfig` debug form (any timing
    /// parameter change must miss the cache).
    pub fn shape_key(&self, batch: usize) -> String {
        let mut h = Fnv128::new();
        h.field(b"encoder");
        h.u64(self.seed);
        h.u64(batch as u64);
        h.field(format!("{:?}", self.cfg).as_bytes());
        h.hex()
    }

    /// The block cost at `batch`, simulating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero, or if the simulated block drifts out
    /// of differential tolerance against the host reference.
    pub fn block_cost(&mut self, batch: usize) -> BlockCost {
        let key = self.shape_key(batch);
        if let Some(c) = self.cache.get(&key) {
            return *c;
        }
        self.sim_invocations += 1;
        let net = encoder(self.seed, batch);
        let input = input_for(&net, self.seed);
        let report = run_chained(&net, &input, self.cfg.clone(), false);
        report.assert_within_tolerance();
        let cost = BlockCost {
            cycles: report.total_cycles(),
            instructions: report.layers.iter().map(|l| l.instructions).sum(),
        };
        self.cache.insert(key, cost);
        cost
    }

    /// Injects a known cost for `batch` without simulating — for tests
    /// of the queueing layer and for replaying costs recorded offline.
    pub fn prime(&mut self, batch: usize, cost: BlockCost) {
        let key = self.shape_key(batch);
        self.cache.insert(key, cost);
    }

    /// How many full block simulations have actually run (as opposed to
    /// cache hits). Bounded by the number of distinct batch sizes seen.
    pub fn sim_invocations(&self) -> u64 {
        self.sim_invocations
    }

    /// Number of distinct shapes currently memoized.
    pub fn distinct_shapes(&self) -> usize {
        self.cache.len()
    }

    /// The core clock of the modeled GPU, for cycle → microsecond
    /// conversions in reports.
    pub fn clock_mhz(&self) -> u32 {
        self.cfg.clock_mhz
    }

    /// The data seed the encoder weights/inputs are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_key_separates_batch_seed_and_config() {
        let a = CostModel::new(GpuConfig::mini(), 1);
        let b = CostModel::new(GpuConfig::mini(), 2);
        let c = CostModel::new(GpuConfig::titan_v(), 1);
        assert_ne!(a.shape_key(1), a.shape_key(2));
        assert_ne!(a.shape_key(1), b.shape_key(1));
        assert_ne!(a.shape_key(1), c.shape_key(1));
    }

    #[test]
    fn memoizes_per_batch() {
        let mut cm = CostModel::new(GpuConfig::mini(), 1);
        let c1 = cm.block_cost(1);
        assert!(c1.cycles > 0 && c1.instructions > 0);
        let again = cm.block_cost(1);
        assert_eq!(c1, again);
        assert_eq!(cm.sim_invocations(), 1);
        let c2 = cm.block_cost(2);
        assert!(c2.cycles > c1.cycles, "batch 2 must cost more than batch 1");
        assert_eq!(cm.sim_invocations(), 2);
        assert_eq!(cm.distinct_shapes(), 2);
    }
}
