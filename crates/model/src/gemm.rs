//! Closed-form roofline for tiled WMMA GEMM: the DOSA-style evaluator
//! behind the tile search.
//!
//! Where [`mod@crate::estimate`] walks arbitrary kernel IR, this module
//! scores a CTA-tile *plan* for `C[m×n] = A[m×k]·B[k×n]` directly from
//! its shape: HMMA cadence for the compute bound (Table III via
//! `tcsim_core::mma_timing`), per-CTA operand footprint for the DRAM
//! bound (larger tiles reuse each loaded element more), and occupancy
//! from the plan's register/shared budget. Evaluating a candidate takes
//! nanoseconds, which is what makes exhaustive tile search viable inside
//! the tcsim-nn lowering; the cycle-level simulator stays the validator.

use tcsim_core::mma_timing;
use tcsim_isa::{CtaRequirements, Layout, WmmaDirective, WmmaShape, WmmaType};
use tcsim_sim::GpuConfig;

use crate::estimate::{mem_latency, spread, Spread};

/// The resource shape of one CTA-tile GEMM candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TilePlan {
    /// CTA tile rows (M).
    pub cta_m: u64,
    /// CTA tile columns (N).
    pub cta_n: u64,
    /// Threads per CTA.
    pub threads: u64,
    /// Static shared memory per CTA in bytes (0 for unstaged plans).
    pub shared_bytes: u64,
    /// Registers per thread.
    pub regs_per_thread: u64,
    /// Whether operands are staged through shared memory (tiles are
    /// loaded once per CTA rather than once per warp).
    pub staged: bool,
}

/// A scored tile candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GemmEstimate {
    /// Estimated launch cycles for the full GEMM.
    pub cycles: u64,
    /// The binding bound: `"tensor"`, `"dram"` or `"latency"`.
    pub bound: &'static str,
    /// CTA waves at the plan's occupancy.
    pub waves: u64,
}

/// Scores `plan` for an `m×n×k` mixed-precision GEMM on `gpu`.
///
/// Dimensions are padded up to the plan's tile edges, exactly as the
/// lowering pads problems to the 16-element WMMA quantum.
pub fn gemm_roofline(m: u64, n: u64, k: u64, plan: &TilePlan, gpu: &GpuConfig) -> GemmEstimate {
    let sm = &gpu.sm;
    let warps = (plan.threads / 32).max(1);
    let ctas = m.div_ceil(plan.cta_m) * n.div_ceil(plan.cta_n);
    let ksteps = k.div_ceil(16).max(1);

    // HMMA cadence: 16×16×16 f16·f16+f32 tiles, two tensor cores per
    // warp (§IV), per-arch initiation interval from Table III / Table I.
    let dir = WmmaDirective::Mma {
        shape: WmmaShape::M16N16K16,
        a_layout: Layout::Row,
        b_layout: Layout::Row,
        ab_type: WmmaType::F16,
        c_type: WmmaType::F32,
        d_type: WmmaType::F32,
    };
    let t = mma_timing(sm.volta_tensor, &dir);
    let ii = (t.initiation_interval as u64 * 2) / (sm.tensor_cores.max(1) as u64);
    let tiles_per_cta = (plan.cta_m.div_ceil(16)) * (plan.cta_n.div_ceil(16));
    let mma_per_warp = tiles_per_cta.div_ceil(warps) * ksteps;

    // Occupancy from the plan's resources, by the simulator's rule.
    let req = CtaRequirements::new(
        plan.threads as u32,
        plan.regs_per_thread as u32,
        plan.shared_bytes as u32,
    );
    let (resident, _) = sm.resources.resident_ctas(&req);
    let Spread {
        waves,
        warps_per_sched,
        ..
    } = spread(gpu, ctas, warps, resident as u32);

    // Compute bound: tensor-core occupancy per scheduler slot.
    let compute = mma_per_warp * ii * warps_per_sched;

    // DRAM bound. Staged plans load each A/B tile once per CTA; unstaged
    // plans re-load per warp-tile (the cta_m/cta_n = 16 degenerate case
    // makes the formulas coincide). Output is written once.
    let tile_bytes = (plan.cta_m + plan.cta_n) * k * 2;
    let input_bytes = if plan.staged {
        ctas * tile_bytes
    } else {
        ctas * tiles_per_cta * (16 + 16) * k * 2
    };
    let bytes = input_bytes + m * n * 4;
    // Same 50% L2 hit-rate stand-in as `mem_latency`.
    let dram = bytes.div_ceil(32) * gpu.mem.dram_cycles_per_sector
        / (2 * gpu.mem.partitions.max(1) as u64);

    // Latency floor: each wave's k-loop is a dependent chain of
    // per-k-step work. Every step fetches the next operands from global
    // memory; staged plans additionally round-trip shared memory and
    // synchronize twice (fill + drain, costed as shared round-trips
    // through the same MIO pipe), and a warp
    // owning several output tiles issues their HMMAs back to back at
    // the cadence interval before the last one's latency drains.
    let tiles_per_warp = tiles_per_cta.div_ceil(warps);
    let stage = if plan.staged {
        3 * sm.shared_latency
    } else {
        0
    };
    let kstep = mem_latency(gpu) + stage + (tiles_per_warp - 1) * ii + t.latency as u64;
    let latency = waves * ksteps * kstep;

    let mut cycles = compute;
    let mut bound = "tensor";
    if dram > cycles {
        cycles = dram;
        bound = "dram";
    }
    if latency > cycles {
        cycles = latency;
        bound = "latency";
    }
    GemmEstimate {
        cycles,
        bound,
        waves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plans shaped like tcsim-nn's three WMMA `GemmKernel` families.
    fn simple() -> TilePlan {
        TilePlan {
            cta_m: 16,
            cta_n: 16,
            threads: 32,
            shared_bytes: 0,
            regs_per_thread: 24,
            staged: false,
        }
    }

    fn shared() -> TilePlan {
        TilePlan {
            cta_m: 32,
            cta_n: 32,
            threads: 128,
            shared_bytes: 2 * 32 * 16 * 2,
            regs_per_thread: 24,
            staged: true,
        }
    }

    fn cutlass() -> TilePlan {
        TilePlan {
            cta_m: 64,
            cta_n: 64,
            threads: 128,
            shared_bytes: 2 * 64 * 16 * 2 * 2,
            regs_per_thread: 64,
            staged: true,
        }
    }

    #[test]
    fn larger_tiles_win_on_large_square_gemm() {
        let gpu = GpuConfig::titan_v();
        let s = gemm_roofline(1024, 1024, 1024, &simple(), &gpu);
        let sh = gemm_roofline(1024, 1024, 1024, &shared(), &gpu);
        let c = gemm_roofline(1024, 1024, 1024, &cutlass(), &gpu);
        assert!(
            c.cycles <= sh.cycles,
            "cutlass {} vs shared {}",
            c.cycles,
            sh.cycles
        );
        assert!(
            sh.cycles <= s.cycles,
            "shared {} vs simple {}",
            sh.cycles,
            s.cycles
        );
    }

    #[test]
    fn staging_overhead_penalizes_large_tiles_on_small_problems() {
        // At zoo scale the k-chain dominates and the unstaged 16×16
        // tile dodges the fill/drain synchronization every k-step.
        let gpu = GpuConfig::titan_v();
        let s = gemm_roofline(64, 64, 64, &simple(), &gpu);
        let c = gemm_roofline(64, 64, 64, &cutlass(), &gpu);
        assert!(
            s.cycles < c.cycles,
            "simple {} vs cutlass {}",
            s.cycles,
            c.cycles
        );
    }

    #[test]
    fn more_work_costs_more() {
        let gpu = GpuConfig::titan_v();
        let a = gemm_roofline(128, 128, 128, &cutlass(), &gpu);
        let b = gemm_roofline(512, 512, 512, &cutlass(), &gpu);
        assert!(b.cycles > a.cycles);
    }

    #[test]
    fn staging_reduces_the_dram_bound() {
        let gpu = GpuConfig::titan_v();
        let unstaged = TilePlan {
            staged: false,
            ..shared()
        };
        let a = gemm_roofline(1024, 1024, 1024, &shared(), &gpu);
        let b = gemm_roofline(1024, 1024, 1024, &unstaged, &gpu);
        assert!(a.cycles <= b.cycles);
    }
}
