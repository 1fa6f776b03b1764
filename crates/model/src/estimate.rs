//! Roofline composition: from one warp's [`WalkSummary`] to a
//! whole-launch cycle estimate.
//!
//! The launch is modeled as `waves` rounds of concurrently resident CTAs
//! (occupancy-limited), and the cycle count as the maximum of five
//! bounds, mirroring how the paper decomposes measured kernels into
//! issue-, tensor-, and memory-limited regimes (§V–VI):
//!
//! * **issue** — one warp instruction per sub-core scheduler per cycle;
//! * **unit** — per-class functional-unit occupancy (FP32/INT lanes,
//!   HMMA cadence from Table III);
//! * **mio** — the shared-memory/LSU pipe at `mio_cycles_per_txn`;
//! * **dram** — 32-byte sectors across the memory partitions;
//! * **latency** — the dependence critical path of each wave when too
//!   few warps are resident to hide it.

use tcsim_isa::{Kernel, UnitClass};
use tcsim_sim::GpuConfig;
use tcsim_sm::DecodedKernel;
use tcsim_verify::perf::{occupancy, Occupancy};
use tcsim_verify::LaunchGeometry;

use crate::walk::{walk_kernel, WalkSummary};

/// A static whole-launch cycle estimate and its decomposition.
#[derive(Clone, Debug)]
pub struct Estimate {
    /// Estimated launch cycles.
    pub cycles: u64,
    /// Which bound produced the estimate: `"issue"`, a unit-class name
    /// (`"sp"`, `"int"`, `"tensor"`, …), `"mio"`, `"dram"` or
    /// `"latency"`.
    pub bound: &'static str,
    /// CTA waves: grid size over concurrently resident CTAs.
    pub waves: u64,
    /// Static occupancy under the GPU's SM limits.
    pub occupancy: Occupancy,
    /// The per-warp cost walk backing the estimate.
    pub walk: WalkSummary,
}

/// Fixed launch/drain overhead added to every estimate: parameter and
/// instruction delivery plus the final writeback drain. Calibrated
/// against the cycle-level simulator on the fuzz corpus.
const LAUNCH_OVERHEAD: u64 = 60;

/// The model's flat global-memory round-trip latency for `gpu`: NoC both
/// ways plus half the DRAM latency (a 50% L2 hit-rate stand-in).
pub fn mem_latency(gpu: &GpuConfig) -> u64 {
    2 * gpu.mem.noc_latency + gpu.mem.dram_latency / 2
}

/// How a launch spreads over the GPU: CTA waves, and the warps one SM
/// and one of its schedulers process over the whole launch (throughput
/// bounds integrate over all waves).
pub(crate) struct Spread {
    /// Rounds of concurrently resident CTAs.
    pub waves: u64,
    /// Warps per SM over the launch.
    pub warps_per_sm: u64,
    /// Warps per sub-core scheduler over the launch.
    pub warps_per_sched: u64,
}

/// The [`Spread`] of `ctas` CTAs of `warps_per_cta` warps on `gpu` when
/// `resident` of them fit on an SM at once (at least one is assumed).
pub(crate) fn spread(gpu: &GpuConfig, ctas: u64, warps_per_cta: u64, resident: u32) -> Spread {
    let sms = gpu.num_sms.max(1) as u64;
    let warps_per_sm = (ctas * warps_per_cta).div_ceil(sms);
    Spread {
        waves: ctas.div_ceil(sms * (resident as u64).max(1)),
        warps_per_sm,
        warps_per_sched: warps_per_sm.div_ceil(gpu.sm.sub_cores.max(1) as u64),
    }
}

/// Short lower-case name of a unit class, for the `bound` field.
fn unit_name(u: UnitClass) -> &'static str {
    match u {
        UnitClass::Sp => "sp",
        UnitClass::Int => "int",
        UnitClass::Fp64 => "fp64",
        UnitClass::Mufu => "mufu",
        UnitClass::Tensor => "tensor",
        UnitClass::Mem => "mem",
        UnitClass::Control => "control",
    }
}

/// Estimates the cycle count of launching `kernel` under `geom` on `gpu`
/// with the parameter buffer `params`, without simulating.
pub fn estimate(
    kernel: &Kernel,
    geom: &LaunchGeometry,
    params: &[u8],
    gpu: &GpuConfig,
) -> Estimate {
    let sm = &gpu.sm;
    let dk = DecodedKernel::decode(kernel, sm);
    let mem_lat = mem_latency(gpu);
    let walk = walk_kernel(kernel, &dk, geom, sm, params, mem_lat);

    let occ = occupancy(kernel, geom, &sm.resources);
    let ctas = geom.grid.count().max(1);
    let warps_per_cta = geom.warps_per_cta().max(1) as u64;
    let total_warps = ctas * warps_per_cta;
    let Spread {
        waves,
        warps_per_sm,
        warps_per_sched,
    } = spread(gpu, ctas, warps_per_cta, occ.ctas_per_sm);

    // Issue bound: each scheduler retires one warp instruction per cycle.
    let mut cycles = walk.steps * warps_per_sched;
    let mut bound = "issue";

    // Per-unit occupancy bounds. The MIO classes are covered by the
    // dedicated bound below (the pipe is SM-wide, not per-scheduler).
    for (ui, u) in UnitClass::ALL.iter().enumerate() {
        if matches!(u, UnitClass::Mem | UnitClass::Control) {
            continue;
        }
        let t = walk.issue_cycles[ui] * warps_per_sched;
        if t > cycles {
            cycles = t;
            bound = unit_name(*u);
        }
    }

    // MIO bound: transactions from every warp on the SM share one pipe.
    let mio = walk.mio_txns * sm.mio_cycles_per_txn * warps_per_sm;
    if mio > cycles {
        cycles = mio;
        bound = "mio";
    }

    // DRAM bound: all sectors of the launch over the partition count,
    // at the same 50% L2 hit-rate stand-in as `mem_latency`.
    let dram = total_warps * walk.global_sectors * gpu.mem.dram_cycles_per_sector
        / (2 * gpu.mem.partitions.max(1) as u64);
    if dram > cycles {
        cycles = dram;
        bound = "dram";
    }

    // Latency bound: each wave must at least traverse the dependence
    // chain of its slowest warp.
    let latency = waves * walk.critical_path;
    if latency > cycles {
        cycles = latency;
        bound = "latency";
    }

    Estimate {
        cycles: cycles + LAUNCH_OVERHEAD,
        bound,
        waves,
        occupancy: occ,
        walk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_isa::{KernelBuilder, MemWidth, Operand};

    fn tiny_kernel() -> Kernel {
        let mut b = KernelBuilder::new("tiny");
        let r = b.reg();
        b.mov(r, Operand::Imm(1));
        b.iadd(r, r, Operand::Imm(2));
        b.exit();
        b.build()
    }

    #[test]
    fn estimate_is_deterministic() {
        let k = tiny_kernel();
        let geom = LaunchGeometry::new((4, 1, 1), (64, 1, 1));
        let gpu = GpuConfig::mini();
        let a = estimate(&k, &geom, &[], &gpu);
        let b = estimate(&k, &geom, &[], &gpu);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.bound, b.bound);
        assert_eq!(a.walk, b.walk);
    }

    #[test]
    fn bigger_grids_cost_more() {
        let k = tiny_kernel();
        let gpu = GpuConfig::mini();
        let small = estimate(&k, &LaunchGeometry::new((2, 1, 1), (64, 1, 1)), &[], &gpu);
        let large = estimate(&k, &LaunchGeometry::new((512, 1, 1), (64, 1, 1)), &[], &gpu);
        assert!(
            large.cycles > small.cycles,
            "{} vs {}",
            large.cycles,
            small.cycles
        );
    }

    #[test]
    fn memory_heavy_kernel_is_memory_bound() {
        let mut b = KernelBuilder::new("mem");
        let pp = b.param_u64("p");
        let addr = b.reg_pair();
        let d = b.reg();
        b.ld_param(MemWidth::B64, addr, pp);
        for i in 0..64 {
            b.ld_global(MemWidth::B32, d, addr, 4 * i);
        }
        b.exit();
        let k = b.build();
        let geom = LaunchGeometry::new((256, 1, 1), (256, 1, 1));
        let e = estimate(&k, &geom, &64u64.to_le_bytes(), &GpuConfig::mini());
        assert!(
            e.bound == "dram" || e.bound == "mio",
            "expected a memory bound, got {}",
            e.bound
        );
    }

    #[test]
    fn single_warp_is_latency_bound() {
        let mut b = KernelBuilder::new("chain");
        let r = b.reg();
        b.mov(r, Operand::Imm(1));
        for _ in 0..32 {
            b.fadd(r, r, Operand::Reg(r));
        }
        b.exit();
        let k = b.build();
        let e = estimate(
            &k,
            &LaunchGeometry::new((1, 1, 1), (32, 1, 1)),
            &[],
            &GpuConfig::mini(),
        );
        assert_eq!(e.bound, "latency");
        assert_eq!(e.waves, 1);
    }
}
