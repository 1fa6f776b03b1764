//! Streaming-multiprocessor configuration (the Fig 1 sub-core resources).

use crate::sm::CtaRequirements;

/// Warp scheduling policy of each sub-core scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Greedy-then-oldest: keep issuing the same warp until it stalls,
    /// then fall back to the oldest ready warp (GPGPU-Sim's default).
    Gto,
    /// Loose round-robin over the sub-core's warps.
    RoundRobin,
}

/// Per-SM structural and latency parameters.
///
/// Defaults (via [`SmConfig::volta`]) model one Titan V SM as described in
/// §II-A and Fig 1: four sub-cores, each with one warp scheduler
/// (1 warp-inst/clk), 16 FP32 + 16 INT + 8 FP64 + 4 MUFU lanes, two
/// tensor cores, and a shared MIO path for memory operations.
#[derive(Clone, Copy, Debug)]
pub struct SmConfig {
    /// Processing blocks per SM (Volta: 4).
    pub sub_cores: usize,
    /// Maximum resident warps per SM (Volta: 64).
    pub max_warps: usize,
    /// Maximum resident CTAs per SM (Volta: 32).
    pub max_ctas: usize,
    /// 32-bit registers per SM (Volta: 64K).
    pub registers: u32,
    /// Shared memory capacity per SM in bytes (Volta: up to 96 KiB).
    pub shared_bytes: u32,
    /// L1 data cache size in KiB.
    pub l1_kib: usize,
    /// FP32 lanes per sub-core (FFMA/clk).
    pub fp32_lanes: usize,
    /// INT lanes per sub-core.
    pub int_lanes: usize,
    /// FP64 lanes per sub-core.
    pub fp64_lanes: usize,
    /// MUFU (transcendental) lanes per sub-core.
    pub mufu_lanes: usize,
    /// Tensor cores per sub-core (Volta: 2; a warp uses both, §IV).
    pub tensor_cores: usize,
    /// ALU result latency (FP32/INT).
    pub alu_latency: u64,
    /// FP64 result latency.
    pub fp64_latency: u64,
    /// MUFU result latency.
    pub mufu_latency: u64,
    /// Shared-memory access latency (conflict-free).
    pub shared_latency: u64,
    /// Cycles the MIO path is occupied per memory transaction.
    pub mio_cycles_per_txn: u64,
    /// Register operand collection latency added before issue-to-unit
    /// (operand collector stage).
    pub operand_collect: u64,
    /// Register-file banks per sub-core (bank conflicts add cycles).
    pub reg_banks: usize,
    /// Whether the tensor cores follow the Volta model (double-loaded
    /// fragments, Fig 9 timing) or Turing (Table I timing).
    pub volta_tensor: bool,
    /// Whether the tensor cores additionally accept the Ampere
    /// per-instruction `mma.sync` modes (m16n8 tiles, BF16/TF32
    /// multiplicands, 2:4 sparsity). Requires `volta_tensor == false`.
    pub ampere_mma_sync: bool,
    /// Warp scheduler policy.
    pub scheduler: SchedPolicy,
    /// Model the operand-reuse cache (`.reuse` flags, §III-C): when on,
    /// repeated source operands of consecutive tensor-core steps skip
    /// their register-bank fetch, avoiding bank-conflict stalls.
    pub operand_reuse_cache: bool,
}

impl SmConfig {
    /// One Volta (Titan V) SM.
    pub fn volta() -> SmConfig {
        SmConfig {
            sub_cores: 4,
            max_warps: 64,
            max_ctas: 32,
            registers: 65536,
            shared_bytes: 96 * 1024,
            l1_kib: 128,
            fp32_lanes: 16,
            int_lanes: 16,
            fp64_lanes: 8,
            mufu_lanes: 4,
            tensor_cores: 2,
            alu_latency: 4,
            fp64_latency: 16,
            mufu_latency: 21,
            shared_latency: 24,
            mio_cycles_per_txn: 2,
            operand_collect: 4,
            reg_banks: 8,
            volta_tensor: true,
            ampere_mma_sync: false,
            scheduler: SchedPolicy::Gto,
            operand_reuse_cache: true,
        }
    }

    /// One Turing (RTX 2080) SM: same sub-core structure, Turing tensor
    /// timing, 64 KiB shared carve-out.
    pub fn turing() -> SmConfig {
        SmConfig {
            shared_bytes: 64 * 1024,
            l1_kib: 96,
            volta_tensor: false,
            ..SmConfig::volta()
        }
    }

    /// An Ampere-generation SM: Turing structure plus the per-instruction
    /// `mma.sync` modes (a "mini-A100" for conformance testing — the
    /// paper's measured machines remain Volta and Turing).
    pub fn ampere() -> SmConfig {
        SmConfig {
            ampere_mma_sync: true,
            ..SmConfig::turing()
        }
    }

    /// The tensor-core generation this SM models.
    pub fn tensor_gen(&self) -> tcsim_isa::TensorGen {
        if self.volta_tensor {
            tcsim_isa::TensorGen::Volta
        } else if self.ampere_mma_sync {
            tcsim_isa::TensorGen::Ampere
        } else {
            tcsim_isa::TensorGen::Turing
        }
    }

    /// Whether one more CTA needing `req` fits on an SM whose `ctas`
    /// resident CTAs hold `held` between them: the occupancy rule of
    /// [`crate::Sm::can_accept`], and of a launch asking whether a CTA
    /// fits on an empty SM at all.
    pub fn fits(&self, held: &CtaRequirements, ctas: usize, req: &CtaRequirements) -> bool {
        held.warps + req.warps <= self.max_warps
            && held.registers + req.registers <= self.registers
            && held.shared_bytes + req.shared_bytes <= self.shared_bytes
            && ctas < self.max_ctas
    }

    /// Issue interval in cycles for a 32-thread warp over `lanes` lanes.
    pub fn warp_ii(&self, lanes: usize) -> u64 {
        (tcsim_isa::WARP_SIZE as u64).div_ceil(lanes as u64)
    }

    /// Peak warp-instruction issue width of one SM in instructions per
    /// cycle: each sub-core scheduler issues at most one warp
    /// instruction per clock (§II-A), so the SM-level bound is the
    /// sub-core count. `IPC ≤ num_sms × issue_width()` is a hard
    /// invariant of any launch.
    pub fn issue_width(&self) -> u64 {
        self.sub_cores as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volta_matches_fig1_resources() {
        let c = SmConfig::volta();
        assert_eq!(c.sub_cores, 4);
        assert_eq!(c.tensor_cores, 2); // two per sub-core → 8 per SM
        assert_eq!(c.fp32_lanes, 16);
        assert_eq!(c.fp64_lanes, 8);
        assert_eq!(c.mufu_lanes, 4);
        assert_eq!(c.registers, 65536);
        assert_eq!(c.max_warps, 64);
    }

    #[test]
    fn issue_width_is_one_warp_instruction_per_sub_core() {
        // §II-A: each sub-core scheduler issues at most one warp
        // instruction per clock, so the SM bound equals the sub-core
        // count on both modeled architectures.
        assert_eq!(SmConfig::volta().issue_width(), 4);
        assert_eq!(SmConfig::turing().issue_width(), 4);
        let narrow = SmConfig {
            sub_cores: 2,
            ..SmConfig::volta()
        };
        assert_eq!(narrow.issue_width(), 2);
    }

    #[test]
    fn a_cta_fits_beside_what_is_held() {
        let c = SmConfig::volta();
        let empty = CtaRequirements::default();
        let half = CtaRequirements {
            warps: 32,
            registers: 32768,
            shared_bytes: 48 * 1024,
        };
        assert!(c.fits(&empty, 0, &half));
        assert!(c.fits(&half, 1, &half));
        let more = CtaRequirements {
            shared_bytes: half.shared_bytes + 1,
            ..half
        };
        assert!(!c.fits(&half, 1, &more), "shared memory");
        assert!(!c.fits(&empty, c.max_ctas, &empty), "CTA slots");
    }

    #[test]
    fn warp_issue_intervals() {
        let c = SmConfig::volta();
        assert_eq!(c.warp_ii(c.fp32_lanes), 2); // 16 FFMA/clk → 2 cycles/warp
        assert_eq!(c.warp_ii(c.fp64_lanes), 4);
        assert_eq!(c.warp_ii(c.mufu_lanes), 8);
        assert_eq!(c.warp_ii(32), 1);
    }

    #[test]
    fn turing_differs_in_tensor_model() {
        assert!(SmConfig::volta().volta_tensor);
        assert!(!SmConfig::turing().volta_tensor);
    }

    #[test]
    fn tensor_generation_classification() {
        use tcsim_isa::TensorGen;
        assert_eq!(SmConfig::volta().tensor_gen(), TensorGen::Volta);
        assert_eq!(SmConfig::turing().tensor_gen(), TensorGen::Turing);
        let ampere = SmConfig::ampere();
        assert_eq!(ampere.tensor_gen(), TensorGen::Ampere);
        // Ampere keeps the Turing structural parameters.
        assert!(!ampere.volta_tensor);
        assert_eq!(ampere.shared_bytes, SmConfig::turing().shared_bytes);
        assert_eq!(ampere.l1_kib, SmConfig::turing().l1_kib);
    }
}
