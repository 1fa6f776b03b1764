//! Streaming-multiprocessor configuration (the Fig 1 sub-core resources).

use std::fmt;
use tcsim_isa::{SmResources, TensorGen};

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
#[derive(Clone, Copy)]
pub struct SmConfig {
    /// Processing blocks per SM (Volta: 4).
    pub sub_cores: usize,
    /// Warp, CTA, register and shared-memory capacity, which CTAs are
    /// admitted against ([`SmResources::admit`]).
    pub resources: SmResources,
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
            resources: SmResources::of(TensorGen::Volta),
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
            resources: SmResources::of(TensorGen::Turing),
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
    pub fn tensor_gen(&self) -> TensorGen {
        if self.volta_tensor {
            TensorGen::Volta
        } else if self.ampere_mma_sync {
            TensorGen::Ampere
        } else {
            TensorGen::Turing
        }
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

/// The flat field list `#[derive(Debug)]` printed while the resource
/// table was four loose fields: tcsim-serve and tcsim-infer hash this
/// rendering into their cache keys, so it stays the same.
impl fmt::Debug for SmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let SmConfig {
            sub_cores,
            resources,
            l1_kib,
            fp32_lanes,
            int_lanes,
            fp64_lanes,
            mufu_lanes,
            tensor_cores,
            alu_latency,
            fp64_latency,
            mufu_latency,
            shared_latency,
            mio_cycles_per_txn,
            operand_collect,
            reg_banks,
            volta_tensor,
            ampere_mma_sync,
            scheduler,
            operand_reuse_cache,
        } = self;
        f.debug_struct("SmConfig")
            .field("sub_cores", sub_cores)
            .field("max_warps", &resources.max_warps)
            .field("max_ctas", &resources.max_ctas)
            .field("registers", &resources.registers)
            .field("shared_bytes", &resources.shared_bytes)
            .field("l1_kib", l1_kib)
            .field("fp32_lanes", fp32_lanes)
            .field("int_lanes", int_lanes)
            .field("fp64_lanes", fp64_lanes)
            .field("mufu_lanes", mufu_lanes)
            .field("tensor_cores", tensor_cores)
            .field("alu_latency", alu_latency)
            .field("fp64_latency", fp64_latency)
            .field("mufu_latency", mufu_latency)
            .field("shared_latency", shared_latency)
            .field("mio_cycles_per_txn", mio_cycles_per_txn)
            .field("operand_collect", operand_collect)
            .field("reg_banks", reg_banks)
            .field("volta_tensor", volta_tensor)
            .field("ampere_mma_sync", ampere_mma_sync)
            .field("scheduler", scheduler)
            .field("operand_reuse_cache", operand_reuse_cache)
            .finish()
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
        assert_eq!(c.resources.registers, 65536);
        assert_eq!(c.resources.max_warps, 64);
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
    fn debug_form_lists_the_resources_flat() {
        // Serve and infer cache keys hash this text.
        let text = format!("{:?}", SmConfig::volta());
        assert!(
            text.starts_with(
                "SmConfig { sub_cores: 4, max_warps: 64, max_ctas: 32, registers: 65536, \
                 shared_bytes: 98304, l1_kib: 128, fp32_lanes: 16,"
            ),
            "{text}"
        );
        assert!(
            text.ends_with("scheduler: Gto, operand_reuse_cache: true }"),
            "{text}"
        );
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
        assert_eq!(SmConfig::volta().tensor_gen(), TensorGen::Volta);
        assert_eq!(SmConfig::turing().tensor_gen(), TensorGen::Turing);
        let ampere = SmConfig::ampere();
        assert_eq!(ampere.tensor_gen(), TensorGen::Ampere);
        // Ampere keeps the Turing structural parameters.
        assert!(!ampere.volta_tensor);
        assert_eq!(ampere.resources, SmConfig::turing().resources);
        assert_eq!(ampere.l1_kib, SmConfig::turing().l1_kib);
    }
}
