//! Per-kernel decode-once timing tables for the μop issue path.
//!
//! [`DecodedKernel`] pairs a [`tcsim_isa::UopStream`] with per-μop timing
//! precomputed against one [`SmConfig`]: issue interval, result latency
//! and register-bank conflict cycles are all static per instruction, so
//! the per-cycle scheduler reads two small arrays instead of re-deriving
//! them from the `Instr` (and, for bank conflicts, re-counting operand
//! banks on every issue).
//!
//! Decoding is pure: every value is a function of one instruction and
//! the configuration, so a table shared by all CTAs of a launch (or
//! decoded by each SM on its own, see [`crate::LaunchSpec::uops`]) gives
//! the same schedule.

use crate::config::SmConfig;
use tcsim_core::mma_timing;
use tcsim_isa::{Kernel, Op, UnitClass, UopStream};

/// Precomputed issue timing for one μop.
#[derive(Clone, Copy, Debug, Default)]
pub struct UopTiming {
    /// Functional-unit occupancy per issue (0 for memory/control, whose
    /// occupancy is dynamic or absent).
    pub ii: u64,
    /// Operand-collect-to-writeback latency (unused for memory/control).
    pub latency: u64,
    /// Register-bank conflict cycles added to operand collection (already
    /// zero where the operand-reuse cache absorbs them).
    pub bank_conflicts: u64,
}

/// One kernel decoded against one SM configuration: μop stream plus
/// per-μop timing, built once per launch and shared by every CTA.
#[derive(Clone, Debug)]
pub struct DecodedKernel {
    uops: UopStream,
    timing: Vec<UopTiming>,
}

impl DecodedKernel {
    /// Decodes `kernel` for SMs configured as `cfg`.
    pub fn decode(kernel: &Kernel, cfg: &SmConfig) -> DecodedKernel {
        let volta = cfg.volta_tensor;
        let uops = UopStream::decode(kernel, volta);
        let timing = kernel
            .instrs()
            .iter()
            .enumerate()
            .map(|(pc, instr)| {
                let unit = instr.op.unit();
                let bank_conflicts = if cfg.operand_reuse_cache && unit == UnitClass::Tensor {
                    0
                } else {
                    let mut bank_counts = vec![0u32; cfg.reg_banks];
                    for r in uops.uses(pc) {
                        bank_counts[r.0 as usize % cfg.reg_banks] += 1;
                    }
                    bank_counts
                        .iter()
                        .copied()
                        .max()
                        .unwrap_or(1)
                        .saturating_sub(1) as u64
                };
                let (ii, latency) = match unit {
                    UnitClass::Sp => (cfg.warp_ii(cfg.fp32_lanes), cfg.alu_latency),
                    UnitClass::Int => (cfg.warp_ii(cfg.int_lanes), cfg.alu_latency),
                    UnitClass::Fp64 => (cfg.warp_ii(cfg.fp64_lanes), cfg.fp64_latency),
                    UnitClass::Mufu => (cfg.warp_ii(cfg.mufu_lanes), cfg.mufu_latency),
                    UnitClass::Tensor => {
                        let Op::Wmma(dir) = &instr.op else {
                            unreachable!("tensor unit ⇒ wmma.mma")
                        };
                        let t = mma_timing(volta, dir);
                        // A warp normally drives two tensor cores (§IV).
                        let ii =
                            t.initiation_interval as u64 * 2 / (cfg.tensor_cores.max(1) as u64);
                        (ii, t.latency as u64)
                    }
                    UnitClass::Mem | UnitClass::Control => (0, 0),
                };
                UopTiming {
                    ii,
                    latency,
                    bank_conflicts,
                }
            })
            .collect();
        DecodedKernel { uops, timing }
    }

    /// The μop stream (unit classes, operand spans).
    pub fn uops(&self) -> &UopStream {
        &self.uops
    }

    /// Timing of the μop at `pc`.
    pub fn timing(&self, pc: usize) -> UopTiming {
        self.timing[pc]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_isa::{KernelBuilder, Operand};

    #[test]
    fn alu_timing_matches_config() {
        let mut b = KernelBuilder::new("t");
        let r = b.reg();
        b.mov(r, Operand::Imm(1));
        b.fadd(r, r, Operand::Reg(r));
        b.exit();
        let cfg = SmConfig::volta();
        let dk = DecodedKernel::decode(&b.build(), &cfg);
        // mov → Int: ii = warp_ii(int_lanes), latency = alu_latency.
        assert_eq!(dk.timing(0).ii, cfg.warp_ii(cfg.int_lanes));
        assert_eq!(dk.timing(0).latency, cfg.alu_latency);
        // fadd → Sp.
        assert_eq!(dk.timing(1).ii, cfg.warp_ii(cfg.fp32_lanes));
        assert_eq!(dk.timing(1).latency, cfg.alu_latency);
        // exit → Control: no static timing.
        assert_eq!(dk.timing(2).ii, 0);
    }

    #[test]
    fn bank_conflicts_count_same_bank_sources() {
        // Sources r0 and r8 share bank 0 (of 8) ⇒ one conflict cycle.
        let mut b = KernelBuilder::new("t");
        let r0 = b.reg_block(9); // r0..r8
        b.iadd(r0, r0, Operand::Reg(tcsim_isa::Reg(r0.0 + 8)));
        b.exit();
        let cfg = SmConfig::volta();
        let dk = DecodedKernel::decode(&b.build(), &cfg);
        assert_eq!(dk.timing(0).bank_conflicts, 1);
        assert_eq!(dk.timing(1).bank_conflicts, 0);
    }
}
