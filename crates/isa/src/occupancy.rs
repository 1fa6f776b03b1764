//! Per-SM resources and the CTA admission rule.
//!
//! The simulator places CTAs with [`SmResources::admit`], and the static
//! tools (the occupancy lint, the analytical model) count residency with
//! [`SmResources::resident_ctas`], which asks the same rule. The
//! Volta/Turing/Ampere numbers are written only in [`SmResources::of`].

use crate::{TensorGen, WARP_SIZE};
use std::fmt;

/// The resources of one SM that resident CTAs share.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmResources {
    /// Resident warp contexts.
    pub max_warps: usize,
    /// Resident CTA slots.
    pub max_ctas: usize,
    /// 32-bit registers in the register file.
    pub registers: u32,
    /// Shared-memory bytes.
    pub shared_bytes: u32,
}

/// The resources one resident CTA holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtaRequirements {
    /// Warp slots.
    pub warps: usize,
    /// Register-file allocation (registers × threads).
    pub registers: u32,
    /// Shared-memory allocation in bytes.
    pub shared_bytes: u32,
}

impl CtaRequirements {
    /// A CTA of `threads` threads with `regs_per_thread` registers each
    /// and `shared_bytes` of shared memory (static plus dynamic).
    pub fn new(threads: u32, regs_per_thread: u32, shared_bytes: u32) -> CtaRequirements {
        CtaRequirements {
            warps: threads.div_ceil(WARP_SIZE as u32) as usize,
            registers: regs_per_thread.saturating_mul(threads),
            shared_bytes,
        }
    }
}

/// The resource an SM runs out of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Limiter {
    /// CTA slots.
    Ctas,
    /// Warp contexts.
    Warps,
    /// Register file.
    Registers,
    /// Shared memory.
    Shared,
}

impl fmt::Display for Limiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Limiter::Ctas => "ctas",
            Limiter::Warps => "warps",
            Limiter::Registers => "registers",
            Limiter::Shared => "shared",
        })
    }
}

impl SmResources {
    /// One SM of a generation: 64 warps, 32 CTAs and 64K registers, with
    /// 96 KiB of shared memory on Volta (Titan V) and a 64 KiB carve-out
    /// on Turing (RTX 2080) and the Ampere model.
    pub fn of(gen: TensorGen) -> SmResources {
        SmResources {
            max_warps: 64,
            max_ctas: 32,
            registers: 65536,
            shared_bytes: match gen {
                TensorGen::Volta => 96 * 1024,
                TensorGen::Turing | TensorGen::Ampere => 64 * 1024,
            },
        }
    }

    /// Whether one more CTA needing `req` fits on an SM whose `ctas`
    /// resident CTAs hold `held` between them; if not, the first
    /// resource it overflows, tested in the order CTA slots, warps,
    /// registers, shared memory.
    pub fn admit(
        &self,
        held: &CtaRequirements,
        ctas: usize,
        req: &CtaRequirements,
    ) -> Result<(), Limiter> {
        if ctas >= self.max_ctas {
            Err(Limiter::Ctas)
        } else if held.warps + req.warps > self.max_warps {
            Err(Limiter::Warps)
        } else if held.registers + req.registers > self.registers {
            Err(Limiter::Registers)
        } else if held.shared_bytes + req.shared_bytes > self.shared_bytes {
            Err(Limiter::Shared)
        } else {
            Ok(())
        }
    }

    /// How many CTAs needing `req` [`SmResources::admit`] places onto an
    /// empty SM one after another, and the resource that stops the next.
    pub fn resident_ctas(&self, req: &CtaRequirements) -> (usize, Limiter) {
        let mut held = CtaRequirements::default();
        let mut ctas = 0;
        loop {
            if let Err(limiter) = self.admit(&held, ctas, req) {
                return (ctas, limiter);
            }
            held.warps += req.warps;
            held.registers += req.registers;
            held.shared_bytes += req.shared_bytes;
            ctas += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_only_in_shared_memory() {
        let volta = SmResources::of(TensorGen::Volta);
        assert_eq!(
            (volta.max_warps, volta.max_ctas, volta.registers),
            (64, 32, 65536)
        );
        assert_eq!(volta.shared_bytes, 96 * 1024);
        let turing = SmResources::of(TensorGen::Turing);
        assert_eq!(turing.shared_bytes, 64 * 1024);
        assert_eq!(SmResources::of(TensorGen::Ampere), turing);
        assert_eq!(
            SmResources {
                shared_bytes: volta.shared_bytes,
                ..turing
            },
            volta
        );
    }

    #[test]
    fn a_cta_fits_beside_what_is_held() {
        let r = SmResources::of(TensorGen::Volta);
        let empty = CtaRequirements::default();
        let half = CtaRequirements {
            warps: 32,
            registers: 32768,
            shared_bytes: 48 * 1024,
        };
        assert_eq!(r.admit(&empty, 0, &half), Ok(()));
        assert_eq!(r.admit(&half, 1, &half), Ok(()));
        let more = CtaRequirements {
            shared_bytes: half.shared_bytes + 1,
            ..half
        };
        assert_eq!(r.admit(&half, 1, &more), Err(Limiter::Shared));
        assert_eq!(r.admit(&empty, r.max_ctas, &empty), Err(Limiter::Ctas));
    }

    #[test]
    fn ties_name_the_first_resource_in_order() {
        // Two 32-warp CTAs fill the warps and the register file at once.
        let r = SmResources::of(TensorGen::Volta);
        let req = CtaRequirements::new(1024, 32, 0);
        assert_eq!(r.resident_ctas(&req), (2, Limiter::Warps));
        // Thirty-two one-warp CTAs fill the slots and the warps at once.
        let req = CtaRequirements::new(64, 1, 0);
        assert_eq!(r.resident_ctas(&req), (32, Limiter::Ctas));
    }

    #[test]
    fn registers_are_charged_per_thread() {
        let r = SmResources::of(TensorGen::Volta);
        // 33 threads × 255 registers: a partial warp costs only its
        // threads, so seven CTAs fit where whole warps would fit four.
        let req = CtaRequirements::new(33, 255, 0);
        assert_eq!((req.warps, req.registers), (2, 8415));
        assert_eq!(r.resident_ctas(&req), (7, Limiter::Registers));
        // No registers: only the slots bound a one-thread CTA.
        let req = CtaRequirements::new(1, 0, 0);
        assert_eq!(r.resident_ctas(&req), (32, Limiter::Ctas));
    }

    #[test]
    fn an_oversized_cta_is_never_resident() {
        let turing = SmResources::of(TensorGen::Turing);
        let req = CtaRequirements::new(32, 8, 90 * 1024);
        assert_eq!(turing.resident_ctas(&req), (0, Limiter::Shared));
        let req = CtaRequirements::new(2080, 1, 0);
        assert_eq!(turing.resident_ctas(&req), (0, Limiter::Warps));
    }
}
