//! Per-warp scoreboard tracking in-flight register writes (RAW/WAW
//! hazards), as the paper's GPGPU-Sim changes do for `wmma.mma` (§V-A:
//! "We updated the scoreboard to check for RAW and WAW hazard associated
//! with wmma.mma instructions").
//!
//! The state is two dense per-register arrays, so the hazard check is a
//! slice walk with no hashing or allocation:
//!
//! * an entry is *pending* iff `ready[r] > now`, so completed writes need
//!   no `retire` pass: they are simply skipped;
//! * [`Scoreboard::issue`] keeps the **latest** completion per register
//!   (overwrite-if-greater, OR the memory flag on ties);
//! * a running maximum is exact for [`Scoreboard::all_clear_at`]: if the
//!   max is in the past, every entry is.

use tcsim_isa::Reg;

/// A blocking dependency found by [`Scoreboard::check`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hazard {
    /// Cycle at which the last blocking write completes.
    pub ready: u64,
    /// Whether any blocking write came from the memory unit: this is what
    /// turns a scoreboard stall into a *memory* stall rather than a plain
    /// RAW dependency in the trace breakdown.
    pub from_mem: bool,
}

/// Dense in-flight write tracking for one warp (indexed by register
/// number, sized to the kernel's register count).
#[derive(Clone, Debug)]
pub struct Scoreboard {
    /// Cycle each register's latest in-flight write completes (0 = never
    /// written, always ready).
    ready: Box<[u64]>,
    /// Whether that write came from the memory unit.
    from_mem: Box<[bool]>,
    /// Max over all completion times ever recorded.
    max_ready: u64,
}

impl Scoreboard {
    /// An empty scoreboard covering registers `0..num_regs`.
    pub fn new(num_regs: usize) -> Scoreboard {
        Scoreboard {
            ready: vec![0; num_regs].into_boxed_slice(),
            from_mem: vec![false; num_regs].into_boxed_slice(),
            max_ready: 0,
        }
    }

    /// Whether an instruction reading `uses` (RAW) and writing `defs`
    /// (WAW) can issue at `now`; returns the blocking [`Hazard`] (latest
    /// completion, OR of memory-origin flags) otherwise.
    pub fn check(&self, uses: &[Reg], defs: &[Reg], now: u64) -> Result<(), Hazard> {
        let mut block: Option<Hazard> = None;
        for &r in uses.iter().chain(defs) {
            let ready = self.ready[r.0 as usize];
            if ready > now {
                let from_mem = self.from_mem[r.0 as usize];
                block = Some(match block {
                    None => Hazard { ready, from_mem },
                    Some(h) => Hazard {
                        ready: h.ready.max(ready),
                        from_mem: h.from_mem || from_mem,
                    },
                });
            }
        }
        match block {
            None => Ok(()),
            Some(h) => Err(h),
        }
    }

    /// Records an issued instruction's writes to `defs` completing at
    /// `ready`.
    pub fn issue(&mut self, defs: &[Reg], ready: u64, from_mem: bool) {
        // `max_ready` advances only on actual register writes: an
        // instruction without defs (e.g. a store) must not move the
        // barrier fence.
        for &r in defs {
            let slot = &mut self.ready[r.0 as usize];
            if ready > *slot {
                *slot = ready;
                self.from_mem[r.0 as usize] = from_mem;
            } else if ready == *slot {
                self.from_mem[r.0 as usize] |= from_mem;
            }
            self.max_ready = self.max_ready.max(ready);
        }
    }

    /// Cycle when every pending write has completed (`now` if none) —
    /// the barrier-fence query.
    pub fn all_clear_at(&self, now: u64) -> u64 {
        self.max_ready.max(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_isa::{Instr, MemSpace, MemWidth, Op, Operand};

    fn r(n: u16) -> Reg {
        Reg(n)
    }

    #[test]
    fn raw_and_waw_block_until_completion() {
        let mut sb = Scoreboard::new(8);
        sb.issue(&[r(1)], 50, false);
        assert_eq!(
            sb.check(&[r(1)], &[r(2)], 10),
            Err(Hazard {
                ready: 50,
                from_mem: false
            })
        );
        assert_eq!(
            sb.check(&[r(4)], &[r(1)], 20),
            Err(Hazard {
                ready: 50,
                from_mem: false
            })
        );
        assert_eq!(sb.check(&[r(1)], &[r(2)], 50), Ok(()));
    }

    #[test]
    fn latest_writer_wins_and_memory_flag_tracks_it() {
        let mut sb = Scoreboard::new(8);
        sb.issue(&[r(1)], 200, true);
        assert_eq!(
            sb.check(&[r(1)], &[], 10),
            Err(Hazard {
                ready: 200,
                from_mem: true
            })
        );
        // A later ALU overwrite clears the memory attribution.
        sb.issue(&[r(1)], 300, false);
        assert_eq!(
            sb.check(&[r(1)], &[], 10),
            Err(Hazard {
                ready: 300,
                from_mem: false
            })
        );
        // An *earlier* completion must not mask the pending one.
        sb.issue(&[r(1)], 250, true);
        assert_eq!(
            sb.check(&[r(1)], &[], 10),
            Err(Hazard {
                ready: 300,
                from_mem: false
            })
        );
    }

    #[test]
    fn a_block_on_a_load_and_an_alu_write_is_a_memory_stall() {
        let mut sb = Scoreboard::new(8);
        sb.issue(&[r(1)], 200, true);
        sb.issue(&[r(2)], 40, false);
        assert_eq!(
            sb.check(&[r(1), r(2)], &[r(4)], 10),
            Err(Hazard {
                ready: 200,
                from_mem: true
            })
        );
        assert_eq!(
            sb.check(&[r(2)], &[r(4)], 10),
            Err(Hazard {
                ready: 40,
                from_mem: false
            })
        );
        assert_eq!(sb.check(&[r(5)], &[r(6)], 10), Ok(()), "independent");
    }

    #[test]
    fn all_clear_tracks_running_max() {
        let mut sb = Scoreboard::new(8);
        assert_eq!(sb.all_clear_at(7), 7);
        sb.issue(&[r(3)], 40, false);
        sb.issue(&[r(5)], 25, true);
        assert_eq!(sb.all_clear_at(10), 40);
        assert_eq!(sb.all_clear_at(90), 90);
    }

    /// A five-instruction program of ALU moves and global loads, issued 13
    /// cycles apart. Before each issue the instruction is checked at four
    /// probe cycles; every hazard and barrier-fence cycle is the value the
    /// earlier per-register map scoreboard reported there.
    #[test]
    fn recorded_hazards_on_a_mixed_sequence() {
        let mov = |dst: u16, src: u16| {
            Instr::new(Op::Mov)
                .with_dst(Reg(dst))
                .with_srcs(vec![Operand::Reg(Reg(src))])
        };
        let ld = |dst: u16, addr: u16| {
            Instr::new(Op::Ld {
                space: MemSpace::Global,
                width: MemWidth::B32,
            })
            .with_dst(Reg(dst))
            .with_srcs(vec![Operand::Reg(Reg(addr))])
        };
        let alu = |ready| {
            Err(Hazard {
                ready,
                from_mem: false,
            })
        };
        let mem = |ready| {
            Err(Hazard {
                ready,
                from_mem: true,
            })
        };
        const OK: Result<(), Hazard> = Ok(());
        // (instruction, its completion cycle, [(probe, check, all_clear_at)]).
        #[rustfmt::skip]
        let program = [
            (mov(1, 0),  50, [(0, OK, 0),          (17, OK, 17),        (49, OK, 49),        (50, OK, 50)]),
            (ld(2, 1),  180, [(13, alu(50), 50),   (30, alu(50), 50),   (179, OK, 179),      (180, OK, 180)]),
            (mov(3, 2),  60, [(26, mem(180), 180), (43, mem(180), 180), (59, mem(180), 180), (60, mem(180), 180)]),
            (ld(1, 3),  300, [(39, alu(60), 180),  (56, alu(60), 180),  (299, OK, 299),      (300, OK, 300)]),
            (mov(4, 1), 310, [(52, mem(300), 300), (69, mem(300), 300), (309, OK, 309),      (310, OK, 310)]),
        ];
        let mut sb = Scoreboard::new(16);
        for (instr, ready, probes) in program {
            let uses = instr.use_regs(true);
            let defs = instr.def_regs(true);
            for (probe, check, clear) in probes {
                assert_eq!(
                    sb.check(&uses, &defs, probe),
                    check,
                    "check at cycle {probe}"
                );
                assert_eq!(sb.all_clear_at(probe), clear, "fence at cycle {probe}");
            }
            sb.issue(&defs, ready, instr.op.unit() == tcsim_isa::UnitClass::Mem);
        }
    }
}
