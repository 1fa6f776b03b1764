//! Static performance diagnostics: occupancy, shared-memory bank
//! conflicts and global-memory coalescing.
//!
//! Unlike the correctness analyses run by [`crate::Verifier::check`],
//! nothing here gates a launch — every rule is a [`crate::Severity::Warn`]
//! surfaced through `tcsim-lint --perf` and the `tcsim-model` analyzer.
//! The pass reuses the affine address recovery of the shared-memory race
//! checker (DESIGN.md §4.12) but asks throughput questions instead of
//! safety questions:
//!
//! * **`low-occupancy`** — how many CTAs an SM hosts ([`occupancy`]) is
//!   counted with the simulator's own admission rule,
//!   [`SmResources::resident_ctas`]; below a quarter of the warp
//!   capacity the scheduler is unlikely to hide ALU/memory latency.
//! * **`shared-bank-conflict`** — for each shared load/store whose
//!   per-lane byte address is *exactly* recovered (affine with no
//!   interval slack), the lanes of a representative warp become
//!   [`MemAccess`]es of the instruction's width, and
//!   [`tcsim_mem::conflict_passes`] — the count the simulator charges —
//!   says how many passes they serialize into.
//! * **`global-uncoalesced`** — per-lane global `ld`/`st` addresses are
//!   recovered through a 64-bit pair domain (`ld.param.b64` bases plus
//!   `IAdd64`/`IMAD.WIDE` arithmetic); [`tcsim_mem::coalesce`] counts the
//!   32-byte sectors one warp touches, and the lint warns when the access
//!   needs more than twice the ideal sector count. A pointer parameter is
//!   taken to be sector-aligned, as device allocations are.
//!
//! Accesses whose lanes are not exactly known are skipped silently:
//! addresses with interval slack (from `And` masks or unresolved
//! loop-carried values) or below zero, and instructions under a
//! thread-varying guard or divergent control flow, whose active lanes are
//! unknown. The lint reports provable throughput hazards, not
//! possibilities — the opposite polarity of the race checker, which must
//! over-approximate. [`access_costs`] lists what it recovered.

use crate::cfg::Cfg;
use crate::dataflow::Taint;
use crate::shmem::{
    self, env_fixpoint, eval, sym_max, transfer, Affine, Env, NSYM, S_LANE, S_TIDX, S_TIDY, S_TIDZ,
};
use crate::{Diagnostic, LaunchGeometry, Sink};
use std::collections::HashMap;
use tcsim_isa::exec::MemAccess;
use tcsim_isa::{
    CtaRequirements, Instr, Kernel, Limiter, MemSpace, MemWidth, Op, Operand, SmResources,
};
use tcsim_mem::{coalesce, conflict_passes};

/// Static occupancy of one kernel under one launch geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Occupancy {
    /// Warps per CTA (from the block shape).
    pub warps_per_cta: u32,
    /// CTAs resident per SM (0 when a single CTA over-subscribes a
    /// resource and the kernel cannot launch).
    pub ctas_per_sm: u32,
    /// Resident warps per SM (`ctas_per_sm · warps_per_cta`).
    pub warps_per_sm: u32,
    /// Warp capacity the fraction is taken against.
    pub max_warps: u32,
    /// The resource that stops one more CTA from becoming resident.
    pub limiter: Limiter,
}

impl Occupancy {
    /// Resident warps as a fraction of the SM's warp capacity.
    pub fn fraction(&self) -> f64 {
        self.warps_per_sm as f64 / self.max_warps as f64
    }
}

/// Computes static occupancy: how many CTAs of `kernel` under `geom` an
/// SM with `res` admits, by the simulator's rule, and which resource
/// stops the next one.
pub fn occupancy(kernel: &Kernel, geom: &LaunchGeometry, res: &SmResources) -> Occupancy {
    let req = CtaRequirements::new(
        geom.threads_per_cta(),
        kernel.num_regs(),
        kernel.shared_bytes() + geom.dynamic_shared,
    );
    let (ctas, limiter) = res.resident_ctas(&req);
    Occupancy {
        warps_per_cta: req.warps as u32,
        ctas_per_sm: ctas as u32,
        warps_per_sm: (ctas * req.warps) as u32,
        max_warps: res.max_warps as u32,
        limiter,
    }
}

/// A 64-bit abstract value: an affine byte offset relative to a base.
///
/// The base distinguishes pointers loaded from different kernel
/// parameters — offsets are only comparable within one base.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PairVal {
    /// `Some(param_offset)` when derived from `ld.param.b64`, `None` for
    /// absolute 64-bit constants.
    base: Option<u32>,
    off: Affine,
}

type PairEnv = HashMap<u16, PairVal>;

/// Transfer function of the 64-bit pair domain. `env` is the 32-bit
/// affine environment *before* this instruction.
fn pair_transfer(penv: &mut PairEnv, env: &Env, i: &Instr, geom: &LaunchGeometry) {
    let defs = i.def_regs(geom.volta());
    let eval32 = |op: &Operand| -> Option<Affine> {
        eval(op, env, geom).filter(|v| v.t.is_none()).map(|v| v.a)
    };
    let side = |op: &Operand, penv: &PairEnv| -> Option<PairVal> {
        match op {
            Operand::RegPair(r) => penv.get(&r.0).copied(),
            Operand::Imm(v) => Some(PairVal {
                base: None,
                off: Affine::constant(*v),
            }),
            Operand::Reg(_) | Operand::Special(_) => {
                eval32(op).map(|a| PairVal { base: None, off: a })
            }
            Operand::Pred(_) => None,
        }
    };
    let value: Option<PairVal> = if i.guard.is_some() || defs.len() != 2 {
        None
    } else {
        match i.op {
            Op::Ld {
                space: MemSpace::Param,
                width: MemWidth::B64,
            } => match i.srcs.first() {
                Some(Operand::Imm(off)) => Some(PairVal {
                    base: Some(*off as u32),
                    off: Affine::constant(0),
                }),
                _ => None,
            },
            Op::Mov64 => i.srcs.first().and_then(|s| side(s, penv)),
            Op::IAdd64 => {
                let a = i.srcs.first().and_then(|s| side(s, penv));
                let b = i.srcs.get(1).and_then(|s| side(s, penv));
                a.zip(b).and_then(|(a, b)| {
                    let base = match (a.base, b.base) {
                        (x, None) => x,
                        (None, x) => x,
                        _ => return None,
                    };
                    Some(PairVal {
                        base,
                        off: a.off.add(&b.off),
                    })
                })
            }
            Op::IMadWide => {
                let a = i.srcs.first().and_then(eval32);
                let b = i.srcs.get(1).and_then(eval32);
                let prod = a
                    .zip(b)
                    .and_then(|(a, b)| match (a.is_const(), b.is_const()) {
                        (_, Some(k)) => Some(a.mul_k(k)),
                        (Some(k), _) => Some(b.mul_k(k)),
                        _ => None,
                    });
                let c = i.srcs.get(2).and_then(|s| side(s, penv));
                prod.zip(c).map(|(p, c)| PairVal {
                    base: c.base,
                    off: c.off.add(&p),
                })
            }
            _ => None,
        }
    };
    for r in &defs {
        // A write to either half of a tracked pair invalidates it.
        penv.remove(&r.0);
        if r.0 > 0 {
            penv.remove(&(r.0 - 1));
        }
    }
    if let (Some(v), 2) = (value, defs.len()) {
        penv.insert(defs[0].0, v);
    }
}

/// Per-block entry environments of the pair domain: a plain equality-join
/// fixpoint (values that differ across paths are dropped, which keeps the
/// lattice finite — pointer bases are loop-invariant in practice).
fn pair_fixpoint(
    k: &Kernel,
    geom: &LaunchGeometry,
    cfg: &Cfg,
    envs: &[Option<Env>],
    max: &[i64; NSYM],
) -> Vec<Option<PairEnv>> {
    let nb = cfg.num_blocks();
    let mut inb: Vec<Option<PairEnv>> = vec![None; nb];
    if nb == 0 {
        return inb;
    }
    inb[0] = Some(PairEnv::new());
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..nb {
            if !cfg.block_reachable(b) {
                continue;
            }
            let Some(mut penv) = inb[b].clone() else {
                continue;
            };
            let Some(mut env) = envs[b].clone() else {
                continue;
            };
            for pc in cfg.blocks[b].start..cfg.blocks[b].end {
                let i = &k.instrs()[pc];
                pair_transfer(&mut penv, &env, i, geom);
                transfer(&mut env, i, geom, max);
            }
            for &s in &cfg.blocks[b].succs {
                match &mut inb[s] {
                    slot @ None => {
                        *slot = Some(penv.clone());
                        changed = true;
                    }
                    Some(cur) => {
                        let keys: Vec<u16> = cur.keys().copied().collect();
                        for key in keys {
                            if penv.get(&key) != cur.get(&key) {
                                cur.remove(&key);
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
    }
    inb
}

/// The accesses of warp 0 in CTA 0, `width` wide, for an exact affine
/// address form. Returns `None` when the form carries interval slack or a
/// lane's address is negative.
fn lane_accesses(a: &Affine, width: MemWidth, geom: &LaunchGeometry) -> Option<Vec<MemAccess>> {
    if a.lo != a.hi {
        return None;
    }
    let (bx, by) = (geom.block.x as i64, geom.block.y as i64);
    let lanes = (geom.threads_per_cta() as i64).clamp(1, 32);
    (0..lanes)
        .map(|l| {
            // Row-major warp formation: lane l of warp 0 is linear thread id l.
            let addr = a.lo
                + a.c[S_LANE] * l
                + a.c[S_TIDX] * (l % bx)
                + a.c[S_TIDY] * ((l / bx) % by)
                + a.c[S_TIDZ] * (l / (bx * by));
            Some(MemAccess {
                lane: l as u8,
                addr: u64::try_from(addr).ok()?,
                bytes: width.bytes() as u8,
            })
        })
        .collect()
}

/// A shared or global load/store whose lane addresses in warp 0 of
/// CTA 0 the lint recovered exactly, with what the simulator charges it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessCost {
    /// Index of the instruction in `Kernel::instrs()`.
    pub pc: usize,
    /// [`MemSpace::Shared`] or [`MemSpace::Global`].
    pub space: MemSpace,
    /// Bank-conflict passes (shared) or 32-byte sectors (global).
    pub count: u32,
    /// The sectors the lanes' bytes would take if packed densely (1 for
    /// shared accesses).
    pub ideal: u32,
}

/// The cost of every shared and global load/store of `kernel` under
/// `geom` whose lane accesses are exactly recoverable, in walk order
/// (an instruction appears once per reachable block holding it).
pub fn access_costs(kernel: &Kernel, geom: &LaunchGeometry) -> Vec<AccessCost> {
    let cfg = Cfg::build(kernel);
    let taint = Taint::compute(kernel, geom, &cfg);
    let max = sym_max(geom);
    let envs = env_fixpoint(kernel, geom, &cfg, &taint, &max);
    let penvs = pair_fixpoint(kernel, geom, &cfg, &envs, &max);
    let mut costs = Vec::new();

    for b in 0..cfg.num_blocks() {
        if !cfg.block_reachable(b) {
            continue;
        }
        let (Some(mut env), Some(mut penv)) = (envs[b].clone(), penvs[b].clone()) else {
            continue;
        };
        for pc in cfg.blocks[b].start..cfg.blocks[b].end {
            let i = &kernel.instrs()[pc];
            let all_lanes =
                !taint.divergent[pc] && !i.guard.is_some_and(|(p, _)| taint.pred[p.0 as usize]);
            let cost = match i.op {
                Op::Ld {
                    space: MemSpace::Shared,
                    width,
                }
                | Op::St {
                    space: MemSpace::Shared,
                    width,
                } if all_lanes => i
                    .srcs
                    .first()
                    .zip(i.srcs.get(1))
                    .and_then(|(a, o)| eval(a, &env, geom).zip(eval(o, &env, geom)))
                    .and_then(|(a, o)| shmem::val_add(&a, &o))
                    .and_then(|v| lane_accesses(&v.a, width, geom))
                    .map(|lanes| AccessCost {
                        pc,
                        space: MemSpace::Shared,
                        count: conflict_passes(&lanes),
                        ideal: 1,
                    }),
                Op::Ld {
                    space: MemSpace::Global,
                    width,
                }
                | Op::St {
                    space: MemSpace::Global,
                    width,
                } if all_lanes => {
                    let base = i.srcs.first().and_then(|a| match a {
                        Operand::RegPair(r) => penv.get(&r.0).copied(),
                        _ => None,
                    });
                    let off = i
                        .srcs
                        .get(1)
                        .and_then(|o| eval(o, &env, geom))
                        .filter(|v| v.t.is_none())
                        .map(|v| v.a);
                    base.zip(off)
                        .and_then(|(p, off)| lane_accesses(&p.off.add(&off), width, geom))
                        .map(|lanes| AccessCost {
                            pc,
                            space: MemSpace::Global,
                            count: coalesce(&lanes).len() as u32,
                            ideal: (lanes.len() as u64 * width.bytes()).div_ceil(32) as u32,
                        })
                }
                _ => None,
            };
            costs.extend(cost);
            pair_transfer(&mut penv, &env, i, geom);
            transfer(&mut env, i, geom, &max);
        }
    }
    costs
}

/// Runs all performance lints on `kernel` under `geom`, against the
/// per-SM resources of `geom.gen`, returning warning diagnostics in the
/// same shape as [`crate::Verifier::check`]. Never reports errors and
/// never gates a launch.
pub fn check_perf(kernel: &Kernel, geom: &LaunchGeometry) -> Vec<Diagnostic> {
    let mut sink = Sink::new();

    let occ = occupancy(kernel, geom, &SmResources::of(geom.gen));
    if occ.ctas_per_sm == 0 {
        sink.warn(
            0,
            "low-occupancy",
            format!(
                "one CTA already exceeds the per-SM {} budget; the kernel cannot become \
                 resident under these limits",
                occ.limiter
            ),
        );
    } else if occ.fraction() < 0.25 {
        sink.warn(
            0,
            "low-occupancy",
            format!(
                "only {}/{} warps resident per SM ({} CTAs, limited by {}); too few warps \
                 to hide ALU and memory latency",
                occ.warps_per_sm, occ.max_warps, occ.ctas_per_sm, occ.limiter
            ),
        );
    }

    for a in access_costs(kernel, geom) {
        let (count, ideal) = (a.count, a.ideal);
        if a.space == MemSpace::Shared && count >= 2 {
            sink.warn(
                a.pc,
                "shared-bank-conflict",
                format!(
                    "a warp addresses {count} distinct words in one shared-memory bank: \
                     this access serializes into {count} conflict passes"
                ),
            );
        } else if a.space == MemSpace::Global && count > 2 * ideal {
            sink.warn(
                a.pc,
                "global-uncoalesced",
                format!(
                    "warp touches {count} 32-byte sectors where {ideal} would suffice: \
                     global access is uncoalesced ({}x the ideal DRAM traffic)",
                    count / ideal
                ),
            );
        }
    }

    crate::finalize(sink, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_isa::{KernelBuilder, Operand, SpecialReg, TensorGen};

    fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn occupancy_limited_by_shared() {
        let mut b = KernelBuilder::new("big_shared");
        b.shared_alloc(40 * 1024);
        b.exit();
        let k = b.build();
        let geom = LaunchGeometry::new(1u32, 64u32);
        let occ = occupancy(&k, &geom, &SmResources::of(TensorGen::Volta));
        // 96 KiB / 40 KiB = 2 CTAs of 2 warps each.
        assert_eq!(occ.ctas_per_sm, 2);
        assert_eq!(occ.warps_per_sm, 4);
        assert_eq!(occ.limiter, Limiter::Shared);
        assert!(occ.fraction() < 0.25);
    }

    #[test]
    fn occupancy_limited_by_warps() {
        let mut b = KernelBuilder::new("wide");
        b.exit();
        let k = b.build();
        let geom = LaunchGeometry::new(1u32, 1024u32);
        let occ = occupancy(&k, &geom, &SmResources::of(TensorGen::Volta));
        assert_eq!(occ.warps_per_cta, 32);
        assert_eq!(occ.ctas_per_sm, 2);
        assert_eq!(occ.warps_per_sm, 64);
        assert_eq!(occ.limiter, Limiter::Warps);
        assert!((occ.fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn low_occupancy_flagged_for_shared_hog() {
        let mut b = KernelBuilder::new("hog");
        b.shared_alloc(90 * 1024);
        let r = b.reg();
        b.mov(r, Operand::Imm(1));
        b.exit();
        let k = b.build();
        let geom = LaunchGeometry::new(1u32, 32u32);
        let diags = check_perf(&k, &geom);
        assert!(rules(&diags).contains(&"low-occupancy"), "{diags:?}");
        // Over-subscription: one CTA that can never fit.
        let diags = check_perf(&k, &geom.turing());
        assert!(diags
            .iter()
            .any(|d| d.message.contains("cannot become resident")));
    }

    #[test]
    fn stride_32_shared_load_conflicts() {
        // addr = laneid << 5: lanes 0..7 all map to bank 0 with distinct
        // words — an 8-way conflict.
        let mut b = KernelBuilder::new("conflict");
        b.shared_alloc(1024);
        let t = b.reg();
        let d = b.reg();
        b.mov(t, Operand::Special(SpecialReg::LaneId));
        b.shl(t, t, Operand::Imm(5));
        b.ld_shared(tcsim_isa::MemWidth::B32, d, t, 0);
        b.exit();
        let k = b.build();
        let diags = check_perf(&k, &LaunchGeometry::new(1u32, 32u32));
        let conflict = diags
            .iter()
            .find(|d| d.rule == "shared-bank-conflict")
            .unwrap();
        assert!(
            conflict.message.contains("into 8 conflict passes"),
            "{}",
            conflict.message
        );
    }

    #[test]
    fn misaligned_wide_shared_load_counts_every_word() {
        // 8-byte loads at a 132-byte lane stride: each lane's second word
        // lands in the bank of the next lane's first word.
        let mut b = KernelBuilder::new("wide");
        b.shared_alloc(32 * 132 + 8);
        let t = b.reg();
        b.mov(t, Operand::Special(SpecialReg::LaneId));
        b.imul(t, t, Operand::Imm(132));
        let d = b.reg_pair();
        b.ld_shared(tcsim_isa::MemWidth::B64, d, t, 0);
        b.exit();
        let costs = access_costs(&b.build(), &LaunchGeometry::new(1u32, 32u32));
        assert_eq!(costs.len(), 1);
        assert_eq!(costs[0].count, 2);
    }

    #[test]
    fn negative_addresses_are_not_costed() {
        let mut b = KernelBuilder::new("below");
        b.shared_alloc(1024);
        let t = b.reg();
        let d = b.reg();
        b.mov(t, Operand::Special(SpecialReg::LaneId));
        b.shl(t, t, Operand::Imm(2));
        b.ld_shared(tcsim_isa::MemWidth::B32, d, t, -64);
        b.exit();
        let k = b.build();
        assert!(access_costs(&k, &LaunchGeometry::new(1u32, 32u32)).is_empty());
    }

    #[test]
    fn unit_stride_shared_load_is_clean() {
        let mut b = KernelBuilder::new("clean");
        b.shared_alloc(1024);
        let t = b.reg();
        let d = b.reg();
        b.mov(t, Operand::Special(SpecialReg::LaneId));
        b.shl(t, t, Operand::Imm(2));
        b.ld_shared(tcsim_isa::MemWidth::B32, d, t, 0);
        b.exit();
        let k = b.build();
        let diags = check_perf(&k, &LaunchGeometry::new(1u32, 32u32));
        assert!(
            !rules(&diags).contains(&"shared-bank-conflict"),
            "{diags:?}"
        );
    }

    #[test]
    fn strided_global_load_is_uncoalesced() {
        let mut b = KernelBuilder::new("stride");
        let p = b.param_u64("in");
        let base = b.reg_pair();
        b.ld_param(tcsim_isa::MemWidth::B64, base, p);
        let t = b.reg();
        b.mov(t, Operand::Special(SpecialReg::LaneId));
        let addr = b.reg_pair();
        b.imad_wide(addr, t, Operand::Imm(128), base);
        let d = b.reg();
        b.ld_global(tcsim_isa::MemWidth::B32, d, addr, 0);
        b.exit();
        let k = b.build();
        let diags = check_perf(&k, &LaunchGeometry::new(1u32, 32u32));
        assert!(rules(&diags).contains(&"global-uncoalesced"), "{diags:?}");
    }

    #[test]
    fn unit_stride_global_load_is_clean() {
        let mut b = KernelBuilder::new("coalesced");
        let p = b.param_u64("in");
        let base = b.reg_pair();
        b.ld_param(tcsim_isa::MemWidth::B64, base, p);
        let t = b.reg();
        b.mov(t, Operand::Special(SpecialReg::LaneId));
        let addr = b.reg_pair();
        b.imad_wide(addr, t, Operand::Imm(4), base);
        let d = b.reg();
        b.ld_global(tcsim_isa::MemWidth::B32, d, addr, 0);
        b.exit();
        let k = b.build();
        let diags = check_perf(&k, &LaunchGeometry::new(1u32, 32u32));
        assert!(!rules(&diags).contains(&"global-uncoalesced"), "{diags:?}");
    }
}
