//! Planted-defect mutators for the static analyzer canaries.
//!
//! Each [`VerifyMutation`] takes an assembled, *verifier-clean* kernel and
//! plants one specific defect class that `tcsim-verify` must flag with an
//! error — the static-analysis mirror of the FEDP rounding mutation the
//! differential oracle catches dynamically. A mutation that does not apply
//! to a particular kernel (no barrier to corrupt, no shared access to
//! widen, …) returns `None`; the canary driver in `tcsim-fuzz` skips to
//! the next seed.
//!
//! Mutations never renumber instructions: defects are planted by editing
//! an instruction in place (or redirecting a def to a fresh scratch
//! register), so branch targets and reconvergence indices stay valid and
//! every diagnostic index maps back into the unmutated kernel one-to-one.

use tcsim_isa::{
    Instr, Kernel, KernelBuilder, MemSpace, MemWidth, Op, Operand, PredReg, Reg, SpecialReg,
    WmmaDirective, WmmaShape,
};

/// The shared-slice index mask the generator emits (`v & 63`); the
/// shared-grow mutation widens it past the per-warp slice.
const SLICE_MASK: i64 = crate::gen::SHARED_SLICE_WORDS as i64 - 1;
/// The widened mask: large enough that the resulting byte range escapes
/// any per-warp slice and the CTA's whole allocation.
const GROWN_MASK: i64 = 4095;

/// One planted static defect class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyMutation {
    /// Guards a `bar.sync` with a thread-varying predicate: the barrier
    /// is no longer CTA-uniform (`barrier-divergence`).
    BarrierDrop,
    /// Redirects the only definition of some live register to a scratch
    /// register, leaving its later reads uninitialized (`uninit-reg`).
    UninitReg,
    /// Swaps the shape qualifier on a `wmma.load`, so the fragment no
    /// longer matches the consuming `wmma.mma` (`wmma-*`).
    FragShape,
    /// Grows the generator's shared-slice index mask so accesses escape
    /// the warp-private slice and the allocation (`shared-*`).
    SharedGrow,
    /// Prepends a shared-memory load whose per-lane byte stride maps
    /// several lanes onto the same bank — a performance defect the
    /// `shared-bank-conflict` lint must flag (`--perf` canary).
    BankStride,
    /// Prepends a global load with a 128-byte per-lane stride, scattering
    /// the warp across one sector per lane — a performance defect the
    /// `global-uncoalesced` lint must flag (`--perf` canary).
    Uncoalesce,
}

impl VerifyMutation {
    /// Every mutation, in canonical order.
    pub const ALL: [VerifyMutation; 6] = [
        VerifyMutation::BarrierDrop,
        VerifyMutation::UninitReg,
        VerifyMutation::FragShape,
        VerifyMutation::SharedGrow,
        VerifyMutation::BankStride,
        VerifyMutation::Uncoalesce,
    ];

    /// Command-line spelling (`--mutate <name>`).
    pub fn name(self) -> &'static str {
        match self {
            VerifyMutation::BarrierDrop => "barrier-drop",
            VerifyMutation::UninitReg => "uninit-reg",
            VerifyMutation::FragShape => "frag-shape",
            VerifyMutation::SharedGrow => "shared-grow",
            VerifyMutation::BankStride => "bank-stride",
            VerifyMutation::Uncoalesce => "uncoalesce",
        }
    }

    /// Whether this is a performance defect: flagged as a *warning* by
    /// the `tcsim_verify::perf` lints rather than an error by the
    /// correctness analyses. The canary driver checks the matching pass.
    pub fn is_perf(self) -> bool {
        matches!(
            self,
            VerifyMutation::BankStride | VerifyMutation::Uncoalesce
        )
    }

    /// Parses the command-line spelling.
    pub fn from_name(s: &str) -> Option<VerifyMutation> {
        VerifyMutation::ALL.into_iter().find(|m| m.name() == s)
    }

    /// Prefix of the diagnostic rules this defect must trip (e.g. the
    /// shape swap may surface as `wmma-frag`, `wmma-mode` or
    /// `wmma-regfile` depending on the kernel).
    pub fn expected_rule_prefix(self) -> &'static str {
        match self {
            VerifyMutation::BarrierDrop => "barrier-",
            VerifyMutation::UninitReg => "uninit-",
            VerifyMutation::FragShape => "wmma-",
            VerifyMutation::SharedGrow => "shared-",
            VerifyMutation::BankStride => "shared-bank-conflict",
            VerifyMutation::Uncoalesce => "global-uncoalesced",
        }
    }
}

/// A successfully planted defect: the mutated kernel plus the index of
/// the instruction that was edited.
#[derive(Clone, Debug)]
pub struct Mutated {
    /// The defective kernel.
    pub kernel: Kernel,
    /// Index of the mutated instruction in `Kernel::instrs()`.
    pub pc: usize,
}

/// Reassembles `k` with `instrs` substituted and `extra_regs` additional
/// scratch registers. Parameter layout, shared allocation and register
/// count are reproduced exactly, and instruction indices are preserved,
/// so pre-resolved branch targets stay valid.
fn rebuild(k: &Kernel, instrs: Vec<Instr>, extra_regs: u32) -> Kernel {
    let mut b = KernelBuilder::new(k.name());
    for p in k.params() {
        b.param(p.name.clone(), p.bytes);
    }
    if k.shared_bytes() > 0 {
        b.shared_alloc(k.shared_bytes());
    }
    for _ in 0..k.num_regs() + extra_regs {
        b.reg();
    }
    for i in instrs {
        b.emit(i);
    }
    b.build()
}

/// Applies `m` to `k`, or `None` when the kernel has no site for this
/// defect class. `volta` selects fragment register widths (must match the
/// geometry the verifier will analyze under).
pub fn apply(k: &Kernel, m: VerifyMutation, volta: bool) -> Option<Mutated> {
    match m {
        VerifyMutation::BarrierDrop => barrier_drop(k),
        VerifyMutation::UninitReg => uninit_reg(k, volta),
        VerifyMutation::FragShape => frag_shape(k),
        VerifyMutation::SharedGrow => shared_grow(k),
        VerifyMutation::BankStride => bank_stride(k),
        VerifyMutation::Uncoalesce => uncoalesce(k),
    }
}

/// Reassembles `k` with `prologue` inserted before the original body,
/// shifting every branch target and reconvergence index so control flow
/// is preserved. Unlike [`rebuild`]'s in-place edits, the prologue *does*
/// renumber: `Mutated::pc` points at the planted access inside it.
fn insert_prologue(k: &Kernel, prologue: Vec<Instr>, extra_regs: u32) -> Kernel {
    let shift = prologue.len();
    let mut instrs = prologue;
    for i in k.instrs() {
        let mut i = i.clone();
        if let Some(t) = i.target {
            i.target = Some(t + shift);
        }
        if let Some(r) = i.reconv {
            i.reconv = Some(r + shift);
        }
        instrs.push(i);
    }
    rebuild(k, instrs, extra_regs)
}

/// Guards the first unguarded `bar.sync` with predicate `p0` — the
/// predicate the generator seeds from a thread-dependent compare, so the
/// guard is thread-varying in any multi-thread launch.
fn barrier_drop(k: &Kernel) -> Option<Mutated> {
    let pc = k
        .instrs()
        .iter()
        .position(|i| matches!(i.op, Op::Bar) && i.guard.is_none())?;
    // The guard is only thread-varying if p0 is actually computed from
    // thread-dependent data; generated kernels always seed p0 with a setp
    // on a gtid-derived pool register before any barrier.
    if !k.instrs()[..pc]
        .iter()
        .any(|i| matches!(i.op, Op::Setp { .. }))
    {
        return None;
    }
    let mut instrs = k.instrs().to_vec();
    instrs[pc].guard = Some((PredReg(0), true));
    Some(Mutated {
        kernel: rebuild(k, instrs, 0),
        pc,
    })
}

/// Finds a register with exactly one defining instruction and at least
/// one reading instruction, then redirects that definition to a fresh
/// scratch register. Every read of the original register becomes a read
/// of never-written state.
fn uninit_reg(k: &Kernel, volta: bool) -> Option<Mutated> {
    let instrs = k.instrs();
    let nregs = k.num_regs() as u16;
    // defs[r] = (count, defining pc); uses[r] = any instr other than the
    // def reads r.
    let mut def_count = vec![0u32; nregs as usize];
    let mut def_pc = vec![usize::MAX; nregs as usize];
    for (pc, i) in instrs.iter().enumerate() {
        for r in i.def_regs(volta) {
            if let Some(c) = def_count.get_mut(r.0 as usize) {
                *c += 1;
                def_pc[r.0 as usize] = pc;
            }
        }
    }
    for (pc, i) in instrs.iter().enumerate() {
        for r in i.use_regs(volta) {
            let ri = r.0 as usize;
            if ri >= nregs as usize || def_count[ri] != 1 {
                continue;
            }
            let dpc = def_pc[ri];
            if dpc == pc || dpc == usize::MAX {
                continue; // self-referential (e.g. `iadd r, r, 1`)
            }
            // Only single-register defs can be redirected in place.
            let d = &instrs[dpc];
            if d.def_regs(volta).len() != 1 || d.guard.is_some() {
                continue;
            }
            let mut out = instrs.to_vec();
            out[dpc].dst = Some(tcsim_isa::Reg(nregs));
            return Some(Mutated {
                kernel: rebuild(k, out, 1),
                pc: dpc,
            });
        }
    }
    None
}

/// Swaps the shape qualifier of the first `wmma.mma`, so its operands no
/// longer match the fragments the `wmma.load`s produced. (The mma is the
/// mutation site rather than a load: growing a *load's* fragment can make
/// it overlap the next fragment's registers, which conservatively erases
/// its provenance and would hide the mismatch from the checker.)
fn frag_shape(k: &Kernel) -> Option<Mutated> {
    let swapped = |s: WmmaShape| match s {
        WmmaShape::M16N16K16 => WmmaShape::M32N8K16,
        WmmaShape::M32N8K16 | WmmaShape::M8N32K16 | WmmaShape::M8N8K32 => WmmaShape::M16N16K16,
        // `mma.sync` tiles swap K extent: the loaded fragments no longer
        // match (dense f16) or the mode turns arch-invalid (TF32, sparse).
        WmmaShape::M16N8K8 => WmmaShape::M16N8K16,
        WmmaShape::M16N8K16 => WmmaShape::M16N8K8,
    };
    let pc = k.instrs().iter().position(|i| {
        matches!(
            i.op,
            Op::Wmma(WmmaDirective::Mma { .. } | WmmaDirective::MmaSync { .. })
        )
    })?;
    let mut instrs = k.instrs().to_vec();
    match instrs[pc].op {
        Op::Wmma(WmmaDirective::Mma { ref mut shape, .. })
        | Op::Wmma(WmmaDirective::MmaSync { ref mut shape, .. }) => *shape = swapped(*shape),
        _ => unreachable!(),
    }
    Some(Mutated {
        kernel: rebuild(k, instrs, 0),
        pc,
    })
}

/// Truncates `x` toward zero to BF16 precision (drops the low 16 mantissa
/// bits) — the numeric defect [`crate::oracle::Mutation::Bf16ChopMantissa`]
/// plants in the BF16 `mma.sync` accumulation path. NaNs pass through
/// unchanged so the payload chop cannot manufacture an infinity.
pub fn chop_to_bf16(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    f32::from_bits(x.to_bits() & 0xFFFF_0000)
}

/// Swaps the two kept-index fields of every 2:4 metadata nibble in a
/// 4-group (one-row) metadata half-word — the defect
/// [`crate::oracle::Mutation::SparseMetaSwap`] plants in the sparse
/// decode path. Valid nibbles store indices `i0 < i1`, so the swap always
/// produces a *different* (and invalid-by-convention) nibble, relocating
/// both kept values within their group.
pub fn swap_sparse_meta(meta: u16) -> u16 {
    let mut out = 0u16;
    for g in 0..4 {
        let nib = (meta >> (4 * g)) & 0xF;
        let (i0, i1) = (nib & 0x3, (nib >> 2) & 0x3);
        out |= ((i0 << 2) | i1) << (4 * g);
    }
    out
}

/// Widens the generator's `and rX, rY, 63` slice mask ahead of a shared
/// access, so the recovered address range escapes both the warp-private
/// slice and the CTA allocation.
fn shared_grow(k: &Kernel) -> Option<Mutated> {
    let instrs = k.instrs();
    let pc = instrs.iter().enumerate().position(|(pc, i)| {
        matches!(i.op, Op::And)
            && i.srcs.get(1) == Some(&Operand::Imm(SLICE_MASK))
            && matches!(instrs.get(pc + 1).map(|n| &n.op), Some(Op::IMad))
    })?;
    let mut out = instrs.to_vec();
    out[pc].srcs[1] = Operand::Imm(GROWN_MASK);
    Some(Mutated {
        kernel: rebuild(k, out, 0),
        pc,
    })
}

/// Prepends `ld.shared.b32 d, [laneid << s]` with the largest in-bounds
/// power-of-two stride ≥ 8 bytes: lanes collide `1 << (s - 2)` deep on
/// the 32-bank word-interleaved map, which `shared-bank-conflict` must
/// flag while the unmutated kernel's slice accesses stay conflict-free.
fn bank_stride(k: &Kernel) -> Option<Mutated> {
    let shared = k.shared_bytes();
    // Largest shift keeping lane 31's word in bounds; need at least
    // stride 8 (shift 3) for a 2-way conflict.
    let s = (3..=7)
        .rev()
        .find(|s| 31u32 << s <= shared.saturating_sub(4))?;
    let base = k.num_regs() as u16;
    let (t, d) = (Reg(base), Reg(base + 1));
    let lane = Operand::Special(SpecialReg::LaneId);
    let prologue = vec![
        Instr::new(Op::Mov).with_dst(t).with_srcs(vec![lane]),
        Instr::new(Op::Shl)
            .with_dst(t)
            .with_srcs(vec![Operand::Reg(t), Operand::Imm(s as i64)]),
        Instr::new(Op::Ld {
            space: MemSpace::Shared,
            width: MemWidth::B32,
        })
        .with_dst(d)
        .with_srcs(vec![Operand::Reg(t), Operand::Imm(0)]),
    ];
    let pc = prologue.len() - 1;
    Some(Mutated {
        kernel: insert_prologue(k, prologue, 2),
        pc,
    })
}

/// Prepends a global load at a 128-byte per-lane stride off the kernel's
/// first pointer parameter: every lane lands in its own 32-byte sector,
/// which `global-uncoalesced` must flag. The mutant is lint-only — it is
/// never executed, so the strided range needs no backing allocation.
fn uncoalesce(k: &Kernel) -> Option<Mutated> {
    let param = k.params().iter().find(|p| p.bytes == 8)?;
    let base = (k.num_regs() as u16).next_multiple_of(2);
    let (ptr, addr, t, d) = (Reg(base), Reg(base + 2), Reg(base + 4), Reg(base + 5));
    let lane = Operand::Special(SpecialReg::LaneId);
    let prologue = vec![
        Instr::new(Op::Ld {
            space: MemSpace::Param,
            width: MemWidth::B64,
        })
        .with_dst(ptr)
        .with_srcs(vec![Operand::Imm(i64::from(param.offset)), Operand::Imm(0)]),
        Instr::new(Op::Mov).with_dst(t).with_srcs(vec![lane]),
        Instr::new(Op::IMadWide).with_dst(addr).with_srcs(vec![
            Operand::Reg(t),
            Operand::Imm(128),
            Operand::RegPair(ptr),
        ]),
        Instr::new(Op::Ld {
            space: MemSpace::Global,
            width: MemWidth::B32,
        })
        .with_dst(d)
        .with_srcs(vec![Operand::RegPair(addr), Operand::Imm(0)]),
    ];
    let pc = prologue.len() - 1;
    let extra = u32::from(base + 6) - k.num_regs();
    Some(Mutated {
        kernel: insert_prologue(k, prologue, extra),
        pc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{assemble, generate, Arch, GenConfig, KindSel};

    fn find_applicable(kind: KindSel, m: VerifyMutation) -> (Kernel, Mutated, bool) {
        let cfg = GenConfig {
            max_ops: 24,
            kind,
            ..GenConfig::default()
        };
        for seed in 0..512u64 {
            let p = generate(seed, &cfg);
            let k = assemble(&p);
            let volta = p.arch == Arch::Volta;
            if let Some(mutated) = apply(&k, m, volta) {
                return (k, mutated, volta);
            }
        }
        panic!("no kernel in 512 seeds accepts {m:?}");
    }

    #[test]
    fn each_mutation_applies_within_a_few_seeds() {
        for (m, kind) in [
            (VerifyMutation::BarrierDrop, KindSel::Simt),
            (VerifyMutation::UninitReg, KindSel::Simt),
            (VerifyMutation::FragShape, KindSel::Wmma),
            (VerifyMutation::FragShape, KindSel::WmmaSparse),
            (VerifyMutation::SharedGrow, KindSel::Simt),
        ] {
            let (orig, mutated, _) = find_applicable(kind, m);
            assert_eq!(
                orig.instrs().len(),
                mutated.kernel.instrs().len(),
                "{m:?} must not renumber instructions"
            );
            assert!(mutated.pc < orig.instrs().len());
            assert_ne!(
                orig.instrs()[mutated.pc],
                mutated.kernel.instrs()[mutated.pc],
                "{m:?} must change the instruction at its reported pc"
            );
        }
    }

    #[test]
    fn perf_mutations_insert_a_prologue_and_preserve_control_flow() {
        for m in [VerifyMutation::BankStride, VerifyMutation::Uncoalesce] {
            assert!(m.is_perf());
            let (orig, mutated, _) = find_applicable(KindSel::Simt, m);
            let shift = mutated.kernel.instrs().len() - orig.instrs().len();
            assert!(shift > 0, "{m:?} inserts instructions");
            assert_eq!(mutated.pc, shift - 1, "pc points at the planted access");
            for (i, o) in mutated.kernel.instrs()[shift..].iter().zip(orig.instrs()) {
                assert_eq!(i.op, o.op);
                assert_eq!(i.target, o.target.map(|t| t + shift));
                assert_eq!(i.reconv, o.reconv.map(|r| r + shift));
            }
        }
    }

    #[test]
    fn perf_mutations_trip_the_perf_lints() {
        use tcsim_verify::perf::check_perf;
        use tcsim_verify::LaunchGeometry;
        for m in [VerifyMutation::BankStride, VerifyMutation::Uncoalesce] {
            let cfg = GenConfig {
                max_ops: 24,
                kind: KindSel::Simt,
                ..GenConfig::default()
            };
            let (mut applied, mut caught) = (0u32, 0u32);
            for seed in 0..64u64 {
                let p = generate(seed, &cfg);
                let k = assemble(&p);
                let volta = p.arch == Arch::Volta;
                let mut geom = LaunchGeometry::new(p.grid_x, p.block_x);
                geom.gen = p.arch.tensor_gen();
                let Some(mutated) = apply(&k, m, volta) else {
                    continue;
                };
                applied += 1;
                // The generated kernel may have perf findings of its own
                // (strided output stores); the canary demands one at the
                // planted instruction specifically.
                if check_perf(&mutated.kernel, &geom)
                    .iter()
                    .any(|d| d.index == mutated.pc && d.rule.starts_with(m.expected_rule_prefix()))
                {
                    caught += 1;
                }
            }
            assert!(applied > 0, "{m:?} never applied");
            assert!(
                caught * 4 >= applied * 3,
                "{m:?}: only {caught}/{applied} planted defects flagged"
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for m in VerifyMutation::ALL {
            assert_eq!(VerifyMutation::from_name(m.name()), Some(m));
        }
        assert_eq!(VerifyMutation::from_name("fedp-chop"), None);
    }

    #[test]
    fn bf16_chop_truncates_toward_zero() {
        // 1.0 + 2^-20 loses its tail; exact BF16 values pass through.
        let x = f32::from_bits(0x3F80_0010);
        assert_eq!(chop_to_bf16(x), 1.0);
        assert_eq!(chop_to_bf16(1.0), 1.0);
        assert_eq!(chop_to_bf16(-1.5), -1.5);
        let y = f32::from_bits(0xBFC0_0123);
        assert_eq!(chop_to_bf16(y).to_bits(), 0xBFC0_0000);
        assert!(chop_to_bf16(f32::NAN).is_nan());
        assert_eq!(chop_to_bf16(0.0).to_bits(), 0);
    }

    #[test]
    fn sparse_meta_swap_flips_every_nibble() {
        use tcsim_core::pack_sparse_row_meta;
        let meta = pack_sparse_row_meta([(0, 1), (1, 2), (2, 3), (0, 3)]);
        let swapped = swap_sparse_meta(meta);
        assert_ne!(swapped, meta);
        // Each nibble's fields trade places: (i0,i1) → (i1,i0).
        for g in 0..4 {
            let nib = (meta >> (4 * g)) & 0xF;
            let s = (swapped >> (4 * g)) & 0xF;
            assert_eq!(s & 0x3, (nib >> 2) & 0x3);
            assert_eq!((s >> 2) & 0x3, nib & 0x3);
        }
        // Involution: swapping twice restores the original word.
        assert_eq!(swap_sparse_meta(swapped), meta);
    }
}
