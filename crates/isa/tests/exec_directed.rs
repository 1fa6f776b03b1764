//! Directed tests of the warp-wide executor: every SIMT opcode, run on
//! random register contents under random execution masks, guards and
//! operand aliasing, must leave exactly the state a lane-at-a-time
//! reference interpreter leaves.
//!
//! The reference below is deliberately the naive formulation — one lane
//! after the other, each lane reading its own sources and then writing
//! its own destination — which is the semantics the row executor's
//! "read every source row, then write under the mask" rule has to
//! reproduce, including when `dst == src`, when a 64-bit destination
//! pair overlaps a 32-bit source, and when `shfl` reads the register it
//! writes. Operand registers are drawn from a pool of eight, so every
//! kind of overlap turns up within a few trials.

use tcsim_f16::{F16x2, F16};
use tcsim_isa::exec::{step_into, ExecEnv, MemAccess, NoWmma, WarpExec, FULL_MASK};
use tcsim_isa::{
    AtomOp, ByteMemory, CmpOp, DataType, Dim3, Instr, KernelBuilder, MemSpace, MemWidth, Op,
    Operand, PredReg, Reg, ShflMode, SpecialReg, VecMemory, WarpRegisters,
};

const REGS: u16 = 12;
const POOL: u64 = 8;
const TRIALS: usize = 120;
const BLOCK: Dim3 = Dim3 { x: 5, y: 3, z: 4 };
const WARP_IN_CTA: u32 = 1;
const CLOCK: u64 = 0x1_2345_6789;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A register value: raw bits, small integers, float-ish patterns and
    /// the edge values, mixed.
    fn word(&mut self) -> u32 {
        match self.below(6) {
            0 => self.below(40) as u32,
            1 => (self.below(64) as i32 - 32) as u32,
            2 => ((self.below(2000) as f32 - 1000.0) / 7.0).to_bits(),
            3 => [
                0,
                u32::MAX,
                0x8000_0000,
                0x7F80_0000,
                0x7FC0_0000,
                0x3C00_3C00,
            ][self.below(6) as usize],
            _ => self.next() as u32,
        }
    }

    fn reg(&mut self) -> Reg {
        Reg(self.below(POOL) as u16)
    }

    fn mask(&mut self) -> u32 {
        match self.below(4) {
            0 => 0,
            1 => 1 << self.below(32),
            2 => self.next() as u32,
            _ => FULL_MASK,
        }
    }

    fn special(&mut self) -> SpecialReg {
        use SpecialReg::*;
        [
            TidX, TidY, TidZ, CtaIdX, CtaIdY, CtaIdZ, NTidX, NTidY, NCtaIdX, NCtaIdY, LaneId,
            WarpId,
        ][self.below(12) as usize]
    }

    /// A source operand of any kind (`wide` allows a register pair).
    fn operand(&mut self, wide: bool) -> Operand {
        match self.below(8) {
            0 => Operand::Imm(self.word() as i32 as i64),
            1 => Operand::Special(self.special()),
            2 => Operand::Pred(PredReg(self.below(8) as u8)),
            3 | 4 if wide => Operand::RegPair(self.reg()),
            _ => Operand::Reg(self.reg()),
        }
    }
}

fn env<'a>(global: &'a mut VecMemory, shared: &'a mut VecMemory, params: &'a [u8]) -> ExecEnv<'a> {
    ExecEnv {
        global,
        shared,
        params,
        block: BLOCK,
        grid: Dim3 { x: 7, y: 9, z: 1 },
        cta: Dim3 { x: 3, y: 4, z: 0 },
        clock: CLOCK,
    }
}

// ---------------------------------------------------------------------
// The per-lane reference.
// ---------------------------------------------------------------------

fn special(e: &ExecEnv<'_>, lane: usize, s: SpecialReg) -> u32 {
    let tid = e.block.delinearize((WARP_IN_CTA * 32) as u64 + lane as u64);
    match s {
        SpecialReg::TidX => tid.x,
        SpecialReg::TidY => tid.y,
        SpecialReg::TidZ => tid.z,
        SpecialReg::CtaIdX => e.cta.x,
        SpecialReg::CtaIdY => e.cta.y,
        SpecialReg::CtaIdZ => e.cta.z,
        SpecialReg::NTidX => e.block.x,
        SpecialReg::NTidY => e.block.y,
        SpecialReg::NCtaIdX => e.grid.x,
        SpecialReg::NCtaIdY => e.grid.y,
        SpecialReg::LaneId => lane as u32,
        SpecialReg::WarpId => WARP_IN_CTA,
    }
}

/// Lane `lane`'s value of `op`; `wide` reads pairs and sign-extends
/// immediates to 64 bits.
fn val(w: &WarpExec, e: &ExecEnv<'_>, lane: usize, op: Operand, wide: bool) -> u64 {
    match op {
        Operand::Reg(r) => w.regs.read(lane, r) as u64,
        Operand::RegPair(r) if wide => w.regs.read_pair(lane, r),
        Operand::RegPair(r) => w.regs.read(lane, r) as u64,
        Operand::Imm(i) if wide => i as u64,
        Operand::Imm(i) => i as u32 as u64,
        Operand::Special(s) => special(e, lane, s) as u64,
        Operand::Pred(p) => w.pred(lane, p.0) as u64,
    }
}

fn f(bits: u64) -> f32 {
    f32::from_bits(bits as u32)
}

fn d(bits: u64) -> f64 {
    f64::from_bits(bits)
}

fn h(bits: u64) -> F16x2 {
    F16x2::from_bits(bits as u32)
}

enum Out {
    R32(u32),
    R64(u64),
    Pred(bool),
}

/// One lane of a register-to-register opcode.
fn scalar(op: &Op, s: &[Operand], w: &WarpExec, e: &ExecEnv<'_>, lane: usize) -> Out {
    let n = |i: usize| val(w, e, lane, s[i], false);
    let x = |i: usize| val(w, e, lane, s[i], true);
    let a = s.first().map_or(0, |_| n(0)) as u32;
    let b = s.get(1).map_or(0, |_| n(1)) as u32;
    match op {
        Op::Mov => Out::R32(a),
        Op::Mov64 => Out::R64(x(0)),
        Op::IAdd => Out::R32(a.wrapping_add(b)),
        Op::ISub => Out::R32(a.wrapping_sub(b)),
        Op::IMul => Out::R32(a.wrapping_mul(b)),
        Op::IMin => Out::R32((a as i32).min(b as i32) as u32),
        Op::IMax => Out::R32((a as i32).max(b as i32) as u32),
        Op::Shl => Out::R32(a.wrapping_shl(b)),
        Op::Shr => Out::R32(a.wrapping_shr(b)),
        Op::Sar => Out::R32((a as i32).wrapping_shr(b) as u32),
        Op::And => Out::R32(a & b),
        Op::Or => Out::R32(a | b),
        Op::Xor => Out::R32(a ^ b),
        Op::Not => Out::R32(!a),
        Op::IMad => Out::R32(a.wrapping_mul(b).wrapping_add(n(2) as u32)),
        Op::IAdd64 => Out::R64(x(0).wrapping_add(x(1))),
        Op::IMadWide => Out::R64((a as u64).wrapping_mul(b as u64).wrapping_add(x(2))),
        Op::FAdd => Out::R32((f(n(0)) + f(n(1))).to_bits()),
        Op::FMul => Out::R32((f(n(0)) * f(n(1))).to_bits()),
        Op::FMin => Out::R32(f(n(0)).min(f(n(1))).to_bits()),
        Op::FMax => Out::R32(f(n(0)).max(f(n(1))).to_bits()),
        Op::FFma => Out::R32(f(n(0)).mul_add(f(n(1)), f(n(2))).to_bits()),
        Op::FRcp => Out::R32((1.0 / f(n(0))).to_bits()),
        Op::FSqrt => Out::R32(f(n(0)).sqrt().to_bits()),
        Op::FEx2 => Out::R32(f(n(0)).exp2().to_bits()),
        Op::FLg2 => Out::R32(f(n(0)).log2().to_bits()),
        Op::DAdd => Out::R64((d(x(0)) + d(x(1))).to_bits()),
        Op::DMul => Out::R64((d(x(0)) * d(x(1))).to_bits()),
        Op::DFma => Out::R64(d(x(0)).mul_add(d(x(1)), d(x(2))).to_bits()),
        Op::HAdd2 => Out::R32(h(n(0)).hadd2(h(n(1))).to_bits()),
        Op::HMul2 => Out::R32(h(n(0)).hmul2(h(n(1))).to_bits()),
        Op::HFma2 => Out::R32(h(n(0)).hfma2(h(n(1)), h(n(2))).to_bits()),
        Op::Cvt { from, to } => match (from, to) {
            (DataType::F32, DataType::F16) => Out::R32(F16::from_f32(f(n(0))).to_bits() as u32),
            (DataType::F16, DataType::F32) => Out::R32(F16::from_bits(a as u16).to_f32().to_bits()),
            (DataType::U32, DataType::F32) => Out::R32((a as f32).to_bits()),
            (DataType::S32, DataType::F32) => Out::R32((a as i32 as f32).to_bits()),
            (DataType::F32, DataType::S32) => Out::R32(f(n(0)).trunc() as i32 as u32),
            (DataType::F32, DataType::U32) => Out::R32(f(n(0)).trunc().max(0.0) as u32),
            (DataType::U32, DataType::U64) => Out::R64(a as u64),
            (DataType::U64, DataType::U32) => Out::R32(x(0) as u32),
            (DataType::F32, DataType::F64) => Out::R64((f(n(0)) as f64).to_bits()),
            (DataType::F64, DataType::F32) => Out::R32((d(x(0)) as f32).to_bits()),
            other => panic!("conversion {other:?} is not in the ISA"),
        },
        Op::Setp { cmp, ty } => {
            use std::cmp::Ordering::Greater;
            let ord = match ty {
                DataType::S32 => (a as i32).cmp(&(b as i32)),
                DataType::U32 => a.cmp(&b),
                DataType::U64 => x(0).cmp(&x(1)),
                DataType::F32 => f(n(0)).partial_cmp(&f(n(1))).unwrap_or(Greater),
                other => panic!("setp type {other} is not in the ISA"),
            };
            Out::Pred(cmp.eval(ord))
        }
        Op::SelP => Out::R32(if a != 0 { n(1) } else { n(2) } as u32),
        Op::Clock => Out::R32(e.clock as u32),
        other => panic!("{other:?} is not a register-to-register opcode"),
    }
}

/// Executes `instr` on `w` one lane at a time; returns the lane
/// accesses a memory instruction makes.
fn reference(w: &mut WarpExec, e: &mut ExecEnv<'_>, instr: &Instr) -> Vec<MemAccess> {
    let mut mask = w.active;
    if let Some((p, sense)) = instr.guard {
        mask &= (0..32).fold(0, |m, l| m | ((w.pred(l, p.0) == sense) as u32) << l);
    }
    let before = w.clone();
    let mut accesses = Vec::new();
    for lane in (0..32).filter(|l| mask >> l & 1 != 0) {
        let addr = |w: &WarpExec, e: &ExecEnv<'_>| {
            let Operand::Imm(off) = instr.srcs[1] else {
                panic!("offset operand")
            };
            val(w, e, lane, instr.srcs[0], true).wrapping_add(off as u64)
        };
        let mut access = |addr: u64, bytes: u64| {
            accesses.push(MemAccess {
                lane: lane as u8,
                addr,
                bytes: bytes as u8,
            })
        };
        match &instr.op {
            Op::Shfl { mode } => {
                let Operand::Reg(src) = instr.srcs[0] else {
                    panic!("shfl value operand")
                };
                let b = val(&before, e, lane, instr.srcs[1], false) as usize;
                let from = match mode {
                    ShflMode::Down => lane + b,
                    ShflMode::Up => lane.wrapping_sub(b),
                    ShflMode::Bfly => lane ^ b,
                    ShflMode::Idx => b,
                };
                let from = if from < 32 { from } else { lane };
                let v = before.regs.read(from, src);
                w.regs.write(lane, instr.dst.unwrap(), v);
            }
            Op::Ld { space, width } => {
                let a = match space {
                    MemSpace::Param => val(w, e, lane, instr.srcs[0], true),
                    _ => addr(w, e),
                };
                access(a, width.bytes());
                for i in 0..width.regs() as u64 {
                    let word = match space {
                        MemSpace::Shared => e.shared.read_u32(a + 4 * i),
                        MemSpace::Param => {
                            let byte =
                                |j: u64| *e.params.get((a + 4 * i + j) as usize).unwrap_or(&0);
                            u32::from_le_bytes([byte(0), byte(1), byte(2), byte(3)])
                        }
                        _ => e.global.read_u32(a + 4 * i),
                    };
                    let keep = match width {
                        MemWidth::B8 => 0xFF,
                        MemWidth::B16 => 0xFFFF,
                        _ => u32::MAX,
                    };
                    w.regs
                        .write(lane, Reg(instr.dst.unwrap().0 + i as u16), word & keep);
                }
            }
            Op::St { space, width } => {
                let a = addr(w, e);
                access(a, width.bytes());
                let Operand::Reg(data) = instr.srcs[2] else {
                    panic!("store data operand")
                };
                let mem: &mut dyn ByteMemory = match space {
                    MemSpace::Shared => &mut *e.shared,
                    _ => &mut *e.global,
                };
                match width {
                    MemWidth::B8 => mem.write_u8(a, w.regs.read(lane, data) as u8),
                    MemWidth::B16 => mem.write_u16(a, w.regs.read(lane, data) as u16),
                    _ => {
                        for i in 0..width.regs() as u64 {
                            mem.write_u32(a + 4 * i, w.regs.read(lane, Reg(data.0 + i as u16)));
                        }
                    }
                }
            }
            Op::Atom { space, op } => {
                let a = addr(w, e);
                access(a, 4);
                let Operand::Reg(data) = instr.srcs[2] else {
                    panic!("atom data operand")
                };
                let mem: &mut dyn ByteMemory = match space {
                    MemSpace::Shared => &mut *e.shared,
                    _ => &mut *e.global,
                };
                let (old, v) = (mem.read_u32(a), w.regs.read(lane, data));
                mem.write_u32(
                    a,
                    match op {
                        AtomOp::Add => old.wrapping_add(v),
                        AtomOp::Min => (old as i32).min(v as i32) as u32,
                        AtomOp::Max => (old as i32).max(v as i32) as u32,
                        AtomOp::Exch => v,
                    },
                );
                w.regs.write(lane, instr.dst.unwrap(), old);
            }
            op => match scalar(op, &instr.srcs, w, e, lane) {
                Out::R32(v) => w.regs.write(lane, instr.dst.unwrap(), v),
                Out::R64(v) => w.regs.write_pair(lane, instr.dst.unwrap(), v),
                Out::Pred(v) => w.set_pred(lane, instr.pred_dst.unwrap().0, v),
            },
        }
    }
    w.pc += 1;
    accesses
}

// ---------------------------------------------------------------------
// The harness.
// ---------------------------------------------------------------------

/// A warp with random registers and predicates and `active` live lanes.
fn random_warp(rng: &mut Rng, active: u32) -> WarpExec {
    let mut w = WarpExec::new(REGS as u32, WARP_IN_CTA, active);
    for reg in 0..REGS {
        for lane in 0..32 {
            w.regs.write(lane, Reg(reg), rng.word());
        }
    }
    for p in &mut w.preds {
        *p = rng.next() as u32;
    }
    w
}

/// Memory with recognisable contents at the addresses the tests use.
fn patterned_memory(seed: u32) -> VecMemory {
    let mut m = VecMemory::new();
    for i in 0..160u32 {
        m.write_u32(4 * i as u64, seed ^ i.wrapping_mul(0x9E37_79B9));
    }
    m
}

/// Runs `instr` on the row executor and on the reference from the same
/// random state and demands identical registers, predicates, control
/// state, memories and access lists. `base` names the address register
/// of a memory instruction, which gets small addresses in every lane.
fn check(rng: &mut Rng, instr: Instr, base: Option<Operand>) {
    let mut b = KernelBuilder::new("directed");
    b.reg_block(REGS as usize);
    b.emit(instr.clone());
    b.exit();
    let kernel = b.build();

    let active = rng.mask();
    let mut got = random_warp(rng, active);
    match base {
        Some(Operand::Reg(r)) => {
            for lane in 0..32 {
                got.regs.write(lane, r, 8 + rng.below(500) as u32);
            }
        }
        Some(Operand::RegPair(r)) => {
            for lane in 0..32 {
                got.regs.write_pair(lane, r, 8 + rng.below(500));
            }
        }
        _ => {}
    }
    let mut want = got.clone();
    let params: Vec<u8> = (0..24u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();

    let (mut g_got, mut s_got) = (patterned_memory(1), patterned_memory(2));
    let (mut g_want, mut s_want) = (g_got.clone(), s_got.clone());
    let mut accesses = vec![MemAccess {
        lane: 9,
        addr: 9,
        bytes: 9,
    }];
    step_into(
        &mut got,
        &kernel,
        &mut env(&mut g_got, &mut s_got, &params),
        &NoWmma,
        &mut accesses,
    );
    let expected = reference(
        &mut want,
        &mut env(&mut g_want, &mut s_want, &params),
        &instr,
    );

    let context = format!("{instr} (active {:#010x})", want.active);
    for reg in 0..REGS {
        assert_eq!(
            got.regs.row(Reg(reg)),
            want.regs.row(Reg(reg)),
            "r{reg} after {context}"
        );
    }
    assert_eq!(got.preds, want.preds, "predicates after {context}");
    assert_eq!(
        (got.pc, got.active, got.exited),
        (want.pc, want.active, want.exited),
        "control state after {context}"
    );
    assert_eq!(accesses, expected, "lane accesses of {context}");
    assert_eq!(g_got, g_want, "global memory after {context}");
    assert_eq!(s_got, s_want, "shared memory after {context}");
}

fn with_random_guard(rng: &mut Rng, instr: Instr) -> Instr {
    if rng.below(2) == 0 {
        instr.with_guard(PredReg(rng.below(8) as u8), rng.below(2) == 0)
    } else {
        instr
    }
}

/// `TRIALS` random instances of `op` with `srcs` source operands, the
/// ones listed in `wide` drawn as 64-bit operands.
fn check_alu(rng: &mut Rng, op: Op, srcs: usize, wide: &[usize]) {
    for _ in 0..TRIALS {
        let operands = (0..srcs).map(|i| rng.operand(wide.contains(&i))).collect();
        let mut instr = Instr::new(op).with_dst(rng.reg()).with_srcs(operands);
        if matches!(op, Op::Setp { .. }) {
            instr.dst = None;
            instr.pred_dst = Some(PredReg(rng.below(8) as u8));
        }
        if matches!(op, Op::SelP) {
            instr.srcs[0] = Operand::Pred(PredReg(rng.below(8) as u8));
        }
        let instr = with_random_guard(rng, instr);
        check(rng, instr, None);
    }
}

#[test]
fn integer_and_move_ops_match_the_lane_reference() {
    let mut rng = Rng(0x1234_5678_9ABC_DEF1);
    for op in [
        Op::IAdd,
        Op::ISub,
        Op::IMul,
        Op::IMin,
        Op::IMax,
        Op::Shl,
        Op::Shr,
        Op::Sar,
        Op::And,
        Op::Or,
        Op::Xor,
    ] {
        check_alu(&mut rng, op, 2, &[]);
    }
    check_alu(&mut rng, Op::Mov, 1, &[]);
    check_alu(&mut rng, Op::Not, 1, &[]);
    check_alu(&mut rng, Op::Clock, 0, &[]);
    check_alu(&mut rng, Op::IMad, 3, &[]);
    check_alu(&mut rng, Op::Mov64, 1, &[0]);
    check_alu(&mut rng, Op::IAdd64, 2, &[0, 1]);
    check_alu(&mut rng, Op::IMadWide, 3, &[2]);
}

#[test]
fn float_ops_match_the_lane_reference() {
    let mut rng = Rng(0x0F0F_1E1E_2D2D_3C3C);
    for op in [Op::FAdd, Op::FMul, Op::FMin, Op::FMax, Op::HAdd2, Op::HMul2] {
        check_alu(&mut rng, op, 2, &[]);
    }
    for op in [Op::FRcp, Op::FSqrt, Op::FEx2, Op::FLg2] {
        check_alu(&mut rng, op, 1, &[]);
    }
    check_alu(&mut rng, Op::FFma, 3, &[]);
    check_alu(&mut rng, Op::HFma2, 3, &[]);
    check_alu(&mut rng, Op::DAdd, 2, &[0, 1]);
    check_alu(&mut rng, Op::DMul, 2, &[0, 1]);
    check_alu(&mut rng, Op::DFma, 3, &[0, 1, 2]);
}

#[test]
fn conversions_match_the_lane_reference() {
    use DataType::*;
    let mut rng = Rng(0x5EED_CAFE_F00D_0001);
    for (from, to) in [
        (F32, F16),
        (F16, F32),
        (U32, F32),
        (S32, F32),
        (F32, S32),
        (F32, U32),
        (U32, U64),
        (U64, U32),
        (F32, F64),
        (F64, F32),
    ] {
        let wide: &[usize] = if matches!(from, U64 | F64) { &[0] } else { &[] };
        check_alu(&mut rng, Op::Cvt { from, to }, 1, wide);
    }
}

#[test]
fn predicates_match_the_lane_reference() {
    let mut rng = Rng(0xABCD_EF01_2345_6789);
    for ty in [DataType::S32, DataType::U32, DataType::U64, DataType::F32] {
        for cmp in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let wide: &[usize] = if ty == DataType::U64 { &[0, 1] } else { &[] };
            check_alu(&mut rng, Op::Setp { cmp, ty }, 2, wide);
        }
    }
    check_alu(&mut rng, Op::SelP, 3, &[]);
}

#[test]
fn shuffles_match_the_lane_reference() {
    let mut rng = Rng(0x7777_1111_3333_9999);
    for mode in [ShflMode::Down, ShflMode::Up, ShflMode::Bfly, ShflMode::Idx] {
        for trial in 0..TRIALS {
            let value = rng.reg();
            // Every third shuffle writes the register it reads.
            let dst = if trial % 3 == 0 { value } else { rng.reg() };
            let b = match rng.below(3) {
                0 => Operand::Imm(rng.below(40) as i64),
                1 => Operand::Special(SpecialReg::LaneId),
                _ => Operand::Reg(rng.reg()),
            };
            let instr = Instr::new(Op::Shfl { mode })
                .with_dst(dst)
                .with_srcs(vec![Operand::Reg(value), b]);
            let instr = with_random_guard(&mut rng, instr);
            check(&mut rng, instr, None);
        }
    }
}

#[test]
fn memory_ops_match_the_lane_reference() {
    let mut rng = Rng(0x2468_ACE0_1357_9BDF);
    let widths = [
        MemWidth::B8,
        MemWidth::B16,
        MemWidth::B32,
        MemWidth::B64,
        MemWidth::B128,
    ];
    for space in [MemSpace::Global, MemSpace::Local, MemSpace::Shared] {
        for _ in 0..TRIALS {
            let width = widths[rng.below(5) as usize];
            // Global addresses are register pairs, shared ones 32-bit.
            let base = if space == MemSpace::Shared {
                Operand::Reg(rng.reg())
            } else {
                Operand::RegPair(rng.reg())
            };
            let off = Operand::Imm(rng.below(9) as i64 - 4);
            let ld = Instr::new(Op::Ld { space, width })
                .with_dst(rng.reg())
                .with_srcs(vec![base, off]);
            let st = Instr::new(Op::St { space, width }).with_srcs(vec![
                base,
                off,
                Operand::Reg(rng.reg()),
            ]);
            let op = [AtomOp::Add, AtomOp::Min, AtomOp::Max, AtomOp::Exch][rng.below(4) as usize];
            let atom = Instr::new(Op::Atom { space, op })
                .with_dst(rng.reg())
                .with_srcs(vec![base, off, Operand::Reg(rng.reg())]);
            for instr in [ld, st, atom] {
                let instr = with_random_guard(&mut rng, instr);
                check(&mut rng, instr, Some(base));
            }
        }
    }
    for _ in 0..TRIALS {
        let width = widths[rng.below(5) as usize];
        let instr = Instr::new(Op::Ld {
            space: MemSpace::Param,
            width,
        })
        .with_dst(rng.reg())
        .with_srcs(vec![Operand::Imm(rng.below(28) as i64)]);
        let instr = with_random_guard(&mut rng, instr);
        check(&mut rng, instr, None);
    }
}
