//! Functional (architectural) execution of warp instructions.
//!
//! Following GPGPU-Sim's PTX mode — which the paper's tensor-core model
//! extends (§V-A) — functional execution happens when an instruction
//! issues; the timing model only decides *when* that happens and when the
//! results become visible. This module implements the architectural
//! semantics of every opcode for one warp: 32 lanes stepped in lockstep
//! under an active mask with a stack-based reconvergence scheme for
//! divergent branches.
//!
//! WMMA instructions are warp-synchronous whole-tile operations whose
//! element↔thread mapping is the paper's central subject; their semantics
//! are supplied by a [`WmmaHandler`] implementation (the Volta and Turing
//! models live in `tcsim-core`).

use crate::instr::{AtomOp, CmpOp, Instr, Op, Operand, Reg, ShflMode, UnitClass};
use crate::kernel::Kernel;
use crate::traits::{ByteMemory, Row, WarpRegFile};
use crate::types::{DataType, Dim3, MemSpace, MemWidth, SpecialReg};
use crate::wmma::{WmmaDirective, WARP_SIZE};
use tcsim_f16::{F16x2, F16};

/// Mask with all 32 lanes set.
pub const FULL_MASK: u32 = u32::MAX;

/// One SIMT reconvergence stack entry: resume `mask` at `pc`; the entry is
/// popped when execution reaches `reconv`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimtEntry {
    /// Program counter to resume at.
    pub pc: usize,
    /// Lanes resumed.
    pub mask: u32,
    /// Reconvergence point guarding this entry.
    pub reconv: usize,
}

/// Architectural state of one warp.
#[derive(Clone, Debug)]
pub struct WarpExec {
    /// Next program counter.
    pub pc: usize,
    /// Active lane mask.
    pub active: u32,
    /// Lanes that have executed `exit`.
    pub exited: u32,
    /// SIMT reconvergence stack.
    pub stack: Vec<SimtEntry>,
    /// Register file (32 lanes).
    pub regs: WarpRegFile,
    /// Predicate registers `p0`–`p7`, one 32-lane bit mask each.
    pub preds: [u32; 8],
    /// Warp index within its CTA.
    pub warp_in_cta: u32,
}

impl WarpExec {
    /// Creates a fresh warp with all lanes of `live_lanes` active at pc 0.
    pub fn new(num_regs: u32, warp_in_cta: u32, live_lanes: u32) -> WarpExec {
        WarpExec {
            pc: 0,
            active: live_lanes,
            exited: !live_lanes,
            stack: Vec::new(),
            regs: WarpRegFile::new(num_regs as usize),
            preds: [0; 8],
            warp_in_cta,
        }
    }

    /// Whether every lane has exited.
    pub fn done(&self) -> bool {
        self.exited == FULL_MASK
    }

    /// Reads predicate `p` of `lane`.
    pub fn pred(&self, lane: usize, p: u8) -> bool {
        self.preds[p as usize] >> lane & 1 != 0
    }

    /// Writes predicate `p` of `lane`.
    pub fn set_pred(&mut self, lane: usize, p: u8, v: bool) {
        if v {
            self.preds[p as usize] |= 1 << lane;
        } else {
            self.preds[p as usize] &= !(1 << lane);
        }
    }

    /// Global thread linear id of `lane` within the CTA.
    pub fn thread_linear(&self, lane: usize) -> u32 {
        self.warp_in_cta * WARP_SIZE as u32 + lane as u32
    }
}

/// Per-warp execution environment: memories, parameters and geometry.
pub struct ExecEnv<'a> {
    /// Device global memory.
    pub global: &'a mut dyn ByteMemory,
    /// This CTA's shared memory.
    pub shared: &'a mut dyn ByteMemory,
    /// Kernel parameter buffer.
    pub params: &'a [u8],
    /// CTA extent.
    pub block: Dim3,
    /// Grid extent.
    pub grid: Dim3,
    /// This CTA's index.
    pub cta: Dim3,
    /// Current cycle (for `clock`).
    pub clock: u64,
}

impl ExecEnv<'_> {
    /// The value of special register `s` on every lane of `warp`.
    fn special_row(&self, warp: &WarpExec, s: SpecialReg) -> Row {
        let uniform = match s {
            SpecialReg::TidX | SpecialReg::TidY | SpecialReg::TidZ => {
                // Lane 0's thread index, then step through the block one
                // thread per lane: no division per lane.
                let mut tid = self.block.delinearize(warp.thread_linear(0) as u64);
                return std::array::from_fn(|_| {
                    let v = match s {
                        SpecialReg::TidX => tid.x,
                        SpecialReg::TidY => tid.y,
                        _ => tid.z,
                    };
                    tid.x += 1;
                    if tid.x == self.block.x {
                        tid.x = 0;
                        tid.y += 1;
                        if tid.y == self.block.y {
                            tid.y = 0;
                            tid.z += 1;
                        }
                    }
                    v
                });
            }
            SpecialReg::LaneId => return std::array::from_fn(|lane| lane as u32),
            SpecialReg::CtaIdX => self.cta.x,
            SpecialReg::CtaIdY => self.cta.y,
            SpecialReg::CtaIdZ => self.cta.z,
            SpecialReg::NTidX => self.block.x,
            SpecialReg::NTidY => self.block.y,
            SpecialReg::NCtaIdX => self.grid.x,
            SpecialReg::NCtaIdY => self.grid.y,
            SpecialReg::WarpId => warp.warp_in_cta,
        };
        [uniform; WARP_SIZE]
    }
}

/// One memory access generated by a lane (for the coalescer/timing model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Lane that issued the access.
    pub lane: u8,
    /// Byte address (space-relative).
    pub addr: u64,
    /// Access size in bytes.
    pub bytes: u8,
}

/// The memory a `wmma.load`/`wmma.store` touches, when the lines of its
/// tile do not overlap: `lines` runs of `line_bytes` bytes, the first at
/// `base`, each `pitch_bytes` after the one before. Together the lanes'
/// accesses cover exactly these bytes, so the sectors and the
/// shared-memory words of the instruction follow from the footprint
/// alone; the lane accesses themselves are [`WmmaHandler::tile_accesses`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileFootprint {
    /// Byte address of the first line.
    pub base: u64,
    /// Bytes from the start of one line to the start of the next (the
    /// leading dimension in bytes), at least `line_bytes`.
    pub pitch_bytes: u64,
    /// Bytes per line.
    pub line_bytes: u32,
    /// Number of lines.
    pub lines: u32,
}

/// The memory traffic of one executed instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemTrace {
    /// Address space accessed.
    pub space: MemSpace,
    /// Whether the accesses are stores.
    pub is_store: bool,
    /// Per-lane accesses.
    pub accesses: Vec<MemAccess>,
}

/// What a step did, for the caller's scheduling decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepAction {
    /// Normal completion; the warp has advanced.
    Continue,
    /// The warp hit a CTA barrier and must not advance until released.
    Barrier,
    /// All lanes have exited; the warp is finished.
    Exited,
}

/// Result of executing one instruction.
#[derive(Clone, Debug)]
pub struct StepOutcome {
    /// Control effect of the instruction.
    pub action: StepAction,
    /// PC of the instruction that executed.
    pub pc: usize,
    /// The functional unit class it issues to.
    pub unit: UnitClass,
    /// Memory traffic, if it was a load/store/WMMA memory operation.
    pub mem: Option<MemTrace>,
}

/// Implements the warp-synchronous WMMA operations (supplied by
/// `tcsim-core`'s Volta/Turing tensor-core models).
///
/// The handler works on the warp's concrete [`WarpRegFile`] — a
/// fragment is a span of whole register rows. A load or store reports the
/// memory it touched as a [`TileFootprint`]; only where the tile's lines
/// overlap (a `stride` below the line length) does it return `None` and
/// append the per-lane accesses to the caller's buffer instead.
pub trait WmmaHandler {
    /// Executes `wmma.load`, reading the operand matrix at `base` (byte
    /// address, space chosen by the caller) with leading-dimension `stride`
    /// (in elements) into the fragment registers at `dst`. Returns the
    /// tile's footprint, or `None` having appended the per-lane memory
    /// accesses the operation decomposes into (§III-C) to `accesses`,
    /// lane-major.
    #[allow(clippy::too_many_arguments)]
    fn wmma_load(
        &self,
        dir: &WmmaDirective,
        dst: Reg,
        base: u64,
        stride: usize,
        mem: &dyn ByteMemory,
        regs: &mut WarpRegFile,
        accesses: &mut Vec<MemAccess>,
    ) -> Option<TileFootprint>;

    /// Executes `wmma.mma` on register fragments.
    fn wmma_mma(&self, dir: &WmmaDirective, d: Reg, a: Reg, b: Reg, c: Reg, regs: &mut WarpRegFile);

    /// Executes an Ampere per-instruction `mma.sync` on register
    /// fragments. `meta` is the 2:4 sparsity metadata register (one u32
    /// per thread; read from the quad leaders) and is `Some` exactly when
    /// the directive is sparse.
    #[allow(clippy::too_many_arguments)]
    fn mma_sync(
        &self,
        dir: &WmmaDirective,
        d: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
        meta: Option<Reg>,
        regs: &mut WarpRegFile,
    );

    /// Executes `wmma.store`, writing the D fragment to memory. Returns
    /// the tile's footprint, or `None` having appended the per-lane
    /// accesses to `accesses`, lane-major.
    #[allow(clippy::too_many_arguments)]
    fn wmma_store(
        &self,
        dir: &WmmaDirective,
        src: Reg,
        base: u64,
        stride: usize,
        mem: &mut dyn ByteMemory,
        regs: &WarpRegFile,
        accesses: &mut Vec<MemAccess>,
    ) -> Option<TileFootprint>;

    /// Appends to `accesses`, lane-major, the per-lane accesses of the
    /// load or store `dir` that reported the footprint `tile`.
    fn tile_accesses(
        &self,
        dir: &WmmaDirective,
        tile: &TileFootprint,
        accesses: &mut Vec<MemAccess>,
    );
}

/// A [`WmmaHandler`] that panics; for kernels known to be WMMA-free.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoWmma;

impl WmmaHandler for NoWmma {
    fn wmma_load(
        &self,
        _dir: &WmmaDirective,
        _dst: Reg,
        _base: u64,
        _stride: usize,
        _mem: &dyn ByteMemory,
        _regs: &mut WarpRegFile,
        _accesses: &mut Vec<MemAccess>,
    ) -> Option<TileFootprint> {
        panic!("kernel executed a wmma instruction but no tensor-core model is attached")
    }

    fn wmma_mma(
        &self,
        _dir: &WmmaDirective,
        _d: Reg,
        _a: Reg,
        _b: Reg,
        _c: Reg,
        _regs: &mut WarpRegFile,
    ) {
        panic!("kernel executed a wmma instruction but no tensor-core model is attached")
    }

    fn mma_sync(
        &self,
        _dir: &WmmaDirective,
        _d: Reg,
        _a: Reg,
        _b: Reg,
        _c: Reg,
        _meta: Option<Reg>,
        _regs: &mut WarpRegFile,
    ) {
        panic!("kernel executed a wmma instruction but no tensor-core model is attached")
    }

    fn wmma_store(
        &self,
        _dir: &WmmaDirective,
        _src: Reg,
        _base: u64,
        _stride: usize,
        _mem: &mut dyn ByteMemory,
        _regs: &WarpRegFile,
        _accesses: &mut Vec<MemAccess>,
    ) -> Option<TileFootprint> {
        panic!("kernel executed a wmma instruction but no tensor-core model is attached")
    }

    fn tile_accesses(
        &self,
        _dir: &WmmaDirective,
        _tile: &TileFootprint,
        _accesses: &mut Vec<MemAccess>,
    ) {
        panic!("kernel executed a wmma instruction but no tensor-core model is attached")
    }
}

/// One 64-bit value per lane (register pairs, addresses, doubles).
type Row64 = [u64; WARP_SIZE];

/// The lanes set in `mask`, ascending.
fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            lane
        })
    })
}

/// Resolves a source operand into its 32-bit value on every lane.
fn row32(warp: &WarpExec, env: &ExecEnv<'_>, op: Operand) -> Row {
    match op {
        Operand::Reg(r) | Operand::RegPair(r) => *warp.regs.row(r),
        Operand::Imm(i) => [i as u32; WARP_SIZE],
        Operand::Special(s) => env.special_row(warp, s),
        Operand::Pred(p) => {
            let bits = warp.preds[p.0 as usize];
            std::array::from_fn(|lane| bits >> lane & 1)
        }
    }
}

/// Resolves a source operand into its 64-bit value on every lane
/// (32-bit kinds zero-extend, immediates sign-extend).
fn row64(warp: &WarpExec, env: &ExecEnv<'_>, op: Operand) -> Row64 {
    match op {
        Operand::RegPair(r) => {
            let (lo, hi) = (warp.regs.row(r), warp.regs.row(Reg(r.0 + 1)));
            std::array::from_fn(|lane| lo[lane] as u64 | (hi[lane] as u64) << 32)
        }
        Operand::Imm(i) => [i as u64; WARP_SIZE],
        other => map1(&row32(warp, env, other), u64::from),
    }
}

/// `f` over every lane: the 32-wide straight loop of the cheap opcodes
/// (the compiler vectorises it; inactive lanes are computed and then
/// dropped by the masked write-back). Used instead of `<[T; N]>::map`,
/// which is neither inlined nor vectorised at this size.
fn map1<T: Copy, U: Copy + Default>(a: &[T; WARP_SIZE], f: impl Fn(T) -> U) -> [U; WARP_SIZE] {
    let mut out = [U::default(); WARP_SIZE];
    for (o, &a) in out.iter_mut().zip(a) {
        *o = f(a);
    }
    out
}

/// Two-operand [`map1`].
fn map2<T: Copy, U: Copy + Default>(
    a: &[T; WARP_SIZE],
    b: &[T; WARP_SIZE],
    f: impl Fn(T, T) -> U,
) -> [U; WARP_SIZE] {
    let mut out = [U::default(); WARP_SIZE];
    for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
        *o = f(a, b);
    }
    out
}

/// `f(lane)` on the lanes of `mask` only, for opcodes whose per-lane cost
/// is a library call or soft-float (fma, transcendentals, binary16): a
/// warp with one live lane pays for one.
fn map_on<U: Copy + Default>(mask: u32, f: impl Fn(usize) -> U) -> [U; WARP_SIZE] {
    let mut out = [U::default(); WARP_SIZE];
    for lane in lanes(mask) {
        out[lane] = f(lane);
    }
    out
}

/// Writes `vals` to register `dst` on the lanes of `mask`.
fn write32(warp: &mut WarpExec, dst: Reg, vals: &Row, mask: u32) {
    let row = warp.regs.row_mut(dst);
    if mask == FULL_MASK {
        *row = *vals;
    } else {
        for lane in lanes(mask) {
            row[lane] = vals[lane];
        }
    }
}

/// Writes `vals` to the register pair `(dst, dst+1)` on the lanes of
/// `mask`.
fn write64(warp: &mut WarpExec, dst: Reg, vals: &Row64, mask: u32) {
    write32(warp, dst, &map1(vals, |v| v as u32), mask);
    write32(
        warp,
        Reg(dst.0 + 1),
        &map1(vals, |v| (v >> 32) as u32),
        mask,
    );
}

fn f32s(row: &Row) -> [f32; WARP_SIZE] {
    map1(row, f32::from_bits)
}

fn f64s(row: &Row64) -> [f64; WARP_SIZE] {
    map1(row, f64::from_bits)
}

/// Lanes on which `cmp` holds between `a` and `b` under the ordering
/// `ord`.
fn cmp_mask<T: Copy>(
    a: &[T; WARP_SIZE],
    b: &[T; WARP_SIZE],
    cmp: CmpOp,
    ord: impl Fn(T, T) -> std::cmp::Ordering,
) -> u32 {
    let mut bits = 0;
    for lane in 0..WARP_SIZE {
        bits |= (cmp.eval(ord(a[lane], b[lane])) as u32) << lane;
    }
    bits
}

/// [`StepOutcome`] without the owned access list: what [`step_into`]
/// returns next to the caller's access buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepInfo {
    /// Control effect of the instruction.
    pub action: StepAction,
    /// PC of the instruction that executed.
    pub pc: usize,
    /// The functional unit class it issues to.
    pub unit: UnitClass,
    /// Address space and direction of its memory traffic, if it was a
    /// load/store/atomic/WMMA memory operation.
    pub mem: Option<MemOp>,
}

/// Which memory an instruction accessed and how.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemOp {
    /// Address space accessed.
    pub space: MemSpace,
    /// Whether the accesses are stores.
    pub is_store: bool,
    /// Set by a `wmma.load`/`wmma.store` that reported its footprint in
    /// place of lane accesses (the access buffer is then empty).
    pub tile: Option<TileFootprint>,
}

/// Executes the instruction at `warp.pc` and advances architectural state.
///
/// Convenience form of [`step_into`] that returns the lane accesses in a
/// freshly allocated [`MemTrace`], a tile footprint expanded back into
/// the accesses of its lanes.
///
/// # Panics
///
/// As [`step_into`].
pub fn step(
    warp: &mut WarpExec,
    kernel: &Kernel,
    env: &mut ExecEnv<'_>,
    wmma: &dyn WmmaHandler,
) -> StepOutcome {
    let mut accesses = Vec::new();
    let info = step_into(warp, kernel, env, wmma, &mut accesses);
    if let Some(tile) = info.mem.and_then(|m| m.tile) {
        let Op::Wmma(dir) = &kernel.instrs()[info.pc].op else {
            unreachable!("only wmma.load/store report a footprint")
        };
        wmma.tile_accesses(dir, &tile, &mut accesses);
    }
    StepOutcome {
        action: info.action,
        pc: info.pc,
        unit: info.unit,
        mem: info.mem.map(|m| MemTrace {
            space: m.space,
            is_store: m.is_store,
            accesses,
        }),
    }
}

/// Executes the instruction at `warp.pc` and advances architectural
/// state, leaving the per-lane memory accesses it made in `accesses`
/// (cleared first; empty for non-memory instructions and for a
/// `wmma.load`/`wmma.store` that reports a [`TileFootprint`] in
/// [`MemOp::tile`] instead). A caller that passes the same buffer every
/// time — the SM does — allocates nothing per instruction.
///
/// Every opcode works a warp at a time: each source operand is resolved
/// once into a 32-lane row, the result row is computed by a straight
/// loop, and only then written back under the execution mask — so all
/// sources are read before any destination is written and `dst == src`
/// or overlapping register pairs keep per-lane semantics.
///
/// # Panics
///
/// Panics on malformed instructions (wrong operand kinds), on divergent
/// branches without a reconvergence point, and on WMMA instructions issued
/// with a partially active warp.
pub fn step_into(
    warp: &mut WarpExec,
    kernel: &Kernel,
    env: &mut ExecEnv<'_>,
    wmma: &dyn WmmaHandler,
    accesses: &mut Vec<MemAccess>,
) -> StepInfo {
    accesses.clear();
    let pc = warp.pc;
    let instr = &kernel.instrs()[pc];
    let unit = instr.op.unit();

    // Guard evaluation: the execution mask of this instruction.
    let mut exec_mask = warp.active;
    if let Some((p, sense)) = instr.guard {
        let bits = warp.preds[p.0 as usize];
        exec_mask &= if sense { bits } else { !bits };
    }

    let mut outcome = StepInfo {
        action: StepAction::Continue,
        pc,
        unit,
        mem: None,
    };

    match &instr.op {
        Op::Bra => {
            let target = instr.target.expect("unresolved branch");
            if exec_mask == warp.active {
                warp.pc = target;
            } else if exec_mask == 0 {
                warp.pc = pc + 1;
            } else {
                // Divergence: needs a reconvergence point.
                let reconv = instr
                    .reconv
                    .expect("divergent branch without reconvergence point");
                let fall = warp.active & !exec_mask;
                // Join entry resumes the full mask at the reconvergence pc.
                warp.stack.push(SimtEntry {
                    pc: reconv,
                    mask: warp.active,
                    reconv,
                });
                // Else entry runs the fall-through lanes up to reconv.
                warp.stack.push(SimtEntry {
                    pc: pc + 1,
                    mask: fall,
                    reconv,
                });
                warp.active = exec_mask;
                warp.pc = target;
            }
            check_reconvergence(warp);
            return outcome;
        }
        Op::Exit => {
            warp.exited |= exec_mask;
            warp.active &= !exec_mask;
            if warp.active == 0 {
                // Resume a pending path or finish.
                if let Some(e) = warp.stack.pop() {
                    warp.active = e.mask & !warp.exited;
                    warp.pc = e.pc;
                    if warp.active == 0 && warp.stack.is_empty() {
                        outcome.action = StepAction::Exited;
                    }
                } else {
                    outcome.action = StepAction::Exited;
                }
            } else {
                warp.pc = pc + 1;
            }
            if warp.done() {
                outcome.action = StepAction::Exited;
            }
            return outcome;
        }
        Op::Bar => {
            warp.pc = pc + 1;
            outcome.action = StepAction::Barrier;
            return outcome;
        }
        _ => {}
    }

    // Straight-line instruction, executed on the lanes of exec_mask.
    let src32 = |warp: &WarpExec, i: usize| row32(warp, env, instr.srcs[i]);
    let src64 = |warp: &WarpExec, i: usize| row64(warp, env, instr.srcs[i]);
    match &instr.op {
        Op::Ld { space, width } => {
            exec_load(warp, env, instr, *space, *width, exec_mask, accesses);
            outcome.mem = Some(MemOp {
                space: *space,
                is_store: false,
                tile: None,
            });
        }
        Op::St { space, width } => {
            exec_store(warp, env, instr, *space, *width, exec_mask, accesses);
            outcome.mem = Some(MemOp {
                space: *space,
                is_store: true,
                tile: None,
            });
        }
        Op::Atom { space, op } => {
            // Atomics read and write; the coalescer/timing treat them as
            // stores plus a returned value (handled by the SM's memory
            // accounting).
            exec_atom(warp, env, instr, *space, *op, exec_mask, accesses);
            outcome.mem = Some(MemOp {
                space: *space,
                is_store: true,
                tile: None,
            });
        }
        Op::Wmma(dir) => {
            assert_eq!(
                exec_mask, FULL_MASK,
                "wmma instructions are warp-synchronous and need all 32 lanes active"
            );
            outcome.mem = exec_wmma(warp, env, instr, dir, wmma, accesses);
        }
        // No lane executes: nothing is read and nothing is written.
        _ if exec_mask == 0 => {}
        Op::Nop => {}
        Op::Mov => {
            let v = src32(warp, 0);
            write32(warp, instr.dst.expect("mov dst"), &v, exec_mask);
        }
        Op::Mov64 => {
            let v = src64(warp, 0);
            write64(warp, instr.dst.expect("mov64 dst"), &v, exec_mask);
        }
        Op::IAdd
        | Op::ISub
        | Op::IMul
        | Op::IMin
        | Op::IMax
        | Op::Shl
        | Op::Shr
        | Op::Sar
        | Op::And
        | Op::Or
        | Op::Xor => {
            let (a, b) = (src32(warp, 0), src32(warp, 1));
            let v = match instr.op {
                Op::IAdd => map2(&a, &b, u32::wrapping_add),
                Op::ISub => map2(&a, &b, u32::wrapping_sub),
                Op::IMul => map2(&a, &b, u32::wrapping_mul),
                Op::IMin => map2(&a, &b, |a, b| (a as i32).min(b as i32) as u32),
                Op::IMax => map2(&a, &b, |a, b| (a as i32).max(b as i32) as u32),
                Op::Shl => map2(&a, &b, u32::wrapping_shl),
                Op::Shr => map2(&a, &b, u32::wrapping_shr),
                Op::Sar => map2(&a, &b, |a, b| (a as i32).wrapping_shr(b) as u32),
                Op::And => map2(&a, &b, |a, b| a & b),
                Op::Or => map2(&a, &b, |a, b| a | b),
                _ => map2(&a, &b, |a, b| a ^ b),
            };
            write32(warp, instr.dst.expect("alu dst"), &v, exec_mask);
        }
        Op::Not => {
            let v = map1(&src32(warp, 0), |a: u32| !a);
            write32(warp, instr.dst.expect("not dst"), &v, exec_mask);
        }
        Op::IMad => {
            let (a, b, c) = (src32(warp, 0), src32(warp, 1), src32(warp, 2));
            let v = map2(&map2(&a, &b, u32::wrapping_mul), &c, u32::wrapping_add);
            write32(warp, instr.dst.expect("imad dst"), &v, exec_mask);
        }
        Op::IAdd64 => {
            let v = map2(&src64(warp, 0), &src64(warp, 1), u64::wrapping_add);
            write64(warp, instr.dst.expect("iadd64 dst"), &v, exec_mask);
        }
        Op::IMadWide => {
            let (a, b, c) = (src32(warp, 0), src32(warp, 1), src64(warp, 2));
            let ab = map2(&a, &b, |a, b| (a as u64).wrapping_mul(b as u64));
            let v = map2(&ab, &c, u64::wrapping_add);
            write64(warp, instr.dst.expect("imad.wide dst"), &v, exec_mask);
        }
        Op::FAdd | Op::FMul | Op::FMin | Op::FMax => {
            let (a, b) = (f32s(&src32(warp, 0)), f32s(&src32(warp, 1)));
            let v = match instr.op {
                Op::FAdd => map2(&a, &b, |a, b| (a + b).to_bits()),
                Op::FMul => map2(&a, &b, |a, b| (a * b).to_bits()),
                Op::FMin => map2(&a, &b, |a, b| a.min(b).to_bits()),
                _ => map2(&a, &b, |a, b| a.max(b).to_bits()),
            };
            write32(warp, instr.dst.expect("fp dst"), &v, exec_mask);
        }
        Op::FFma => {
            let (a, b, c) = (
                f32s(&src32(warp, 0)),
                f32s(&src32(warp, 1)),
                f32s(&src32(warp, 2)),
            );
            let v = map_on(exec_mask, |l| a[l].mul_add(b[l], c[l]).to_bits());
            write32(warp, instr.dst.expect("ffma dst"), &v, exec_mask);
        }
        Op::FRcp | Op::FSqrt | Op::FEx2 | Op::FLg2 => {
            let a = f32s(&src32(warp, 0));
            let v = match instr.op {
                Op::FRcp => map_on(exec_mask, |l| (1.0 / a[l]).to_bits()),
                Op::FSqrt => map_on(exec_mask, |l| a[l].sqrt().to_bits()),
                Op::FEx2 => map_on(exec_mask, |l| a[l].exp2().to_bits()),
                _ => map_on(exec_mask, |l| a[l].log2().to_bits()),
            };
            write32(warp, instr.dst.expect("mufu dst"), &v, exec_mask);
        }
        Op::DAdd | Op::DMul => {
            let (a, b) = (f64s(&src64(warp, 0)), f64s(&src64(warp, 1)));
            let v = if matches!(instr.op, Op::DAdd) {
                map2(&a, &b, |a, b| (a + b).to_bits())
            } else {
                map2(&a, &b, |a, b| (a * b).to_bits())
            };
            write64(warp, instr.dst.expect("fp64 dst"), &v, exec_mask);
        }
        Op::DFma => {
            let (a, b, c) = (
                f64s(&src64(warp, 0)),
                f64s(&src64(warp, 1)),
                f64s(&src64(warp, 2)),
            );
            let v = map_on(exec_mask, |l| a[l].mul_add(b[l], c[l]).to_bits());
            write64(warp, instr.dst.expect("dfma dst"), &v, exec_mask);
        }
        Op::HAdd2 | Op::HMul2 | Op::HFma2 => {
            let h2 = |warp: &WarpExec, i| map1(&src32(warp, i), F16x2::from_bits);
            let (a, b) = (h2(warp, 0), h2(warp, 1));
            let v = match instr.op {
                Op::HAdd2 => map_on(exec_mask, |l| a[l].hadd2(b[l]).to_bits()),
                Op::HMul2 => map_on(exec_mask, |l| a[l].hmul2(b[l]).to_bits()),
                _ => {
                    let c = h2(warp, 2);
                    map_on(exec_mask, |l| a[l].hfma2(b[l], c[l]).to_bits())
                }
            };
            write32(warp, instr.dst.expect("h2 dst"), &v, exec_mask);
        }
        Op::Cvt { from, to } => {
            let dst = instr.dst.expect("cvt dst");
            match (from, to) {
                (DataType::U32, DataType::U64) => {
                    let v = map1(&src32(warp, 0), u64::from);
                    write64(warp, dst, &v, exec_mask);
                }
                (DataType::F32, DataType::F64) => {
                    let v = map1(&f32s(&src32(warp, 0)), |a| (a as f64).to_bits());
                    write64(warp, dst, &v, exec_mask);
                }
                (DataType::U64, DataType::U32) => {
                    let v = map1(&src64(warp, 0), |a| a as u32);
                    write32(warp, dst, &v, exec_mask);
                }
                (DataType::F64, DataType::F32) => {
                    let v = map1(&f64s(&src64(warp, 0)), |a| (a as f32).to_bits());
                    write32(warp, dst, &v, exec_mask);
                }
                _ => {
                    let a = src32(warp, 0);
                    let f = f32s(&a);
                    let v = match (from, to) {
                        (DataType::F32, DataType::F16) => {
                            map_on(exec_mask, |l| F16::from_f32(f[l]).to_bits() as u32)
                        }
                        (DataType::F16, DataType::F32) => map_on(exec_mask, |l| {
                            F16::from_bits(a[l] as u16).to_f32().to_bits()
                        }),
                        (DataType::U32, DataType::F32) => map1(&a, |a| (a as f32).to_bits()),
                        (DataType::S32, DataType::F32) => map1(&a, |a| (a as i32 as f32).to_bits()),
                        (DataType::F32, DataType::S32) => map1(&f, |a| a.trunc() as i32 as u32),
                        (DataType::F32, DataType::U32) => map1(&f, |a| a.trunc().max(0.0) as u32),
                        other => panic!("unsupported conversion {other:?}"),
                    };
                    write32(warp, dst, &v, exec_mask);
                }
            }
        }
        Op::Setp { cmp, ty } => {
            let pd = instr.pred_dst.expect("setp pred dst");
            let holds = match ty {
                DataType::S32 => cmp_mask(&src32(warp, 0), &src32(warp, 1), *cmp, |a, b| {
                    (a as i32).cmp(&(b as i32))
                }),
                DataType::U32 => cmp_mask(&src32(warp, 0), &src32(warp, 1), *cmp, |a, b| a.cmp(&b)),
                DataType::U64 => cmp_mask(&src64(warp, 0), &src64(warp, 1), *cmp, |a, b| a.cmp(&b)),
                DataType::F32 => cmp_mask(
                    &f32s(&src32(warp, 0)),
                    &f32s(&src32(warp, 1)),
                    *cmp,
                    |a, b| a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Greater),
                ),
                other => panic!("unsupported setp type {other}"),
            };
            let bits = &mut warp.preds[pd.0 as usize];
            *bits = (*bits & !exec_mask) | (holds & exec_mask);
        }
        Op::SelP => {
            let Operand::Pred(p) = instr.srcs[0] else {
                panic!("selp pred operand")
            };
            let bits = warp.preds[p.0 as usize];
            let (a, b) = (src32(warp, 1), src32(warp, 2));
            let v: Row = std::array::from_fn(|l| if bits >> l & 1 != 0 { a[l] } else { b[l] });
            write32(warp, instr.dst.expect("selp dst"), &v, exec_mask);
        }
        Op::Clock => {
            let v = [env.clock as u32; WARP_SIZE];
            write32(warp, instr.dst.expect("clock dst"), &v, exec_mask);
        }
        Op::Shfl { mode } => {
            // Lanes exchange pre-instruction values: the source row is a
            // copy, so `dst == src` cannot leak a written lane.
            let Operand::Reg(src) = instr.srcs[0] else {
                panic!("shfl value operand")
            };
            let (vals, b) = (*warp.regs.row(src), src32(warp, 1));
            let v: Row = std::array::from_fn(|lane| {
                let b = b[lane] as usize;
                let j = match mode {
                    ShflMode::Down => lane + b,
                    ShflMode::Up => lane.wrapping_sub(b),
                    ShflMode::Bfly => lane ^ b,
                    ShflMode::Idx => b,
                };
                vals[if j < WARP_SIZE { j } else { lane }]
            });
            write32(warp, instr.dst.expect("shfl dst"), &v, exec_mask);
        }
        Op::Bra | Op::Bar | Op::Exit => unreachable!("handled above"),
    }

    warp.pc = pc + 1;
    check_reconvergence(warp);
    outcome
}

/// Pops SIMT stack entries whose reconvergence point has been reached.
fn check_reconvergence(warp: &mut WarpExec) {
    while let Some(&top) = warp.stack.last() {
        if warp.pc == top.reconv {
            warp.stack.pop();
            warp.active = top.mask & !warp.exited;
            warp.pc = top.pc;
            // A join entry has pc == reconv; resuming it re-checks deeper
            // entries only if we moved.
            if top.pc == top.reconv {
                continue;
            }
        }
        break;
    }
}

/// Per-lane byte addresses of a load/store/atomic: base operand plus the
/// immediate offset.
fn lane_addrs(warp: &WarpExec, env: &ExecEnv<'_>, instr: &Instr) -> Row64 {
    let off = match instr.srcs[1] {
        Operand::Imm(i) => i as u64,
        other => panic!("load/store offset must be immediate, found {other:?}"),
    };
    map1(&row64(warp, env, instr.srcs[0]), |base: u64| {
        base.wrapping_add(off)
    })
}

/// Records one access per lane of `mask`.
fn push_accesses(accesses: &mut Vec<MemAccess>, addrs: &Row64, bytes: u64, mask: u32) {
    accesses.reserve(mask.count_ones() as usize);
    for lane in lanes(mask) {
        accesses.push(MemAccess {
            lane: lane as u8,
            addr: addrs[lane],
            bytes: bytes as u8,
        });
    }
}

fn exec_load(
    warp: &mut WarpExec,
    env: &ExecEnv<'_>,
    instr: &Instr,
    space: MemSpace,
    width: MemWidth,
    mask: u32,
    accesses: &mut Vec<MemAccess>,
) {
    if mask == 0 {
        return;
    }
    let dst = instr.dst.expect("load dst");
    let addrs = if space == MemSpace::Param {
        match instr.srcs[0] {
            Operand::Imm(i) => [i as u64; WARP_SIZE],
            other => panic!("param load offset must be immediate, found {other:?}"),
        }
    } else {
        lane_addrs(warp, env, instr)
    };
    push_accesses(accesses, &addrs, width.bytes(), mask);
    let read = |a: u64| -> u32 {
        match space {
            MemSpace::Global | MemSpace::Local => env.global.read_u32(a),
            MemSpace::Shared => env.shared.read_u32(a),
            MemSpace::Param => {
                let mut b = [0u8; 4];
                for (i, out) in b.iter_mut().enumerate() {
                    *out = env.params.get(a as usize + i).copied().unwrap_or(0);
                }
                u32::from_le_bytes(b)
            }
        }
    };
    let keep = match width {
        MemWidth::B8 => 0xFF,
        MemWidth::B16 => 0xFFFF,
        _ => u32::MAX,
    };
    // Loads have no side effect on memory, so the words of a vector load
    // can be fetched a destination row at a time.
    for i in 0..width.regs() {
        let row = warp.regs.row_mut(Reg(dst.0 + i as u16));
        for lane in lanes(mask) {
            row[lane] = read(addrs[lane] + 4 * i as u64) & keep;
        }
    }
}

fn exec_store(
    warp: &WarpExec,
    env: &mut ExecEnv<'_>,
    instr: &Instr,
    space: MemSpace,
    width: MemWidth,
    mask: u32,
    accesses: &mut Vec<MemAccess>,
) {
    if mask == 0 {
        return;
    }
    let Operand::Reg(data) = instr.srcs[2] else {
        panic!("store data operand")
    };
    let addrs = lane_addrs(warp, env, instr);
    push_accesses(accesses, &addrs, width.bytes(), mask);
    let mem: &mut dyn ByteMemory = match space {
        MemSpace::Global | MemSpace::Local => &mut *env.global,
        MemSpace::Shared => &mut *env.shared,
        MemSpace::Param => panic!("stores to param space are not allowed"),
    };
    // Lane-major, ascending: where the addresses of two lanes overlap the
    // higher lane's data lands last.
    for lane in lanes(mask) {
        let word = |i: usize| warp.regs.row(Reg(data.0 + i as u16))[lane];
        match width {
            MemWidth::B8 => mem.write_u8(addrs[lane], word(0) as u8),
            MemWidth::B16 => mem.write_u16(addrs[lane], word(0) as u16),
            _ => {
                for i in 0..width.regs() {
                    mem.write_u32(addrs[lane] + 4 * i as u64, word(i));
                }
            }
        }
    }
}

/// Atomic read-modify-write: lanes apply in ascending lane order (the
/// deterministic serialization the simulator guarantees).
fn exec_atom(
    warp: &mut WarpExec,
    env: &mut ExecEnv<'_>,
    instr: &Instr,
    space: MemSpace,
    op: AtomOp,
    mask: u32,
    accesses: &mut Vec<MemAccess>,
) {
    if mask == 0 {
        return;
    }
    let dst = instr.dst.expect("atom dst");
    let Operand::Reg(data) = instr.srcs[2] else {
        panic!("atom data operand")
    };
    let addrs = lane_addrs(warp, env, instr);
    push_accesses(accesses, &addrs, 4, mask);
    let mem: &mut dyn ByteMemory = match space {
        MemSpace::Global | MemSpace::Local => &mut *env.global,
        MemSpace::Shared => &mut *env.shared,
        MemSpace::Param => panic!("atomics on param space are not allowed"),
    };
    let vals = *warp.regs.row(data);
    let mut olds = [0u32; WARP_SIZE];
    for lane in lanes(mask) {
        let old = mem.read_u32(addrs[lane]);
        let v = vals[lane];
        let new = match op {
            AtomOp::Add => old.wrapping_add(v),
            AtomOp::Min => (old as i32).min(v as i32) as u32,
            AtomOp::Max => (old as i32).max(v as i32) as u32,
            AtomOp::Exch => v,
        };
        mem.write_u32(addrs[lane], new);
        olds[lane] = old;
    }
    write32(warp, dst, &olds, mask);
}

fn exec_wmma(
    warp: &mut WarpExec,
    env: &mut ExecEnv<'_>,
    instr: &Instr,
    dir: &WmmaDirective,
    wmma: &dyn WmmaHandler,
    accesses: &mut Vec<MemAccess>,
) -> Option<MemOp> {
    // Warp-uniform operands (tile base, leading dimension): lane 0's value.
    let uniform = |warp: &WarpExec, op: Operand| row64(warp, env, op)[0];
    match dir {
        WmmaDirective::Load { .. } => {
            let base = uniform(warp, instr.srcs[0]);
            let stride = uniform(warp, instr.srcs[1]) as usize;
            let shared = matches!(instr.srcs[2], Operand::Imm(1));
            let dst = instr.dst.expect("wmma.load dst");
            let mem: &dyn ByteMemory = if shared { &*env.shared } else { &*env.global };
            let tile = wmma.wmma_load(dir, dst, base, stride, mem, &mut warp.regs, accesses);
            Some(MemOp {
                space: if shared {
                    MemSpace::Shared
                } else {
                    MemSpace::Global
                },
                is_store: false,
                tile,
            })
        }
        WmmaDirective::Mma { .. } => {
            let d = instr.dst.expect("wmma.mma dst");
            let (Operand::Reg(a), Operand::Reg(b), Operand::Reg(c)) =
                (instr.srcs[0], instr.srcs[1], instr.srcs[2])
            else {
                panic!("wmma.mma operands must be fragment base registers")
            };
            wmma.wmma_mma(dir, d, a, b, c, &mut warp.regs);
            None
        }
        WmmaDirective::MmaSync { sparse, .. } => {
            let d = instr.dst.expect("mma.sync dst");
            let (Operand::Reg(a), Operand::Reg(b), Operand::Reg(c)) =
                (instr.srcs[0], instr.srcs[1], instr.srcs[2])
            else {
                panic!("mma.sync operands must be fragment base registers")
            };
            let meta = if *sparse {
                let Some(Operand::Reg(m)) = instr.srcs.get(3) else {
                    panic!("sparse mma.sync needs a metadata register operand")
                };
                Some(*m)
            } else {
                None
            };
            wmma.mma_sync(dir, d, a, b, c, meta, &mut warp.regs);
            None
        }
        WmmaDirective::Store { .. } => {
            let base = uniform(warp, instr.srcs[0]);
            let stride = uniform(warp, instr.srcs[1]) as usize;
            let Operand::Reg(d) = instr.srcs[2] else {
                panic!("wmma.store data operand")
            };
            let shared = matches!(instr.srcs[3], Operand::Imm(1));
            let mem: &mut dyn ByteMemory = if shared {
                &mut *env.shared
            } else {
                &mut *env.global
            };
            let tile = wmma.wmma_store(dir, d, base, stride, mem, &warp.regs, accesses);
            Some(MemOp {
                space: if shared {
                    MemSpace::Shared
                } else {
                    MemSpace::Global
                },
                is_store: true,
                tile,
            })
        }
    }
}

/// Runs a warp to completion (or `max_steps`), for functional tests and
/// single-warp microbenchmarks. Barriers are released immediately (valid
/// only for single-warp CTAs).
///
/// # Panics
///
/// Panics if the warp does not finish within `max_steps`.
pub fn run_warp(
    warp: &mut WarpExec,
    kernel: &Kernel,
    env: &mut ExecEnv<'_>,
    wmma: &dyn WmmaHandler,
    max_steps: usize,
) -> usize {
    let mut accesses = Vec::new();
    for n in 0..max_steps {
        let out = step_into(warp, kernel, env, wmma, &mut accesses);
        env.clock += 1;
        if out.action == StepAction::Exited {
            return n + 1;
        }
    }
    panic!("warp did not finish within {max_steps} steps");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::CmpOp;
    use crate::kernel::KernelBuilder;
    use crate::traits::{VecMemory, WarpRegisters};

    fn env<'a>(
        global: &'a mut VecMemory,
        shared: &'a mut VecMemory,
        params: &'a [u8],
    ) -> ExecEnv<'a> {
        ExecEnv {
            global,
            shared,
            params,
            block: Dim3::x(32),
            grid: Dim3::x(1),
            cta: Dim3::new(0, 0, 0),
            clock: 0,
        }
    }

    #[test]
    fn alu_and_special_registers() {
        let mut b = KernelBuilder::new("t");
        let tid = b.reg();
        b.mov(tid, Operand::Special(SpecialReg::TidX));
        let r = b.reg();
        b.imad(r, tid, Operand::Imm(3), Operand::Imm(7));
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut e, &NoWmma, 100);
        for lane in 0..32 {
            assert_eq!(w.regs.read(lane, Reg(1)), (lane as u32) * 3 + 7);
        }
    }

    #[test]
    fn global_load_store_roundtrip() {
        let mut b = KernelBuilder::new("t");
        let base = b.reg_pair();
        b.ld_param(MemWidth::B64, base, 0);
        let tid = b.reg();
        b.mov(tid, Operand::Special(SpecialReg::TidX));
        let addr = b.reg_pair();
        b.imad_wide(addr, tid, Operand::Imm(4), base);
        let v = b.reg();
        b.ld_global(MemWidth::B32, v, addr, 0);
        b.iadd(v, v, Operand::Imm(100));
        b.st_global(MemWidth::B32, addr, 0, v);
        b.exit();
        let k = b.build();

        let mut g = VecMemory::new();
        for i in 0..32u32 {
            g.write_u32(0x1000 + 4 * i as u64, i);
        }
        let params = 0x1000u64.to_le_bytes();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &params);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut e, &NoWmma, 100);
        for i in 0..32u32 {
            assert_eq!(g.read_u32(0x1000 + 4 * i as u64), i + 100);
        }
    }

    #[test]
    fn uniform_loop_iterates() {
        let mut b = KernelBuilder::new("t");
        let i = b.reg();
        b.mov(i, Operand::Imm(0));
        let acc = b.reg();
        b.mov(acc, Operand::Imm(0));
        let top = b.label();
        b.place(top);
        b.iadd(acc, acc, Operand::Reg(i));
        b.iadd(i, i, Operand::Imm(1));
        let p = b.pred();
        b.setp(p, CmpOp::Lt, DataType::S32, i, Operand::Imm(5));
        b.bra_if(p, true, top);
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut e, &NoWmma, 100);
        // 0+1+2+3+4 = 10
        assert_eq!(w.regs.read(0, Reg(1)), 10);
    }

    #[test]
    fn divergent_branch_reconverges_with_both_paths() {
        // if (lane < 16) r1 = 2; else r1 = 1; r2 = r1 + 10 after merge.
        let mut b = KernelBuilder::new("t");
        let lane = b.reg();
        b.mov(lane, Operand::Special(SpecialReg::LaneId));
        let p = b.pred();
        b.setp(p, CmpOp::Lt, DataType::S32, lane, Operand::Imm(16));
        let taken = b.label();
        let merge = b.label();
        let r1 = b.reg();
        b.bra_div(p, true, taken, merge);
        b.mov(r1, Operand::Imm(1)); // else path (lanes 16..32)
        b.bra(merge);
        b.place(taken);
        b.mov(r1, Operand::Imm(2)); // taken path (lanes 0..16)
        b.place(merge);
        let r2 = b.reg();
        b.iadd(r2, r1, Operand::Imm(10));
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut e, &NoWmma, 100);
        for lanei in 0..32 {
            let expect = if lanei < 16 { 12 } else { 11 };
            assert_eq!(w.regs.read(lanei, Reg(2)), expect, "lane {lanei}");
        }
    }

    #[test]
    fn guarded_instruction_executes_on_matching_lanes_only() {
        let mut b = KernelBuilder::new("t");
        let lane = b.reg();
        b.mov(lane, Operand::Special(SpecialReg::LaneId));
        let p = b.pred();
        b.setp(p, CmpOp::Eq, DataType::S32, lane, Operand::Imm(0));
        let r = b.reg();
        b.mov(r, Operand::Imm(5));
        b.emit(
            Instr::new(Op::Mov)
                .with_dst(r)
                .with_srcs(vec![Operand::Imm(9)])
                .with_guard(crate::instr::PredReg(0), true),
        );
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut e, &NoWmma, 100);
        assert_eq!(w.regs.read(0, Reg(1)), 9);
        assert_eq!(w.regs.read(1, Reg(1)), 5);
    }

    #[test]
    fn shared_memory_and_barrier_action() {
        let mut b = KernelBuilder::new("t");
        let lane = b.reg();
        b.mov(lane, Operand::Special(SpecialReg::LaneId));
        let a = b.reg();
        b.shl(a, lane, Operand::Imm(2));
        b.st_shared(MemWidth::B32, a, 0, lane);
        b.bar();
        let v = b.reg();
        b.ld_shared(MemWidth::B32, v, a, 0);
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        // Step until the barrier fires.
        let mut saw_barrier = false;
        for _ in 0..10 {
            let out = step(&mut w, &k, &mut e, &NoWmma);
            if out.action == StepAction::Barrier {
                saw_barrier = true;
                break;
            }
        }
        assert!(saw_barrier);
        // Continue to completion.
        loop {
            let out = step(&mut w, &k, &mut e, &NoWmma);
            if out.action == StepAction::Exited {
                break;
            }
        }
        assert_eq!(w.regs.read(7, Reg(2)), 7);
    }

    #[test]
    fn mem_trace_reports_lane_addresses() {
        let mut b = KernelBuilder::new("t");
        let base = b.reg_pair();
        b.mov64(base, Operand::Imm(0x100));
        let lane = b.reg();
        b.mov(lane, Operand::Special(SpecialReg::LaneId));
        let addr = b.reg_pair();
        b.imad_wide(addr, lane, Operand::Imm(4), base);
        let v = b.reg();
        b.ld_global(MemWidth::B32, v, addr, 0);
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        let mut trace = None;
        loop {
            let out = step(&mut w, &k, &mut e, &NoWmma);
            if let Some(m) = out.mem {
                trace = Some(m);
            }
            if out.action == StepAction::Exited {
                break;
            }
        }
        let t = trace.expect("load trace");
        assert_eq!(t.space, MemSpace::Global);
        assert!(!t.is_store);
        assert_eq!(t.accesses.len(), 32);
        assert_eq!(t.accesses[5].addr, 0x100 + 20);
        assert_eq!(t.accesses[5].bytes, 4);
    }

    #[test]
    fn clock_reads_env_cycle() {
        let mut b = KernelBuilder::new("t");
        let c = b.reg();
        b.clock(c);
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        e.clock = 1234;
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut e, &NoWmma, 10);
        assert_eq!(w.regs.read(0, Reg(0)), 1234);
    }

    #[test]
    fn cvt_f32_f16_roundtrip() {
        let mut b = KernelBuilder::new("t");
        let r = b.reg();
        b.mov(r, Operand::fimm(1.5));
        let h = b.reg();
        b.cvt(h, DataType::F32, DataType::F16, Operand::Reg(r));
        let f = b.reg();
        b.cvt(f, DataType::F16, DataType::F32, Operand::Reg(h));
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut e, &NoWmma, 10);
        assert_eq!(f32::from_bits(w.regs.read(0, Reg(2))), 1.5);
        assert_eq!(w.regs.read(0, Reg(1)), 0x3E00); // 1.5 in binary16
    }

    #[test]
    fn partial_warp_lanes_stay_inactive() {
        let mut b = KernelBuilder::new("t");
        let r = b.reg();
        b.mov(r, Operand::Imm(1));
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        // Only 8 live lanes (e.g. a 40-thread CTA's second warp).
        let mut w = WarpExec::new(k.num_regs(), 1, 0xFF);
        run_warp(&mut w, &k, &mut e, &NoWmma, 10);
        assert_eq!(w.regs.read(0, Reg(0)), 1);
        assert_eq!(w.regs.read(9, Reg(0)), 0);
    }
}

#[cfg(test)]
mod op_semantics_tests {
    //! Single-op semantic checks across the ALU surface (one lane probed;
    //! the lockstep machinery is covered by the main exec tests).

    use super::*;
    use crate::kernel::KernelBuilder;
    use crate::traits::{VecMemory, WarpRegisters};

    fn run_unop_env(build: impl FnOnce(&mut KernelBuilder, Reg, Reg)) -> u32 {
        let mut b = KernelBuilder::new("op");
        let src = b.reg();
        let dst = b.reg();
        build(&mut b, dst, src);
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut env = ExecEnv {
            global: &mut g,
            shared: &mut s,
            params: &[],
            block: Dim3::x(32),
            grid: Dim3::x(1),
            cta: Dim3::new(0, 0, 0),
            clock: 0,
        };
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut env, &NoWmma, 64);
        w.regs.read(0, Reg(1))
    }

    #[test]
    fn shift_and_bit_ops() {
        use crate::instr::Operand as O;
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(0xF0u32 as i64));
            b.shl(d, s, O::Imm(4));
        });
        assert_eq!(v, 0xF00);
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(0x8000_0000u32 as i64));
            b.shr(d, s, O::Imm(4));
        });
        assert_eq!(v, 0x0800_0000, "logical shift");
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(0x8000_0000u32 as i64));
            b.emit(
                Instr::new(Op::Sar)
                    .with_dst(d)
                    .with_srcs(vec![O::Reg(s), O::Imm(4)]),
            );
        });
        assert_eq!(v, 0xF800_0000, "arithmetic shift extends the sign");
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(0x0F0Fu32 as i64));
            b.emit(Instr::new(Op::Not).with_dst(d).with_srcs(vec![O::Reg(s)]));
        });
        assert_eq!(v, !0x0F0Fu32);
    }

    #[test]
    fn signed_min_max() {
        use crate::instr::Operand as O;
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(-5i64));
            b.imin(d, s, O::Imm(3));
        });
        assert_eq!(v as i32, -5);
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(-5i64));
            b.imax(d, s, O::Imm(3));
        });
        assert_eq!(v as i32, 3);
    }

    #[test]
    fn fp32_min_max_and_transcendentals() {
        use crate::instr::Operand as O;
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::fimm(-2.5));
            b.emit(
                Instr::new(Op::FMin)
                    .with_dst(d)
                    .with_srcs(vec![O::Reg(s), O::fimm(1.0)]),
            );
        });
        assert_eq!(f32::from_bits(v), -2.5);
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::fimm(3.0));
            b.fex2(d, s);
        });
        assert_eq!(f32::from_bits(v), 8.0);
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::fimm(8.0));
            b.flg2(d, s);
        });
        assert_eq!(f32::from_bits(v), 3.0);
    }

    #[test]
    fn packed_half_ops() {
        use crate::instr::Operand as O;
        // lanes (1.0, 2.0) + (0.5, 0.25) = (1.5, 2.25)
        let a = F16x2::new(F16::from_f32(1.0), F16::from_f32(2.0)).to_bits();
        let bb = F16x2::new(F16::from_f32(0.5), F16::from_f32(0.25)).to_bits();
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(a as i64));
            b.hadd2(d, s, O::Imm(bb as i64));
        });
        let r = F16x2::from_bits(v);
        assert_eq!(r.lo().to_f32(), 1.5);
        assert_eq!(r.hi().to_f32(), 2.25);
    }

    #[test]
    fn conversions_cover_int_float_paths() {
        use crate::instr::Operand as O;
        use crate::types::DataType as T;
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(7));
            b.cvt(d, T::U32, T::F32, O::Reg(s));
        });
        assert_eq!(f32::from_bits(v), 7.0);
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(-3i64));
            b.cvt(d, T::S32, T::F32, O::Reg(s));
        });
        assert_eq!(f32::from_bits(v), -3.0);
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::fimm(-2.7));
            b.cvt(d, T::F32, T::S32, O::Reg(s));
        });
        assert_eq!(v as i32, -2, "round toward zero");
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::fimm(-1.0));
            b.cvt(d, T::F32, T::U32, O::Reg(s));
        });
        assert_eq!(v, 0, "negative clamps to zero for unsigned");
    }

    #[test]
    fn selp_picks_by_predicate() {
        use crate::instr::Operand as O;
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(10));
            let p = b.pred();
            b.setp(
                p,
                crate::instr::CmpOp::Gt,
                crate::types::DataType::S32,
                s,
                O::Imm(5),
            );
            b.selp(d, p, O::Imm(77), O::Imm(88));
        });
        assert_eq!(v, 77);
    }
}
