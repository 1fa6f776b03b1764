//! GEMM kernel generators.
//!
//! These play the role of the CUTLASS template library in the paper
//! (§V-B): parameterized tiled matrix-multiply kernels emitted as
//! `tcsim-isa` IR, from a naive one-warp-per-tile WMMA kernel up to a
//! CUTLASS-style threadblock/warp-tiled kernel with double-buffered
//! shared-memory staging, plus the FFMA/HFMA2 baselines used by the
//! paper's Fig 17 comparison.
//!
//! All kernels compute `D = A×B + C` over row-major matrices with the
//! parameter convention:
//!
//! `a, b, c, d : u64` (device pointers), `n, k : u32` (leading
//! dimensions; `m` is implied by the grid). [`crate::GemmKernel`] is the
//! table of families: each one's kernel, grid, block and granularity.

use tcsim_isa::{
    CmpOp, DataType, FragmentKind, Kernel, KernelBuilder, Layout, MemSpace, MemWidth, Operand,
    PredReg, Reg, SpecialReg, WmmaShape, WmmaType,
};

const SHAPE: WmmaShape = WmmaShape::M16N16K16;

/// Fused epilogue applied to the accumulator tile in-register, before the
/// `wmma.store` — the role of CUTLASS's `LinearCombination`/activation
/// epilogue functors. With an epilogue a DNN layer (GEMM + bias + ReLU) is
/// **one** kernel launch instead of three.
///
/// Epilogues are supported on the FP32-accumulator kernels only (the
/// mixed-precision configuration DNN inference uses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Epilogue {
    /// Plain `D = A×B + C` (C is an m×n matrix).
    #[default]
    None,
    /// `D = A×B + bias`: the `c` parameter is reinterpreted as a length-n
    /// FP32 bias row vector, broadcast over rows via a stride-0 C-fragment
    /// load (no m×n C matrix is materialized).
    Bias,
    /// `D = relu(A×B + C)`.
    Relu,
    /// `D = relu(A×B + bias)` — the fused Conv/Linear+Bias+ReLU layer.
    BiasRelu,
}

impl Epilogue {
    /// Whether the `c` operand is a broadcast bias vector.
    pub fn has_bias(self) -> bool {
        matches!(self, Epilogue::Bias | Epilogue::BiasRelu)
    }

    /// Whether a ReLU is applied to the accumulator before the store.
    pub fn has_relu(self) -> bool {
        matches!(self, Epilogue::Relu | Epilogue::BiasRelu)
    }

    fn suffix(self) -> &'static str {
        match self {
            Epilogue::None => "",
            Epilogue::Bias => "_bias",
            Epilogue::Relu => "_relu",
            Epilogue::BiasRelu => "_bias_relu",
        }
    }
}

/// In-register ReLU over a `regs`-wide FP32 accumulator fragment:
/// `x = x > 0 ? x : 0` per element via `setp`/`selp` (the ISA has no
/// float-max ALU op).
fn emit_relu(b: &mut KernelBuilder, p: PredReg, frag: Reg, regs: usize) {
    for i in 0..regs {
        let r = Reg(frag.0 + i as u16);
        b.setp(p, CmpOp::Gt, DataType::F32, r, Operand::fimm(0.0));
        b.selp(r, p, Operand::Reg(r), Operand::fimm(0.0));
    }
}

fn declare_gemm_params(b: &mut KernelBuilder) -> (Reg, Reg, Reg, Reg, Reg, Reg) {
    let pa_off = b.param_u64("a");
    let pb_off = b.param_u64("b");
    let pc_off = b.param_u64("c");
    let pd_off = b.param_u64("d");
    let n_off = b.param_u32("n");
    let k_off = b.param_u32("k");
    let pa = b.reg_pair();
    b.ld_param(MemWidth::B64, pa, pa_off);
    let pb = b.reg_pair();
    b.ld_param(MemWidth::B64, pb, pb_off);
    let pc = b.reg_pair();
    b.ld_param(MemWidth::B64, pc, pc_off);
    let pd = b.reg_pair();
    b.ld_param(MemWidth::B64, pd, pd_off);
    let n = b.reg();
    b.ld_param(MemWidth::B32, n, n_off);
    let k = b.reg();
    b.ld_param(MemWidth::B32, k, k_off);
    (pa, pb, pc, pd, n, k)
}

/// The simplest tensor-core GEMM: one warp per CTA computing one 16×16
/// output tile with operands loaded straight from global memory (the
/// "without shared memory" configuration of Fig 16).
///
/// [`GemmKernel::builder`](crate::GemmKernel::builder) sets its launch geometry.
pub fn wmma_simple_gemm(fp16_output: bool) -> Kernel {
    wmma_simple_gemm_ep(fp16_output, Epilogue::None)
}

/// [`wmma_simple_gemm`] with a fused [`Epilogue`].
///
/// # Panics
///
/// Panics if an epilogue is requested with FP16 output (epilogues operate
/// on the FP32 accumulator fragment).
pub fn wmma_simple_gemm_ep(fp16_output: bool, ep: Epilogue) -> Kernel {
    assert!(
        ep == Epilogue::None || !fp16_output,
        "fused epilogues require the FP32 accumulator path"
    );
    let name = if fp16_output {
        "wmma_simple_hgemm".to_string()
    } else {
        format!("wmma_simple_gemm{}", ep.suffix())
    };
    let mut b = KernelBuilder::new(name);
    let (pa, pb, pc, pd, n, k) = declare_gemm_params(&mut b);
    let (cd_ty, cd_bytes, cd_regs) = if fp16_output {
        (WmmaType::F16, 2i64, 4)
    } else {
        (WmmaType::F32, 4i64, 8)
    };

    let tile_n = b.reg();
    b.mov(tile_n, Operand::Special(SpecialReg::CtaIdX));
    let tile_m = b.reg();
    b.mov(tile_m, Operand::Special(SpecialReg::CtaIdY));

    // row0 = 16·tile_m, col0 = 16·tile_n.
    let row0 = b.reg();
    b.shl(row0, tile_m, Operand::Imm(4));
    let col0 = b.reg();
    b.shl(col0, tile_n, Operand::Imm(4));

    // A pointer walks row0's row: a_ptr = pa + row0·k·2.
    let t = b.reg();
    b.imul(t, row0, Operand::Reg(k));
    let a_ptr = b.reg_pair();
    b.imad_wide(a_ptr, t, Operand::Imm(2), pa);
    // B pointer walks col0's column: b_ptr = pb + col0·2.
    let b_ptr = b.reg_pair();
    b.imad_wide(b_ptr, col0, Operand::Imm(2), pb);
    // C/D tile addresses: (row0·n + col0)·elem. With a bias epilogue the
    // C operand is a row vector indexed by column only, loaded with
    // leading dimension 0 so all 16 rows read the same 16 values.
    let cm = b.reg();
    b.imad(cm, row0, Operand::Reg(n), Operand::Reg(col0));
    let c_base = b.reg_pair();
    if ep.has_bias() {
        b.imad_wide(c_base, col0, Operand::Imm(cd_bytes), pc);
    } else {
        b.imad_wide(c_base, cm, Operand::Imm(cd_bytes), pc);
    }
    let d_base = b.reg_pair();
    b.imad_wide(d_base, cm, Operand::Imm(cd_bytes), pd);
    // B row step per k-iteration: 16·n·2 bytes.
    let bstep = b.reg();
    b.shl(bstep, n, Operand::Imm(5));

    let fc = b.reg_block(cd_regs);
    b.wmma_load(
        FragmentKind::C,
        SHAPE,
        Layout::Row,
        cd_ty,
        MemSpace::Global,
        fc,
        Operand::RegPair(c_base),
        if ep.has_bias() {
            Operand::Imm(0)
        } else {
            Operand::Reg(n)
        },
    );

    let kk = b.reg();
    b.mov(kk, Operand::Imm(0));
    let fa = b.reg_block(8);
    let fb = b.reg_block(8);
    let top = b.label();
    b.place(top);
    b.wmma_load(
        FragmentKind::A,
        SHAPE,
        Layout::Row,
        WmmaType::F16,
        MemSpace::Global,
        fa,
        Operand::RegPair(a_ptr),
        Operand::Reg(k),
    );
    b.wmma_load(
        FragmentKind::B,
        SHAPE,
        Layout::Row,
        WmmaType::F16,
        MemSpace::Global,
        fb,
        Operand::RegPair(b_ptr),
        Operand::Reg(n),
    );
    b.wmma_mma(
        SHAPE,
        Layout::Row,
        Layout::Row,
        WmmaType::F16,
        cd_ty,
        cd_ty,
        fc,
        fa,
        fb,
        fc,
    );
    b.iadd64(a_ptr, a_ptr, Operand::Imm(32)); // 16 halves
    b.iadd64(b_ptr, b_ptr, Operand::Reg(bstep));
    b.iadd(kk, kk, Operand::Imm(16));
    let p = b.pred();
    b.setp(p, CmpOp::Lt, DataType::U32, kk, Operand::Reg(k));
    b.bra_if(p, true, top);

    if ep.has_relu() {
        let p_ep = b.pred();
        emit_relu(&mut b, p_ep, fc, cd_regs);
    }
    b.wmma_store(
        SHAPE,
        Layout::Row,
        cd_ty,
        MemSpace::Global,
        Operand::RegPair(d_base),
        Operand::Reg(n),
        fc,
    );
    b.exit();
    b.build()
}

/// INT8 tensor-core GEMM for the Turing inference mode (§III-B2): one
/// warp per 16×16 INT32 output tile, S8 multiplicands, S32 accumulation.
/// Requires a Turing GPU configuration (Volta has no integer mode).
///
/// [`GemmKernel::builder`](crate::GemmKernel::builder) sets its launch geometry.
pub fn igemm_wmma() -> Kernel {
    let mut b = KernelBuilder::new("igemm_wmma");
    let (pa, pb, pc, pd, n, k) = declare_gemm_params(&mut b);

    let tile_n = b.reg();
    b.mov(tile_n, Operand::Special(SpecialReg::CtaIdX));
    let tile_m = b.reg();
    b.mov(tile_m, Operand::Special(SpecialReg::CtaIdY));
    let row0 = b.reg();
    b.shl(row0, tile_m, Operand::Imm(4));
    let col0 = b.reg();
    b.shl(col0, tile_n, Operand::Imm(4));

    // A pointer (1-byte elements): pa + row0·k.
    let t = b.reg();
    b.imul(t, row0, Operand::Reg(k));
    let a_ptr = b.reg_pair();
    b.imad_wide(a_ptr, t, Operand::Imm(1), pa);
    // B pointer: pb + col0.
    let b_ptr = b.reg_pair();
    b.imad_wide(b_ptr, col0, Operand::Imm(1), pb);
    // C/D (4-byte INT32): (row0·n + col0)·4.
    let cm = b.reg();
    b.imad(cm, row0, Operand::Reg(n), Operand::Reg(col0));
    let c_base = b.reg_pair();
    b.imad_wide(c_base, cm, Operand::Imm(4), pc);
    let d_base = b.reg_pair();
    b.imad_wide(d_base, cm, Operand::Imm(4), pd);
    let bstep = b.reg();
    b.shl(bstep, n, Operand::Imm(4)); // 16 rows × 1 byte

    let fc = b.reg_block(8);
    b.wmma_load(
        FragmentKind::C,
        SHAPE,
        Layout::Row,
        WmmaType::S32,
        MemSpace::Global,
        fc,
        Operand::RegPair(c_base),
        Operand::Reg(n),
    );
    let kk = b.reg();
    b.mov(kk, Operand::Imm(0));
    let fa = b.reg_block(2);
    let fb = b.reg_block(2);
    let top = b.label();
    b.place(top);
    b.wmma_load(
        FragmentKind::A,
        SHAPE,
        Layout::Row,
        WmmaType::S8,
        MemSpace::Global,
        fa,
        Operand::RegPair(a_ptr),
        Operand::Reg(k),
    );
    b.wmma_load(
        FragmentKind::B,
        SHAPE,
        Layout::Row,
        WmmaType::S8,
        MemSpace::Global,
        fb,
        Operand::RegPair(b_ptr),
        Operand::Reg(n),
    );
    b.wmma_mma(
        SHAPE,
        Layout::Row,
        Layout::Row,
        WmmaType::S8,
        WmmaType::S32,
        WmmaType::S32,
        fc,
        fa,
        fb,
        fc,
    );
    b.iadd64(a_ptr, a_ptr, Operand::Imm(16));
    b.iadd64(b_ptr, b_ptr, Operand::Reg(bstep));
    b.iadd(kk, kk, Operand::Imm(16));
    let p = b.pred();
    b.setp(p, CmpOp::Lt, DataType::U32, kk, Operand::Reg(k));
    b.bra_if(p, true, top);
    b.wmma_store(
        SHAPE,
        Layout::Row,
        WmmaType::S32,
        MemSpace::Global,
        Operand::RegPair(d_base),
        Operand::Reg(n),
        fc,
    );
    b.exit();
    b.build()
}

/// Shared-memory WMMA GEMM (the paper's "WMMA optimized" kernel, Fig 16
/// "with shared memory"): each CTA of four warps computes a 32×32 output
/// tile, staging 32×16 A / 16×32 B panels in shared memory per k-step.
///
/// [`GemmKernel::builder`](crate::GemmKernel::builder) sets its launch geometry.
pub fn wmma_shared_gemm(fp16_output: bool) -> Kernel {
    wmma_shared_gemm_ep(fp16_output, Epilogue::None)
}

/// [`wmma_shared_gemm`] with a fused [`Epilogue`].
///
/// # Panics
///
/// Panics if an epilogue is requested with FP16 output (epilogues operate
/// on the FP32 accumulator fragment).
pub fn wmma_shared_gemm_ep(fp16_output: bool, ep: Epilogue) -> Kernel {
    assert!(
        ep == Epilogue::None || !fp16_output,
        "fused epilogues require the FP32 accumulator path"
    );
    let name = if fp16_output {
        "wmma_shared_hgemm".to_string()
    } else {
        format!("wmma_shared_gemm{}", ep.suffix())
    };
    let mut b = KernelBuilder::new(name);
    let (pa, pb, pc, pd, n, k) = declare_gemm_params(&mut b);
    let (cd_ty, cd_bytes, cd_regs) = if fp16_output {
        (WmmaType::F16, 2i64, 4)
    } else {
        (WmmaType::F32, 4i64, 8)
    };
    let a_panel = b.shared_alloc(32 * 16 * 2); // 1024 B
    let b_panel = b.shared_alloc(16 * 32 * 2); // 1024 B

    let tid = b.reg();
    b.mov(tid, Operand::Special(SpecialReg::TidX));
    let warp = b.reg();
    b.mov(warp, Operand::Special(SpecialReg::WarpId));
    let tile_n = b.reg();
    b.mov(tile_n, Operand::Special(SpecialReg::CtaIdX));
    let tile_m = b.reg();
    b.mov(tile_m, Operand::Special(SpecialReg::CtaIdY));

    // Warp coordinates in the 2×2 warp grid.
    let wm = b.reg();
    b.shr(wm, warp, Operand::Imm(1));
    let wn = b.reg();
    b.and(wn, warp, Operand::Imm(1));

    // ---- Staging addresses (per thread, 4 halves each of A and B). ----
    // A: element 4t of the 32×16 panel → row = t>>2, col = 4·(t&3).
    let a_row = b.reg();
    b.shr(a_row, tid, Operand::Imm(2));
    let a_col = b.reg();
    b.and(a_col, tid, Operand::Imm(3));
    b.shl(a_col, a_col, Operand::Imm(2));
    // Global: pa + ((tile_m·32 + a_row)·k + a_col)·2, advanced by 32 B/iter.
    let grow = b.reg();
    b.imad(grow, tile_m, Operand::Imm(32), Operand::Reg(a_row));
    let t0 = b.reg();
    b.imul(t0, grow, Operand::Reg(k));
    b.iadd(t0, t0, Operand::Reg(a_col));
    let a_gptr = b.reg_pair();
    b.imad_wide(a_gptr, t0, Operand::Imm(2), pa);
    // Shared store address: (a_row·16 + a_col)·2 = 8t.
    let a_sptr = b.reg();
    b.shl(a_sptr, tid, Operand::Imm(3));
    b.iadd(a_sptr, a_sptr, Operand::Imm(a_panel as i64));

    // B: element 4t of the 16×32 panel → row = t>>3, col = 4·(t&7).
    let b_row = b.reg();
    b.shr(b_row, tid, Operand::Imm(3));
    let b_col = b.reg();
    b.and(b_col, tid, Operand::Imm(7));
    b.shl(b_col, b_col, Operand::Imm(2));
    // Global: pb + (b_row·n + tile_n·32 + b_col)·2, advanced by 16·n·2 B.
    let gcol = b.reg();
    b.imad(gcol, tile_n, Operand::Imm(32), Operand::Reg(b_col));
    let t1 = b.reg();
    b.imad(t1, b_row, Operand::Reg(n), Operand::Reg(gcol));
    let b_gptr = b.reg_pair();
    b.imad_wide(b_gptr, t1, Operand::Imm(2), pb);
    let b_sptr = b.reg();
    b.imad(b_sptr, b_row, Operand::Imm(64), Operand::Reg(b_col));
    b.iadd(b_sptr, b_sptr, Operand::Reg(b_col)); // (row·32+col)·2 = row·64 + col·2
                                                 // Fix: previous two lines compute row·64 + col + col = row·64 + 2·col.
    b.iadd(b_sptr, b_sptr, Operand::Imm(b_panel as i64));
    let bstep = b.reg();
    b.shl(bstep, n, Operand::Imm(5));

    // ---- Warp fragment addresses in shared memory. ----
    // A fragment: rows 16·wm of the panel → byte offset wm·512.
    let a_frag_ptr = b.reg();
    b.imad(
        a_frag_ptr,
        wm,
        Operand::Imm(512),
        Operand::Imm(a_panel as i64),
    );
    // B fragment: cols 16·wn → byte offset wn·32.
    let b_frag_ptr = b.reg();
    b.imad(
        b_frag_ptr,
        wn,
        Operand::Imm(32),
        Operand::Imm(b_panel as i64),
    );

    // ---- C/D tile addresses: rows 32·tile_m + 16·wm, cols 32·tile_n + 16·wn.
    let crow = b.reg();
    b.imad(crow, tile_m, Operand::Imm(32), Operand::Imm(0));
    b.imad(crow, wm, Operand::Imm(16), Operand::Reg(crow));
    let ccol = b.reg();
    b.imad(ccol, tile_n, Operand::Imm(32), Operand::Imm(0));
    b.imad(ccol, wn, Operand::Imm(16), Operand::Reg(ccol));
    let cm = b.reg();
    b.imad(cm, crow, Operand::Reg(n), Operand::Reg(ccol));
    let c_base = b.reg_pair();
    if ep.has_bias() {
        // Bias row vector: address by column only, leading dimension 0.
        b.imad_wide(c_base, ccol, Operand::Imm(cd_bytes), pc);
    } else {
        b.imad_wide(c_base, cm, Operand::Imm(cd_bytes), pc);
    }
    let d_base = b.reg_pair();
    b.imad_wide(d_base, cm, Operand::Imm(cd_bytes), pd);

    let fc = b.reg_block(cd_regs);
    b.wmma_load(
        FragmentKind::C,
        SHAPE,
        Layout::Row,
        cd_ty,
        MemSpace::Global,
        fc,
        Operand::RegPair(c_base),
        if ep.has_bias() {
            Operand::Imm(0)
        } else {
            Operand::Reg(n)
        },
    );

    let kk = b.reg();
    b.mov(kk, Operand::Imm(0));
    let stage = b.reg_block(2); // staging register pair for 64-bit copies
    let stage_b = b.reg_block(2);
    let fa = b.reg_block(8);
    let fb = b.reg_block(8);

    let top = b.label();
    b.place(top);
    // Stage the two panels.
    b.ld_global(MemWidth::B64, stage, a_gptr, 0);
    b.st_shared(MemWidth::B64, a_sptr, 0, stage);
    b.ld_global(MemWidth::B64, stage_b, b_gptr, 0);
    b.st_shared(MemWidth::B64, b_sptr, 0, stage_b);
    b.bar();
    // Compute from shared.
    b.wmma_load(
        FragmentKind::A,
        SHAPE,
        Layout::Row,
        WmmaType::F16,
        MemSpace::Shared,
        fa,
        Operand::Reg(a_frag_ptr),
        Operand::Imm(16),
    );
    b.wmma_load(
        FragmentKind::B,
        SHAPE,
        Layout::Row,
        WmmaType::F16,
        MemSpace::Shared,
        fb,
        Operand::Reg(b_frag_ptr),
        Operand::Imm(32),
    );
    b.wmma_mma(
        SHAPE,
        Layout::Row,
        Layout::Row,
        WmmaType::F16,
        cd_ty,
        cd_ty,
        fc,
        fa,
        fb,
        fc,
    );
    b.bar();
    // Advance.
    b.iadd64(a_gptr, a_gptr, Operand::Imm(32));
    b.iadd64(b_gptr, b_gptr, Operand::Reg(bstep));
    b.iadd(kk, kk, Operand::Imm(16));
    let p = b.pred();
    b.setp(p, CmpOp::Lt, DataType::U32, kk, Operand::Reg(k));
    b.bra_if(p, true, top);

    if ep.has_relu() {
        let p_ep = b.pred();
        emit_relu(&mut b, p_ep, fc, cd_regs);
    }
    b.wmma_store(
        SHAPE,
        Layout::Row,
        cd_ty,
        MemSpace::Global,
        Operand::RegPair(d_base),
        Operand::Reg(n),
        fc,
    );
    b.exit();
    b.build()
}

/// Tiling parameters of the CUTLASS-style kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CutlassConfig {
    /// CTA tile rows (multiple of `warp_m`).
    pub cta_m: usize,
    /// CTA tile columns (multiple of `warp_n`).
    pub cta_n: usize,
    /// Warp tile rows (multiple of 16).
    pub warp_m: usize,
    /// Warp tile columns (multiple of 16).
    pub warp_n: usize,
    /// Shared-memory pipeline stages (1 = single buffer, 2 = double
    /// buffered).
    pub stages: usize,
}

impl CutlassConfig {
    /// The default 64×64 CTA tile with 32×32 warp tiles, double buffered.
    pub const fn default_64x64() -> CutlassConfig {
        CutlassConfig {
            cta_m: 64,
            cta_n: 64,
            warp_m: 32,
            warp_n: 32,
            stages: 2,
        }
    }

    /// Warps per CTA.
    pub fn warps(&self) -> usize {
        (self.cta_m / self.warp_m) * (self.cta_n / self.warp_n)
    }

    /// Threads per CTA.
    pub fn threads(&self) -> usize {
        self.warps() * 32
    }

    /// Shared memory bytes per CTA (stage stride padded to a power of two
    /// for the double-buffer address toggle).
    pub fn shared_bytes(&self) -> u32 {
        (self.stages * ((self.cta_m * 16 + 16 * self.cta_n) * 2).next_power_of_two()) as u32
    }

    fn validate(&self) {
        assert!(self.warp_m.is_multiple_of(16) && self.warp_n.is_multiple_of(16));
        assert!(self.cta_m.is_multiple_of(self.warp_m) && self.cta_n.is_multiple_of(self.warp_n));
        assert!(matches!(self.stages, 1 | 2));
        let per_thread_a = self.cta_m * 16 / self.threads();
        let per_thread_b = 16 * self.cta_n / self.threads();
        assert!(
            per_thread_a >= 4 && per_thread_a.is_multiple_of(4),
            "A staging must vectorize (got {per_thread_a} elems/thread)"
        );
        assert!(per_thread_b >= 4 && per_thread_b.is_multiple_of(4));
    }
}

/// CUTLASS-style GEMM: threadblock tile staged in shared memory
/// (optionally double buffered), warp tiles of multiple WMMA fragments,
/// k-strip-mined 16 at a time.
///
/// [`GemmKernel::builder`](crate::GemmKernel::builder) sets its launch geometry.
pub fn cutlass_gemm(cfg: CutlassConfig) -> Kernel {
    cutlass_gemm_ep(cfg, Epilogue::None)
}

/// [`cutlass_gemm`] with a fused [`Epilogue`] applied to every warp tile.
pub fn cutlass_gemm_ep(cfg: CutlassConfig, ep: Epilogue) -> Kernel {
    cfg.validate();
    let mut b = KernelBuilder::new(format!("cutlass_gemm{}", ep.suffix()));
    let (pa, pb, pc, pd, n, k) = declare_gemm_params(&mut b);
    // The double-buffer toggle XORs shared addresses with the stage
    // stride, so the stride must be a power of two covering one stage.
    let stage_bytes = (((cfg.cta_m * 16 + 16 * cfg.cta_n) * 2).next_power_of_two()) as i64;
    let a_panel = b.shared_alloc((cfg.stages as u32) * stage_bytes as u32) as i64;
    let b_panel = a_panel + (cfg.cta_m * 16 * 2) as i64;

    let threads = cfg.threads();
    let tm = cfg.warp_m / 16; // wmma tiles per warp, m
    let tn = cfg.warp_n / 16;
    let warps_n = cfg.cta_n / cfg.warp_n;

    let tid = b.reg();
    b.mov(tid, Operand::Special(SpecialReg::TidX));
    let warp = b.reg();
    b.mov(warp, Operand::Special(SpecialReg::WarpId));
    let tile_n = b.reg();
    b.mov(tile_n, Operand::Special(SpecialReg::CtaIdX));
    let tile_m = b.reg();
    b.mov(tile_m, Operand::Special(SpecialReg::CtaIdY));

    // Warp grid coordinates (warps_n is a power of two in all configs).
    assert!(warps_n.is_power_of_two());
    let wn_shift = warps_n.trailing_zeros() as i64;
    let wm = b.reg();
    b.shr(wm, warp, Operand::Imm(wn_shift));
    let wn = b.reg();
    b.and(wn, warp, Operand::Imm(warps_n as i64 - 1));

    // ---- Staging addresses. Each thread copies `a_per` elements of A
    // and `b_per` of B per k-step, as 4-element vectors.
    let a_per = cfg.cta_m * 16 / threads;
    let b_per = 16 * cfg.cta_n / threads;
    let mut a_gptrs = Vec::new();
    let mut a_sptrs = Vec::new();
    for j in 0..a_per / 4 {
        // Element index e = 4·(tid + j·threads) in the cta_m×16 panel.
        let e = b.reg();
        b.iadd(e, tid, Operand::Imm((j * threads) as i64));
        b.shl(e, e, Operand::Imm(2));
        let row = b.reg();
        b.shr(row, e, Operand::Imm(4));
        let col = b.reg();
        b.and(col, e, Operand::Imm(15));
        let grow = b.reg();
        b.imad(
            grow,
            tile_m,
            Operand::Imm(cfg.cta_m as i64),
            Operand::Reg(row),
        );
        let t0 = b.reg();
        b.imul(t0, grow, Operand::Reg(k));
        b.iadd(t0, t0, Operand::Reg(col));
        let gp = b.reg_pair();
        b.imad_wide(gp, t0, Operand::Imm(2), pa);
        let sp = b.reg();
        b.shl(sp, e, Operand::Imm(1));
        b.iadd(sp, sp, Operand::Imm(a_panel));
        a_gptrs.push(gp);
        a_sptrs.push(sp);
    }
    let mut b_gptrs = Vec::new();
    let mut b_sptrs = Vec::new();
    for j in 0..b_per / 4 {
        // Element index e = 4·(tid + j·threads) in the 16×cta_n panel.
        let e = b.reg();
        b.iadd(e, tid, Operand::Imm((j * threads) as i64));
        b.shl(e, e, Operand::Imm(2));
        let row = b.reg();
        b.mov(row, Operand::Reg(e));
        b.shr(row, row, Operand::Imm(cfg.cta_n.trailing_zeros() as i64));
        let col = b.reg();
        b.and(col, e, Operand::Imm(cfg.cta_n as i64 - 1));
        let gcol = b.reg();
        b.imad(
            gcol,
            tile_n,
            Operand::Imm(cfg.cta_n as i64),
            Operand::Reg(col),
        );
        let t1 = b.reg();
        b.imad(t1, row, Operand::Reg(n), Operand::Reg(gcol));
        let gp = b.reg_pair();
        b.imad_wide(gp, t1, Operand::Imm(2), pb);
        let sp = b.reg();
        b.shl(sp, e, Operand::Imm(1));
        b.iadd(sp, sp, Operand::Imm(b_panel));
        b_gptrs.push(gp);
        b_sptrs.push(sp);
    }
    let bstep = b.reg();
    b.shl(bstep, n, Operand::Imm(5));

    // ---- Warp fragment shared addresses (one per wmma tile index).
    let mut a_frag_ptrs = Vec::new();
    for i in 0..tm {
        // A panel row offset: (wm·warp_m + i·16)·16·2 bytes.
        let p0 = b.reg();
        b.imad(
            p0,
            wm,
            Operand::Imm((cfg.warp_m * 32) as i64),
            Operand::Imm(a_panel + (i * 16 * 16 * 2) as i64),
        );
        a_frag_ptrs.push(p0);
    }
    let mut b_frag_ptrs = Vec::new();
    for j in 0..tn {
        // B panel col offset: (wn·warp_n + j·16)·2 bytes.
        let p0 = b.reg();
        b.imad(
            p0,
            wn,
            Operand::Imm((cfg.warp_n * 2) as i64),
            Operand::Imm(b_panel + (j * 32) as i64),
        );
        b_frag_ptrs.push(p0);
    }

    // ---- C/D fragment addresses and accumulators.
    let mut c_bases = Vec::new();
    let mut d_bases = Vec::new();
    let mut fcs = Vec::new();
    // Address temporaries shared by all fragment tiles (register pressure).
    let crow = b.reg();
    let ccol = b.reg();
    let cm = b.reg();
    for i in 0..tm {
        for j in 0..tn {
            b.imad(
                crow,
                tile_m,
                Operand::Imm(cfg.cta_m as i64),
                Operand::Imm((i * 16) as i64),
            );
            b.imad(
                crow,
                wm,
                Operand::Imm(cfg.warp_m as i64),
                Operand::Reg(crow),
            );
            b.imad(
                ccol,
                tile_n,
                Operand::Imm(cfg.cta_n as i64),
                Operand::Imm((j * 16) as i64),
            );
            b.imad(
                ccol,
                wn,
                Operand::Imm(cfg.warp_n as i64),
                Operand::Reg(ccol),
            );
            b.imad(cm, crow, Operand::Reg(n), Operand::Reg(ccol));
            let cb = b.reg_pair();
            if ep.has_bias() {
                // Bias row vector: address by column only, stride 0.
                b.imad_wide(cb, ccol, Operand::Imm(4), pc);
            } else {
                b.imad_wide(cb, cm, Operand::Imm(4), pc);
            }
            let db = b.reg_pair();
            b.imad_wide(db, cm, Operand::Imm(4), pd);
            let fc = b.reg_block(8);
            b.wmma_load(
                FragmentKind::C,
                SHAPE,
                Layout::Row,
                WmmaType::F32,
                MemSpace::Global,
                fc,
                Operand::RegPair(cb),
                if ep.has_bias() {
                    Operand::Imm(0)
                } else {
                    Operand::Reg(n)
                },
            );
            c_bases.push(cb);
            d_bases.push(db);
            fcs.push(fc);
        }
    }

    let stage_regs: Vec<Reg> = (0..a_per / 4 + b_per / 4).map(|_| b.reg_block(2)).collect();
    let fas: Vec<Reg> = (0..tm).map(|_| b.reg_block(8)).collect();
    let fbs: Vec<Reg> = (0..tn).map(|_| b.reg_block(8)).collect();

    let emit_stage = |b: &mut KernelBuilder, advance: bool| {
        for (idx, (&gp, &sp)) in a_gptrs.iter().zip(&a_sptrs).enumerate() {
            b.ld_global(MemWidth::B64, stage_regs[idx], gp, 0);
            b.st_shared(MemWidth::B64, sp, 0, stage_regs[idx]);
            if advance {
                b.iadd64(gp, gp, Operand::Imm(32));
            }
        }
        for (idx, (&gp, &sp)) in b_gptrs.iter().zip(&b_sptrs).enumerate() {
            let r = stage_regs[a_gptrs.len() + idx];
            b.ld_global(MemWidth::B64, r, gp, 0);
            b.st_shared(MemWidth::B64, sp, 0, r);
            if advance {
                b.iadd64(gp, gp, Operand::Reg(bstep));
            }
        }
    };
    let toggle_shared = |b: &mut KernelBuilder| {
        for &sp in a_sptrs.iter().chain(&b_sptrs) {
            b.xor(sp, sp, Operand::Imm(stage_bytes));
        }
    };
    let toggle_frags = |b: &mut KernelBuilder| {
        for &fp in a_frag_ptrs.iter().chain(&b_frag_ptrs) {
            b.xor(fp, fp, Operand::Imm(stage_bytes));
        }
    };
    let emit_compute = |b: &mut KernelBuilder| {
        for i in 0..tm {
            b.wmma_load(
                FragmentKind::A,
                SHAPE,
                Layout::Row,
                WmmaType::F16,
                MemSpace::Shared,
                fas[i],
                Operand::Reg(a_frag_ptrs[i]),
                Operand::Imm(16),
            );
        }
        for j in 0..tn {
            b.wmma_load(
                FragmentKind::B,
                SHAPE,
                Layout::Row,
                WmmaType::F16,
                MemSpace::Shared,
                fbs[j],
                Operand::Reg(b_frag_ptrs[j]),
                Operand::Imm(cfg.cta_n as i64),
            );
        }
        for i in 0..tm {
            for j in 0..tn {
                let fc = fcs[i * tn + j];
                b.wmma_mma(
                    SHAPE,
                    Layout::Row,
                    Layout::Row,
                    WmmaType::F16,
                    WmmaType::F32,
                    WmmaType::F32,
                    fc,
                    fas[i],
                    fbs[j],
                    fc,
                );
            }
        }
    };

    let kk = b.reg();
    b.mov(kk, Operand::Imm(0));

    if cfg.stages == 2 {
        // Prologue: stage buffer 0, then point staging at buffer 1.
        emit_stage(&mut b, true);
        toggle_shared(&mut b);
        b.bar();
        let top = b.label();
        b.place(top);
        // Stage the next k-step (into the spare buffer) while computing.
        emit_stage(&mut b, true);
        emit_compute(&mut b);
        b.bar();
        toggle_shared(&mut b);
        toggle_frags(&mut b);
        b.iadd(kk, kk, Operand::Imm(16));
        let p = b.pred();
        b.setp(p, CmpOp::Lt, DataType::U32, kk, Operand::Reg(k));
        b.bra_if(p, true, top);
    } else {
        let top = b.label();
        b.place(top);
        emit_stage(&mut b, true);
        b.bar();
        emit_compute(&mut b);
        b.bar();
        b.iadd(kk, kk, Operand::Imm(16));
        let p = b.pred();
        b.setp(p, CmpOp::Lt, DataType::U32, kk, Operand::Reg(k));
        b.bra_if(p, true, top);
    }

    if ep.has_relu() {
        let p_ep = b.pred();
        for &fc in &fcs {
            emit_relu(&mut b, p_ep, fc, 8);
        }
    }
    for (idx, &fc) in fcs.iter().enumerate() {
        b.wmma_store(
            SHAPE,
            Layout::Row,
            WmmaType::F32,
            MemSpace::Global,
            Operand::RegPair(d_bases[idx]),
            Operand::Reg(n),
            fc,
        );
    }
    b.exit();
    b.build()
}

/// FFMA SGEMM baseline (no tensor cores): classic 16×16 shared-memory
/// tiling, one FP32 output element per thread.
///
/// [`GemmKernel::builder`](crate::GemmKernel::builder) sets its launch geometry.
pub fn sgemm(/* no options */) -> Kernel {
    let mut b = KernelBuilder::new("sgemm");
    let (pa, pb, pc, pd, n, k) = declare_gemm_params(&mut b);
    let as_panel = b.shared_alloc(16 * 16 * 4) as i64;
    let bs_panel = b.shared_alloc(16 * 16 * 4) as i64;

    let tx = b.reg();
    b.mov(tx, Operand::Special(SpecialReg::TidX));
    let ty = b.reg();
    b.mov(ty, Operand::Special(SpecialReg::TidY));
    let row = b.reg();
    b.mov(row, Operand::Special(SpecialReg::CtaIdY));
    b.imad(row, row, Operand::Imm(16), Operand::Reg(ty));
    let col = b.reg();
    b.mov(col, Operand::Special(SpecialReg::CtaIdX));
    b.imad(col, col, Operand::Imm(16), Operand::Reg(tx));

    // Global pointers: A[row, tx], advancing 16·4 B; B[ty, col], advancing
    // 16·n·4 B.
    let t0 = b.reg();
    b.imul(t0, row, Operand::Reg(k));
    b.iadd(t0, t0, Operand::Reg(tx));
    let a_gptr = b.reg_pair();
    b.imad_wide(a_gptr, t0, Operand::Imm(4), pa);
    let t1 = b.reg();
    b.imad(t1, ty, Operand::Reg(n), Operand::Reg(col));
    let b_gptr = b.reg_pair();
    b.imad_wide(b_gptr, t1, Operand::Imm(4), pb);
    let bstep = b.reg();
    b.shl(bstep, n, Operand::Imm(6)); // 16·n·4

    // Shared addresses.
    let a_sptr = b.reg();
    b.imad(a_sptr, ty, Operand::Imm(64), Operand::Imm(as_panel));
    let a_sw = b.reg();
    b.imad(a_sw, tx, Operand::Imm(4), Operand::Reg(a_sptr));
    let b_sw = b.reg();
    b.imad(b_sw, ty, Operand::Imm(64), Operand::Imm(bs_panel));
    b.imad(b_sw, tx, Operand::Imm(4), Operand::Reg(b_sw));

    // Accumulator from C.
    let cm = b.reg();
    b.imad(cm, row, Operand::Reg(n), Operand::Reg(col));
    let c_addr = b.reg_pair();
    b.imad_wide(c_addr, cm, Operand::Imm(4), pc);
    let d_addr = b.reg_pair();
    b.imad_wide(d_addr, cm, Operand::Imm(4), pd);
    let acc = b.reg();
    b.ld_global(MemWidth::B32, acc, c_addr, 0);

    let stage = b.reg();
    let stage2 = b.reg();
    let kk = b.reg();
    b.mov(kk, Operand::Imm(0));
    let top = b.label();
    b.place(top);
    b.ld_global(MemWidth::B32, stage, a_gptr, 0);
    b.st_shared(MemWidth::B32, a_sw, 0, stage);
    b.ld_global(MemWidth::B32, stage2, b_gptr, 0);
    b.st_shared(MemWidth::B32, b_sw, 0, stage2);
    b.bar();
    // Inner product over the staged 16-wide strip, fully unrolled.
    let av = b.reg();
    let bv = b.reg();
    let a_row_base = b.reg();
    b.imad(a_row_base, ty, Operand::Imm(64), Operand::Imm(as_panel));
    let b_col_base = b.reg();
    b.imad(b_col_base, tx, Operand::Imm(4), Operand::Imm(bs_panel));
    for j in 0..16i64 {
        b.ld_shared(MemWidth::B32, av, a_row_base, j * 4);
        b.ld_shared(MemWidth::B32, bv, b_col_base, j * 64);
        b.ffma(acc, av, Operand::Reg(bv), Operand::Reg(acc));
    }
    b.bar();
    b.iadd64(a_gptr, a_gptr, Operand::Imm(64));
    b.iadd64(b_gptr, b_gptr, Operand::Reg(bstep));
    b.iadd(kk, kk, Operand::Imm(16));
    let p = b.pred();
    b.setp(p, CmpOp::Lt, DataType::U32, kk, Operand::Reg(k));
    b.bra_if(p, true, top);
    b.st_global(MemWidth::B32, d_addr, 0, acc);
    b.exit();
    b.build()
}

/// HFMA2 HGEMM baseline (no tensor cores): like [`sgemm`] but FP16 with
/// packed-half math — each thread computes **two** adjacent output
/// columns per HFMA2, giving the 2× per-instruction FP16 rate.
///
/// [`GemmKernel::builder`](crate::GemmKernel::builder) sets its launch geometry.
pub fn hgemm() -> Kernel {
    let mut b = KernelBuilder::new("hgemm");
    let (pa, pb, pc, pd, n, k) = declare_gemm_params(&mut b);
    let as_panel = b.shared_alloc(16 * 16 * 2) as i64; // A strip 16×16 f16
    let bs_panel = b.shared_alloc(16 * 32 * 2) as i64; // B strip 16×32 f16

    let tx = b.reg();
    b.mov(tx, Operand::Special(SpecialReg::TidX));
    let ty = b.reg();
    b.mov(ty, Operand::Special(SpecialReg::TidY));
    let row = b.reg();
    b.mov(row, Operand::Special(SpecialReg::CtaIdY));
    b.imad(row, row, Operand::Imm(16), Operand::Reg(ty));
    let col2 = b.reg(); // first of the two output columns
    b.mov(col2, Operand::Special(SpecialReg::CtaIdX));
    b.imad(col2, col2, Operand::Imm(32), Operand::Imm(0));
    let txc = b.reg();
    b.shl(txc, tx, Operand::Imm(1));
    b.iadd(col2, col2, Operand::Reg(txc));

    // A[row, tx] f16, step 16·2 B; B[ty, col2..col2+2], step 16·n·2 B.
    let t0 = b.reg();
    b.imul(t0, row, Operand::Reg(k));
    b.iadd(t0, t0, Operand::Reg(tx));
    let a_gptr = b.reg_pair();
    b.imad_wide(a_gptr, t0, Operand::Imm(2), pa);
    let t1 = b.reg();
    b.imad(t1, ty, Operand::Reg(n), Operand::Reg(col2));
    let b_gptr = b.reg_pair();
    b.imad_wide(b_gptr, t1, Operand::Imm(2), pb);
    let bstep = b.reg();
    b.shl(bstep, n, Operand::Imm(5));

    let a_sw = b.reg();
    b.imad(a_sw, ty, Operand::Imm(32), Operand::Imm(as_panel));
    b.imad(a_sw, tx, Operand::Imm(2), Operand::Reg(a_sw));
    let b_sw = b.reg();
    b.imad(b_sw, ty, Operand::Imm(64), Operand::Imm(bs_panel));
    b.imad(b_sw, tx, Operand::Imm(4), Operand::Reg(b_sw));

    let cm = b.reg();
    b.imad(cm, row, Operand::Reg(n), Operand::Reg(col2));
    let c_addr = b.reg_pair();
    b.imad_wide(c_addr, cm, Operand::Imm(2), pc);
    let d_addr = b.reg_pair();
    b.imad_wide(d_addr, cm, Operand::Imm(2), pd);
    let acc2 = b.reg();
    b.ld_global(MemWidth::B32, acc2, c_addr, 0); // two packed halves

    let stage = b.reg();
    let stage2 = b.reg();
    let kk = b.reg();
    b.mov(kk, Operand::Imm(0));
    let top = b.label();
    b.place(top);
    b.ld_global(MemWidth::B16, stage, a_gptr, 0);
    b.st_shared(MemWidth::B16, a_sw, 0, stage);
    b.ld_global(MemWidth::B32, stage2, b_gptr, 0);
    b.st_shared(MemWidth::B32, b_sw, 0, stage2);
    b.bar();
    let av = b.reg();
    let asplat = b.reg();
    let bv = b.reg();
    let a_row_base = b.reg();
    b.imad(a_row_base, ty, Operand::Imm(32), Operand::Imm(as_panel));
    let b_col_base = b.reg();
    b.imad(b_col_base, tx, Operand::Imm(4), Operand::Imm(bs_panel));
    for j in 0..16i64 {
        b.ld_shared(MemWidth::B16, av, a_row_base, j * 2);
        b.shl(asplat, av, Operand::Imm(16));
        b.or(asplat, asplat, Operand::Reg(av));
        b.ld_shared(MemWidth::B32, bv, b_col_base, j * 64);
        b.hfma2(acc2, asplat, Operand::Reg(bv), Operand::Reg(acc2));
    }
    b.bar();
    b.iadd64(a_gptr, a_gptr, Operand::Imm(32));
    b.iadd64(b_gptr, b_gptr, Operand::Reg(bstep));
    b.iadd(kk, kk, Operand::Imm(16));
    let p = b.pred();
    b.setp(p, CmpOp::Lt, DataType::U32, kk, Operand::Reg(k));
    b.bra_if(p, true, top);
    b.st_global(MemWidth::B32, d_addr, 0, acc2);
    b.exit();
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_build() {
        assert_eq!(wmma_simple_gemm(false).name(), "wmma_simple_gemm");
        assert_eq!(wmma_simple_gemm(true).name(), "wmma_simple_hgemm");
        assert!(wmma_shared_gemm(false).shared_bytes() >= 2048);
        assert_eq!(sgemm().params().len(), 6);
        assert_eq!(hgemm().params().len(), 6);
    }

    #[test]
    fn cutlass_config_resources() {
        let cfg = CutlassConfig::default_64x64();
        assert_eq!(cfg.warps(), 4);
        assert_eq!(cfg.threads(), 128);
        assert_eq!(cfg.shared_bytes(), 2 * (64 * 16 + 16 * 64) * 2);
        let k = cutlass_gemm(cfg);
        assert!(k.num_regs() <= 255, "regs = {}", k.num_regs());
        assert_eq!(k.shared_bytes(), cfg.shared_bytes());
    }

    #[test]
    #[should_panic(expected = "vectorize")]
    fn cutlass_rejects_non_vectorizable_staging() {
        // 16×16 CTA tile with 16×16 warps: 1 warp = 32 threads, A panel
        // 256 elems → 8/thread fine; force failure with a huge thread
        // count instead: 64×256 warp tiles → cta 64×256? Construct a case
        // with too many threads per element.
        let cfg = CutlassConfig {
            cta_m: 16,
            cta_n: 256,
            warp_m: 16,
            warp_n: 16,
            stages: 1,
        };
        let _ = cutlass_gemm(cfg); // 16 warps = 512 threads; A panel 256 elems
    }

    #[test]
    fn register_budgets_are_reasonable() {
        for k in [
            wmma_simple_gemm(false),
            wmma_shared_gemm(false),
            sgemm(),
            hgemm(),
        ] {
            assert!(k.num_regs() <= 128, "{}: {} regs", k.name(), k.num_regs());
        }
    }

    #[test]
    fn epilogue_variants_build_with_suffixed_names() {
        for (ep, suffix) in [
            (Epilogue::None, ""),
            (Epilogue::Bias, "_bias"),
            (Epilogue::Relu, "_relu"),
            (Epilogue::BiasRelu, "_bias_relu"),
        ] {
            let k = wmma_simple_gemm_ep(false, ep);
            assert_eq!(k.name(), format!("wmma_simple_gemm{suffix}"));
            let k = wmma_shared_gemm_ep(false, ep);
            assert_eq!(k.name(), format!("wmma_shared_gemm{suffix}"));
            let k = cutlass_gemm_ep(CutlassConfig::default_64x64(), ep);
            assert_eq!(k.name(), format!("cutlass_gemm{suffix}"));
            assert!(k.num_regs() <= 255, "{}: {} regs", k.name(), k.num_regs());
        }
    }

    #[test]
    fn epilogue_adds_instructions_but_not_params() {
        let plain = wmma_simple_gemm(false);
        let fused = wmma_simple_gemm_ep(false, Epilogue::BiasRelu);
        assert_eq!(plain.params().len(), fused.params().len());
        assert!(fused.instrs().len() > plain.instrs().len());
    }

    #[test]
    #[should_panic(expected = "FP32 accumulator")]
    fn epilogue_rejects_fp16_output() {
        let _ = wmma_simple_gemm_ep(true, Epilogue::Relu);
    }
}
