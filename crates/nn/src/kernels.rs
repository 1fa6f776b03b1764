//! Elementwise and row-reduction device kernels for layers that don't
//! lower to GEMM: max-pool, standalone ReLU/bias, GELU, residual add,
//! and the warp-per-row softmax/layernorm reductions of the transformer
//! block.
//!
//! Shapes are folded into the generated kernels as immediates (one kernel
//! per layer instance — the same specialization style real frameworks get
//! from template instantiation), so the only runtime parameters are the
//! buffer pointers. Out-of-range lanes are clamped onto the last valid
//! element with `imin` instead of branched around: the duplicate work is
//! idempotent (same value stored to the same address), which keeps the
//! kernels divergence-free.
//!
//! The row-wise reductions ([`softmax_kernel`], [`layernorm_kernel`]) run
//! one warp per row and reduce with a `shfl.bfly` butterfly (xor-pattern
//! all-reduce) instead of shared memory — straight-line code, no
//! barriers, no divergence. Out-of-range lanes contribute the reduction
//! identity (−∞ for max, 0 for sum) via `selp`, so padding never
//! perturbs the result.

use tcsim_isa::{
    CmpOp, DataType, Kernel, KernelBuilder, MemWidth, Operand, PredReg, Reg, ShflMode, SpecialReg,
};

/// Threads per CTA for all elementwise kernels.
pub const BLOCK: u32 = 32;

/// Emits `dst = max(dst, v)` on f32 via compare-and-select.
fn emit_fmax(b: &mut KernelBuilder, dst: Reg, v: Reg) {
    let p = b.pred();
    b.setp(p, CmpOp::Gt, DataType::F32, v, Operand::Reg(dst));
    b.selp(dst, p, Operand::Reg(v), Operand::Reg(dst));
}

/// `out[ch][oy][ox] = max over a k×k window of in[ch]` for a `[c, h, w]`
/// f32 activation. Grid `(⌈ow/32⌉, oh, c)`, block [`BLOCK`].
pub fn maxpool_kernel(c: usize, h: usize, w: usize, k: usize) -> Kernel {
    let (oh, ow) = (h / k, w / k);
    assert!(oh > 0 && ow > 0, "pool window exceeds input");
    let mut b = KernelBuilder::new(format!("nn_maxpool_c{c}_{h}x{w}_k{k}"));
    let p_in = b.param_u64("in");
    let p_out = b.param_u64("out");
    let base_in = b.reg_pair();
    b.ld_param(MemWidth::B64, base_in, p_in);
    let base_out = b.reg_pair();
    b.ld_param(MemWidth::B64, base_out, p_out);

    let tid = b.reg();
    b.mov(tid, Operand::Special(SpecialReg::TidX));
    let cta_x = b.reg();
    b.mov(cta_x, Operand::Special(SpecialReg::CtaIdX));
    let ox = b.reg();
    b.imad(ox, cta_x, Operand::Imm(i64::from(BLOCK)), Operand::Reg(tid));
    b.imin(ox, ox, Operand::Imm(ow as i64 - 1));
    let oy = b.reg();
    b.mov(oy, Operand::Special(SpecialReg::CtaIdY));
    let ch = b.reg();
    b.mov(ch, Operand::Special(SpecialReg::CtaIdZ));

    // Window origin: ((ch·h + oy·k)·w + ox·k) elements into the input.
    let idx = b.reg();
    b.imad(idx, ch, Operand::Imm(h as i64), Operand::Imm(0));
    b.imad(idx, oy, Operand::Imm(k as i64), Operand::Reg(idx));
    b.imad(idx, idx, Operand::Imm(w as i64), Operand::Imm(0));
    b.imad(idx, ox, Operand::Imm(k as i64), Operand::Reg(idx));
    let addr = b.reg_pair();
    b.imad_wide(addr, idx, Operand::Imm(4), base_in);

    let m = b.reg();
    b.ld_global(MemWidth::B32, m, addr, 0);
    let v = b.reg();
    for dy in 0..k {
        for dx in 0..k {
            if dy == 0 && dx == 0 {
                continue;
            }
            b.ld_global(MemWidth::B32, v, addr, ((dy * w + dx) * 4) as i64);
            emit_fmax(&mut b, m, v);
        }
    }

    let oidx = b.reg();
    b.imad(oidx, ch, Operand::Imm(oh as i64), Operand::Reg(oy));
    b.imad(oidx, oidx, Operand::Imm(ow as i64), Operand::Reg(ox));
    let oaddr = b.reg_pair();
    b.imad_wide(oaddr, oidx, Operand::Imm(4), base_out);
    b.st_global(MemWidth::B32, oaddr, 0, m);
    b.exit();
    b.build()
}

/// Grid for [`maxpool_kernel`] over a `[c, h, w]` input.
pub fn maxpool_grid(c: usize, h: usize, w: usize, k: usize) -> (u32, u32, u32) {
    (
        ((w / k).div_ceil(BLOCK as usize)) as u32,
        (h / k) as u32,
        c as u32,
    )
}

/// `out[i] = max(in[i], 0)` over a flat f32 buffer of `len` elements.
/// Grid `⌈len/32⌉`, block [`BLOCK`].
pub fn relu_kernel(len: usize) -> Kernel {
    assert!(len > 0, "empty relu");
    let mut b = KernelBuilder::new(format!("nn_relu_{len}"));
    let p_in = b.param_u64("in");
    let p_out = b.param_u64("out");
    let base_in = b.reg_pair();
    b.ld_param(MemWidth::B64, base_in, p_in);
    let base_out = b.reg_pair();
    b.ld_param(MemWidth::B64, base_out, p_out);

    let tid = b.reg();
    b.mov(tid, Operand::Special(SpecialReg::TidX));
    let cta = b.reg();
    b.mov(cta, Operand::Special(SpecialReg::CtaIdX));
    let gid = b.reg();
    b.imad(gid, cta, Operand::Imm(i64::from(BLOCK)), Operand::Reg(tid));
    b.imin(gid, gid, Operand::Imm(len as i64 - 1));

    let addr = b.reg_pair();
    b.imad_wide(addr, gid, Operand::Imm(4), base_in);
    let v = b.reg();
    b.ld_global(MemWidth::B32, v, addr, 0);
    let p = b.pred();
    b.setp(p, CmpOp::Gt, DataType::F32, v, Operand::fimm(0.0));
    b.selp(v, p, Operand::Reg(v), Operand::fimm(0.0));
    let oaddr = b.reg_pair();
    b.imad_wide(oaddr, gid, Operand::Imm(4), base_out);
    b.st_global(MemWidth::B32, oaddr, 0, v);
    b.exit();
    b.build()
}

/// `out[r][c] = in[r][c] + bias[r or c]` over a `rows × cols` f32 matrix.
/// `per_row` selects the broadcast axis: `true` adds `bias[row]`
/// (per-channel bias on a `[c, h·w]` view), `false` adds `bias[col]`
/// (per-feature bias on `[batch, features]`). Grid `(⌈cols/32⌉, rows)`,
/// block [`BLOCK`].
pub fn bias_kernel(rows: usize, cols: usize, per_row: bool) -> Kernel {
    assert!(rows > 0 && cols > 0, "empty bias");
    let axis = if per_row { "row" } else { "col" };
    let mut b = KernelBuilder::new(format!("nn_bias_{rows}x{cols}_{axis}"));
    let p_in = b.param_u64("in");
    let p_bias = b.param_u64("bias");
    let p_out = b.param_u64("out");
    let base_in = b.reg_pair();
    b.ld_param(MemWidth::B64, base_in, p_in);
    let base_bias = b.reg_pair();
    b.ld_param(MemWidth::B64, base_bias, p_bias);
    let base_out = b.reg_pair();
    b.ld_param(MemWidth::B64, base_out, p_out);

    let tid = b.reg();
    b.mov(tid, Operand::Special(SpecialReg::TidX));
    let cta = b.reg();
    b.mov(cta, Operand::Special(SpecialReg::CtaIdX));
    let col = b.reg();
    b.imad(col, cta, Operand::Imm(i64::from(BLOCK)), Operand::Reg(tid));
    b.imin(col, col, Operand::Imm(cols as i64 - 1));
    let row = b.reg();
    b.mov(row, Operand::Special(SpecialReg::CtaIdY));

    let idx = b.reg();
    b.imad(idx, row, Operand::Imm(cols as i64), Operand::Reg(col));
    let addr = b.reg_pair();
    b.imad_wide(addr, idx, Operand::Imm(4), base_in);
    let v = b.reg();
    b.ld_global(MemWidth::B32, v, addr, 0);

    let baddr = b.reg_pair();
    b.imad_wide(
        baddr,
        if per_row { row } else { col },
        Operand::Imm(4),
        base_bias,
    );
    let bv = b.reg();
    b.ld_global(MemWidth::B32, bv, baddr, 0);
    b.fadd(v, v, Operand::Reg(bv));

    let oaddr = b.reg_pair();
    b.imad_wide(oaddr, idx, Operand::Imm(4), base_out);
    b.st_global(MemWidth::B32, oaddr, 0, v);
    b.exit();
    b.build()
}

/// Grid for [`bias_kernel`].
pub fn bias_grid(rows: usize, cols: usize) -> (u32, u32) {
    (cols.div_ceil(BLOCK as usize) as u32, rows as u32)
}

/// log₂(e): `exp(x) = exp2(x · LOG2E)`, so the MUFU `fex2` unit covers
/// softmax/GELU exponentials (single-instruction `exp2`, the same
/// transform CUDA kernels use to reach `EX2`).
pub const LOG2E: f32 = std::f32::consts::LOG2_E;

/// √(2/π), the tanh-GELU constant.
pub const SQRT_2_OVER_PI: f32 = 0.797_884_6_f32;

/// Emits `v ← op(v, shfl.bfly(v, s))` for s ∈ {16, 8, 4, 2, 1}: a
/// butterfly all-reduce leaving the full warp reduction in every lane.
fn emit_warp_allreduce(
    b: &mut KernelBuilder,
    v: Reg,
    t: Reg,
    op: fn(&mut KernelBuilder, Reg, Reg),
) {
    for s in [16i64, 8, 4, 2, 1] {
        b.shfl(ShflMode::Bfly, t, v, Operand::Imm(s));
        op(b, v, t);
    }
}

/// Emits address arithmetic for element `chunk·32 + lane` of the current
/// row: `col` gets the clamped column, `valid` is true for in-range
/// lanes, `addr` points at `base[rowbase + col]` (f32 elements). `tmp`
/// is scratch.
#[allow(clippy::too_many_arguments)]
fn emit_row_elem(
    b: &mut KernelBuilder,
    chunk: usize,
    cols: usize,
    lane: Reg,
    rowbase: Reg,
    base: Reg,
    col: Reg,
    tmp: Reg,
    addr: Reg,
    valid: PredReg,
) {
    b.iadd(col, lane, Operand::Imm((chunk * BLOCK as usize) as i64));
    b.setp(
        valid,
        CmpOp::Lt,
        DataType::S32,
        col,
        Operand::Imm(cols as i64),
    );
    b.imin(col, col, Operand::Imm(cols as i64 - 1));
    b.iadd(tmp, col, Operand::Reg(rowbase));
    b.imad_wide(addr, tmp, Operand::Imm(4), base);
}

/// Row-wise scaled softmax: `out[r] = softmax(in[r] · scale)` over a
/// `rows × cols` f32 matrix. One warp per row (grid `rows`, block
/// [`BLOCK`]); lanes cover strided columns, reduce max and Σexp with
/// `shfl.bfly` butterflies, and exponentiate through `fex2` with the
/// LOG2E fold. Three passes over the row (max, sum, write) keep register
/// pressure constant in `cols`. `scale` is baked in (1 for a standalone
/// softmax layer, 1/√d_h inside attention).
pub fn softmax_kernel(cols: usize, scale: f32) -> Kernel {
    assert!(cols > 0, "empty softmax row");
    let chunks = cols.div_ceil(BLOCK as usize);
    let mut b = KernelBuilder::new(format!("nn_softmax_c{cols}_s{:08x}", scale.to_bits()));
    let p_in = b.param_u64("in");
    let p_out = b.param_u64("out");
    let base_in = b.reg_pair();
    b.ld_param(MemWidth::B64, base_in, p_in);
    let base_out = b.reg_pair();
    b.ld_param(MemWidth::B64, base_out, p_out);

    let lane = b.reg();
    b.mov(lane, Operand::Special(SpecialReg::TidX));
    let row = b.reg();
    b.mov(row, Operand::Special(SpecialReg::CtaIdX));
    let rowbase = b.reg();
    b.imad(rowbase, row, Operand::Imm(cols as i64), Operand::Imm(0));

    let (col, tmp, x, t) = (b.reg(), b.reg(), b.reg(), b.reg());
    let addr = b.reg_pair();
    let valid = b.pred();

    // Pass 1: row max of the scaled elements (identity −∞ off the edge).
    let m = b.reg();
    b.mov(m, Operand::fimm(f32::NEG_INFINITY));
    for c in 0..chunks {
        emit_row_elem(
            &mut b, c, cols, lane, rowbase, base_in, col, tmp, addr, valid,
        );
        b.ld_global(MemWidth::B32, x, addr, 0);
        b.fmul(x, x, Operand::fimm(scale));
        b.selp(x, valid, Operand::Reg(x), Operand::fimm(f32::NEG_INFINITY));
        b.fmax(m, m, Operand::Reg(x));
    }
    emit_warp_allreduce(&mut b, m, t, |b, v, t| b.fmax(v, v, Operand::Reg(t)));

    // Pass 2: Σ exp2((x·scale − m)·log2e) (identity 0 off the edge).
    let nm = b.reg();
    b.fmul(nm, m, Operand::fimm(-1.0));
    let s = b.reg();
    b.mov(s, Operand::fimm(0.0));
    let e = b.reg();
    for c in 0..chunks {
        emit_row_elem(
            &mut b, c, cols, lane, rowbase, base_in, col, tmp, addr, valid,
        );
        b.ld_global(MemWidth::B32, x, addr, 0);
        b.fmul(x, x, Operand::fimm(scale));
        b.fadd(e, x, Operand::Reg(nm));
        b.fmul(e, e, Operand::fimm(LOG2E));
        b.fex2(e, e);
        b.selp(e, valid, Operand::Reg(e), Operand::fimm(0.0));
        b.fadd(s, s, Operand::Reg(e));
    }
    emit_warp_allreduce(&mut b, s, t, |b, v, t| b.fadd(v, v, Operand::Reg(t)));
    let inv = b.reg();
    b.frcp(inv, s);

    // Pass 3: normalize and store. Out-of-range lanes recompute the
    // clamped (last) element's true value — idempotent duplicate stores.
    for c in 0..chunks {
        emit_row_elem(
            &mut b, c, cols, lane, rowbase, base_in, col, tmp, addr, valid,
        );
        b.ld_global(MemWidth::B32, x, addr, 0);
        b.fmul(x, x, Operand::fimm(scale));
        b.fadd(e, x, Operand::Reg(nm));
        b.fmul(e, e, Operand::fimm(LOG2E));
        b.fex2(e, e);
        b.fmul(e, e, Operand::Reg(inv));
        b.imad_wide(addr, tmp, Operand::Imm(4), base_out);
        b.st_global(MemWidth::B32, addr, 0, e);
    }
    b.exit();
    b.build()
}

/// Row-wise layer normalization over a `rows × cols` f32 matrix:
/// `out[r][c] = (x − μ_r) · rsqrt(σ²_r + eps) · gamma[c] + beta[c]`.
/// Same warp-per-row / butterfly-reduce scheme as [`softmax_kernel`];
/// the two moments take one butterfly each, and `rsqrt` is synthesized
/// as `fex2(−½·flg2(v))` on the MUFU path. Params: `in, gamma, beta,
/// out`.
pub fn layernorm_kernel(cols: usize, eps: f32) -> Kernel {
    assert!(cols > 0, "empty layernorm row");
    let chunks = cols.div_ceil(BLOCK as usize);
    let inv_n = 1.0 / cols as f32;
    let mut b = KernelBuilder::new(format!("nn_layernorm_c{cols}_e{:08x}", eps.to_bits()));
    let p_in = b.param_u64("in");
    let p_gamma = b.param_u64("gamma");
    let p_beta = b.param_u64("beta");
    let p_out = b.param_u64("out");
    let base_in = b.reg_pair();
    b.ld_param(MemWidth::B64, base_in, p_in);
    let base_gamma = b.reg_pair();
    b.ld_param(MemWidth::B64, base_gamma, p_gamma);
    let base_beta = b.reg_pair();
    b.ld_param(MemWidth::B64, base_beta, p_beta);
    let base_out = b.reg_pair();
    b.ld_param(MemWidth::B64, base_out, p_out);

    let lane = b.reg();
    b.mov(lane, Operand::Special(SpecialReg::TidX));
    let row = b.reg();
    b.mov(row, Operand::Special(SpecialReg::CtaIdX));
    let rowbase = b.reg();
    b.imad(rowbase, row, Operand::Imm(cols as i64), Operand::Imm(0));

    let (col, tmp, x, t) = (b.reg(), b.reg(), b.reg(), b.reg());
    let addr = b.reg_pair();
    let valid = b.pred();

    // Pass 1: mean.
    let s = b.reg();
    b.mov(s, Operand::fimm(0.0));
    for c in 0..chunks {
        emit_row_elem(
            &mut b, c, cols, lane, rowbase, base_in, col, tmp, addr, valid,
        );
        b.ld_global(MemWidth::B32, x, addr, 0);
        b.selp(x, valid, Operand::Reg(x), Operand::fimm(0.0));
        b.fadd(s, s, Operand::Reg(x));
    }
    emit_warp_allreduce(&mut b, s, t, |b, v, t| b.fadd(v, v, Operand::Reg(t)));
    let nmean = b.reg();
    b.fmul(nmean, s, Operand::fimm(-inv_n)); // −μ

    // Pass 2: variance around the mean.
    let v = b.reg();
    b.mov(v, Operand::fimm(0.0));
    let d = b.reg();
    for c in 0..chunks {
        emit_row_elem(
            &mut b, c, cols, lane, rowbase, base_in, col, tmp, addr, valid,
        );
        b.ld_global(MemWidth::B32, x, addr, 0);
        b.fadd(d, x, Operand::Reg(nmean));
        b.fmul(d, d, Operand::Reg(d));
        b.selp(d, valid, Operand::Reg(d), Operand::fimm(0.0));
        b.fadd(v, v, Operand::Reg(d));
    }
    emit_warp_allreduce(&mut b, v, t, |b, v, t| b.fadd(v, v, Operand::Reg(t)));
    let rstd = b.reg();
    b.fmul(rstd, v, Operand::fimm(inv_n));
    b.fadd(rstd, rstd, Operand::fimm(eps));
    b.flg2(rstd, rstd);
    b.fmul(rstd, rstd, Operand::fimm(-0.5));
    b.fex2(rstd, rstd); // rsqrt(σ² + eps) = 2^(−½·log2)

    // Pass 3: normalize, scale by gamma, shift by beta.
    let (gv, bv) = (b.reg(), b.reg());
    let gaddr = b.reg_pair();
    for c in 0..chunks {
        emit_row_elem(
            &mut b, c, cols, lane, rowbase, base_in, col, tmp, addr, valid,
        );
        b.ld_global(MemWidth::B32, x, addr, 0);
        b.fadd(d, x, Operand::Reg(nmean));
        b.fmul(d, d, Operand::Reg(rstd));
        b.imad_wide(gaddr, col, Operand::Imm(4), base_gamma);
        b.ld_global(MemWidth::B32, gv, gaddr, 0);
        b.imad_wide(gaddr, col, Operand::Imm(4), base_beta);
        b.ld_global(MemWidth::B32, bv, gaddr, 0);
        b.ffma(d, d, Operand::Reg(gv), Operand::Reg(bv));
        b.imad_wide(addr, tmp, Operand::Imm(4), base_out);
        b.st_global(MemWidth::B32, addr, 0, d);
    }
    b.exit();
    b.build()
}

/// Elementwise tanh-GELU over a flat f32 buffer:
/// `out[i] = ½·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`, with
/// `tanh(t) = 1 − 2/(exp2(2t·log2e) + 1)` so the transcendental is one
/// `fex2` plus one `frcp`. The op sequence is mirrored exactly by
/// [`crate::reference::gelu_ref`], so the differential check is
/// bit-exact. Grid `⌈len/32⌉`, block [`BLOCK`].
pub fn gelu_kernel(len: usize) -> Kernel {
    assert!(len > 0, "empty gelu");
    let mut b = KernelBuilder::new(format!("nn_gelu_{len}"));
    let p_in = b.param_u64("in");
    let p_out = b.param_u64("out");
    let base_in = b.reg_pair();
    b.ld_param(MemWidth::B64, base_in, p_in);
    let base_out = b.reg_pair();
    b.ld_param(MemWidth::B64, base_out, p_out);

    let tid = b.reg();
    b.mov(tid, Operand::Special(SpecialReg::TidX));
    let cta = b.reg();
    b.mov(cta, Operand::Special(SpecialReg::CtaIdX));
    let gid = b.reg();
    b.imad(gid, cta, Operand::Imm(i64::from(BLOCK)), Operand::Reg(tid));
    b.imin(gid, gid, Operand::Imm(len as i64 - 1));

    let addr = b.reg_pair();
    b.imad_wide(addr, gid, Operand::Imm(4), base_in);
    let x = b.reg();
    b.ld_global(MemWidth::B32, x, addr, 0);

    let u = b.reg();
    b.fmul(u, x, Operand::Reg(x));
    b.fmul(u, u, Operand::Reg(x)); // x³
    b.ffma(u, u, Operand::fimm(0.044715), Operand::Reg(x));
    b.fmul(u, u, Operand::fimm(SQRT_2_OVER_PI)); // t
    b.fmul(u, u, Operand::fimm(2.0 * LOG2E));
    b.fex2(u, u); // exp(2t)
    b.fadd(u, u, Operand::fimm(1.0));
    b.frcp(u, u);
    b.ffma(u, u, Operand::fimm(-2.0), Operand::fimm(1.0)); // tanh(t)
    let half = b.reg();
    b.fmul(half, x, Operand::fimm(0.5));
    b.ffma(u, half, Operand::Reg(u), Operand::Reg(half));

    let oaddr = b.reg_pair();
    b.imad_wide(oaddr, gid, Operand::Imm(4), base_out);
    b.st_global(MemWidth::B32, oaddr, 0, u);
    b.exit();
    b.build()
}

/// Elementwise residual add `out[i] = a[i] + b[i]` over flat f32 buffers
/// (the skip connections of the transformer block). Bit-exact vs the
/// host (both are one f32 add). Grid `⌈len/32⌉`, block [`BLOCK`].
pub fn add_kernel(len: usize) -> Kernel {
    assert!(len > 0, "empty add");
    let mut b = KernelBuilder::new(format!("nn_add_{len}"));
    let p_a = b.param_u64("a");
    let p_b = b.param_u64("b");
    let p_out = b.param_u64("out");
    let base_a = b.reg_pair();
    b.ld_param(MemWidth::B64, base_a, p_a);
    let base_b = b.reg_pair();
    b.ld_param(MemWidth::B64, base_b, p_b);
    let base_out = b.reg_pair();
    b.ld_param(MemWidth::B64, base_out, p_out);

    let tid = b.reg();
    b.mov(tid, Operand::Special(SpecialReg::TidX));
    let cta = b.reg();
    b.mov(cta, Operand::Special(SpecialReg::CtaIdX));
    let gid = b.reg();
    b.imad(gid, cta, Operand::Imm(i64::from(BLOCK)), Operand::Reg(tid));
    b.imin(gid, gid, Operand::Imm(len as i64 - 1));

    let addr = b.reg_pair();
    b.imad_wide(addr, gid, Operand::Imm(4), base_a);
    let va = b.reg();
    b.ld_global(MemWidth::B32, va, addr, 0);
    b.imad_wide(addr, gid, Operand::Imm(4), base_b);
    let vb = b.reg();
    b.ld_global(MemWidth::B32, vb, addr, 0);
    b.fadd(va, va, Operand::Reg(vb));
    b.imad_wide(addr, gid, Operand::Imm(4), base_out);
    b.st_global(MemWidth::B32, addr, 0, va);
    b.exit();
    b.build()
}

/// Grid for the flat elementwise kernels ([`relu_kernel`],
/// [`gelu_kernel`], [`add_kernel`]).
pub fn elems_grid(len: usize) -> u32 {
    len.div_ceil(BLOCK as usize) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::launch_f32;
    use crate::layer::{Bias, Layer, MaxPool};
    use crate::reference::run_layer;
    use crate::tensor::Tensor;
    use tcsim_isa::Dim3;
    use tcsim_sim::{Gpu, GpuConfig};

    /// Runs `kernel` on a fresh mini GPU through the crate's f32 launcher
    /// and shapes its output like `want`.
    fn run(kernel: Kernel, grid: impl Into<Dim3>, inputs: &[&Tensor], want: &Tensor) -> Tensor {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let inputs: Vec<&[f32]> = inputs.iter().map(|t| t.data()).collect();
        let (_, _, out) = launch_f32(&mut gpu, false, kernel, grid, &inputs, want.len());
        Tensor::new(want.shape().to_vec(), out)
    }

    #[test]
    fn maxpool_matches_reference() {
        // 3 channels of 6x6, window 2 — ow=3 exercises the imin clamp.
        let x = Tensor::from_fn(vec![3, 6, 6], |i| ((i * 37 % 19) as f32) - 9.0);
        let want = run_layer(&Layer::MaxPool(MaxPool { k: 2 }), &x);
        let got = run(
            maxpool_kernel(3, 6, 6, 2),
            maxpool_grid(3, 6, 6, 2),
            &[&x],
            &want,
        );
        assert_eq!(got.max_abs_diff(&want), 0.0);
    }

    #[test]
    fn relu_matches_reference() {
        // 70 elements: not a multiple of the 32-thread block.
        let x = Tensor::from_fn(vec![70], |i| (i as f32) - 35.5);
        let want = run_layer(&Layer::ReLU, &x);
        let got = run(relu_kernel(70), elems_grid(70), &[&x], &want);
        assert_eq!(got.max_abs_diff(&want), 0.0);
    }

    #[test]
    fn bias_broadcasts_along_both_axes() {
        // Per-channel ([c,h,w] viewed as rows=c, cols=h·w).
        let x = Tensor::from_fn(vec![2, 3, 3], |i| i as f32);
        let bias = Tensor::new(vec![2], vec![10.0, -10.0]);
        let want = run_layer(&Layer::Bias(Bias { bias: bias.clone() }), &x);
        let got = run(
            bias_kernel(2, 9, true),
            bias_grid(2, 9),
            &[&x, &bias],
            &want,
        );
        assert_eq!(got.max_abs_diff(&want), 0.0);

        // Per-feature ([batch, f], bias indexed by column).
        let x2 = Tensor::from_fn(vec![3, 4], |i| i as f32);
        let bias2 = Tensor::new(vec![4], vec![1.0, 2.0, 3.0, 4.0]);
        let want2 = run_layer(
            &Layer::Bias(Bias {
                bias: bias2.clone(),
            }),
            &x2,
        );
        let got2 = run(
            bias_kernel(3, 4, false),
            bias_grid(3, 4),
            &[&x2, &bias2],
            &want2,
        );
        assert_eq!(got2.max_abs_diff(&want2), 0.0);
    }

    #[test]
    fn softmax_matches_reference_within_tolerance() {
        use crate::lower::softmax_tolerance;
        use crate::reference::softmax_row;
        // 5 rows of 50: cols spans two 32-lane chunks with a ragged tail,
        // so the -inf/0 reduction identities and the clamp both fire.
        let (rows, cols) = (5usize, 50usize);
        let scale = 0.25f32;
        let x = Tensor::from_fn(vec![rows, cols], |i| ((i * 29 % 23) as f32) - 11.0);
        let mut want = x.clone();
        for r in want.data_mut().chunks_mut(cols) {
            softmax_row(r, scale);
        }
        let got = run(softmax_kernel(cols, scale), rows as u32, &[&x], &want);
        let err = got.max_abs_diff(&want);
        assert!(err <= softmax_tolerance(cols), "err {err}");
        // Rows sum to ~1.
        for r in got.data().chunks(cols) {
            assert!((r.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn layernorm_matches_reference_within_tolerance() {
        use crate::layer::LayerNorm;
        use crate::lower::layernorm_tolerance;
        let (rows, cols) = (4usize, 40usize);
        let x = Tensor::from_fn(vec![rows, cols], |i| ((i * 31 % 17) as f32) / 4.0 - 2.0);
        let gamma = Tensor::from_fn(vec![cols], |i| 1.0 + (i as f32) / 64.0);
        let beta = Tensor::from_fn(vec![cols], |i| (i as f32) / 32.0 - 0.5);
        let ln = LayerNorm {
            dim: cols,
            gamma: gamma.clone(),
            beta: beta.clone(),
            eps: 1e-5,
        };
        let want = run_layer(&Layer::LayerNorm(ln), &x);
        let kernel = layernorm_kernel(cols, 1e-5);
        let got = run(kernel, rows as u32, &[&x, &gamma, &beta], &want);
        let err = got.max_abs_diff(&want);
        assert!(err <= layernorm_tolerance(cols), "err {err}");
    }

    #[test]
    fn gelu_is_bit_exact_against_host_mirror() {
        use crate::reference::gelu_ref;
        // 70 elements: ragged tail past two 32-lane blocks.
        let x = Tensor::from_fn(vec![70], |i| (i as f32) / 8.0 - 4.0);
        let want = Tensor::new(vec![70], x.data().iter().map(|&v| gelu_ref(v)).collect());
        let got = run(gelu_kernel(70), elems_grid(70), &[&x], &want);
        // The device kernel and gelu_ref execute the same float ops in
        // the same order, so the match is exact, not approximate.
        assert_eq!(got.max_abs_diff(&want), 0.0);
    }

    #[test]
    fn add_is_exact() {
        let a = Tensor::from_fn(vec![70], |i| i as f32);
        let b = Tensor::from_fn(vec![70], |i| 0.5 - (i as f32) / 3.0);
        let want = Tensor::new(
            vec![70],
            a.data()
                .iter()
                .zip(b.data())
                .map(|(&x, &y)| x + y)
                .collect(),
        );
        let got = run(add_kernel(70), elems_grid(70), &[&a, &b], &want);
        assert_eq!(got.max_abs_diff(&want), 0.0);
    }
}
