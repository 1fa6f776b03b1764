//! Composite-layer execution: multi-head attention and the feed-forward
//! block as staged launch sequences.
//!
//! [`Layer::Attention`](crate::layer::Attention) and
//! [`Layer::Mlp`](crate::layer::Mlp) cannot be a single launch: attention
//! needs the V rows two stages after the QKV projection produced them,
//! and the MLP's GELU sits between two GEMMs. Each composite therefore
//! executes as an ordered sequence of *stages* — GEMMs on the WMMA tile
//! kernels, softmax/GELU/residual on the dedicated SIMT kernels — with
//! every stage's device output read back, differentially checked against
//! a host reference computed from the same (device-produced) inputs, and
//! reported as its own [`LayerReport`] row (`attention0/qkv`,
//! `attention0/scores`, …).
//!
//! The per-head score and context GEMMs are batched: one launch per
//! `(batch, head)` pair, aggregated into a single report row (cycles and
//! instructions summed, HMMA occupancy cycle-weighted).
//!
//! Composite stages always run on a **private fresh [`Gpu`]**, in the
//! chained executor just as in sweep mode. A composite uploads its
//! activation from the host and reads every stage back, so it never needs
//! the chained run's device memory. A fresh GPU starts its allocation
//! sequence, and with it the address-hashed L2/DRAM partition mapping (see
//! `MemSystem::partition_of`), at the same point whatever ran before. So
//! each stage's cycles are independent of the layers before it and equal
//! across the two schedules, which `tests/transformer_block.rs` pins.

use crate::executor::LayerReport;
use crate::kernels::{add_kernel, elems_grid, gelu_kernel, softmax_kernel};
use crate::launch::{launch_f32, launch_gemm};
use crate::layer::{Attention, Mlp};
use crate::lower::{gemm_tolerance, pad16, select, softmax_tolerance};
use crate::reference::{gelu_ref, ref_gemm, softmax_row};
use crate::tensor::{max_abs_err, Tensor};
use tcsim_cutlass::Epilogue;
use tcsim_isa::Kernel;
use tcsim_sim::{Gpu, LaunchStats};

/// Folds one or more launches of a stage into a single report row.
fn stage_report(
    name: String,
    kernel: String,
    dims: String,
    stats: &[LaunchStats],
    max_err: f32,
    tolerance: f32,
) -> LayerReport {
    let cycles: u64 = stats.iter().map(|s| s.cycles).sum();
    let instructions: u64 = stats.iter().map(|s| s.instructions).sum();
    let hmma_occupancy = if stats.iter().all(|s| s.trace.is_some()) && cycles > 0 {
        let weighted: f64 = stats
            .iter()
            .map(|s| s.trace.as_ref().map_or(0.0, |t| t.hmma_occupancy()) * s.cycles as f64)
            .sum();
        Some(weighted / cycles as f64)
    } else {
        None
    };
    LayerReport {
        name,
        kernel,
        dims,
        cycles,
        instructions,
        hmma_occupancy,
        max_err,
        tolerance,
    }
}

/// Runs a GEMM stage: `count` launches of one `m×n×k` problem on the tile
/// the padded problem selects, launch `j` reading its operands through
/// `a(j, row, col)` and `b(j, row, col)`. Each launch is checked against
/// [`ref_gemm`] of the same operands. The stage reports as one row under
/// the tile's name and returns the launches' cropped outputs back to back.
/// `bias` switches the epilogue to [`Epilogue::Bias`].
#[allow(clippy::too_many_arguments)]
fn gemm_stage(
    gpu: &mut Gpu,
    trace: bool,
    name: String,
    (m, n, k): (usize, usize, usize),
    count: usize,
    a: impl Fn(usize, usize, usize) -> f32,
    b: impl Fn(usize, usize, usize) -> f32,
    bias: Option<&[f32]>,
) -> (LayerReport, Vec<f32>) {
    let tile = select(pad16(m), pad16(n));
    let epilogue = if bias.is_some() {
        Epilogue::Bias
    } else {
        Epilogue::None
    };
    let mut stats = Vec::with_capacity(count);
    let mut out = Vec::with_capacity(count * m * n);
    let mut err = 0f32;
    for j in 0..count {
        let (a_j, b_j) = (|r, c| a(j, r, c), |r, c| b(j, r, c));
        let (s, _, d) = launch_gemm(gpu, trace, tile, epilogue, (m, n, k), a_j, b_j, bias);
        err = err.max(max_abs_err(&d, &ref_gemm(m, n, k, a_j, b_j, bias)));
        stats.push(s);
        out.extend_from_slice(&d);
    }
    let mut dims = format!("gemm {m}x{n}x{k}");
    if count > 1 {
        dims += &format!(" x{count}");
    }
    if bias.is_some() {
        dims += " bias";
    }
    let tolerance = gemm_tolerance(k);
    (
        stage_report(name, tile.name(), dims, &stats, err, tolerance),
        out,
    )
}

/// Runs one f32 kernel as a stage, checked against `want`.
#[allow(clippy::too_many_arguments)]
fn f32_stage(
    gpu: &mut Gpu,
    trace: bool,
    name: String,
    dims: String,
    kernel: Kernel,
    grid: u32,
    inputs: &[&[f32]],
    want: &[f32],
    tolerance: f32,
) -> (LayerReport, Vec<f32>) {
    let (stats, kname, out) = launch_f32(gpu, trace, kernel, grid, inputs, want.len());
    let err = max_abs_err(&out, want);
    (
        stage_report(name, kname, dims, &[stats], err, tolerance),
        out,
    )
}

/// The skip connection `y + x` as a stage, checked bit-exact (both sides
/// are one f32 add per element).
fn residual(
    gpu: &mut Gpu,
    trace: bool,
    lname: &str,
    y: &[f32],
    x: &[f32],
) -> (LayerReport, Vec<f32>) {
    let want: Vec<f32> = y.iter().zip(x).map(|(a, b)| a + b).collect();
    let len = y.len();
    let (kernel, grid) = (add_kernel(len), elems_grid(len));
    let (name, dims) = (format!("{lname}/residual"), format!("add {len}"));
    f32_stage(gpu, trace, name, dims, kernel, grid, &[y, x], &want, 0.0)
}

/// Runs multi-head attention as a staged launch sequence, returning one
/// report per stage and the final `[rows, d_model]` activation.
pub(crate) fn exec_attention(
    gpu: &mut Gpu,
    trace: bool,
    lname: &str,
    a: &Attention,
    act: &Tensor,
) -> (Vec<LayerReport>, Tensor) {
    let rows = act.shape()[0];
    let d = a.d_model;
    let (batch, seq, heads) = (rows / a.seq, a.seq, a.heads);
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let (x, wqkv, wo) = (act.data(), a.wqkv.data(), a.wo.data());
    let mut reports = Vec::new();

    // Stage 1: fused QKV projection — one [rows × 3d × d] GEMM.
    let (rep, qkv) = gemm_stage(
        gpu,
        trace,
        format!("{lname}/qkv"),
        (rows, 3 * d, d),
        1,
        |_, r, c| x[r * d + c],
        |_, r, c| wqkv[r * 3 * d + c],
        None,
    );
    reports.push(rep);
    // Q, K and V of launch `j`: head `j % heads` of batch `j / heads`.
    let qkv_at = |j: usize, row: usize, part: usize, col: usize| {
        qkv[((j / heads) * seq + row) * 3 * d + part * d + (j % heads) * dh + col]
    };

    // Stage 2: per-(batch, head) scaled-score GEMMs Q_bh · K_bhᵀ,
    // batched into one report row. K is transposed at pack time.
    let (rep, scores) = gemm_stage(
        gpu,
        trace,
        format!("{lname}/scores"),
        (seq, seq, dh),
        batch * heads,
        |j, r, c| qkv_at(j, r, 0, c),
        |j, r, c| qkv_at(j, c, 1, r),
        None,
    );
    reports.push(rep);

    // Stage 3: row-wise softmax over all batch·heads·seq score rows,
    // with the 1/√d_h scale folded into the kernel.
    let sm_rows = batch * heads * seq;
    let mut want = scores.clone();
    for row in want.chunks_mut(seq) {
        softmax_row(row, scale);
    }
    let (rep, probs) = f32_stage(
        gpu,
        trace,
        format!("{lname}/softmax"),
        format!("softmax {sm_rows}x{seq}"),
        softmax_kernel(seq, scale),
        sm_rows as u32,
        &[&scores],
        &want,
        softmax_tolerance(seq),
    );
    reports.push(rep);

    // Stage 4: per-(batch, head) context GEMMs P_bh · V_bh, heads
    // concatenated back into [rows, d_model].
    let (rep, o) = gemm_stage(
        gpu,
        trace,
        format!("{lname}/ctx"),
        (seq, dh, seq),
        batch * heads,
        |j, r, c| probs[(j * seq + r) * seq + c],
        |j, r, c| qkv_at(j, r, 2, c),
        None,
    );
    reports.push(rep);
    let mut ctx = vec![0f32; rows * d];
    for (j, o_bh) in o.chunks_exact(seq * dh).enumerate() {
        for (r, row) in o_bh.chunks_exact(dh).enumerate() {
            let at = ((j / heads) * seq + r) * d + (j % heads) * dh;
            ctx[at..at + dh].copy_from_slice(row);
        }
    }

    // Stage 5: output projection.
    let (rep, mut y) = gemm_stage(
        gpu,
        trace,
        format!("{lname}/proj"),
        (rows, d, d),
        1,
        |_, r, c| ctx[r * d + c],
        |_, r, c| wo[r * d + c],
        None,
    );
    reports.push(rep);

    // Stage 6: residual skip from the layer input.
    if a.residual {
        let (rep, out) = residual(gpu, trace, lname, &y, x);
        reports.push(rep);
        y = out;
    }
    (reports, Tensor::new(vec![rows, d], y))
}

/// Runs the feed-forward block as a staged launch sequence: bias-fused
/// `fc1` GEMM → GELU → bias-fused `fc2` GEMM → optional residual.
pub(crate) fn exec_mlp(
    gpu: &mut Gpu,
    trace: bool,
    lname: &str,
    m: &Mlp,
    act: &Tensor,
) -> (Vec<LayerReport>, Tensor) {
    let rows = act.shape()[0];
    let (d, ff) = (m.d_model, m.d_ff);
    let (x, w1, w2) = (act.data(), m.w1.data(), m.w2.data());
    let mut reports = Vec::new();

    // Stage 1: fc1 with the bias fused into the GEMM epilogue.
    let (rep, h) = gemm_stage(
        gpu,
        trace,
        format!("{lname}/fc1"),
        (rows, ff, d),
        1,
        |_, r, c| x[r * d + c],
        |_, r, c| w1[r * ff + c],
        Some(m.b1.data()),
    );
    reports.push(rep);

    // Stage 2: GELU (bit-exact vs the mirrored host sequence).
    let want: Vec<f32> = h.iter().map(|&v| gelu_ref(v)).collect();
    let (rep, g) = f32_stage(
        gpu,
        trace,
        format!("{lname}/gelu"),
        format!("gelu {}", h.len()),
        gelu_kernel(h.len()),
        elems_grid(h.len()),
        &[&h],
        &want,
        0.0,
    );
    reports.push(rep);

    // Stage 3: fc2, bias fused.
    let (rep, mut y) = gemm_stage(
        gpu,
        trace,
        format!("{lname}/fc2"),
        (rows, d, ff),
        1,
        |_, r, c| g[r * ff + c],
        |_, r, c| w2[r * d + c],
        Some(m.b2.data()),
    );
    reports.push(rep);

    // Stage 4: residual skip.
    if m.residual {
        let (rep, out) = residual(gpu, trace, lname, &y, x);
        reports.push(rep);
        y = out;
    }
    (reports, Tensor::new(vec![rows, d], y))
}
