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
//! Composite stages always run on a **private fresh [`Gpu`]** — in the
//! chained executor just as in sweep mode. A composite uploads its
//! activation from the host and reads every stage back, so it never
//! touches the session's device memory; running it on a fresh GPU makes
//! the allocation sequence (and with it the address-hashed L2/DRAM
//! partition mapping, see `MemSystem::partition_of`) identical in both
//! modes, which is what pins chained and parallel execution to the same
//! per-stage cycle counts in `tests/transformer_block.rs`.

use crate::executor::LayerReport;
use crate::kernels::{add_kernel, elems_grid, gelu_kernel, rowred_grid, softmax_kernel, BLOCK};
use crate::layer::{Attention, Mlp};
use crate::lower::{gemm_tolerance, pad16, softmax_tolerance, Tile};
use crate::reference::{gelu_ref, ref_gemm, softmax_row};
use crate::tensor::{max_abs_err, Tensor};
use tcsim_cutlass::Epilogue;
use tcsim_f16::F16;
use tcsim_sim::{Gpu, LaunchBuilder, LaunchStats};
use tcsim_trace::RingTracer;

/// Runs composite stages on a private GPU, optionally attaching a ring
/// tracer to each launch so stage reports carry HMMA occupancy.
pub(crate) struct ExecMode<'a> {
    gpu: &'a mut Gpu,
    trace: bool,
}

impl<'a> ExecMode<'a> {
    /// Wraps the composite's private GPU. `trace` attaches a
    /// [`RingTracer`] window to every stage launch.
    pub(crate) fn new(gpu: &'a mut Gpu, trace: bool) -> ExecMode<'a> {
        ExecMode { gpu, trace }
    }

    pub(crate) fn gpu(&mut self) -> &mut Gpu {
        self.gpu
    }

    pub(crate) fn run(&mut self, builder: LaunchBuilder) -> LaunchStats {
        let builder = if self.trace {
            builder.tracer(RingTracer::new())
        } else {
            builder
        };
        builder.launch(self.gpu)
    }
}

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

// Operand staging, shared with the graph executor. Every transfer is
// assembled on the host and moved with one device copy per row (padded
// operands) or per buffer; padding is never written, so the bytes stored,
// the pages materialised and the addresses handed out are those of an
// element-at-a-time loop.

/// Uploads an `rows × cols` f16 operand zero-padded to `prow × pcol`
/// (untouched device memory reads 0).
pub(crate) fn upload_f16(
    gpu: &mut Gpu,
    prow: usize,
    pcol: usize,
    rows: usize,
    cols: usize,
    get: impl Fn(usize, usize) -> f32,
) -> u64 {
    let p = gpu.alloc((prow * pcol * 2) as u64);
    let mut row = Vec::with_capacity(cols * 2);
    for r in 0..rows {
        row.clear();
        for c in 0..cols {
            row.extend_from_slice(&F16::from_f32(get(r, c)).to_bits().to_le_bytes());
        }
        gpu.memcpy_h2d(p + (r * pcol * 2) as u64, &row);
    }
    p
}

/// Stores `data` at `addr` as f32 words.
fn write_f32(gpu: &mut Gpu, addr: u64, data: &[f32]) {
    let mut bytes = Vec::with_capacity(data.len() * 4);
    for v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    gpu.memcpy_h2d(addr, &bytes);
}

/// Allocates a buffer for `data` and uploads it as f32 words.
pub(crate) fn upload_f32(gpu: &mut Gpu, data: &[f32]) -> u64 {
    let p = gpu.alloc((data.len() * 4) as u64);
    write_f32(gpu, p, data);
    p
}

/// Allocates the C operand of a padded `pm × pn` GEMM: a length-`pn` f32
/// bias vector when the epilogue carries one, else an (implicitly zero)
/// `pm × pn` accumulator input.
pub(crate) fn pack_c(gpu: &mut Gpu, pm: usize, pn: usize, bias: Option<&[f32]>) -> u64 {
    match bias {
        Some(bv) => {
            let pc = gpu.alloc((pn * 4) as u64);
            write_f32(gpu, pc, bv);
            pc
        }
        None => gpu.alloc((pm * pn * 4) as u64),
    }
}

/// Reads `len` f32 words back from `addr`.
pub(crate) fn read_f32(gpu: &Gpu, addr: u64, len: usize) -> Vec<f32> {
    gpu.memcpy_d2h(addr, len * 4)
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

/// Launches one `m×n×k` GEMM on the tile family the padded problem
/// selects, returning the launch stats and the cropped `m·n` output.
/// `bias` switches the epilogue to [`Epilogue::Bias`].
fn launch_gemm(
    exec: &mut ExecMode,
    (m, n, k): (usize, usize, usize),
    a: &dyn Fn(usize, usize) -> f32,
    b: &dyn Fn(usize, usize) -> f32,
    bias: Option<&[f32]>,
) -> (LaunchStats, Vec<f32>, Tile) {
    let (pm, pn, pk) = (pad16(m), pad16(n), pad16(k));
    let tile = Tile::select(pm, pn);
    let gpu = exec.gpu();
    let pa = upload_f16(gpu, pm, pk, m, k, a);
    let pb = upload_f16(gpu, pk, pn, k, n, b);
    let ep = if bias.is_some() {
        Epilogue::Bias
    } else {
        Epilogue::None
    };
    let pc = pack_c(gpu, pm, pn, bias);
    let pd = gpu.alloc((pm * pn * 4) as u64);
    let builder = LaunchBuilder::new(tile.kernel(ep))
        .grid(tile.grid(pm, pn))
        .block(tile.block())
        .param_u64(pa)
        .param_u64(pb)
        .param_u64(pc)
        .param_u64(pd)
        .param_u32(pn as u32)
        .param_u32(pk as u32);
    let stats = exec.run(builder);
    let d = read_f32(exec.gpu(), pd, pm * pn);
    let mut out = Vec::with_capacity(m * n);
    for row in d.chunks_exact(pn).take(m) {
        out.extend_from_slice(&row[..n]);
    }
    (stats, out, tile)
}

/// Launches the residual add `y + x`, checked bit-exact (both sides are
/// one f32 add per element).
fn residual_stage(
    exec: &mut ExecMode,
    name: String,
    y: &[f32],
    x: &[f32],
) -> (LayerReport, Vec<f32>) {
    let len = y.len();
    let gpu = exec.gpu();
    let pa = upload_f32(gpu, y);
    let pb = upload_f32(gpu, x);
    let pout = gpu.alloc((len * 4) as u64);
    let kernel = add_kernel(len);
    let kname = kernel.name().to_string();
    let builder = LaunchBuilder::new(kernel)
        .grid(elems_grid(len))
        .block(BLOCK)
        .param_u64(pa)
        .param_u64(pb)
        .param_u64(pout);
    let stats = exec.run(builder);
    let out = read_f32(exec.gpu(), pout, len);
    let want: Vec<f32> = y.iter().zip(x).map(|(a, b)| a + b).collect();
    let err = max_abs_err(&out, &want);
    let rep = stage_report(name, kname, format!("add {len}"), &[stats], err, 0.0);
    (rep, out)
}

/// Runs multi-head attention as a staged launch sequence, returning one
/// report per stage and the final `[rows, d_model]` activation.
pub(crate) fn exec_attention(
    exec: &mut ExecMode,
    lname: &str,
    a: &Attention,
    act: &Tensor,
) -> (Vec<LayerReport>, Tensor) {
    let rows = act.shape()[0];
    let d = a.d_model;
    let (batch, seq) = (rows / a.seq, a.seq);
    let dh = d / a.heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let x = act.data().to_vec();
    let mut reports = Vec::new();

    // Stage 1: fused QKV projection — one [rows × 3d × d] GEMM.
    let wqkv = a.wqkv.data();
    let (stats, qkv, tile) = launch_gemm(
        exec,
        (rows, 3 * d, d),
        &|r, c| x[r * d + c],
        &|r, c| wqkv[r * 3 * d + c],
        None,
    );
    let want = ref_gemm(
        rows,
        3 * d,
        d,
        |r, c| x[r * d + c],
        |r, c| wqkv[r * 3 * d + c],
        None,
    );
    let err = max_abs_err(&qkv, &want);
    reports.push(stage_report(
        format!("{lname}/qkv"),
        tile.name().into(),
        format!("gemm {rows}x{}x{d}", 3 * d),
        &[stats],
        err,
        gemm_tolerance(d),
    ));

    // Stage 2: per-(batch, head) scaled-score GEMMs Q_bh · K_bhᵀ,
    // batched into one report row. K is transposed at pack time.
    let mut score_stats = Vec::new();
    let mut scores = vec![0f32; batch * a.heads * seq * seq];
    let mut err = 0f32;
    let mut stile = Tile::Simple;
    for bi in 0..batch {
        for h in 0..a.heads {
            let q_at = |r: usize, c: usize| qkv[(bi * seq + r) * 3 * d + h * dh + c];
            let k_at = |r: usize, c: usize| qkv[(bi * seq + c) * 3 * d + d + h * dh + r];
            let (stats, s_bh, tile) = launch_gemm(exec, (seq, seq, dh), &q_at, &k_at, None);
            let want = ref_gemm(seq, seq, dh, q_at, k_at, None);
            err = err.max(max_abs_err(&s_bh, &want));
            scores[((bi * a.heads + h) * seq) * seq..((bi * a.heads + h) * seq + seq) * seq]
                .copy_from_slice(&s_bh);
            score_stats.push(stats);
            stile = tile;
        }
    }
    reports.push(stage_report(
        format!("{lname}/scores"),
        stile.name().into(),
        format!("gemm {seq}x{seq}x{dh} x{}", batch * a.heads),
        &score_stats,
        err,
        gemm_tolerance(dh),
    ));

    // Stage 3: row-wise softmax over all batch·heads·seq score rows,
    // with the 1/√d_h scale folded into the kernel.
    let sm_rows = batch * a.heads * seq;
    let gpu = exec.gpu();
    let pin = upload_f32(gpu, &scores);
    let pout = gpu.alloc((scores.len() * 4) as u64);
    let kernel = softmax_kernel(seq, scale);
    let kname = kernel.name().to_string();
    let builder = LaunchBuilder::new(kernel)
        .grid(rowred_grid(sm_rows))
        .block(BLOCK)
        .param_u64(pin)
        .param_u64(pout);
    let stats = exec.run(builder);
    let probs = read_f32(exec.gpu(), pout, scores.len());
    let mut want = scores.clone();
    for row in want.chunks_mut(seq) {
        softmax_row(row, scale);
    }
    let err = max_abs_err(&probs, &want);
    reports.push(stage_report(
        format!("{lname}/softmax"),
        kname,
        format!("softmax {sm_rows}x{seq}"),
        &[stats],
        err,
        softmax_tolerance(seq),
    ));

    // Stage 4: per-(batch, head) context GEMMs P_bh · V_bh, heads
    // concatenated back into [rows, d_model].
    let mut ctx_stats = Vec::new();
    let mut ctx = vec![0f32; rows * d];
    let mut err = 0f32;
    let mut ctile = Tile::Simple;
    for bi in 0..batch {
        for h in 0..a.heads {
            let p_at = |r: usize, c: usize| probs[((bi * a.heads + h) * seq + r) * seq + c];
            let v_at = |r: usize, c: usize| qkv[(bi * seq + r) * 3 * d + 2 * d + h * dh + c];
            let (stats, o_bh, tile) = launch_gemm(exec, (seq, dh, seq), &p_at, &v_at, None);
            let want = ref_gemm(seq, dh, seq, p_at, v_at, None);
            err = err.max(max_abs_err(&o_bh, &want));
            for r in 0..seq {
                for c in 0..dh {
                    ctx[(bi * seq + r) * d + h * dh + c] = o_bh[r * dh + c];
                }
            }
            ctx_stats.push(stats);
            ctile = tile;
        }
    }
    reports.push(stage_report(
        format!("{lname}/ctx"),
        ctile.name().into(),
        format!("gemm {seq}x{dh}x{seq} x{}", batch * a.heads),
        &ctx_stats,
        err,
        gemm_tolerance(seq),
    ));

    // Stage 5: output projection.
    let wo = a.wo.data();
    let (stats, mut y, tile) = launch_gemm(
        exec,
        (rows, d, d),
        &|r, c| ctx[r * d + c],
        &|r, c| wo[r * d + c],
        None,
    );
    let want = ref_gemm(
        rows,
        d,
        d,
        |r, c| ctx[r * d + c],
        |r, c| wo[r * d + c],
        None,
    );
    let err = max_abs_err(&y, &want);
    reports.push(stage_report(
        format!("{lname}/proj"),
        tile.name().into(),
        format!("gemm {rows}x{d}x{d}"),
        &[stats],
        err,
        gemm_tolerance(d),
    ));

    // Stage 6: residual skip from the layer input.
    if a.residual {
        let (rep, out) = residual_stage(exec, format!("{lname}/residual"), &y, &x);
        reports.push(rep);
        y = out;
    }
    (reports, Tensor::new(vec![rows, d], y))
}

/// Runs the feed-forward block as a staged launch sequence: bias-fused
/// `fc1` GEMM → GELU → bias-fused `fc2` GEMM → optional residual.
pub(crate) fn exec_mlp(
    exec: &mut ExecMode,
    lname: &str,
    m: &Mlp,
    act: &Tensor,
) -> (Vec<LayerReport>, Tensor) {
    let rows = act.shape()[0];
    let (d, ff) = (m.d_model, m.d_ff);
    let x = act.data().to_vec();
    let mut reports = Vec::new();

    // Stage 1: fc1 with the bias fused into the GEMM epilogue.
    let w1 = m.w1.data();
    let (stats, h, tile) = launch_gemm(
        exec,
        (rows, ff, d),
        &|r, c| x[r * d + c],
        &|r, c| w1[r * ff + c],
        Some(m.b1.data()),
    );
    let want = ref_gemm(
        rows,
        ff,
        d,
        |r, c| x[r * d + c],
        |r, c| w1[r * ff + c],
        Some(m.b1.data()),
    );
    let err = max_abs_err(&h, &want);
    reports.push(stage_report(
        format!("{lname}/fc1"),
        tile.name().into(),
        format!("gemm {rows}x{ff}x{d} bias"),
        &[stats],
        err,
        gemm_tolerance(d),
    ));

    // Stage 2: GELU (bit-exact vs the mirrored host sequence).
    let gpu = exec.gpu();
    let pin = upload_f32(gpu, &h);
    let pout = gpu.alloc((h.len() * 4) as u64);
    let kernel = gelu_kernel(h.len());
    let kname = kernel.name().to_string();
    let builder = LaunchBuilder::new(kernel)
        .grid(elems_grid(h.len()))
        .block(BLOCK)
        .param_u64(pin)
        .param_u64(pout);
    let stats = exec.run(builder);
    let g = read_f32(exec.gpu(), pout, h.len());
    let want: Vec<f32> = h.iter().map(|&v| gelu_ref(v)).collect();
    let err = max_abs_err(&g, &want);
    reports.push(stage_report(
        format!("{lname}/gelu"),
        kname,
        format!("gelu {}", h.len()),
        &[stats],
        err,
        0.0,
    ));

    // Stage 3: fc2, bias fused.
    let w2 = m.w2.data();
    let (stats, mut y, tile) = launch_gemm(
        exec,
        (rows, d, ff),
        &|r, c| g[r * ff + c],
        &|r, c| w2[r * d + c],
        Some(m.b2.data()),
    );
    let want = ref_gemm(
        rows,
        d,
        ff,
        |r, c| g[r * ff + c],
        |r, c| w2[r * d + c],
        Some(m.b2.data()),
    );
    let err = max_abs_err(&y, &want);
    reports.push(stage_report(
        format!("{lname}/fc2"),
        tile.name().into(),
        format!("gemm {rows}x{d}x{ff} bias"),
        &[stats],
        err,
        gemm_tolerance(ff),
    ));

    // Stage 4: residual skip.
    if m.residual {
        let (rep, out) = residual_stage(exec, format!("{lname}/residual"), &y, &x);
        reports.push(rep);
        y = out;
    }
    (reports, Tensor::new(vec![rows, d], y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_sim::GpuConfig;

    /// The element-at-a-time uploader `upload_f16` replaced, kept verbatim
    /// as the staging reference: one `write_u16` per element, padding
    /// never touched.
    fn legacy_upload_f16(
        gpu: &mut Gpu,
        prow: usize,
        pcol: usize,
        rows: usize,
        cols: usize,
        get: impl Fn(usize, usize) -> f32,
    ) -> u64 {
        let p = gpu.alloc((prow * pcol * 2) as u64);
        for r in 0..rows {
            for c in 0..cols {
                gpu.write_u16(
                    p + ((r * pcol + c) * 2) as u64,
                    F16::from_f32(get(r, c)).to_bits(),
                );
            }
        }
        p
    }

    #[test]
    fn uploaded_operand_equals_the_per_element_image_and_pages() {
        // Ragged against the padding, dense, a single element, a
        // transposed source, and two buffers crossing a 64 KiB page (one
        // with a row straddling the boundary, one whose padding rows alone
        // reach the next page).
        let src: Vec<f32> = (0..200 * 400)
            .map(|i| ((i * 37 % 1013) as f32 - 500.0) / 97.0)
            .collect();
        for (rows, cols, transposed) in [
            (5, 37, false),
            (16, 48, false),
            (1, 1, false),
            (33, 17, true),
            (130, 300, false),
            (60, 500, true),
        ] {
            let what = format!("{rows}x{cols} transposed={transposed}");
            let get = |r: usize, c: usize| {
                if transposed {
                    src[c * rows + r]
                } else {
                    src[r * cols + c]
                }
            };
            let (prow, pcol) = (pad16(rows), pad16(cols));
            let (mut old, mut new) = (Gpu::new(GpuConfig::mini()), Gpu::new(GpuConfig::mini()));
            // Off the page boundary a fresh allocator starts on.
            assert_eq!(old.alloc(1000), new.alloc(1000));
            let p_old = legacy_upload_f16(&mut old, prow, pcol, rows, cols, get);
            let p_new = upload_f16(&mut new, prow, pcol, rows, cols, get);
            assert_eq!(p_old, p_new, "{what}: address");
            assert_eq!(old.alloc(1), new.alloc(1), "{what}: next allocation");
            let len = prow * pcol * 2;
            assert!(
                old.memcpy_d2h(p_old, len) == new.memcpy_d2h(p_new, len),
                "{what}: padded image"
            );
            assert_eq!(
                old.device_mut().resident_pages(),
                new.device_mut().resident_pages(),
                "{what}: materialised pages"
            );
        }
    }
}
