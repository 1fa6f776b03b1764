//! Host-side FP32 reference executor — the oracle each lowered launch is
//! differentially checked against.
//!
//! The reference models the device's numeric boundary exactly: GEMM-backed
//! layers ([`Layer::Conv2d`], [`Layer::Linear`]) quantize their input and
//! weights through f16 first (that is what im2col packing does on its way
//! to the WMMA fragments) and then accumulate in f32, so the only
//! device-vs-reference difference left is the FEDP accumulation order —
//! bounded by [`crate::gemm_tolerance`].
//!
//! "Sequential" is a statement about each output element, not about the
//! loop nest: every element starts from zero, adds its `k` products in
//! ascending order through a separate f32 multiply and add, and takes the
//! bias last. The operands are rounded through f16 once per element, not
//! once per multiply, and the sums of one output row advance together
//! while rows of B stream past ([`tcsim_cutlass::host_gemm`], the one
//! host GEMM loop in the workspace) — the same bits as an
//! element-at-a-time triple loop (`tests/reference_equiv.rs` keeps that
//! loop and compares), at a fraction of the cost, which matters because
//! every checked launch pays for its reference.

use crate::kernels::{LOG2E, SQRT_2_OVER_PI};
use crate::layer::Layer;
use crate::tensor::Tensor;
use tcsim_cutlass::host_gemm;
use tcsim_f16::F16;

/// Host mirror of the device GELU: the exact op sequence of
/// [`crate::kernels::gelu_kernel`] in f32 (`mul_add` where the kernel
/// uses `ffma`, `exp2` for `fex2`, `1/x` for `frcp`), so device vs
/// reference is bit-exact and the layer's tolerance is 0.
pub fn gelu_ref(x: f32) -> f32 {
    let u = (x * x) * x;
    let u = u.mul_add(0.044715, x);
    let t = u * SQRT_2_OVER_PI;
    let e = (t * (2.0 * LOG2E)).exp2();
    let r = 1.0 / (e + 1.0);
    let tanh = r.mul_add(-2.0, 1.0);
    let half = x * 0.5;
    half.mul_add(tanh, half)
}

/// Textbook row-wise scaled softmax in f32: max-subtract, `exp2` with
/// the LOG2E fold (matching the device's MUFU path), sequential sum.
/// The device's butterfly reduction order differs — bounded by
/// [`crate::lower::softmax_tolerance`].
pub fn softmax_row(row: &mut [f32], scale: f32) {
    for v in row.iter_mut() {
        *v *= scale;
    }
    let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0f32;
    for v in row.iter_mut() {
        *v = ((*v - m) * LOG2E).exp2();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// The `rows × cols` operand `at`, row-major, every element rounded
/// through f16 and back.
fn quantized(rows: usize, cols: usize, at: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    let mut q = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        q.extend((0..cols).map(|c| F16::from_f32(at(r, c)).to_f32()));
    }
    q
}

/// f32 GEMM with f16-quantized operands (the device's numeric boundary):
/// `out[m×n] = a[m×k] × b[k×n] (+ bias)`. Sequential per output element:
/// each one accumulates `k` ascending from zero and takes the bias last.
/// Both operands are read and rounded through f16 once per element, into
/// row-major matrices [`host_gemm`] then streams.
///
/// # Panics
///
/// Panics if `bias` is shorter than `n`.
pub fn ref_gemm(
    m: usize,
    n: usize,
    k: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
    bias: Option<&[f32]>,
) -> Vec<f32> {
    let mut out = vec![0f32; m * n];
    host_gemm(m, n, k, &quantized(m, k, a), &quantized(k, n, b), &mut out);
    if let Some(bias) = bias {
        for row in out.chunks_exact_mut(n.max(1)) {
            for (v, &bv) in row.iter_mut().zip(&bias[..n]) {
                *v += bv;
            }
        }
    }
    out
}

/// Runs one layer on the host in f32, with f16 quantization at the GEMM
/// operand boundary.
///
/// # Panics
///
/// Panics if `input`'s shape is incompatible (the graph builder
/// validates shapes, so this only fires on hand-built layers).
pub fn run_layer(layer: &Layer, input: &Tensor) -> Tensor {
    let out_shape = layer
        .output_shape(input.shape())
        .unwrap_or_else(|e| panic!("reference: {e}"));
    match layer {
        Layer::Conv2d(c) => {
            let (h, w) = (input.shape()[1], input.shape()[2]);
            let (oh, ow) = (h - c.kh + 1, w - c.kw + 1);
            let x = input.quantize_f16();
            let wt = c.weight.quantize_f16();
            let mut out = Tensor::zeros(out_shape);
            for f in 0..c.out_c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0f32;
                        for ch in 0..c.in_c {
                            for dy in 0..c.kh {
                                for dx in 0..c.kw {
                                    let iv = x.data()[(ch * h + oy + dy) * w + ox + dx];
                                    let col = (ch * c.kh + dy) * c.kw + dx;
                                    acc += iv * wt.data()[f * c.in_c * c.kh * c.kw + col];
                                }
                            }
                        }
                        out.data_mut()[(f * oh + oy) * ow + ox] = acc;
                    }
                }
            }
            out
        }
        Layer::Linear(l) => {
            let batch = input.shape()[0];
            let x = input.quantize_f16();
            let wt = l.weight.quantize_f16();
            let mut out = Tensor::zeros(out_shape);
            host_gemm(batch, l.out_f, l.in_f, x.data(), wt.data(), out.data_mut());
            out
        }
        Layer::Bias(b) => {
            let lane_size: usize = input.shape()[1..].iter().product::<usize>()
                * usize::from(input.shape().len() == 3)
                + usize::from(input.shape().len() == 2);
            let mut out = input.clone();
            if input.shape().len() == 3 {
                // Per-channel over [c, h, w].
                for (i, v) in out.data_mut().iter_mut().enumerate() {
                    *v += b.bias.data()[i / lane_size];
                }
            } else {
                // Per-feature over [batch, f].
                let f = input.shape()[1];
                for (i, v) in out.data_mut().iter_mut().enumerate() {
                    *v += b.bias.data()[i % f];
                }
            }
            out
        }
        Layer::ReLU => {
            let mut out = input.clone();
            for v in out.data_mut() {
                *v = v.max(0.0);
            }
            out
        }
        Layer::MaxPool(p) => {
            let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
            let (oh, ow) = (h / p.k, w / p.k);
            let mut out = Tensor::zeros(out_shape);
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut m = f32::NEG_INFINITY;
                        for dy in 0..p.k {
                            for dx in 0..p.k {
                                m = m.max(
                                    input.data()[(ch * h + oy * p.k + dy) * w + ox * p.k + dx],
                                );
                            }
                        }
                        out.data_mut()[(ch * oh + oy) * ow + ox] = m;
                    }
                }
            }
            out
        }
        Layer::Flatten => input.reshape(out_shape),
        Layer::Softmax => {
            let cols = input.shape()[1];
            let mut out = input.clone();
            for row in out.data_mut().chunks_mut(cols) {
                softmax_row(row, 1.0);
            }
            out
        }
        Layer::LayerNorm(ln) => {
            let cols = ln.dim;
            let mut out = input.clone();
            for row in out.data_mut().chunks_mut(cols) {
                let mean = row.iter().sum::<f32>() / cols as f32;
                let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
                let rstd = 1.0 / (var + ln.eps).sqrt();
                for (v, (&g, &bt)) in row
                    .iter_mut()
                    .zip(ln.gamma.data().iter().zip(ln.beta.data()))
                {
                    *v = (*v - mean) * rstd * g + bt;
                }
            }
            out
        }
        Layer::Gelu => {
            let mut out = input.clone();
            for v in out.data_mut() {
                *v = gelu_ref(*v);
            }
            out
        }
        Layer::Attention(a) => {
            let (rows, d) = (input.shape()[0], a.d_model);
            let (batch, dh) = (rows / a.seq, d / a.heads);
            let x = input.data();
            // QKV projection: [rows, 3d].
            let qkv = ref_gemm(
                rows,
                3 * d,
                d,
                |r, c| x[r * d + c],
                |r, c| a.wqkv.data()[r * 3 * d + c],
                None,
            );
            // Per-(batch, head) scaled scores → softmax → context.
            let scale = 1.0 / (dh as f32).sqrt();
            let mut ctx = vec![0f32; rows * d];
            for bi in 0..batch {
                for h in 0..a.heads {
                    let q_at = |r: usize, c: usize| qkv[(bi * a.seq + r) * 3 * d + h * dh + c];
                    let k_at = |r: usize, c: usize| qkv[(bi * a.seq + c) * 3 * d + d + h * dh + r];
                    let v_at =
                        |r: usize, c: usize| qkv[(bi * a.seq + r) * 3 * d + 2 * d + h * dh + c];
                    let mut scores = ref_gemm(a.seq, a.seq, dh, q_at, k_at, None);
                    for row in scores.chunks_mut(a.seq) {
                        softmax_row(row, scale);
                    }
                    let o = ref_gemm(a.seq, dh, a.seq, |r, c| scores[r * a.seq + c], v_at, None);
                    for r in 0..a.seq {
                        for c in 0..dh {
                            ctx[(bi * a.seq + r) * d + h * dh + c] = o[r * dh + c];
                        }
                    }
                }
            }
            // Output projection (+ residual).
            let mut y = ref_gemm(
                rows,
                d,
                d,
                |r, c| ctx[r * d + c],
                |r, c| a.wo.data()[r * d + c],
                None,
            );
            if a.residual {
                for (v, &xi) in y.iter_mut().zip(x) {
                    *v += xi;
                }
            }
            Tensor::new(out_shape, y)
        }
        Layer::Mlp(m) => {
            let rows = input.shape()[0];
            let x = input.data();
            let h = ref_gemm(
                rows,
                m.d_ff,
                m.d_model,
                |r, c| x[r * m.d_model + c],
                |r, c| m.w1.data()[r * m.d_ff + c],
                Some(m.b1.data()),
            );
            let h: Vec<f32> = h.into_iter().map(gelu_ref).collect();
            let mut y = ref_gemm(
                rows,
                m.d_model,
                m.d_ff,
                |r, c| h[r * m.d_ff + c],
                |r, c| m.w2.data()[r * m.d_model + c],
                Some(m.b2.data()),
            );
            if m.residual {
                for (v, &xi) in y.iter_mut().zip(x) {
                    *v += xi;
                }
            }
            Tensor::new(out_shape, y)
        }
    }
}

/// Runs the whole graph on the host, returning every layer's output (the
/// last element is the network output).
pub fn run_graph(graph: &crate::graph::Graph, input: &Tensor) -> Vec<Tensor> {
    let mut outs = Vec::with_capacity(graph.layers().len());
    let mut act = input.clone();
    for (_, layer) in graph.layers() {
        act = run_layer(layer, &act);
        outs.push(act.clone());
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Bias, Conv2d, Linear, MaxPool};

    #[test]
    fn conv_identity_kernel_is_a_shift() {
        // A single 1-channel 1x1 filter of weight 2 doubles the input.
        let conv = Layer::Conv2d(Conv2d {
            in_c: 1,
            out_c: 1,
            kh: 1,
            kw: 1,
            weight: Tensor::new(vec![1, 1], vec![2.0]),
        });
        let x = Tensor::from_fn(vec![1, 2, 2], |i| i as f32);
        let y = run_layer(&conv, &x);
        assert_eq!(y.data(), &[0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn maxpool_relu_bias_flatten_chain() {
        let x = Tensor::new(vec![1, 2, 2], vec![-4.0, 1.0, 0.5, -2.0]);
        let p = run_layer(&Layer::MaxPool(MaxPool { k: 2 }), &x);
        assert_eq!(p.data(), &[1.0]);
        let r = run_layer(&Layer::ReLU, &x);
        assert_eq!(r.data(), &[0.0, 1.0, 0.5, 0.0]);
        let b = run_layer(
            &Layer::Bias(Bias {
                bias: Tensor::new(vec![1], vec![1.0]),
            }),
            &x,
        );
        assert_eq!(b.data(), &[-3.0, 2.0, 1.5, -1.0]);
        let f = run_layer(&Layer::Flatten, &x);
        assert_eq!(f.shape(), &[1, 4]);
    }

    #[test]
    fn linear_matches_hand_gemm() {
        let l = Layer::Linear(Linear {
            in_f: 2,
            out_f: 2,
            weight: Tensor::new(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]),
        });
        let x = Tensor::new(vec![1, 2], vec![1.0, 0.5]);
        let y = run_layer(&l, &x);
        assert_eq!(y.data(), &[2.5, 4.0]); // [1·1+0.5·3, 1·2+0.5·4]
    }

    #[test]
    fn gemm_layers_quantize_inputs_to_f16() {
        // 0.1 is not f16-representable; the reference must use the
        // rounded value, like the device does after im2col packing.
        let l = Layer::Linear(Linear {
            in_f: 1,
            out_f: 1,
            weight: Tensor::new(vec![1, 1], vec![1.0]),
        });
        let y = run_layer(&l, &Tensor::new(vec![1, 1], vec![0.1]));
        let q = tcsim_f16::F16::from_f32(0.1).to_f32();
        assert_eq!(y.data()[0], q);
        assert_ne!(y.data()[0], 0.1);
    }
}
