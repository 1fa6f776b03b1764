//! Lowering pass: layer graph → device launch plan.
//!
//! Each GEMM-backed layer ([`Layer::Conv2d`] via implicit GEMM / im2col,
//! [`Layer::Linear`] as a batched GEMM) greedily fuses a directly
//! following [`Layer::Bias`] and [`Layer::ReLU`] into the kernel's
//! [`Epilogue`], so a `conv → bias → relu` triple becomes ONE launch.
//! Standalone bias/ReLU/max-pool layers lower to dedicated elementwise
//! kernels ([`crate::kernels`]); [`Layer::Flatten`] is a host-side
//! reshape and costs nothing on the device.
//!
//! GEMM dimensions are padded up to multiples of 16 (the WMMA tile edge);
//! the padding is zero-filled so it cannot perturb results, and the
//! executor crops it back off after readback.

use crate::graph::Graph;
use crate::layer::{Attention, Conv2d, Layer, LayerNorm, Linear, MaxPool, Mlp};
use crate::tensor::Tensor;
use tcsim_cutlass::{CutlassConfig, Epilogue, GemmKernel};
use tcsim_model::{gemm_roofline, TilePlan};
use tcsim_sim::GpuConfig;

/// Rounds a GEMM dimension up to the WMMA tile edge.
pub fn pad16(x: usize) -> usize {
    x.div_ceil(16) * 16
}

/// Absolute tolerance for a device GEMM of reduction depth `k` against
/// the f32 reference: FEDP rounding grows with the number of partial-sum
/// merges (same bound `tcsim-cutlass` uses for its own verification).
pub fn gemm_tolerance(k: usize) -> f32 {
    1e-3 + k as f32 * 1e-4
}

/// Absolute tolerance for the device softmax against the textbook f32
/// reference. Both sides compute `exp2((x·scale − max)·log2e) / Σ`; the
/// device reduces max and Σ with a `shfl.bfly` butterfly while the
/// reference sums sequentially, so partial sums round in a different
/// order. Outputs lie in `[0, 1]` and a reordered n-term f32 sum drifts
/// by at most ~n·ε relative (ε = 2⁻²⁴ ≈ 6e−8), plus one `frcp`-vs-divide
/// ulp — comfortably inside `1e−6 + n·2.4e−7` with ~4× margin.
pub fn softmax_tolerance(cols: usize) -> f32 {
    1e-6 + cols as f32 * 2.4e-7
}

/// Absolute tolerance for the device layernorm against the textbook f32
/// reference. Error sources: butterfly-vs-sequential reduction order in
/// the two moments (~n·ε relative, amplified by `|x − μ| · rsqrt`), and
/// the device's `fex2(−½·flg2(v))` rsqrt vs the host's `1/sqrt(v)` (a
/// couple of ulp of a value near 1 after gamma scaling). For activations
/// of magnitude O(1) the bound `1e−5 + n·1e−6` holds with an order of
/// magnitude to spare; rows with near-zero variance are excluded by the
/// `eps` floor.
pub fn layernorm_tolerance(cols: usize) -> f32 {
    1e-5 + cols as f32 * 1e-6
}

/// The WMMA GEMM families a lowered GEMM dispatches to, largest tile
/// first: CUTLASS-style 64×64 CTA tiles (double-buffered), 32×32 CTA tiles
/// staged through shared memory, one 16×16 tile per warp from global
/// memory.
pub const GEMM_TILES: [GemmKernel; 3] = [
    GemmKernel::Cutlass(CutlassConfig::default_64x64()),
    GemmKernel::WmmaShared,
    GemmKernel::WmmaSimple,
];

/// The [`GEMM_TILES`] whose tile divides the padded `pm × pn` problem,
/// largest first: the heuristic's preference order, which also breaks
/// roofline ties in [`rank_modeled`].
pub fn candidates(pm: usize, pn: usize) -> Vec<GemmKernel> {
    GEMM_TILES
        .into_iter()
        .filter(|t| {
            let (gm, gn) = t.granularity_mn();
            pm.is_multiple_of(gm) && pn.is_multiple_of(gn)
        })
        .collect()
}

/// Picks the largest tile that divides the padded problem.
pub fn select(pm: usize, pn: usize) -> GemmKernel {
    candidates(pm, pn)[0]
}

/// The resource shape `tcsim-model`'s closed-form GEMM roofline scores
/// for a tile family: the CTA tile and block of its launch, and the
/// register and shared-memory budgets of its real kernel.
pub fn plan(tile: GemmKernel) -> TilePlan {
    let (gm, gn) = tile.granularity_mn();
    let (kernel, cfg, _) = tile
        .builder(false, Epilogue::None, (gm, gn, 16), [0; 4])
        .into_parts();
    TilePlan {
        cta_m: gm as u64,
        cta_n: gn as u64,
        threads: cfg.threads_per_cta() as u64,
        shared_bytes: kernel.shared_bytes() as u64,
        regs_per_thread: kernel.num_regs() as u64,
        staged: kernel.shared_bytes() > 0,
    }
}

/// The candidates for the padded `pm×pn×pk` problem on `gpu`, fastest
/// first under the analytical roofline; ties keep the largest tile first.
pub fn rank_modeled(pm: usize, pn: usize, pk: usize, gpu: &GpuConfig) -> Vec<GemmKernel> {
    let mut tiles = candidates(pm, pn);
    tiles.sort_by_cached_key(|t| {
        gemm_roofline(pm as u64, pn as u64, pk as u64, &plan(*t), gpu).cycles
    });
    tiles
}

/// Picks the candidate the analytical roofline ranks fastest (ties go to
/// the largest tile, the [`select`] heuristic's choice).
pub fn select_modeled(pm: usize, pn: usize, pk: usize, gpu: &GpuConfig) -> GemmKernel {
    rank_modeled(pm, pn, pk, gpu)[0]
}

/// How the A operand of a lowered GEMM is produced from the input
/// activation.
#[derive(Clone, Debug)]
pub enum GemmSource {
    /// Implicit-GEMM convolution: A rows are im2col patches of a
    /// `[in_c, h, w]` activation; the GEMM output is `[pixel][filter]`
    /// and gets transposed back to `[out_c, oh, ow]` on readback.
    Conv {
        /// Input channels.
        in_c: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Input activation height.
        h: usize,
        /// Input activation width.
        w: usize,
        /// Output height (`h - kh + 1`).
        oh: usize,
        /// Output width (`w - kw + 1`).
        ow: usize,
    },
    /// Fully connected: A is the `[batch, in_f]` activation verbatim.
    Linear,
}

/// One GEMM launch: `D[m×n] = A[m×k] × B[k×n]` plus fused epilogue.
#[derive(Clone, Debug)]
pub struct GemmOp {
    /// How A is packed from the activation.
    pub source: GemmSource,
    /// Logical rows (output pixels / batch).
    pub m: usize,
    /// Logical columns (filters / output features).
    pub n: usize,
    /// Logical reduction depth.
    pub k: usize,
    /// Padded dimensions (multiples of 16).
    pub pm: usize,
    /// Padded columns.
    pub pn: usize,
    /// Padded reduction depth.
    pub pk: usize,
    /// Kernel family the problem dispatches to (one of [`GEMM_TILES`]).
    pub tile: GemmKernel,
    /// Fused epilogue.
    pub epilogue: Epilogue,
    /// B operand in logical `[k, n]` layout (conv weights are transposed
    /// into this layout here, at lowering time).
    pub weight: Tensor,
    /// Length-`n` bias vector when the epilogue carries one.
    pub bias: Option<Tensor>,
}

/// One step of the lowered plan.
#[derive(Clone, Debug)]
pub enum LoweredOp {
    /// A WMMA GEMM launch (conv or linear, with fused epilogue).
    Gemm(GemmOp),
    /// Dedicated max-pool kernel launch.
    MaxPool(MaxPool),
    /// Dedicated elementwise ReLU kernel launch.
    Relu,
    /// Dedicated broadcast-bias kernel launch.
    Bias(Tensor),
    /// Host-only reshape: no device work.
    Reshape,
    /// Warp-per-row softmax launch over `rows × cols` (scale baked in).
    Softmax {
        /// Row width.
        cols: usize,
        /// Pre-softmax multiplier (1 for a standalone layer).
        scale: f32,
    },
    /// Warp-per-row layer-normalization launch.
    LayerNorm(LayerNorm),
    /// Elementwise tanh-GELU launch.
    Gelu,
    /// Composite multi-head attention: a staged sequence of GEMM,
    /// softmax and (optionally) residual-add launches executed by the
    /// crate-private `block` module.
    Attention(Attention),
    /// Composite feed-forward block: two bias-fused GEMMs around a GELU,
    /// plus an optional residual add.
    Mlp(Mlp),
}

impl LoweredOp {
    /// Whether this op launches a kernel (everything but [`LoweredOp::Reshape`]).
    pub fn is_launch(&self) -> bool {
        !matches!(self, LoweredOp::Reshape)
    }
}

/// One lowered step with provenance back into the graph.
#[derive(Clone, Debug)]
pub struct LoweredLayer {
    /// Display name: the fused graph-layer names joined with `+`
    /// (e.g. `conv2d0+bias1+relu2`).
    pub name: String,
    /// The device work.
    pub op: LoweredOp,
    /// Half-open range of graph-layer indices this step covers.
    pub span: std::ops::Range<usize>,
    /// Activation shape after this step.
    pub output_shape: Vec<usize>,
}

fn epilogue_for(bias: bool, relu: bool) -> Epilogue {
    match (bias, relu) {
        (false, false) => Epilogue::None,
        (true, false) => Epilogue::Bias,
        (false, true) => Epilogue::Relu,
        (true, true) => Epilogue::BiasRelu,
    }
}

/// Transposes a conv filter bank `[out_c, k]` into GEMM-B `[k, out_c]`.
fn conv_weight_to_b(c: &Conv2d) -> Tensor {
    let k = c.in_c * c.kh * c.kw;
    Tensor::from_fn(vec![k, c.out_c], |i| {
        let (row, f) = (i / c.out_c, i % c.out_c);
        c.weight.data()[f * k + row]
    })
}

/// Fuses a following `Bias` (then `ReLU`) into the GEMM at `layers[i]`,
/// returning `(epilogue, bias, fused_names, next_index)`.
fn fuse_epilogue(
    layers: &[(String, Layer)],
    i: usize,
) -> (Epilogue, Option<Tensor>, Vec<String>, usize) {
    let mut names = vec![layers[i].0.clone()];
    let mut j = i + 1;
    let mut bias = None;
    if let Some((bname, Layer::Bias(b))) = layers.get(j).map(|(n, l)| (n, l)) {
        bias = Some(b.bias.clone());
        names.push(bname.clone());
        j += 1;
    }
    let mut relu = false;
    if let Some((rname, Layer::ReLU)) = layers.get(j).map(|(n, l)| (n, l)) {
        relu = true;
        names.push(rname.clone());
        j += 1;
    }
    (epilogue_for(bias.is_some(), relu), bias, names, j)
}

/// Lowers a validated graph into an ordered launch plan using the
/// largest-divisor tile heuristic ([`select`]).
pub fn lower(graph: &Graph) -> Vec<LoweredLayer> {
    lower_with(graph, &|pm, pn, _pk| select(pm, pn))
}

/// Lowers a validated graph picking each GEMM's tile with the
/// analytical performance model ([`select_modeled`]) instead of the
/// largest-divisor heuristic.
pub fn lower_modeled(graph: &Graph, gpu: &GpuConfig) -> Vec<LoweredLayer> {
    lower_with(graph, &|pm, pn, pk| select_modeled(pm, pn, pk, gpu))
}

/// Lowering with a pluggable `(pm, pn, pk) → GemmKernel` chooser.
fn lower_with(
    graph: &Graph,
    choose: &dyn Fn(usize, usize, usize) -> GemmKernel,
) -> Vec<LoweredLayer> {
    let layers = graph.layers();
    let mut plan = Vec::new();
    let mut i = 0;
    while i < layers.len() {
        let (name, layer) = &layers[i];
        let (op, names, next) = match layer {
            Layer::Conv2d(c) => {
                let input = if i == 0 {
                    &graph.input_shape
                } else {
                    graph.output_shape(i - 1)
                };
                let (h, w) = (input[1], input[2]);
                let (oh, ow) = (h - c.kh + 1, w - c.kw + 1);
                let (m, n, k) = (oh * ow, c.out_c, c.in_c * c.kh * c.kw);
                let (ep, bias, names, next) = fuse_epilogue(layers, i);
                let (pm, pn) = (pad16(m), pad16(n));
                let op = LoweredOp::Gemm(GemmOp {
                    source: GemmSource::Conv {
                        in_c: c.in_c,
                        kh: c.kh,
                        kw: c.kw,
                        h,
                        w,
                        oh,
                        ow,
                    },
                    m,
                    n,
                    k,
                    pm,
                    pn,
                    pk: pad16(k),
                    tile: choose(pm, pn, pad16(k)),
                    epilogue: ep,
                    weight: conv_weight_to_b(c),
                    bias,
                });
                (op, names, next)
            }
            Layer::Linear(Linear {
                in_f,
                out_f,
                weight,
            }) => {
                let batch = if i == 0 {
                    graph.input_shape[0]
                } else {
                    graph.output_shape(i - 1)[0]
                };
                let (m, n, k) = (batch, *out_f, *in_f);
                let (ep, bias, names, next) = fuse_epilogue(layers, i);
                let (pm, pn) = (pad16(m), pad16(n));
                let op = LoweredOp::Gemm(GemmOp {
                    source: GemmSource::Linear,
                    m,
                    n,
                    k,
                    pm,
                    pn,
                    pk: pad16(k),
                    tile: choose(pm, pn, pad16(k)),
                    epilogue: ep,
                    weight: weight.clone(),
                    bias,
                });
                (op, names, next)
            }
            Layer::Bias(b) => (LoweredOp::Bias(b.bias.clone()), vec![name.clone()], i + 1),
            Layer::ReLU => (LoweredOp::Relu, vec![name.clone()], i + 1),
            Layer::MaxPool(p) => (LoweredOp::MaxPool(*p), vec![name.clone()], i + 1),
            Layer::Flatten => (LoweredOp::Reshape, vec![name.clone()], i + 1),
            Layer::Softmax => {
                let cols = graph.output_shape(i)[1];
                (
                    LoweredOp::Softmax { cols, scale: 1.0 },
                    vec![name.clone()],
                    i + 1,
                )
            }
            Layer::LayerNorm(ln) => (LoweredOp::LayerNorm(ln.clone()), vec![name.clone()], i + 1),
            Layer::Gelu => (LoweredOp::Gelu, vec![name.clone()], i + 1),
            Layer::Attention(a) => (LoweredOp::Attention(a.clone()), vec![name.clone()], i + 1),
            Layer::Mlp(m) => (LoweredOp::Mlp(m.clone()), vec![name.clone()], i + 1),
        };
        plan.push(LoweredLayer {
            name: names.join("+"),
            op,
            span: i..next,
            output_shape: graph.output_shape(next - 1).to_vec(),
        });
        i = next;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn toy() -> Graph {
        GraphBuilder::new("toy", vec![1, 16, 16])
            .conv2d(1, 8, 3, Tensor::zeros(vec![8, 9]))
            .bias(Tensor::zeros(vec![8]))
            .relu()
            .maxpool(2)
            .flatten()
            .linear(8 * 7 * 7, 10, Tensor::zeros(vec![392, 10]))
            .bias(Tensor::zeros(vec![10]))
            .build()
    }

    #[test]
    fn conv_bias_relu_fuses_into_one_gemm() {
        let plan = lower(&toy());
        let names: Vec<&str> = plan.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "conv2d0+bias1+relu2",
                "maxpool3",
                "flatten4",
                "linear5+bias6"
            ]
        );
        let LoweredOp::Gemm(g) = &plan[0].op else {
            panic!("expected gemm")
        };
        assert_eq!((g.m, g.n, g.k), (196, 8, 9));
        assert_eq!((g.pm, g.pn, g.pk), (208, 16, 16));
        assert_eq!(g.epilogue, Epilogue::BiasRelu);
        assert_eq!(g.tile, GemmKernel::WmmaSimple);
        assert_eq!(plan[0].span, 0..3);
        assert_eq!(plan[0].output_shape, vec![8, 14, 14]);
        let LoweredOp::Gemm(l) = &plan[3].op else {
            panic!("expected gemm")
        };
        assert_eq!(l.epilogue, Epilogue::Bias);
        assert_eq!((l.m, l.n, l.k), (1, 10, 392));
    }

    #[test]
    fn tile_selection_prefers_the_largest_divisor() {
        assert_eq!(select(64, 128), GEMM_TILES[0]);
        assert_eq!(select(32, 64), GemmKernel::WmmaShared);
        assert_eq!(select(208, 16), GemmKernel::WmmaSimple);
    }

    #[test]
    fn conv_weight_transposes_to_b_layout() {
        // 2 filters over k=3: weight[f][k], B[k][f].
        let c = Conv2d {
            in_c: 3,
            out_c: 2,
            kh: 1,
            kw: 1,
            weight: Tensor::new(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        };
        let b = conv_weight_to_b(&c);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn reshape_is_not_a_launch() {
        let plan = lower(&toy());
        assert!(!plan[2].op.is_launch());
        assert!(plan[0].op.is_launch());
    }
}
