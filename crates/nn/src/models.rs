//! Canned networks for the benchmark binary and tests, with
//! deterministic f16-exact weights.
//!
//! Weights and inputs are multiples of 1/16 in `[-1, 1]`, generated by a
//! seeded hash: exactly representable in f16, so the only rounding in
//! the whole pipeline is the FEDP accumulation the tolerance model
//! covers.

use crate::graph::{Graph, GraphBuilder};
use crate::tensor::Tensor;

/// Deterministic hash → multiples of 1/16 in `[-1, 1]` (f16-exact).
fn hval(seed: u64, tag: u64, i: usize) -> f32 {
    let mut x = seed
        ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    ((x % 33) as f32 - 16.0) / 16.0
}

fn weights(seed: u64, tag: u64, shape: Vec<usize>) -> Tensor {
    Tensor::from_fn(shape, |i| hval(seed, tag, i))
}

/// A deterministic input activation matching the graph's input shape.
pub fn input_for(graph: &Graph, seed: u64) -> Tensor {
    Tensor::from_fn(graph.input_shape.clone(), |i| hval(seed, 0xFEED, i))
}

/// LeNet-style convnet on a 1×16×16 input:
/// `conv(1→8,3³)+bias+relu → pool2 → conv(8→16,3³)+bias+relu → pool2 →
/// flatten → linear(64→32)+bias+relu → linear(32→10)+bias`.
///
/// The two convolutions lower to implicit GEMMs of 196×8×9 and 25×16×72
/// (padded to WMMA tiles); both fuse their bias+ReLU epilogues.
pub fn lenet(seed: u64) -> Graph {
    GraphBuilder::new("lenet", vec![1, 16, 16])
        .conv2d(1, 8, 3, weights(seed, 1, vec![8, 9]))
        .bias(weights(seed, 2, vec![8]))
        .relu()
        .maxpool(2)
        .conv2d(8, 16, 3, weights(seed, 3, vec![16, 72]))
        .bias(weights(seed, 4, vec![16]))
        .relu()
        .maxpool(2)
        .flatten()
        .linear(64, 32, weights(seed, 5, vec![64, 32]))
        .bias(weights(seed, 6, vec![32]))
        .relu()
        .linear(32, 10, weights(seed, 7, vec![32, 10]))
        .bias(weights(seed, 8, vec![10]))
        .build()
}

/// Three-layer MLP on a batch of 64: `256 → 128 → 64 → 10`, ReLU between
/// layers, bias everywhere. The first two GEMMs are 64×128×256 and
/// 64×64×128 — tile-aligned for the CUTLASS 64×64 kernel; the head
/// (64×10×64) falls back to the 16×16 kernel.
pub fn mlp(seed: u64) -> Graph {
    GraphBuilder::new("mlp", vec![64, 256])
        .linear(256, 128, weights(seed, 11, vec![256, 128]))
        .bias(weights(seed, 12, vec![128]))
        .relu()
        .linear(128, 64, weights(seed, 13, vec![128, 64]))
        .bias(weights(seed, 14, vec![64]))
        .relu()
        .linear(64, 10, weights(seed, 15, vec![64, 10]))
        .bias(weights(seed, 16, vec![10]))
        .build()
}

/// Minimal convnet for smoke tests: `conv(1→4,3³)+bias+relu → pool2 →
/// flatten → linear(36→8)+bias` on a 1×8×8 input. Exercises every
/// lowered-op kind in a few thousand simulated cycles.
pub fn tiny(seed: u64) -> Graph {
    GraphBuilder::new("tiny", vec![1, 8, 8])
        .conv2d(1, 4, 3, weights(seed, 21, vec![4, 9]))
        .bias(weights(seed, 22, vec![4]))
        .relu()
        .maxpool(2)
        .flatten()
        .linear(36, 8, weights(seed, 23, vec![36, 8]))
        .bias(weights(seed, 24, vec![8]))
        .build()
}

/// Sequence length of the [`encoder`] block.
pub const ENCODER_SEQ: usize = 16;
/// Model width of the [`encoder`] block.
pub const ENCODER_D_MODEL: usize = 64;
/// Attention head count of the [`encoder`] block.
pub const ENCODER_HEADS: usize = 4;
/// Feed-forward hidden width of the [`encoder`] block.
pub const ENCODER_D_FF: usize = 128;

/// Pre-LN transformer encoder block on `batch` sequences of
/// [`ENCODER_SEQ`] tokens at width [`ENCODER_D_MODEL`]:
/// `layernorm → attention(4 heads, residual) → layernorm →
/// mlp(64→128→64, GELU, residual)`.
///
/// The input is `[batch·seq, d_model]`; every GEMM dimension is a
/// multiple of 16, so the QKV/projection/MLP GEMMs land on the
/// shared-memory and CUTLASS tiles while the per-head score/context
/// GEMMs (16×16×16) exercise the simple tile. GEMM weights are
/// f16-exact multiples of 1/16; layernorm gamma sits near 1
/// (multiples of 1/128 in `[0.875, 1.125]`, also f16-exact).
pub fn encoder(seed: u64, batch: usize) -> Graph {
    assert!(batch > 0, "encoder batch must be positive");
    let (d, ff) = (ENCODER_D_MODEL, ENCODER_D_FF);
    let gamma = |tag: u64| Tensor::from_fn(vec![d], move |i| 1.0 + hval(seed, tag, i) / 8.0);
    let beta = |tag: u64| Tensor::from_fn(vec![d], move |i| hval(seed, tag, i) / 8.0);
    GraphBuilder::new("encoder", vec![batch * ENCODER_SEQ, d])
        .layernorm(gamma(31), beta(32), 1e-5)
        .attention(
            ENCODER_HEADS,
            ENCODER_SEQ,
            weights(seed, 33, vec![d, 3 * d]),
            weights(seed, 34, vec![d, d]),
            true,
        )
        .layernorm(gamma(35), beta(36), 1e-5)
        .mlp(
            weights(seed, 37, vec![d, ff]),
            weights(seed, 38, vec![ff]),
            weights(seed, 39, vec![ff, d]),
            weights(seed, 40, vec![d]),
            true,
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, LoweredOp, GEMM_TILES};
    use tcsim_cutlass::GemmKernel;
    use tcsim_f16::F16;

    #[test]
    fn weights_are_f16_exact_and_seeded() {
        let w = weights(42, 1, vec![64]);
        for &v in w.data() {
            assert!((-1.0..=1.0).contains(&v));
            assert_eq!(F16::from_f32(v).to_f32(), v, "{v} not f16-exact");
        }
        assert_eq!(weights(42, 1, vec![64]), weights(42, 1, vec![64]));
        assert_ne!(weights(42, 1, vec![64]), weights(43, 1, vec![64]));
    }

    #[test]
    fn lenet_shapes_and_fusion() {
        let g = lenet(0);
        assert_eq!(g.final_shape(), &[1, 10]);
        let plan = lower(&g);
        // conv+bias+relu, pool, conv+bias+relu, pool, flatten,
        // linear+bias+relu, linear+bias.
        assert_eq!(plan.len(), 7);
        let gemms = plan
            .iter()
            .filter(|l| matches!(l.op, LoweredOp::Gemm(_)))
            .count();
        assert_eq!(gemms, 4);
    }

    #[test]
    fn mlp_hits_the_cutlass_tile() {
        let plan = lower(&mlp(0));
        let tiles: Vec<GemmKernel> = plan
            .iter()
            .filter_map(|l| match &l.op {
                LoweredOp::Gemm(g) => Some(g.tile),
                _ => None,
            })
            .collect();
        let cutlass = GEMM_TILES[0];
        assert_eq!(tiles, vec![cutlass, cutlass, GemmKernel::WmmaSimple]);
    }
}
