//! Four-element dot product (FEDP) unit — the arithmetic datapath of the
//! proposed tensor-core microarchitecture (Fig 13, §IV).
//!
//! Each tensor core contains sixteen FEDP units. An FEDP is a four-stage
//! pipeline: stage 1 performs the four FP16 multiplications in parallel;
//! stages 2–4 accumulate through an FP32 adder tree and add the
//! accumulator input. A tensor core therefore completes one 4×4×4
//! matrix-multiply-accumulate per cycle in steady state (Fig 3).
//!
//! # Numerics
//!
//! The product of two binary16 values is exactly representable in binary32
//! (11+11 = 22 significant bits < 24), so stage 1 is exact. The adder tree
//! operates in binary32 with one rounding per node — the behaviour Markidis
//! et al. \[47\] observed on real tensor cores. In FP16-accumulate mode the
//! final result is rounded to binary16 once per FEDP; in mixed-precision
//! mode the FP32 accumulator is kept. Integer modes (Turing) multiply into
//! i32 and accumulate with wrapping i32 adds (no overflow is possible for
//! 8/4-bit operands within one FEDP; accumulation across K may wrap, as on
//! hardware).

use tcsim_f16::F16;

/// Number of pipeline stages in an FEDP unit (1 multiply + 3 accumulate).
pub const FEDP_STAGES: u32 = 4;

/// Number of FEDP units per tensor core (enough for one 4×4 MACC/cycle).
pub const FEDPS_PER_TENSOR_CORE: usize = 16;

/// A four-element FP16 dot product with FP32 accumulation:
/// `a·b + acc` with the paper's adder-tree evaluation order.
pub fn fedp_f32(a: [F16; 4], b: [F16; 4], acc: f32) -> f32 {
    let af = [a[0].to_f32(), a[1].to_f32(), a[2].to_f32(), a[3].to_f32()];
    let bf = [b[0].to_f32(), b[1].to_f32(), b[2].to_f32(), b[3].to_f32()];
    fedp_f32_pre(&af, &bf, acc)
}

/// [`fedp_f32`] over multiplicands already widened to binary32. The
/// binary16 → binary32 conversion is exact, so hoisting it out of a
/// reduction loop (as [`crate::mma_reference`] does) cannot change any
/// product bit.
#[inline]
pub fn fedp_f32_pre(a: &[f32], b: &[f32], acc: f32) -> f32 {
    // Stage 1: exact products.
    let p = [a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]];
    // Stages 2–4: binary adder tree, then accumulator add.
    let s01 = p[0] + p[1];
    let s23 = p[2] + p[3];
    let s = s01 + s23;
    s + acc
}

/// One output element's whole reduction: `acc` chained through one FEDP
/// per four `k` of `a` (a row of A) and `b` (a column of B), both already
/// widened to binary32, with the accumulator rounded to binary16 after
/// every FEDP when `round_f16` (FP16-accumulate mode).
///
/// Never inlined, so that there is one compiled copy: when both operands
/// of an add are NaN, the payload that propagates follows the operand
/// order of the *instruction*, which the compiler picks per call site.
/// [`crate::mma_reference`] and the functional model both reduce through
/// this one function and so agree on every bit.
#[inline(never)]
pub fn fedp_chain_f32(a: &[f32], b: &[f32], mut acc: f32, round_f16: bool) -> f32 {
    for (qa, qb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        acc = fedp_f32_pre(qa, qb, acc);
        if round_f16 {
            acc = F16::from_f32(acc).to_f32();
        }
    }
    acc
}

/// FEDP in FP16-accumulate mode: internal arithmetic identical to
/// [`fedp_f32`], with a single final rounding to binary16.
pub fn fedp_f16(a: [F16; 4], b: [F16; 4], acc: F16) -> F16 {
    let r = fedp_f32(a, b, acc.to_f32());
    F16::from_f32(r)
}

/// Integer FEDP for the Turing 8-bit modes: `Σ aᵢ·bᵢ + acc` in i32.
/// Operand values must already be sign/zero-extended to i32.
pub fn fedp_i32(a: [i32; 4], b: [i32; 4], acc: i32) -> i32 {
    let mut s = acc;
    for i in 0..4 {
        s = s.wrapping_add(a[i].wrapping_mul(b[i]));
    }
    s
}

/// A K-element dot product evaluated as chained FEDPs (K must be a
/// multiple of 4), mixed-precision mode: the FP32 accumulator stays in
/// FP32 between FEDPs.
pub fn dot_f32(a: &[F16], b: &[F16], c: f32) -> f32 {
    assert_eq!(a.len(), b.len());
    assert!(
        a.len().is_multiple_of(4),
        "FEDP chains cover 4 elements per step"
    );
    let mut acc = c;
    for (qa, qb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        acc = fedp_f32(
            [qa[0], qa[1], qa[2], qa[3]],
            [qb[0], qb[1], qb[2], qb[3]],
            acc,
        );
    }
    acc
}

/// A K-element dot product in FP16-accumulate mode: rounded to binary16
/// after every FEDP, as the accumulation buffer holds FP16 values.
pub fn dot_f16(a: &[F16], b: &[F16], c: F16) -> F16 {
    assert_eq!(a.len(), b.len());
    assert!(a.len().is_multiple_of(4));
    let mut acc = c;
    for (qa, qb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        acc = fedp_f16(
            [qa[0], qa[1], qa[2], qa[3]],
            [qb[0], qb[1], qb[2], qb[3]],
            acc,
        );
    }
    acc
}

/// A K-element integer dot product (8-bit and 4-bit Turing modes).
pub fn dot_i32(a: &[i32], b: &[i32], c: i32) -> i32 {
    assert_eq!(a.len(), b.len());
    assert!(a.len().is_multiple_of(4));
    let mut acc = c;
    for (qa, qb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        acc = fedp_i32(
            [qa[0], qa[1], qa[2], qa[3]],
            [qb[0], qb[1], qb[2], qb[3]],
            acc,
        );
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(v: f32) -> F16 {
        F16::from_f32(v)
    }

    #[test]
    fn fedp_basic() {
        let a = [h(1.0), h(2.0), h(3.0), h(4.0)];
        let b = [h(5.0), h(6.0), h(7.0), h(8.0)];
        // 5 + 12 + 21 + 32 = 70
        assert_eq!(fedp_f32(a, b, 0.0), 70.0);
        assert_eq!(fedp_f32(a, b, 30.0), 100.0);
        assert_eq!(fedp_f16(a, b, h(30.0)).to_f32(), 100.0);
    }

    #[test]
    fn stage1_products_are_exact() {
        // Max-magnitude f16 products fit f32 exactly.
        let a = [F16::MAX; 4];
        let b = [F16::MAX; 4];
        let exact = 4.0 * (65504f64 * 65504f64);
        assert_eq!(fedp_f32(a, b, 0.0) as f64, exact);
    }

    #[test]
    fn fp16_accumulate_rounds_once_per_fedp() {
        // acc = 2048, products sum to 1.0: f32 keeps 2049, f16 rounds to 2048.
        let a = [h(1.0), F16::ZERO, F16::ZERO, F16::ZERO];
        let b = [h(1.0), F16::ZERO, F16::ZERO, F16::ZERO];
        assert_eq!(fedp_f32(a, b, 2048.0), 2049.0);
        assert_eq!(fedp_f16(a, b, h(2048.0)).to_f32(), 2048.0);
    }

    #[test]
    fn adder_tree_order_is_fixed() {
        // The tree computes (p0+p1)+(p2+p3), not sequential left-to-right.
        // Construct values where the two orders differ in f32.
        let big = 3.3e4f32; // within f16 range
        let a = [h(big), h(1.0), h(-big), h(1.0)];
        let b = [h(1.0), h(2f32.powi(-12)), h(1.0), h(2f32.powi(-12))];
        let tree = fedp_f32(a, b, 0.0);
        let p: Vec<f32> = (0..4).map(|i| a[i].to_f32() * b[i].to_f32()).collect();
        let expect = (p[0] + p[1]) + (p[2] + p[3]);
        let seq = ((p[0] + p[1]) + p[2]) + p[3];
        assert_eq!(tree, expect);
        assert_ne!(expect, seq, "orders must differ for this input");
    }

    #[test]
    fn dot_chains_fedps() {
        let a: Vec<F16> = (1..=16).map(|i| h(i as f32)).collect();
        let b: Vec<F16> = vec![h(1.0); 16];
        // Σ 1..16 = 136.
        assert_eq!(dot_f32(&a, &b, 0.0), 136.0);
        assert_eq!(dot_f16(&a, &b, F16::ZERO).to_f32(), 136.0);
    }

    #[test]
    fn integer_fedp_exact() {
        let a = [127, -128, 127, -128];
        let b = [127, 127, -128, -128];
        let expect = 127 * 127 - 128 * 127 - 127 * 128 + 128 * 128;
        assert_eq!(fedp_i32(a, b, 0), expect);
        assert_eq!(dot_i32(&a, &b, 5), expect + 5);
    }

    #[test]
    fn integer_accumulation_wraps() {
        let a = [i32::MAX, 0, 0, 0];
        let b = [1, 0, 0, 0];
        assert_eq!(fedp_i32(a, b, 1), i32::MIN);
    }

    #[test]
    #[should_panic(expected = "4 elements per step")]
    fn dot_requires_quad_lengths() {
        let a = vec![F16::ONE; 3];
        let b = vec![F16::ONE; 3];
        let _ = dot_f32(&a, &b, 0.0);
    }

    #[test]
    fn mixed_precision_keeps_f32_between_fedps() {
        // 2048 + 1 survives in f32 across FEDP boundaries but not in f16.
        let a: Vec<F16> = vec![
            h(2048.0),
            F16::ZERO,
            F16::ZERO,
            F16::ZERO,
            h(1.0),
            F16::ZERO,
            F16::ZERO,
            F16::ZERO,
        ];
        let b: Vec<F16> = vec![h(1.0); 8];
        assert_eq!(dot_f32(&a, &b, 0.0), 2049.0);
        assert_eq!(dot_f16(&a, &b, F16::ZERO).to_f32(), 2048.0);
    }
}
