//! The host reference's GEMMs against the element-at-a-time loops they
//! replaced, bit for bit.
//!
//! `legacy_ref_gemm` and `legacy_linear` below are those loops, kept
//! verbatim as the reference: one output element at a time, `k` ascending,
//! both operands rounded through f16 inside the innermost loop
//! (`legacy_linear`: once per tensor, as `run_layer` did). Operands are
//! raw random `f32` bit patterns — subnormals, NaNs, infinities and values
//! that overflow f16 included — and rounding-sensitive mid-range values
//! with specials sprinkled in. Every comparison is on `to_bits`, with any
//! NaN equal to any NaN (which payload survives an add of two NaNs depends
//! on operand order the compiler is free to choose).

use tcsim_check::rng::XorShift64Star as Rng;
use tcsim_f16::F16;
use tcsim_nn::reference::{ref_gemm, run_layer};
use tcsim_nn::{Layer, Linear, Tensor};

/// A dimension in `1..=48`: ragged against the 16-wide tiles and against
/// every vector width.
fn dim(rng: &mut Rng) -> usize {
    1 + rng.below(48) as usize
}

/// `raw`: any bit pattern. Otherwise a value in [-4, 4) with a full
/// 24-bit significand (not f16-exact, so both the quantisation and the
/// order of the f32 adds show), one in sixteen replaced by a special.
fn value(rng: &mut Rng, raw: bool) -> f32 {
    const SPECIALS: [f32; 8] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        65520.0, // rounds to +inf in f16
        -1.0e30, // far beyond f16
        1.0e-40, // f32 subnormal
        6.0e-8,  // f16 subnormal
    ];
    if raw {
        rng.next_f32_bits()
    } else if rng.below(16) == 0 {
        SPECIALS[rng.below(8) as usize]
    } else {
        (rng.next_u32() >> 8) as f32 / (1 << 21) as f32 - 4.0
    }
}

fn matrix(rng: &mut Rng, len: usize, raw: bool) -> Vec<f32> {
    (0..len).map(|_| value(rng, raw)).collect()
}

fn legacy_ref_gemm(
    m: usize,
    n: usize,
    k: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
    bias: Option<&[f32]>,
) -> Vec<f32> {
    let q = |v: f32| F16::from_f32(v).to_f32();
    let mut out = vec![0f32; m * n];
    for r in 0..m {
        for c in 0..n {
            let mut acc = 0f32;
            for i in 0..k {
                acc += q(a(r, i)) * q(b(i, c));
            }
            out[r * n + c] = acc + bias.map_or(0.0, |bv| bv[c]);
        }
    }
    out
}

fn legacy_linear(l: &Linear, input: &Tensor) -> Vec<f32> {
    let batch = input.shape()[0];
    let x = input.quantize_f16();
    let wt = l.weight.quantize_f16();
    let mut out = vec![0f32; batch * l.out_f];
    for b in 0..batch {
        for o in 0..l.out_f {
            let mut acc = 0f32;
            for i in 0..l.in_f {
                acc += x.data()[b * l.in_f + i] * wt.data()[i * l.out_f + o];
            }
            out[b * l.out_f + o] = acc;
        }
    }
    out
}

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} is {g:e} ({:#010x}), the element-at-a-time loop gives {w:e} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

#[test]
fn ref_gemm_matches_the_element_at_a_time_loop() {
    let mut rng = Rng::new(0x2545_F491_4F6C_DD1D);
    for case in 0..120 {
        let (m, n, k) = (dim(&mut rng), dim(&mut rng), dim(&mut rng));
        let raw = case % 3 == 0;
        let a = matrix(&mut rng, m * k, raw);
        let b = matrix(&mut rng, k * n, raw);
        let bias = matrix(&mut rng, n, raw);
        for bias in [None, Some(bias.as_slice())] {
            let at = |r: usize, c: usize| a[r * k + c];
            // Every other case reads B transposed, as the attention
            // score GEMM does.
            let bt = |r: usize, c: usize| {
                if case % 2 == 0 {
                    b[r * n + c]
                } else {
                    b[c * k + r]
                }
            };
            assert_same_bits(
                &ref_gemm(m, n, k, at, bt, bias),
                &legacy_ref_gemm(m, n, k, at, bt, bias),
                &format!("case {case}: {m}x{n}x{k} raw={raw} bias={}", bias.is_some()),
            );
        }
    }
}

#[test]
fn linear_layer_matches_the_element_at_a_time_loop() {
    let mut rng = Rng::new(0x1234_5678_9ABC_DEF1);
    for case in 0..60 {
        let (batch, in_f, out_f) = (dim(&mut rng), dim(&mut rng), dim(&mut rng));
        let raw = case % 3 == 0;
        let l = Linear {
            in_f,
            out_f,
            weight: Tensor::new(vec![in_f, out_f], matrix(&mut rng, in_f * out_f, raw)),
        };
        let x = Tensor::new(vec![batch, in_f], matrix(&mut rng, batch * in_f, raw));
        let want = legacy_linear(&l, &x);
        let got = run_layer(&Layer::Linear(l), &x);
        assert_eq!(got.shape(), &[batch, out_f]);
        assert_same_bits(
            got.data(),
            &want,
            &format!("case {case}: linear {batch}x{out_f}x{in_f} raw={raw}"),
        );
    }
}
