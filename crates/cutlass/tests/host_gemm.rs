//! The host reference GEMM against the element-at-a-time loops it
//! replaced, bit for bit.
//!
//! `legacy_*` below are those loops, kept verbatim as the reference: one
//! output element at a time, `kk` ascending, operands regenerated and
//! re-quantised per multiply. Every comparison is on `to_bits`, with any
//! NaN equal to any NaN (which payload survives an add of two NaNs depends
//! on operand order the compiler is free to choose).

use tcsim_check::rng::XorShift64Star as Rng;
use tcsim_cutlass::{
    host_gemm, operand_value, operand_value_i8, reference_gemm, GemmPrecision, GemmProblem,
};
use tcsim_f16::F16;

const PRECISIONS: [GemmPrecision; 4] = [
    GemmPrecision::MixedF32,
    GemmPrecision::Fp16,
    GemmPrecision::Fp32,
    GemmPrecision::Int8,
];

/// A dimension in `1..=48`: ragged against the 16-wide tiles and against
/// every vector width.
fn dim(rng: &mut Rng) -> usize {
    1 + rng.below(48) as usize
}

/// `raw`: any bit pattern — subnormals, infinities, NaNs and values whose
/// products overflow included. Otherwise a value in [-4, 4) with a full
/// 24-bit significand, so the order of the adds shows.
fn matrix(rng: &mut Rng, len: usize, raw: bool) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if raw {
                rng.next_f32_bits()
            } else {
                (rng.next_u32() >> 8) as f32 / (1 << 21) as f32 - 4.0
            }
        })
        .collect()
}

/// `D = A×B + D`, one output element at a time, `kk` ascending.
fn legacy_gemm<T>(m: usize, n: usize, k: usize, a: &[T], b: &[T], d: &mut [T])
where
    T: Copy + std::ops::Mul<Output = T> + std::ops::AddAssign,
{
    for r in 0..m {
        for c in 0..n {
            let mut acc = d[r * n + c];
            for kk in 0..k {
                acc += a[r * k + kk] * b[kk * n + c];
            }
            d[r * n + c] = acc;
        }
    }
}

fn legacy_reference_gemm(problem: &GemmProblem, seed_a: u32, seed_b: u32, seed_c: u32) -> Vec<f32> {
    let (m, n, k) = (problem.m, problem.n, problem.k);
    if problem.precision == GemmPrecision::Int8 {
        let mut d = vec![0f32; m * n];
        for r in 0..m {
            for c in 0..n {
                let mut acc = operand_value_i8(seed_c, r * n + c) as i64;
                for kk in 0..k {
                    let a = operand_value_i8(seed_a, r * k + kk) as i64;
                    let b = operand_value_i8(seed_b, kk * n + c) as i64;
                    acc += a * b;
                }
                d[r * n + c] = acc as f32;
            }
        }
        return d;
    }
    let quant = |v: f32| -> f32 {
        match problem.precision {
            GemmPrecision::Fp32 => v,
            _ => F16::from_f32(v).to_f32(),
        }
    };
    let quant_c = |v: f32| -> f32 {
        match problem.precision {
            GemmPrecision::Fp16 => F16::from_f32(v).to_f32(),
            _ => v,
        }
    };
    let mut d = vec![0f32; m * n];
    for r in 0..m {
        for c in 0..n {
            let mut acc = quant_c(operand_value(seed_c, r * n + c));
            for kk in 0..k {
                let a = quant(operand_value(seed_a, r * k + kk));
                let b = quant(operand_value(seed_b, kk * n + c));
                acc += a * b;
            }
            d[r * n + c] = acc;
        }
    }
    d
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
fn reference_gemm_matches_the_element_at_a_time_loop() {
    let mut rng = Rng::new(0x9E37_79B9_7F4A_7C15);
    for case in 0..40 {
        let (m, n, k) = (dim(&mut rng), dim(&mut rng), dim(&mut rng));
        let seeds = [rng.next_u32(), rng.next_u32(), rng.next_u32()];
        for precision in PRECISIONS {
            let p = GemmProblem { m, n, k, precision };
            assert_same_bits(
                &reference_gemm(&p, seeds[0], seeds[1], seeds[2]),
                &legacy_reference_gemm(&p, seeds[0], seeds[1], seeds[2]),
                &format!("case {case}: {m}x{n}x{k} {precision:?}"),
            );
        }
    }
}

#[test]
fn host_gemm_matches_the_element_at_a_time_loop_on_raw_bits() {
    let mut rng = Rng::new(0xD1B5_4A32_D192_ED03);
    for case in 0..120 {
        let (m, n, k) = (dim(&mut rng), dim(&mut rng), dim(&mut rng));
        let raw = case % 3 == 0;
        let (a, b) = (matrix(&mut rng, m * k, raw), matrix(&mut rng, k * n, raw));
        // With a C operand and from zero.
        for c in [matrix(&mut rng, m * n, raw), vec![0f32; m * n]] {
            let (mut got, mut want) = (c.clone(), c);
            host_gemm(m, n, k, &a, &b, &mut got);
            legacy_gemm(m, n, k, &a, &b, &mut want);
            assert_same_bits(&got, &want, &format!("case {case}: {m}x{n}x{k} raw={raw}"));
        }
    }
}

#[test]
fn host_gemm_is_exact_over_integers_and_keeps_d_on_an_empty_reduction() {
    let mut rng = Rng::new(0x0123_4567_89AB_CDEF);
    for _ in 0..20 {
        let (m, n, k) = (dim(&mut rng), dim(&mut rng), dim(&mut rng));
        let mut ints =
            |len: usize| -> Vec<i64> { (0..len).map(|_| rng.range_i64(-127, 128)).collect() };
        let (a, b, c) = (ints(m * k), ints(k * n), ints(m * n));
        let (mut got, mut want) = (c.clone(), c);
        host_gemm(m, n, k, &a, &b, &mut got);
        legacy_gemm(m, n, k, &a, &b, &mut want);
        assert_eq!(got, want, "{m}x{n}x{k}");
    }
    let mut d = [1.5f32, -2.0];
    host_gemm(1, 2, 0, &[], &[], &mut d);
    assert_eq!(d, [1.5, -2.0]);
}
