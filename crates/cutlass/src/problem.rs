//! GEMM problem definitions, host-side data generation and the CPU
//! reference used for verification (the role CUTLASS's unit-test suite
//! played for the paper's GPGPU-Sim port, §V-B).

use tcsim_f16::F16;

/// Element precision of a GEMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmPrecision {
    /// FP16 A/B with FP32 accumulation and FP32 C/D (mixed precision).
    MixedF32,
    /// FP16 everything (HGEMM-with-tensor-cores).
    Fp16,
    /// FP32 everything, no tensor cores (SGEMM baseline).
    Fp32,
    /// INT8 A/B with INT32 accumulation (Turing inference mode, §III-B2).
    Int8,
}

/// One GEMM problem: `D = A×B + C` with `A: m×k`, `B: k×n`, `C/D: m×n`.
/// All matrices are row-major (the kernels handle transposed operands via
/// WMMA layout qualifiers where exercised).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GemmProblem {
    /// Rows of A and C.
    pub m: usize,
    /// Columns of B and C.
    pub n: usize,
    /// Reduction dimension.
    pub k: usize,
    /// Element types.
    pub precision: GemmPrecision,
}

impl GemmProblem {
    /// A square mixed-precision problem (the paper's evaluation shape).
    pub fn square(size: usize) -> GemmProblem {
        GemmProblem {
            m: size,
            n: size,
            k: size,
            precision: GemmPrecision::MixedF32,
        }
    }

    /// Floating-point operations performed (2·m·n·k).
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Bytes of the three input matrices plus the output.
    pub fn bytes(&self) -> u64 {
        let (ab, cd) = match self.precision {
            GemmPrecision::MixedF32 => (2, 4),
            GemmPrecision::Fp16 => (2, 2),
            GemmPrecision::Fp32 => (4, 4),
            GemmPrecision::Int8 => (1, 4),
        };
        (self.m * self.k + self.k * self.n) as u64 * ab + 2 * (self.m * self.n) as u64 * cd
    }

    /// Arithmetic intensity in FLOPs per byte.
    pub fn intensity(&self) -> f64 {
        self.flops() / self.bytes() as f64
    }
}

/// Deterministic pseudo-random operand values: small multiples of 1/8 in
/// [-2, 2), exact in binary16, so reduction error stays well-conditioned.
pub fn operand_value(seed: u32, index: usize) -> f32 {
    let mut x = (index as u32).wrapping_add(seed).wrapping_mul(2654435761);
    x ^= x >> 15;
    x = x.wrapping_mul(2246822519);
    x ^= x >> 13;
    ((x % 32) as f32 - 16.0) / 8.0
}

/// Fills a row-major f16 matrix as raw little-endian bytes.
pub fn f16_matrix_bytes(seed: u32, rows: usize, cols: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(rows * cols * 2);
    for i in 0..rows * cols {
        out.extend_from_slice(
            &F16::from_f32(operand_value(seed, i))
                .to_bits()
                .to_le_bytes(),
        );
    }
    out
}

/// Fills a row-major f32 matrix as raw little-endian bytes.
pub fn f32_matrix_bytes(seed: u32, rows: usize, cols: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(rows * cols * 4);
    for i in 0..rows * cols {
        out.extend_from_slice(&operand_value(seed, i).to_bits().to_le_bytes());
    }
    out
}

/// Deterministic signed-8-bit operand values in [-16, 16).
pub fn operand_value_i8(seed: u32, index: usize) -> i8 {
    (operand_value(seed, index) * 8.0) as i8
}

/// Fills a row-major i8 matrix as raw bytes.
pub fn i8_matrix_bytes(seed: u32, rows: usize, cols: usize) -> Vec<u8> {
    (0..rows * cols)
        .map(|i| operand_value_i8(seed, i) as u8)
        .collect()
}

/// Fills a row-major i32 matrix (small values) as raw little-endian bytes.
pub fn i32_matrix_bytes(seed: u32, rows: usize, cols: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(rows * cols * 4);
    for i in 0..rows * cols {
        out.extend_from_slice(&(operand_value_i8(seed, i) as i32).to_le_bytes());
    }
    out
}

/// The host GEMM every reference in the workspace accumulates with:
/// `d[r][c] += a[r][kk] · b[kk][c]` over row-major `a: m×k`, `b: k×n`,
/// `d: m×n`, with `d` holding the initial value (C, or zero) on entry.
///
/// Rows of `b` are streamed against one row of `d`, so the inner loop is
/// unit-stride and vectorises across columns, while each output element
/// still sees `kk = 0..k` in ascending order through a separate multiply
/// and add — bit for bit the sum an element-at-a-time loop produces.
/// Operands are taken as given: quantise them once, before the call.
///
/// # Panics
///
/// Panics if a slice's length does not match its dimensions.
pub fn host_gemm<T>(m: usize, n: usize, k: usize, a: &[T], b: &[T], d: &mut [T])
where
    T: Copy + std::ops::Mul<Output = T> + std::ops::AddAssign,
{
    assert_eq!(a.len(), m * k, "A is not {m}x{k}");
    assert_eq!(b.len(), k * n, "B is not {k}x{n}");
    assert_eq!(d.len(), m * n, "D is not {m}x{n}");
    if m * n * k == 0 {
        return;
    }
    for (a_row, d_row) in a.chunks_exact(k).zip(d.chunks_exact_mut(n)) {
        for (&av, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            for (dv, &bv) in d_row.iter_mut().zip(b_row) {
                *dv += av * bv;
            }
        }
    }
}

/// CPU reference GEMM over the generated operands: f16/f32/i8 inputs with
/// f32 or exact i32 accumulation, returning `D = A×B + C` row-major (as
/// f32 values; integer results are exactly representable for the operand
/// ranges used). Each operand matrix is generated and quantised once;
/// [`host_gemm`] does the accumulation.
pub fn reference_gemm(problem: &GemmProblem, seed_a: u32, seed_b: u32, seed_c: u32) -> Vec<f32> {
    let (m, n, k) = (problem.m, problem.n, problem.k);
    if problem.precision == GemmPrecision::Int8 {
        let matrix = |seed: u32, len: usize| -> Vec<i64> {
            (0..len)
                .map(|i| i64::from(operand_value_i8(seed, i)))
                .collect()
        };
        let mut d = matrix(seed_c, m * n);
        host_gemm(
            m,
            n,
            k,
            &matrix(seed_a, m * k),
            &matrix(seed_b, k * n),
            &mut d,
        );
        return d
            .into_iter()
            .map(|acc| {
                debug_assert!(acc.unsigned_abs() < 1 << 24, "exact in f32");
                acc as f32
            })
            .collect();
    }
    let quant = |v: f32| -> f32 {
        match problem.precision {
            GemmPrecision::Fp32 => v,
            _ => F16::from_f32(v).to_f32(),
        }
    };
    let matrix = |seed: u32, len: usize| -> Vec<f32> {
        (0..len).map(|i| quant(operand_value(seed, i))).collect()
    };
    let mut d: Vec<f32> = (0..m * n)
        .map(|i| quant_c(problem, operand_value(seed_c, i)))
        .collect();
    host_gemm(
        m,
        n,
        k,
        &matrix(seed_a, m * k),
        &matrix(seed_b, k * n),
        &mut d,
    );
    d
}

fn quant_c(problem: &GemmProblem, v: f32) -> f32 {
    match problem.precision {
        GemmPrecision::Fp16 => F16::from_f32(v).to_f32(),
        _ => v,
    }
}

/// Verifies device output against the reference within a tolerance that
/// scales with the reduction length; returns the max absolute error.
///
/// # Panics
///
/// Panics when any element exceeds the tolerance.
pub fn verify(problem: &GemmProblem, got: &[f32], reference: &[f32]) -> f32 {
    assert_eq!(got.len(), reference.len());
    // FEDP trees vs sequential reference: error grows ~ sqrt(k) ulps; in
    // FP16 output mode rounding dominates.
    let tol = match problem.precision {
        GemmPrecision::Fp16 => 0.5 + problem.k as f32 * 0.01,
        GemmPrecision::Int8 => 0.0, // integer accumulation is exact
        _ => 1e-3 + problem.k as f32 * 1e-4,
    };
    let mut max_err = 0f32;
    for (i, (&g, &r)) in got.iter().zip(reference).enumerate() {
        let err = (g - r).abs();
        assert!(
            err <= tol,
            "element {i}: got {g}, want {r} (err {err} > tol {tol})"
        );
        max_err = max_err.max(err);
    }
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_and_bytes() {
        let p = GemmProblem::square(256);
        assert_eq!(p.flops(), 2.0 * 256f64.powi(3));
        assert_eq!(p.bytes(), (2 * 256 * 256 * 2 + 2 * 256 * 256 * 4) as u64);
        assert!(p.intensity() > 10.0);
    }

    #[test]
    fn operand_values_are_f16_exact_and_bounded() {
        for i in 0..1000 {
            let v = operand_value(7, i);
            assert!((-2.0..2.0).contains(&v));
            assert_eq!(F16::from_f32(v).to_f32(), v, "exact in f16");
        }
    }

    #[test]
    fn matrix_bytes_sizes() {
        assert_eq!(f16_matrix_bytes(1, 16, 16).len(), 512);
        assert_eq!(f32_matrix_bytes(1, 16, 16).len(), 1024);
    }

    #[test]
    fn reference_matches_hand_computation() {
        let p = GemmProblem {
            m: 2,
            n: 2,
            k: 4,
            precision: GemmPrecision::MixedF32,
        };
        let d = reference_gemm(&p, 1, 2, 3);
        for r in 0..2 {
            for c in 0..2 {
                let mut acc = operand_value(3, r * 2 + c);
                for kk in 0..4 {
                    acc += operand_value(1, r * 4 + kk) * operand_value(2, kk * 2 + c);
                }
                assert!((d[r * 2 + c] - acc).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn verify_accepts_exact_and_rejects_garbage() {
        let p = GemmProblem::square(16);
        let r = reference_gemm(&p, 1, 2, 3);
        assert_eq!(verify(&p, &r, &r), 0.0);
        let mut bad = r.clone();
        bad[7] += 100.0;
        assert!(std::panic::catch_unwind(|| verify(&p, &bad, &r)).is_err());
    }
}
