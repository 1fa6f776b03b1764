//! Host-side GEMM runner: allocates device matrices, launches a kernel
//! variant on the simulated GPU, and verifies against the CPU reference.

use crate::kernels::{
    cutlass_gemm_ep, hgemm, igemm_wmma, sgemm, wmma_shared_gemm_ep, wmma_simple_gemm_ep,
    CutlassConfig, Epilogue,
};
use crate::problem::{
    f16_matrix_bytes, f32_matrix_bytes, i32_matrix_bytes, i8_matrix_bytes, reference_gemm, verify,
    GemmPrecision, GemmProblem,
};
use tcsim_f16::F16;
use tcsim_isa::Dim3;
use tcsim_sim::{Gpu, HasLaunchStats, LaunchBuilder, LaunchStats};

/// The GEMM kernel families. Each variant's kernel, launch geometry,
/// granularity and report name are known here and nowhere else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmKernel {
    /// One warp per 16×16 tile, global-memory operands.
    WmmaSimple,
    /// Four-warp CTAs with shared-memory staging.
    WmmaShared,
    /// CUTLASS-style threadblock/warp tiling.
    Cutlass(CutlassConfig),
    /// FFMA FP32 baseline (no tensor cores).
    Sgemm,
    /// HFMA2 FP16 baseline (no tensor cores).
    Hgemm,
    /// INT8 tensor-core kernel (Turing inference mode).
    IgemmWmma,
}

impl GemmKernel {
    /// The `(m, n)` output tile one CTA computes: a problem must be a
    /// multiple of it.
    pub fn granularity_mn(&self) -> (usize, usize) {
        match self {
            GemmKernel::WmmaSimple | GemmKernel::Sgemm | GemmKernel::IgemmWmma => (16, 16),
            GemmKernel::WmmaShared => (32, 32),
            GemmKernel::Hgemm => (16, 32),
            GemmKernel::Cutlass(cfg) => (cfg.cta_m, cfg.cta_n),
        }
    }

    /// Name in reports: `wmma_simple`, `wmma_shared`, `cutlass_64x64`
    /// (the CTA tile), `sgemm`, `hgemm` or `igemm_wmma`.
    pub fn name(&self) -> String {
        match self {
            GemmKernel::WmmaSimple => "wmma_simple".into(),
            GemmKernel::WmmaShared => "wmma_shared".into(),
            GemmKernel::Cutlass(cfg) => format!("cutlass_{}x{}", cfg.cta_m, cfg.cta_n),
            GemmKernel::Sgemm => "sgemm".into(),
            GemmKernel::Hgemm => "hgemm".into(),
            GemmKernel::IgemmWmma => "igemm_wmma".into(),
        }
    }

    /// A launch of this family over an `m×n×k` problem: the kernel (FP16
    /// output for `fp16_out` on the two plain WMMA kernels, `ep` fused on
    /// the three FP32-accumulate WMMA kernels), one CTA per output tile of
    /// the kernel's granularity, and the parameters `[a, b, c, d, n, k]`
    /// (device pointers, then the problem's `n` and `k`).
    ///
    /// # Panics
    ///
    /// Panics if the problem is not a multiple of the kernel's
    /// granularity (and `k` of 16), or if `ep` is asked of a SIMT or INT8
    /// kernel.
    pub fn builder(
        &self,
        fp16_out: bool,
        ep: Epilogue,
        (m, n, k): (usize, usize, usize),
        [a, b, c, d]: [u64; 4],
    ) -> LaunchBuilder {
        let (gm, gn) = self.granularity_mn();
        assert!(
            m % gm == 0 && n % gn == 0 && k % 16 == 0,
            "problem {m}x{n}x{k} not a multiple of kernel granularity {gm}x{gn}"
        );
        let (kernel, block) = match *self {
            GemmKernel::WmmaSimple => (wmma_simple_gemm_ep(fp16_out, ep), Dim3::x(32)),
            GemmKernel::WmmaShared => (wmma_shared_gemm_ep(fp16_out, ep), Dim3::x(128)),
            GemmKernel::Cutlass(cfg) => (cutlass_gemm_ep(cfg, ep), Dim3::x(cfg.threads() as u32)),
            _ if ep != Epilogue::None => panic!("{self:?} fuses no epilogue"),
            GemmKernel::Sgemm => (sgemm(), Dim3::xy(16, 16)),
            GemmKernel::Hgemm => (hgemm(), Dim3::xy(16, 16)),
            GemmKernel::IgemmWmma => (igemm_wmma(), Dim3::x(32)),
        };
        LaunchBuilder::new(kernel)
            .grid(((n / gn) as u32, (m / gm) as u32))
            .block(block)
            .param_u64(a)
            .param_u64(b)
            .param_u64(c)
            .param_u64(d)
            .param_u32(n as u32)
            .param_u32(k as u32)
    }
}

/// Result of one device GEMM: simulator statistics plus verification.
#[derive(Clone, Debug)]
pub struct GemmRun {
    /// The problem executed.
    pub problem: GemmProblem,
    /// Simulator launch statistics.
    pub stats: LaunchStats,
    /// Max |device − reference| over all output elements (present when
    /// verification ran).
    pub max_abs_err: Option<f32>,
}

impl GemmRun {
    /// Achieved TFLOPS.
    pub fn tflops(&self) -> f64 {
        self.stats.tflops(self.problem.flops())
    }
}

impl HasLaunchStats for GemmRun {
    fn launch_stats(&self) -> &LaunchStats {
        &self.stats
    }
}

/// Runs `D = A×B + C` on the simulated GPU with the chosen kernel and
/// (optionally) verifies the result against the CPU reference.
///
/// # Panics
///
/// Panics if the problem shape is not a multiple of the kernel's
/// granularity, or if verification fails.
pub fn run_gemm(gpu: &mut Gpu, problem: GemmProblem, kernel: GemmKernel, check: bool) -> GemmRun {
    let (m, n, k) = (problem.m, problem.n, problem.k);
    let fp16_out = problem.precision == GemmPrecision::Fp16;
    let int8 = problem.precision == GemmPrecision::Int8;
    match (&kernel, problem.precision) {
        (GemmKernel::Sgemm, GemmPrecision::Fp32) => {}
        (GemmKernel::Sgemm, _) => panic!("sgemm requires Fp32 precision"),
        (GemmKernel::Hgemm, GemmPrecision::Fp16) => {}
        (GemmKernel::Hgemm, _) => panic!("hgemm requires Fp16 precision"),
        (GemmKernel::Cutlass(_), GemmPrecision::MixedF32) => {}
        (GemmKernel::Cutlass(_), _) => panic!("the cutlass kernel accumulates in FP32"),
        (GemmKernel::IgemmWmma, GemmPrecision::Int8) => {
            assert!(
                !gpu.config().sm.volta_tensor,
                "the INT8 mode needs a Turing GPU (Volta tensor cores are FP16-only)"
            );
        }
        (GemmKernel::IgemmWmma, _) => panic!("igemm requires Int8 precision"),
        (_, GemmPrecision::Fp32) => panic!("wmma kernels take FP16 operands"),
        (_, GemmPrecision::Int8) => panic!("only igemm supports Int8"),
        _ => {}
    }

    // Operand setup.
    let (seed_a, seed_b, seed_c) = (0xA, 0xB, 0xC);
    let (a_bytes, b_bytes) = match problem.precision {
        GemmPrecision::Fp32 => (
            f32_matrix_bytes(seed_a, m, k),
            f32_matrix_bytes(seed_b, k, n),
        ),
        GemmPrecision::Int8 => (i8_matrix_bytes(seed_a, m, k), i8_matrix_bytes(seed_b, k, n)),
        _ => (
            f16_matrix_bytes(seed_a, m, k),
            f16_matrix_bytes(seed_b, k, n),
        ),
    };
    let c_bytes = match problem.precision {
        GemmPrecision::MixedF32 | GemmPrecision::Fp32 => f32_matrix_bytes(seed_c, m, n),
        GemmPrecision::Fp16 => f16_matrix_bytes(seed_c, m, n),
        GemmPrecision::Int8 => i32_matrix_bytes(seed_c, m, n),
    };
    let d_elem = if fp16_out { 2 } else { 4 };

    let pa = gpu.alloc(a_bytes.len() as u64);
    let pb = gpu.alloc(b_bytes.len() as u64);
    let pc = gpu.alloc(c_bytes.len() as u64);
    let pd = gpu.alloc((m * n * d_elem) as u64);
    gpu.memcpy_h2d(pa, &a_bytes);
    gpu.memcpy_h2d(pb, &b_bytes);
    gpu.memcpy_h2d(pc, &c_bytes);

    let stats = kernel
        .builder(fp16_out, Epilogue::None, (m, n, k), [pa, pb, pc, pd])
        .launch(gpu);

    let max_abs_err = if check {
        let reference = reference_gemm(&problem, seed_a, seed_b, seed_c);
        let raw = gpu.memcpy_d2h(pd, m * n * d_elem);
        let got: Vec<f32> = if fp16_out {
            raw.chunks_exact(2)
                .map(|b| F16::from_bits(u16::from_le_bytes([b[0], b[1]])).to_f32())
                .collect()
        } else if int8 {
            raw.chunks_exact(4)
                .map(|b| i32::from_le_bytes([b[0], b[1], b[2], b[3]]) as f32)
                .collect()
        } else {
            raw.chunks_exact(4)
                .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
                .collect()
        };
        Some(verify(&problem, &got, &reference))
    } else {
        None
    };

    GemmRun {
        problem,
        stats,
        max_abs_err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_sim::GpuConfig;

    #[test]
    fn wmma_simple_gemm_verifies_32() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let run = run_gemm(
            &mut gpu,
            GemmProblem::square(32),
            GemmKernel::WmmaSimple,
            true,
        );
        assert!(run.max_abs_err.unwrap() < 0.01);
        assert!(run.stats.sm.issued_by_unit[4] > 0, "tensor unit used");
    }

    #[test]
    fn wmma_shared_gemm_verifies_64() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let run = run_gemm(
            &mut gpu,
            GemmProblem::square(64),
            GemmKernel::WmmaShared,
            true,
        );
        assert!(run.max_abs_err.unwrap() < 0.01);
        assert!(run.stats.sm.barriers > 0, "shared staging uses barriers");
    }

    #[test]
    fn cutlass_gemm_verifies_64() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let run = run_gemm(
            &mut gpu,
            GemmProblem::square(64),
            GemmKernel::Cutlass(CutlassConfig::default_64x64()),
            true,
        );
        assert!(run.max_abs_err.unwrap() < 0.01);
    }

    #[test]
    fn sgemm_baseline_verifies() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let p = GemmProblem {
            precision: GemmPrecision::Fp32,
            ..GemmProblem::square(32)
        };
        let run = run_gemm(&mut gpu, p, GemmKernel::Sgemm, true);
        assert!(run.max_abs_err.unwrap() < 0.01);
        assert_eq!(run.stats.sm.issued_by_unit[4], 0, "no tensor instructions");
    }

    #[test]
    fn hgemm_baseline_verifies() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let p = GemmProblem {
            precision: GemmPrecision::Fp16,
            ..GemmProblem::square(32)
        };
        let run = run_gemm(&mut gpu, p, GemmKernel::Hgemm, true);
        assert!(run.max_abs_err.unwrap() < 1.0);
    }

    #[test]
    fn fp16_wmma_output_verifies() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let p = GemmProblem {
            precision: GemmPrecision::Fp16,
            ..GemmProblem::square(32)
        };
        let run = run_gemm(&mut gpu, p, GemmKernel::WmmaSimple, true);
        assert!(run.max_abs_err.is_some());
    }

    #[test]
    fn rectangular_problem_runs() {
        let mut gpu = Gpu::new(GpuConfig::mini());
        let p = GemmProblem {
            m: 32,
            n: 64,
            k: 48,
            precision: GemmPrecision::MixedF32,
        };
        let run = run_gemm(&mut gpu, p, GemmKernel::WmmaSimple, true);
        assert!(run.max_abs_err.unwrap() < 0.01);
    }

    #[test]
    fn fused_bias_relu_epilogues_verify() {
        // relu(A×B + bias) in one launch, for all three WMMA kernels: the
        // `c` parameter carries a length-n bias vector instead of an m×n
        // matrix, broadcast over rows by the stride-0 C-fragment load.
        use crate::problem::operand_value;

        let (m, n, k) = (64usize, 64usize, 32usize);
        let (seed_a, seed_b, seed_bias) = (0xA, 0xB, 0xC);
        let reference: Vec<f32> = {
            let mut d = vec![0f32; m * n];
            for r in 0..m {
                for c in 0..n {
                    let mut acc = operand_value(seed_bias, c);
                    for i in 0..k {
                        acc += operand_value(seed_a, r * k + i) * operand_value(seed_b, i * n + c);
                    }
                    d[r * n + c] = acc.max(0.0);
                }
            }
            d
        };
        for kernel in [
            GemmKernel::WmmaSimple,
            GemmKernel::WmmaShared,
            GemmKernel::Cutlass(CutlassConfig::default_64x64()),
        ] {
            let name = kernel.name();
            let mut gpu = Gpu::new(GpuConfig::mini());
            let pa = gpu.alloc((m * k * 2) as u64);
            let pb = gpu.alloc((k * n * 2) as u64);
            let pbias = gpu.alloc((n * 4) as u64);
            let pd = gpu.alloc((m * n * 4) as u64);
            gpu.memcpy_h2d(pa, &f16_matrix_bytes(seed_a, m, k));
            gpu.memcpy_h2d(pb, &f16_matrix_bytes(seed_b, k, n));
            let bias: Vec<u8> = (0..n)
                .flat_map(|j| operand_value(seed_bias, j).to_le_bytes())
                .collect();
            gpu.memcpy_h2d(pbias, &bias);
            kernel
                .builder(false, Epilogue::BiasRelu, (m, n, k), [pa, pb, pbias, pd])
                .launch(&mut gpu);
            let raw = gpu.memcpy_d2h(pd, m * n * 4);
            let tol = 1e-3 + k as f32 * 1e-4;
            for (i, chunk) in raw.chunks_exact(4).enumerate() {
                let got =
                    f32::from_bits(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
                assert!(
                    (got - reference[i]).abs() <= tol,
                    "{name}: elem {i}: got {got}, want {}",
                    reference[i]
                );
                assert!(got >= 0.0, "{name}: relu output must be non-negative");
            }
        }
    }

    #[test]
    fn tensor_kernel_beats_sgemm_in_cycles() {
        // The headline claim (Fig 17): tensor cores give a large speedup
        // over the FFMA SGEMM baseline at the same problem size.
        let mut gpu = Gpu::new(GpuConfig::mini());
        let tc = run_gemm(
            &mut gpu,
            GemmProblem::square(64),
            GemmKernel::WmmaShared,
            false,
        );
        let p32 = GemmProblem {
            precision: GemmPrecision::Fp32,
            ..GemmProblem::square(64)
        };
        let base = run_gemm(&mut gpu, p32, GemmKernel::Sgemm, false);
        assert!(
            tc.stats.cycles * 2 < base.stats.cycles,
            "tensor {} vs sgemm {} cycles",
            tc.stats.cycles,
            base.stats.cycles
        );
    }
}
