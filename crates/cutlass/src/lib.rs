#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! CUTLASS-like tiled GEMM kernel library targeting the simulated WMMA
//! instructions.
//!
//! The paper enabled NVIDIA's CUTLASS template library to run on
//! GPGPU-Sim and validated the tensor-core model with CUTLASS-generated
//! kernels (§V-B). This crate plays the same role for the Rust
//! reproduction: parameterized threadblock/warp-tiled GEMM kernels built
//! on the `wmma.{load,mma,store}` instructions, FFMA/HFMA2 baselines for
//! the tensor-core speedup comparisons of Fig 17, the microbenchmark
//! kernels of §III, and a host-side runner that launches and verifies
//! everything against a CPU reference.
//!
//! [`GemmKernel`] is the one table of GEMM families: each family's
//! kernel, grid, block, granularity and report name. [`run_gemm`],
//! tcsim-nn's lowering and the benches all launch a GEMM through
//! [`GemmKernel::builder`].

mod host;
mod kernels;
pub mod microbench;
mod problem;

pub use host::{run_gemm, GemmKernel, GemmRun};
pub use kernels::{
    cutlass_gemm, cutlass_gemm_ep, hgemm, igemm_wmma, sgemm, wmma_shared_gemm, wmma_shared_gemm_ep,
    wmma_simple_gemm, wmma_simple_gemm_ep, CutlassConfig, Epilogue,
};
pub use problem::{
    f16_matrix_bytes, f32_matrix_bytes, host_gemm, i32_matrix_bytes, i8_matrix_bytes,
    operand_value, operand_value_i8, reference_gemm, verify, GemmPrecision, GemmProblem,
};
