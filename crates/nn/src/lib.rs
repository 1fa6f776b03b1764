//! DNN inference workloads on the simulated WMMA stack.
//!
//! This crate turns small neural networks into sequences of kernel
//! launches on the `tcsim` GPU model, the way cuDNN-era frameworks drive
//! real tensor cores (paper §I, §II-B):
//!
//! * a typed layer IR ([`Layer`]: conv2d, linear, bias, ReLU, max-pool,
//!   flatten, plus transformer layers — softmax, layernorm, GELU,
//!   multi-head [`Attention`], [`Mlp`]) with a shape-checked sequential
//!   [`GraphBuilder`];
//! * a lowering pass ([`mod@lower`]) that maps `Conv2d` to implicit GEMM via
//!   host-side im2col and `Linear` to a batched GEMM, greedily fusing
//!   trailing bias/ReLU layers into the GEMM kernels' [`Epilogue`] — a
//!   `conv → bias → relu` triple is ONE launch — and picks each GEMM's
//!   kernel among the three WMMA `tcsim_cutlass::GemmKernel` families in
//!   [`GEMM_TILES`] ([`select`], or [`select_modeled`] by the analytical
//!   roofline);
//! * dedicated elementwise kernels ([`kernels`]) for layers that don't
//!   fuse;
//! * a host-side f32 reference executor ([`mod@reference`]) mirroring the
//!   device's numeric boundary (f16 operand quantization, f32
//!   accumulation), and an executor with two schedules ([`run_chained`] /
//!   [`run_parallel`]) over one step runner, which differentially checks
//!   every device launch against it. Every launch goes through one GEMM
//!   launcher or one f32 launcher, each optionally in a trace window of
//!   its own;
//! * canned networks ([`models`]) with deterministic f16-exact weights.
//!
//! # Example
//!
//! ```
//! use tcsim_nn::{models, run_chained};
//! use tcsim_sim::GpuConfig;
//!
//! let net = models::tiny(1);
//! let input = models::input_for(&net, 1);
//! let report = run_chained(&net, &input, GpuConfig::mini(), false);
//! report.assert_within_tolerance();
//! assert!(report.total_cycles() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod block;
pub mod executor;
pub mod graph;
pub mod kernels;
pub(crate) mod launch;
pub mod layer;
pub mod lower;
pub mod models;
pub mod reference;
pub mod tensor;

pub use executor::{run_chained, run_parallel, InferenceReport, LayerReport};
pub use graph::{Graph, GraphBuilder, GraphError};
pub use layer::{Attention, Bias, Conv2d, Layer, LayerNorm, Linear, MaxPool, Mlp};
pub use lower::{
    candidates, gemm_tolerance, layernorm_tolerance, lower, lower_modeled, pad16, plan,
    rank_modeled, select, select_modeled, softmax_tolerance, GemmOp, GemmSource, LoweredLayer,
    LoweredOp, GEMM_TILES,
};
pub use tcsim_cutlass::Epilogue;
pub use tensor::Tensor;
