#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Static analytical performance model for the simulated tensor-core GPU.
//!
//! Where `tcsim-sim` answers "how many cycles does this launch take" by
//! simulating every warp, this crate answers the same question in
//! microseconds from the kernel IR alone:
//!
//! 1. [`walk`] — a constant-propagating **cost walk** over one
//!    representative warp's straight-line trace: per-unit instruction
//!    mix, issue-cycle totals against the [`tcsim_sm::DecodedKernel`]
//!    timing tables, a dependence-chain critical path, and memory
//!    traffic (global sectors, MIO transactions).
//! 2. [`mod@estimate`] — a **roofline composition** of the walk: occupancy
//!    from register/shared usage (`tcsim_verify::perf::occupancy`, which
//!    counts with the simulator's admission rule), wave count, and the
//!    max of issue, per-unit throughput, MIO, DRAM and latency bounds for
//!    a whole [`tcsim_sim::GpuConfig`].
//! 3. [`gemm`] — a **closed-form roofline for tiled WMMA GEMM** used to
//!    rank CTA-tile candidates (tcsim-nn's three WMMA `GemmKernel`
//!    families) without simulating them.
//!
//! The `tcsim-model` binary in `tcsim-bench` sweeps this estimator
//! against the cycle-level simulator over the committed fuzz corpus and
//! the fig17 GEMM families, reporting estimator-vs-sim correlation the
//! way the paper reports model-vs-silicon IPC correlation (§VI).

pub mod estimate;
pub mod gemm;
pub mod walk;

pub use estimate::{estimate, mem_latency, Estimate};
pub use gemm::{gemm_roofline, GemmEstimate, TilePlan};
pub use walk::{walk_kernel, WalkSummary};
