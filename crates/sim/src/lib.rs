#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Full-GPU cycle-level simulator: CTA scheduling across SMs, shared
//! L2/DRAM, kernel launch, statistics and GPU configurations.
//!
//! The top level corresponding to GPGPU-Sim in the paper (§V): kernels
//! expressed in the `tcsim-isa` PTX subset run across many SMs with the
//! tensor-core model of `tcsim-core` attached, producing the cycle and
//! IPC numbers compared against hardware in Fig 14.
//!
//! # Example
//!
//! ```
//! use tcsim_sim::{Gpu, GpuConfig};
//!
//! let gpu = Gpu::new(GpuConfig::titan_v());
//! assert_eq!(gpu.config().num_sms, 80);
//! assert!((gpu.config().tensor_peak_tflops() - 125.0).abs() < 1.0);
//! ```

mod config;
mod gpu;
mod launch;
mod options;
mod stats;
mod sweep;

pub use config::GpuConfig;
pub use gpu::Gpu;
pub use launch::{LaunchBuilder, LaunchError};
pub use options::SimOptions;
pub use stats::{pearson, Distribution, LaunchStats};
pub use sweep::{HasLaunchStats, Sweep, SweepOutcome, SweepStats};
/// Kept only for the benchmark crate (`tcsim-perf`), which imports it from
/// here; everything else uses [`tcsim_trace::json::JsonWriter`].
pub use tcsim_trace::json::JsonWriter;
pub use tcsim_verify::{Diagnostic, LaunchGeometry, Severity};
