//! tcsim-perf: the repo benchmark.
//!
//! Five workloads measured from outside the program under test — every
//! layer is timed through its public functions — with host times scaled
//! by an interleaved calibration loop so they repeat on a noisy box. See
//! `README.md` in this crate for the metrics, their bounds and why each
//! workload exists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod case;
pub mod compare;
pub mod probes;
pub mod replay;
pub mod report;
pub mod runner;
pub mod serverun;
pub mod servewl;
pub mod simwl;
pub mod span;
pub mod stats;
pub mod tracerun;
