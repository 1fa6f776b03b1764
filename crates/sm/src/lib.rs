#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Streaming-multiprocessor pipeline model: sub-cores, warp schedulers,
//! scoreboard, operand collection, execution units and the tensor-core
//! unit interface.
//!
//! Models the Volta SM of Fig 1 in the paper: four sub-cores, each with a
//! warp scheduler issuing one warp instruction per cycle, separate
//! FP32/INT/FP64/MUFU pipes, **two tensor cores**, and a shared MIO path
//! to the L1/shared-memory complex. `wmma.mma` instructions are issued to
//! the tensor-core unit after operand collection and occupy it per the
//! Fig 9 / Table I schedules (§V-A).
//!
//! # Example
//!
//! ```
//! use tcsim_sm::{Sm, SmConfig};
//!
//! let sm = Sm::new(SmConfig::volta());
//! assert!(sm.idle());
//! assert_eq!(sm.config().sub_cores, 4);
//! ```

mod config;
mod decode;
mod scoreboard;
mod sm;
mod stats;

pub use config::{SchedPolicy, SmConfig};
pub use decode::{DecodedKernel, UopTiming};
pub use scoreboard::{Hazard, Scoreboard};
pub use sm::{LaunchSpec, Sm};
pub use stats::{unit_index, SmStats, WmmaKind, WmmaSample};
