//! tcsim-serve: a persistent simulation job server.
//!
//! Reproduction context: "Modeling Deep Learning Accelerator Enabled
//! GPUs" (ISPASS 2019). Conformance campaigns and figure sweeps
//! re-simulate the same (kernel, config, input) points over and over;
//! because the simulator is deterministic (fresh [`tcsim_sim::Gpu`] per
//! job, byte-identical serial/parallel results), those points are
//! *content-addressable*. This crate turns that property into a
//! long-lived server:
//!
//! * [`job`] — the job descriptor, its FNV-1a/128 cache key over
//!   canonical content, and the execution path shared by the serial and
//!   server-side runners;
//! * [`cache`] — the in-memory + on-disk persistent result cache;
//! * [`proto`] — the line-delimited JSON TCP protocol (requests,
//!   streamed progress/completion events, counters);
//! * [`server`] — admission control, per-connection quotas, in-flight
//!   coalescing, and the dispatcher that shards misses across the
//!   [`tcsim_sim::Sweep`] worker pool;
//! * [`client`] — a blocking client used by the load generator, the CI
//!   smoke, and the end-to-end determinism gate.
//!
//! JSON comes from [`tcsim_trace::json`]: the wire lines are written with
//! its `JsonWriter`, and read back with its `parse`, whose tree keeps raw
//! number text and key order, so cached stats survive the wire verbatim.
//! Cache keys and output digests are [`tcsim_trace::hash`]'s FNV-1a/128.
//!
//! Everything is `std`-only, in keeping with the workspace rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod job;
pub mod proto;
pub mod server;

pub use cache::{CacheEntry, ResultCache};
pub use client::Client;
pub use job::{ConfigId, InputSpec, JobOutcome, JobSpec};
pub use proto::{Event, Request, ServerStats};
pub use server::{ServeOptions, Server};

/// Kept only for the benchmark crate (`tcsim-perf`), which imports it from
/// here; everything else uses [`tcsim_trace::hash`].
pub use tcsim_trace::hash;
/// Kept only for the benchmark crate (`tcsim-perf`), which imports it from
/// here; everything else uses [`tcsim_trace::json`].
pub use tcsim_trace::json;
