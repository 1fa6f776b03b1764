#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Cycle-level trace & profiling subsystem for the tensor-core GPU
//! simulator.
//!
//! The paper validates its timing model by looking at per-cycle behavior
//! — the HMMA set/step issue cadence (Fig 10/11), FEDP pipeline
//! occupancy (Fig 13) and IPC against hardware (Fig 14b). This crate is
//! the observability layer that makes those timelines visible in the
//! rebuilt simulator:
//!
//! * [`TraceEvent`]/[`EventKind`] — typed, cycle-stamped events for warp
//!   issue/retire, HMMA set/step starts, FEDP stage advances, scoreboard
//!   stalls (with [`StallReason`] attribution), cache hits/misses and
//!   DRAM transactions;
//! * [`Tracer`] — the sink trait the simulator threads through its hot
//!   loops, with [`NullTracer`] (zero-cost when disabled) and
//!   [`RingTracer`] (bounded, allocation-free after warmup);
//! * [`chrome_trace`] — Chrome `trace_event` JSON export, one track per
//!   SM sub-core and tensor-core octet, loadable in `chrome://tracing`
//!   and Perfetto;
//! * [`hmma_step_timeline`] — a plain-text Fig 10-style step cadence;
//! * [`TraceSummary`]/[`interval_ipc`] — derived metrics: per-interval
//!   IPC, pipeline occupancy and the stall-reason breakdown;
//! * [`json`] — the workspace's one JSON codec: the in-place
//!   [`json::JsonWriter`] every exporter, report and wire line is written
//!   with, and the [`json::parse`] tree (raw number text, key order
//!   preserved) everything is read back with;
//! * [`hash`] — the FNV-1a/128 content hash behind serve cache keys,
//!   infer cost keys and the golden digests.
//!
//! This is a leaf crate with no dependencies, so every simulator layer
//! (`tcsim-mem`, `tcsim-sm`, `tcsim-core`, `tcsim-sim`, `tcsim-bench`)
//! can emit events, and every crate above it can write, read and hash
//! JSON, without dependency cycles.
//!
//! # Example
//!
//! ```
//! use tcsim_trace::{
//!     chrome_trace, emit, EventKind, RingTracer, TraceEvent, Tracer, TraceUnit, TraceSummary,
//! };
//!
//! let mut t = RingTracer::with_capacity(1024);
//! emit(&mut t, || TraceEvent {
//!     cycle: 10,
//!     sm: 0,
//!     kind: EventKind::WarpIssue { sub_core: 0, warp: 2, unit: TraceUnit::Tensor },
//! });
//! let events = t.snapshot();
//! let summary = TraceSummary::from_events(&events, t.dropped());
//! assert_eq!(summary.issues, 1);
//! assert!(chrome_trace(&events).contains("tensor w2"));
//! ```

mod chrome;
mod event;
pub mod hash;
pub mod json;
mod metrics;
mod timeline;
mod tracer;

pub use chrome::{chrome_trace, MEMORY_PID};
pub use event::{CacheLevel, EventKind, StallReason, TraceEvent, TraceUnit, MEM_SM};
/// Kept only for the benchmark crate (`tcsim-perf`), which imports it from
/// here; everything else uses [`json::validate_json`].
pub use json::validate_json;
pub use metrics::{interval_ipc, Interval, TraceSummary};
pub use timeline::hmma_step_timeline;
pub use tracer::{emit, NullTracer, RingTracer, Tracer, DEFAULT_RING_CAPACITY};
