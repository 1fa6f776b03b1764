//! Chrome `trace_event` JSON exporter.
//!
//! Produces the JSON-object form of the [trace-event format] that both
//! `chrome://tracing` and Perfetto load: a `traceEvents` array of
//! complete (`"ph":"X"`) duration events plus metadata (`"ph":"M"`)
//! events naming processes and threads. Cycle numbers are written
//! directly as microsecond timestamps, so one display "µs" equals one
//! core cycle.
//!
//! Track layout — one process per SM plus one for the shared memory
//! system; inside an SM process one thread per sub-core issue slot,
//! per sub-core stall ledger, per sub-core FEDP array and per
//! tensor-core octet, so the Fig 10/11 set/step staircase renders
//! directly as nested slices:
//!
//! | pid | tid | track |
//! |---|---|---|
//! | sm | `sc` | sub-core `sc` issue slot |
//! | sm | `40 + sc` | sub-core `sc` stalls |
//! | sm | `80 + sc` | sub-core `sc` FEDP stages |
//! | sm | `90` | L1 accesses |
//! | sm | `100 + 8*sc + octet` | tensor-core octet tracks |
//! | `1_000_000` | `0` | L2 accesses |
//! | `1_000_000` | `100 + ch` | DRAM channel `ch` |
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{CacheLevel, EventKind, TraceEvent, MEM_SM};
use crate::json::JsonWriter;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The pid used for the shared memory system's pseudo-process.
pub const MEMORY_PID: u64 = 1_000_000;

/// The `(pid, tid)` track an event renders on (see the table above).
fn track(ev: &TraceEvent) -> (u64, u64) {
    let sm = ev.sm as u64;
    match ev.kind {
        EventKind::WarpIssue { sub_core, .. } | EventKind::WarpRetire { sub_core, .. } => {
            (sm, sub_core as u64)
        }
        EventKind::Stall { sub_core, .. } => (sm, 40 + sub_core as u64),
        EventKind::FedpStage { sub_core, .. } => (sm, 80 + sub_core as u64),
        EventKind::CacheAccess {
            level: CacheLevel::L1,
            ..
        } => (sm, 90),
        EventKind::HmmaStep {
            sub_core, octet, ..
        } => (sm, 100 + 8 * sub_core as u64 + octet as u64),
        EventKind::CacheAccess {
            level: CacheLevel::L2,
            ..
        } => (MEMORY_PID, 0),
        EventKind::DramTxn { channel } => (MEMORY_PID, 100 + channel as u64),
    }
}

/// The name of the thread track `kind` renders on.
fn thread_name(kind: EventKind) -> String {
    match kind {
        EventKind::WarpIssue { sub_core, .. } | EventKind::WarpRetire { sub_core, .. } => {
            format!("sc{sub_core} issue")
        }
        EventKind::Stall { sub_core, .. } => format!("sc{sub_core} stall"),
        EventKind::FedpStage { sub_core, .. } => format!("sc{sub_core} fedp"),
        EventKind::HmmaStep {
            sub_core, octet, ..
        } => format!("sc{sub_core} octet {octet}"),
        EventKind::CacheAccess { level, .. } => level.name().to_string(),
        EventKind::DramTxn { channel } => format!("dram ch{channel}"),
    }
}

fn meta_event(w: &mut JsonWriter, what: &str, pid: u64, tid: Option<u64>, name: &str) {
    w.begin_object();
    w.field_str("name", what);
    w.field_str("ph", "M");
    w.field_u64("pid", pid);
    if let Some(tid) = tid {
        w.field_u64("tid", tid);
    }
    w.key("args").begin_object();
    w.field_str("name", name);
    w.end_object();
    w.end_object();
}

fn complete_event(
    w: &mut JsonWriter,
    ev: &TraceEvent,
    name: impl fmt::Display,
    cat: &str,
    dur: u64,
    args: &[(&str, u64)],
) {
    let (pid, tid) = track(ev);
    w.begin_object();
    w.key("name").display(name);
    w.field_str("cat", cat);
    w.field_str("ph", "X");
    w.field_u64("pid", pid);
    w.field_u64("tid", tid);
    w.field_u64("ts", ev.cycle);
    w.field_u64("dur", dur.max(1));
    if !args.is_empty() {
        w.key("args").begin_object();
        for &(k, v) in args {
            w.field_u64(k, v);
        }
        w.end_object();
    }
    w.end_object();
}

/// Renders `events` as a Chrome `trace_event` JSON document.
///
/// The output is a complete JSON object (`{"traceEvents":[...]}`)
/// loadable in `chrome://tracing` and Perfetto. Event order follows the
/// input, so two identical event streams serialize byte-identically.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    // The metadata block comes first and names every track in use; the
    // ordered collections make it independent of event order. A thread is
    // named by the first event on it.
    let mut processes = BTreeSet::new();
    let mut threads: BTreeMap<(u64, u64), String> = BTreeMap::new();
    for ev in events {
        let (pid, tid) = track(ev);
        processes.insert(pid);
        threads
            .entry((pid, tid))
            .or_insert_with(|| thread_name(ev.kind));
    }

    let mut w = JsonWriter::object();
    w.key("traceEvents").begin_array();
    for pid in processes {
        let name = if pid == MEMORY_PID {
            "memory system".to_string()
        } else {
            format!("SM {pid}")
        };
        meta_event(&mut w, "process_name", pid, None, &name);
    }
    for ((pid, tid), name) in &threads {
        meta_event(&mut w, "thread_name", *pid, Some(*tid), name);
    }
    for ev in events {
        let w = &mut w;
        match ev.kind {
            EventKind::WarpIssue { warp, unit, .. } => {
                let name = format_args!("{} w{warp}", unit.name());
                complete_event(w, ev, name, "issue", 1, &[("warp", warp.into())]);
            }
            EventKind::WarpRetire { warp, .. } => {
                let name = format_args!("retire w{warp}");
                complete_event(w, ev, name, "retire", 1, &[("warp", warp.into())]);
            }
            EventKind::Stall {
                warp,
                reason,
                until,
                ..
            } => {
                let dur = until.saturating_sub(ev.cycle);
                complete_event(w, ev, reason.name(), "stall", dur, &[("warp", warp.into())]);
            }
            EventKind::HmmaStep {
                warp,
                set,
                step,
                complete,
                ..
            } => {
                let name = format_args!("set{set} step{step}");
                let args = [
                    ("warp", warp.into()),
                    ("set", set.into()),
                    ("step", step.into()),
                ];
                complete_event(
                    w,
                    ev,
                    name,
                    "hmma",
                    complete.saturating_sub(ev.cycle),
                    &args,
                );
            }
            EventKind::FedpStage {
                warp,
                set,
                step,
                stage,
                ..
            } => {
                let name = format_args!("s{set}.{step} stage{stage}");
                complete_event(w, ev, name, "fedp", 1, &[("warp", warp.into())]);
            }
            EventKind::CacheAccess { level, hit, store } => {
                let name = format_args!(
                    "{} {}{}",
                    level.name(),
                    if hit { "hit" } else { "miss" },
                    if store { " (st)" } else { "" }
                );
                let sm = if ev.sm == MEM_SM {
                    u64::MAX
                } else {
                    ev.sm.into()
                };
                complete_event(w, ev, name, "cache", 1, &[("sm", sm)]);
            }
            EventKind::DramTxn { .. } => complete_event(w, ev, "sector", "dram", 1, &[]),
        }
    }
    w.end_array();
    w.field_str("displayTimeUnit", "ms");
    w.key("otherData").begin_object();
    w.field_str("generator", "tcsim-trace");
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{StallReason, TraceUnit};
    use crate::json::validate_json;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                cycle: 10,
                sm: 0,
                kind: EventKind::WarpIssue {
                    sub_core: 0,
                    warp: 1,
                    unit: TraceUnit::Tensor,
                },
            },
            TraceEvent {
                cycle: 10,
                sm: 0,
                kind: EventKind::HmmaStep {
                    sub_core: 0,
                    warp: 1,
                    octet: 2,
                    set: 1,
                    step: 0,
                    complete: 20,
                },
            },
            TraceEvent {
                cycle: 12,
                sm: 1,
                kind: EventKind::Stall {
                    sub_core: 3,
                    warp: 4,
                    reason: StallReason::Memory,
                    until: 40,
                },
            },
            TraceEvent {
                cycle: 13,
                sm: 1,
                kind: EventKind::CacheAccess {
                    level: CacheLevel::L1,
                    hit: false,
                    store: false,
                },
            },
            TraceEvent {
                cycle: 14,
                sm: MEM_SM,
                kind: EventKind::CacheAccess {
                    level: CacheLevel::L2,
                    hit: true,
                    store: true,
                },
            },
            TraceEvent {
                cycle: 15,
                sm: MEM_SM,
                kind: EventKind::DramTxn { channel: 5 },
            },
            TraceEvent {
                cycle: 16,
                sm: 0,
                kind: EventKind::WarpRetire {
                    sub_core: 0,
                    warp: 1,
                },
            },
            TraceEvent {
                cycle: 16,
                sm: 0,
                kind: EventKind::FedpStage {
                    sub_core: 0,
                    warp: 1,
                    set: 1,
                    step: 0,
                    stage: 3,
                },
            },
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let json = chrome_trace(&sample_events());
        validate_json(&json).expect("exporter must emit parseable JSON");
    }

    #[test]
    fn tracks_and_events_present() {
        let json = chrome_trace(&sample_events());
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("process_name"));
        assert!(json.contains("SM 0"));
        assert!(json.contains("memory system"));
        assert!(json.contains("sc0 octet 2"));
        assert!(json.contains("set1 step0"));
        assert!(
            json.contains("\"name\":\"memory\""),
            "stall reason labels the slice"
        );
        assert!(json.contains("dram ch5"));
    }

    #[test]
    fn stall_duration_spans_until() {
        let json = chrome_trace(&sample_events());
        // Stall at cycle 12 until 40 → dur 28.
        assert!(json.contains("\"ts\":12,\"dur\":28"));
        // HMMA step 10 → 20.
        assert!(json.contains("\"ts\":10,\"dur\":10"));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let json = chrome_trace(&[]);
        validate_json(&json).unwrap();
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn identical_streams_serialize_identically() {
        let a = chrome_trace(&sample_events());
        let b = chrome_trace(&sample_events());
        assert_eq!(a, b);
    }
}
