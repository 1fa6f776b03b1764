//! Derived metrics computed from an event stream: per-interval IPC,
//! tensor-pipeline occupancy and the stall-reason breakdown.
//!
//! Everything here is integer-deterministic: two identical event streams
//! produce identical summaries, so summaries can ride inside
//! `LaunchStats` without weakening the sweep engine's byte-identical
//! determinism contract.

use crate::event::{CacheLevel, EventKind, StallReason, TraceEvent};
use crate::json::JsonWriter;

/// Aggregated view of one launch's event stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Events in the stream (post-ring-truncation).
    pub events: u64,
    /// Events lost to ring-buffer overwrite.
    pub dropped: u64,
    /// Cycle of the earliest event.
    pub first_cycle: u64,
    /// Cycle of the latest event.
    pub last_cycle: u64,
    /// Warp instructions issued.
    pub issues: u64,
    /// Issues per functional unit (see [`crate::TraceUnit::ALL`] order).
    pub issues_by_unit: [u64; 7],
    /// Warps retired.
    pub retires: u64,
    /// Stall occurrences per reason (see [`StallReason::ALL`] order).
    pub stall_counts: [u64; 4],
    /// Cycles lost per stall reason (sum of `until − cycle`).
    pub stall_cycles: [u64; 4],
    /// HMMA set/step starts.
    pub hmma_steps: u64,
    /// Cycles during which at least one HMMA step was in flight.
    pub hmma_busy_cycles: u64,
    /// FEDP stage advances.
    pub fedp_stages: u64,
    /// L1 hits (MSHR merges included).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits (MSHR merges included).
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM sectors transferred.
    pub dram_txns: u64,
}

impl TraceSummary {
    /// Builds the summary of an event stream (`dropped` from the tracer).
    pub fn from_events(events: &[TraceEvent], dropped: u64) -> TraceSummary {
        let mut s = TraceSummary {
            dropped,
            ..TraceSummary::default()
        };
        let mut hmma_spans: Vec<(u64, u64)> = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            s.events += 1;
            if i == 0 {
                s.first_cycle = ev.cycle;
            }
            s.first_cycle = s.first_cycle.min(ev.cycle);
            s.last_cycle = s.last_cycle.max(ev.cycle);
            match ev.kind {
                EventKind::WarpIssue { unit, .. } => {
                    s.issues += 1;
                    s.issues_by_unit[unit.index()] += 1;
                }
                EventKind::WarpRetire { .. } => s.retires += 1,
                EventKind::Stall { reason, until, .. } => {
                    s.stall_counts[reason.index()] += 1;
                    s.stall_cycles[reason.index()] += until.saturating_sub(ev.cycle);
                }
                EventKind::HmmaStep { complete, .. } => {
                    s.hmma_steps += 1;
                    hmma_spans.push((ev.cycle, complete.max(ev.cycle + 1)));
                }
                EventKind::FedpStage { .. } => s.fedp_stages += 1,
                EventKind::CacheAccess { level, hit, .. } => match (level, hit) {
                    (CacheLevel::L1, true) => s.l1_hits += 1,
                    (CacheLevel::L1, false) => s.l1_misses += 1,
                    (CacheLevel::L2, true) => s.l2_hits += 1,
                    (CacheLevel::L2, false) => s.l2_misses += 1,
                },
                EventKind::DramTxn { .. } => s.dram_txns += 1,
            }
        }
        s.hmma_busy_cycles = union_length(&mut hmma_spans);
        s
    }

    /// Cycles spanned by the stream (0 for an empty stream).
    pub fn span(&self) -> u64 {
        if self.events == 0 {
            0
        } else {
            self.last_cycle - self.first_cycle + 1
        }
    }

    /// Issues per cycle over the traced span.
    pub fn ipc(&self) -> f64 {
        let span = self.span();
        if span == 0 {
            0.0
        } else {
            self.issues as f64 / span as f64
        }
    }

    /// Fraction of the traced span with at least one HMMA step in flight
    /// — the pipeline-occupancy view of Fig 13.
    pub fn hmma_occupancy(&self) -> f64 {
        let span = self.span();
        if span == 0 {
            0.0
        } else {
            self.hmma_busy_cycles as f64 / span as f64
        }
    }

    /// Cycles lost to stalls, all reasons combined.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// `(reason name, occurrences, cycles)` rows, in `StallReason::ALL`
    /// order — the stall-reason breakdown table.
    pub fn stall_table(&self) -> Vec<(&'static str, u64, u64)> {
        StallReason::ALL
            .iter()
            .map(|r| {
                (
                    r.name(),
                    self.stall_counts[r.index()],
                    self.stall_cycles[r.index()],
                )
            })
            .collect()
    }

    /// Writes the summary into `w` as one JSON object (the `trace`
    /// member of `LaunchStats::to_json`).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("events", self.events);
        w.field_u64("dropped", self.dropped);
        w.field_u64("first_cycle", self.first_cycle);
        w.field_u64("last_cycle", self.last_cycle);
        w.field_u64("issues", self.issues);
        w.key("issues_by_unit").u64s(&self.issues_by_unit);
        w.field_u64("retires", self.retires);
        w.key("stall_counts").u64s(&self.stall_counts);
        w.key("stall_cycles").u64s(&self.stall_cycles);
        w.field_u64("hmma_steps", self.hmma_steps);
        w.field_u64("hmma_busy_cycles", self.hmma_busy_cycles);
        w.field_u64("fedp_stages", self.fedp_stages);
        w.field_u64("l1_hits", self.l1_hits);
        w.field_u64("l1_misses", self.l1_misses);
        w.field_u64("l2_hits", self.l2_hits);
        w.field_u64("l2_misses", self.l2_misses);
        w.field_u64("dram_txns", self.dram_txns);
        w.field_f64("ipc", self.ipc());
        w.field_f64("hmma_occupancy", self.hmma_occupancy());
        w.end_object();
    }
}

/// Total length of the union of half-open `(start, end)` spans.
fn union_length(spans: &mut [(u64, u64)]) -> u64 {
    spans.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in spans.iter() {
        match cur {
            None => cur = Some((s, e)),
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
                let _ = cs;
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Issue activity of one trace interval (see [`interval_ipc`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// First cycle of the interval.
    pub start: u64,
    /// Warp instructions issued inside it.
    pub issues: u64,
    /// Issues per cycle over the interval width.
    pub ipc: f64,
}

/// Buckets issue events into fixed-width cycle intervals — the
/// per-interval IPC curve used to spot ramp-up, steady state and drain
/// phases of a launch.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn interval_ipc(events: &[TraceEvent], width: u64) -> Vec<Interval> {
    assert!(width > 0, "interval width must be non-zero");
    let issues: Vec<u64> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WarpIssue { .. }))
        .map(|e| e.cycle)
        .collect();
    let Some(&max) = issues.iter().max() else {
        return Vec::new();
    };
    let buckets = (max / width + 1) as usize;
    let mut counts = vec![0u64; buckets];
    for c in issues {
        counts[(c / width) as usize] += 1;
    }
    counts
        .iter()
        .enumerate()
        .map(|(i, &n)| Interval {
            start: i as u64 * width,
            issues: n,
            ipc: n as f64 / width as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceUnit;

    fn issue(cycle: u64, unit: TraceUnit) -> TraceEvent {
        TraceEvent {
            cycle,
            sm: 0,
            kind: EventKind::WarpIssue {
                sub_core: 0,
                warp: 0,
                unit,
            },
        }
    }

    fn hmma(cycle: u64, complete: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            sm: 0,
            kind: EventKind::HmmaStep {
                sub_core: 0,
                warp: 0,
                octet: 0,
                set: 1,
                step: 0,
                complete,
            },
        }
    }

    #[test]
    fn summary_counts_by_kind() {
        let events = vec![
            issue(0, TraceUnit::Int),
            issue(5, TraceUnit::Tensor),
            TraceEvent {
                cycle: 6,
                sm: 0,
                kind: EventKind::Stall {
                    sub_core: 0,
                    warp: 0,
                    reason: StallReason::Memory,
                    until: 16,
                },
            },
            hmma(7, 17),
            TraceEvent {
                cycle: 8,
                sm: 0,
                kind: EventKind::CacheAccess {
                    level: CacheLevel::L1,
                    hit: true,
                    store: false,
                },
            },
            TraceEvent {
                cycle: 20,
                sm: 0,
                kind: EventKind::WarpRetire {
                    sub_core: 0,
                    warp: 0,
                },
            },
        ];
        let s = TraceSummary::from_events(&events, 3);
        assert_eq!(s.events, 6);
        assert_eq!(s.dropped, 3);
        assert_eq!(s.issues, 2);
        assert_eq!(s.issues_by_unit[TraceUnit::Tensor.index()], 1);
        assert_eq!(s.retires, 1);
        assert_eq!(s.stall_counts[StallReason::Memory.index()], 1);
        assert_eq!(s.stall_cycles[StallReason::Memory.index()], 10);
        assert_eq!(s.total_stall_cycles(), 10);
        assert_eq!(s.hmma_steps, 1);
        assert_eq!(s.hmma_busy_cycles, 10);
        assert_eq!(s.l1_hits, 1);
        assert_eq!((s.first_cycle, s.last_cycle), (0, 20));
        assert_eq!(s.span(), 21);
        assert!((s.ipc() - 2.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_merges_overlapping_steps() {
        // Two overlapping steps [10,20) and [15,25) plus [40,44).
        let events = vec![hmma(10, 20), hmma(15, 25), hmma(40, 44)];
        let s = TraceSummary::from_events(&events, 0);
        assert_eq!(s.hmma_busy_cycles, 15 + 4);
        // Span is 10..=40 → 31 cycles.
        assert!((s.hmma_occupancy() - 19.0 / 31.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_summary_is_default() {
        let s = TraceSummary::from_events(&[], 0);
        assert_eq!(s, TraceSummary::default());
        assert_eq!(s.span(), 0);
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.hmma_occupancy(), 0.0);
    }

    #[test]
    fn interval_ipc_buckets_issues() {
        let events = vec![
            issue(0, TraceUnit::Int),
            issue(1, TraceUnit::Int),
            issue(9, TraceUnit::Int),
            issue(25, TraceUnit::Int),
        ];
        let iv = interval_ipc(&events, 10);
        assert_eq!(iv.len(), 3);
        assert_eq!(iv[0].issues, 3);
        assert_eq!(iv[1].issues, 0);
        assert_eq!(iv[2].issues, 1);
        assert_eq!(iv[2].start, 20);
        assert!((iv[0].ipc - 0.3).abs() < 1e-12);
        assert!(interval_ipc(&[], 10).is_empty());
    }

    #[test]
    fn stall_table_rows_follow_reason_order() {
        let s = TraceSummary::from_events(
            &[TraceEvent {
                cycle: 0,
                sm: 0,
                kind: EventKind::Stall {
                    sub_core: 0,
                    warp: 0,
                    reason: StallReason::Raw,
                    until: 4,
                },
            }],
            0,
        );
        let t = s.stall_table();
        assert_eq!(t[0], ("raw", 1, 4));
        assert_eq!(t[1].0, "structural");
        assert_eq!(t[3].0, "barrier");
    }

    #[test]
    fn summary_json_is_valid() {
        let s = TraceSummary::from_events(&[issue(0, TraceUnit::Sp), hmma(1, 5)], 2);
        let mut w = JsonWriter::value();
        s.write_json(&mut w);
        let json = w.finish();
        crate::json::validate_json(&json).unwrap();
        assert!(json.starts_with("{\"events\":2,\"dropped\":2,"));
        assert!(json.contains("\"issues_by_unit\":[1,0,0,0,0,0,0],"));
        assert!(json.contains("\"hmma_steps\":1"));
    }
}
