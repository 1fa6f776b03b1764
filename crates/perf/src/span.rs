//! The benchmark's own span recorder: `{name, start_ns, end_ns, parent,
//! op}` kept in memory and written out when the run ends. A span's self
//! time is its duration minus the part of that interval its children
//! cover. Spans are recorded from outside the program under test, around
//! the calls into each layer's public functions.

use std::time::Instant;
use tcsim_sim::JsonWriter;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.launch:SGEMM 128`.
    pub name: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation identifier shared by every span of one launch or job.
    pub op: u64,
}

/// In-memory span store with a stack of open spans.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `t` on the recorder's clock (0 for instants before its creation).
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Starts a new operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an interval timed elsewhere (e.g. one of several jobs in
    /// flight at once) under the innermost open span.
    pub fn record(&mut self, name: impl Into<String>, start_ns: u64, end_ns: u64, op: u64) {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op,
        });
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`Recorder::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// The spans as a JSON array (one object per span, self time added).
    pub fn to_json(&self) -> String {
        let selfs = self.self_times_ns();
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(&selfs)
            .map(|(s, &self_ns)| {
                let mut w = JsonWriter::object();
                w.field_str("name", &s.name);
                w.field_u64("start_ns", s.start_ns);
                w.field_u64("end_ns", s.end_ns);
                match s.parent {
                    Some(p) => w.field_u64("parent", p as u64),
                    None => w.raw_field("parent", "null"),
                }
                w.field_u64("op", s.op);
                w.field_u64("self_ns", self_ns);
                w.finish()
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

/// Self time of every span: duration minus the length of the union of its
/// children's intervals (clipped to the span, so children that overlap
/// one another — jobs in flight together — are not subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("launch", 10, 40, Some(0)),
            span("launch", 50, 90, Some(0)),
            span("decode", 12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 22, 40, 8]);
        // Self times of a proper tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = vec![
            span("batch", 0, 100, None),
            span("job", 10, 60, Some(0)),
            span("job", 40, 80, Some(0)),
            span("job", 90, 120, Some(0)), // clipped to the parent
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_spans_and_tags_ops() {
        let mut r = Recorder::new();
        let op = r.next_op();
        let outer = r.enter("outer");
        r.span("inner", || std::hint::black_box(1 + 1));
        r.exit(outer);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.op == op));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(tcsim_trace::validate_json(&r.to_json()).is_ok());
    }
}
