//! Event sinks: the [`Tracer`] trait and its two implementations.
//!
//! The simulator threads one `&mut dyn Tracer` through its hot loops.
//! [`NullTracer`] keeps the disabled path to a single inlined boolean
//! check (measured as `trace.overhead_share` by `tcsim-perf trace`);
//! [`RingTracer`] records into a bounded, preallocated ring so a long
//! simulation can always keep its most recent window of events without
//! allocating on the hot path after warmup.

use crate::event::TraceEvent;

/// A sink for cycle-stamped simulation events.
///
/// Implementations must be `Send`: the sweep engine moves whole `Gpu`s
/// (which own their tracer) across worker threads.
pub trait Tracer: std::fmt::Debug + Send {
    /// Whether events should be constructed and recorded at all. Hot
    /// loops check this before building an event, so a disabled tracer
    /// costs one predictable branch per site.
    fn enabled(&self) -> bool;

    /// Records one event. Only called when [`Tracer::enabled`] is true
    /// (via [`emit`]); implementations must not rely on that for safety.
    fn record(&mut self, event: TraceEvent);

    /// The recorded events, oldest first.
    fn snapshot(&self) -> Vec<TraceEvent>;

    /// Events overwritten because the sink was full.
    fn dropped(&self) -> u64 {
        0
    }

    /// Discards recorded events. The simulator calls this at each kernel
    /// launch boundary so a launch's trace covers exactly that launch.
    fn clear_events(&mut self) {}

    /// Clones the tracer behind a box (object-safe `Clone`), so builders
    /// holding a tracer can themselves stay cloneable.
    fn box_clone(&self) -> Box<dyn Tracer>;
}

impl Clone for Box<dyn Tracer> {
    fn clone(&self) -> Box<dyn Tracer> {
        self.box_clone()
    }
}

/// Records an event only when the tracer is enabled, deferring event
/// construction (and any formatting in the closure) to that case.
#[inline]
pub fn emit<F: FnOnce() -> TraceEvent>(tracer: &mut dyn Tracer, make: F) {
    if tracer.enabled() {
        tracer.record(make());
    }
}

/// The no-op tracer: recording is compiled down to a dead branch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _event: TraceEvent) {}

    fn snapshot(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    fn box_clone(&self) -> Box<dyn Tracer> {
        Box::new(*self)
    }
}

/// Default [`RingTracer`] capacity (events). At ≤32 bytes per event this
/// bounds the buffer to 8 MiB; a 64×64×64 WMMA GEMM on the mini GPU
/// produces well under this.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 18;

/// A bounded ring-buffer tracer.
///
/// The buffer is preallocated at construction; once it reaches capacity
/// the oldest events are overwritten (and counted in
/// [`Tracer::dropped`]), so the hot path never allocates after warmup.
#[derive(Clone, Debug)]
pub struct RingTracer {
    buf: Vec<TraceEvent>,
    cap: usize,
    head: usize,
    dropped: u64,
}

impl RingTracer {
    /// A ring of [`DEFAULT_RING_CAPACITY`] events.
    pub fn new() -> RingTracer {
        RingTracer::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> RingTracer {
        assert!(capacity > 0, "ring tracer needs a non-zero capacity");
        RingTracer {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Discards all recorded events, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

impl Default for RingTracer {
    fn default() -> RingTracer {
        RingTracer::new()
    }
}

impl Tracer for RingTracer {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        if self.buf.len() < self.cap {
            // Within the preallocated capacity: push never reallocates.
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn clear_events(&mut self) {
        self.clear();
    }

    fn box_clone(&self) -> Box<dyn Tracer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            sm: 0,
            kind: EventKind::DramTxn { channel: 0 },
        }
    }

    #[test]
    fn tracers_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<NullTracer>();
        assert_send::<RingTracer>();
        assert_send::<Box<dyn Tracer>>();
    }

    #[test]
    fn null_tracer_records_nothing() {
        let mut t = NullTracer;
        emit(&mut t, || ev(1));
        assert!(t.snapshot().is_empty());
        assert_eq!(t.dropped(), 0);
        assert!(!t.enabled());
    }

    #[test]
    fn emit_skips_construction_when_disabled() {
        let mut t = NullTracer;
        let mut built = false;
        emit(&mut t, || {
            built = true;
            ev(1)
        });
        assert!(!built, "event closures must not run for a disabled tracer");
    }

    #[test]
    fn ring_keeps_events_in_order() {
        let mut t = RingTracer::with_capacity(8);
        for c in 0..5 {
            t.record(ev(c));
        }
        let cycles: Vec<u64> = t.snapshot().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut t = RingTracer::with_capacity(4);
        for c in 0..10 {
            t.record(ev(c));
        }
        let cycles: Vec<u64> = t.snapshot().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9], "most recent window survives");
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn ring_never_reallocates_after_construction() {
        let mut t = RingTracer::with_capacity(16);
        let base = t.buf.as_ptr();
        for c in 0..1000 {
            t.record(ev(c));
        }
        assert_eq!(t.buf.as_ptr(), base, "hot path must not reallocate");
        assert_eq!(t.capacity(), 16);
    }

    #[test]
    fn clear_resets_but_keeps_allocation() {
        let mut t = RingTracer::with_capacity(4);
        for c in 0..9 {
            t.record(ev(c));
        }
        let base = t.buf.as_ptr();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        t.record(ev(42));
        assert_eq!(t.snapshot()[0].cycle, 42);
        assert_eq!(t.buf.as_ptr(), base);
    }

    #[test]
    fn boxed_clone_preserves_contents() {
        let mut t = RingTracer::with_capacity(4);
        t.record(ev(3));
        let boxed: Box<dyn Tracer> = Box::new(t);
        let cloned = boxed.clone();
        assert_eq!(cloned.snapshot(), boxed.snapshot());
    }
}
