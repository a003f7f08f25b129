//! The ring-buffered recorder and the immutable [`Trace`] it produces.
//!
//! A [`Tracer`] is shared as `Option<Arc<Tracer>>` by every runtime layer.
//! `None` means tracing is compiled out of the hot path entirely (a single
//! pointer test per potential event); a present-but-disabled tracer costs one
//! relaxed atomic load, which the overhead bench in `vopp-bench` guards.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::event::{Event, EventKind, NodeId};
use crate::json::{IoSink, Sink, Value, Writer};

/// Default ring capacity: enough for every quick-scale table run without
/// wrapping, while bounding memory for full-scale runs (~64 MB worst case).
pub const DEFAULT_CAPACITY: usize = 1 << 20;

struct Ring {
    buf: Vec<Event>,
    cap: usize,
    /// Index of the logical start once the ring has wrapped.
    head: usize,
    /// Events evicted because the ring was full.
    evicted: u64,
}

/// Thread-safe ring-buffered event recorder.
pub struct Tracer {
    enabled: AtomicBool,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer keeping at most `capacity` events (oldest evicted first).
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(true),
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                cap: capacity.max(1),
                head: 0,
                evicted: 0,
            }),
        }
    }

    /// Flip recording on or off without dropping buffered events.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether [`Tracer::record`] currently stores events.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record one event at virtual time `t` (ns) on `node`.
    #[inline]
    pub fn record(&self, t: u64, node: NodeId, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        let ev = Event { t, node, kind };
        if ring.buf.len() < ring.cap {
            ring.buf.push(ev);
        } else {
            let head = ring.head;
            ring.buf[head] = ev;
            ring.head = (head + 1) % ring.cap;
            ring.evicted += 1;
        }
    }

    /// Drain everything recorded so far into an immutable [`Trace`],
    /// leaving the tracer empty (but still enabled).
    pub fn take(&self) -> Trace {
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        let head = ring.head;
        let mut events = std::mem::take(&mut ring.buf);
        events.rotate_left(head);
        ring.head = 0;
        let evicted = std::mem::take(&mut ring.evicted);
        Trace { events, evicted }
    }

    /// Copy everything recorded so far, leaving the ring as it is.
    pub fn snapshot(&self) -> Trace {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        let mut events = ring.buf.clone();
        events.rotate_left(ring.head);
        Trace {
            events,
            evicted: ring.evicted,
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_CAPACITY)
    }
}

/// An immutable, time-ordered event stream taken from a [`Tracer`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events in recording order (which equals virtual-time order: the
    /// simulator runs exactly one process at any instant).
    pub events: Vec<Event>,
    /// Events lost to ring eviction before this trace was taken.
    pub evicted: u64,
}

impl Trace {
    /// Serialize to the canonical JSON document (compact, byte-stable).
    pub fn to_json(&self) -> String {
        // Sized for the common event (about 85 bytes), so the buffer of a
        // large trace grows at most once.
        let mut s = String::with_capacity(32 + 96 * self.events.len());
        self.write_json(&mut Writer::compact(&mut s));
        s
    }

    /// [`Trace::to_json`] written to `out` event by event: the document is
    /// never held in memory. Hand in a `BufWriter` for a file.
    pub fn write_json_to(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let mut sink = IoSink::new(out);
        self.write_json(&mut Writer::compact(&mut sink));
        sink.finish()
    }

    fn write_json<S: Sink>(&self, w: &mut Writer<'_, S>) {
        w.begin_obj();
        w.field_u64("evicted", self.evicted);
        w.key("events");
        w.begin_arr();
        for ev in &self.events {
            ev.write_json(w);
        }
        w.end_arr();
        w.end_obj();
    }

    /// Parse a document produced by [`Trace::to_json`].
    pub fn from_json(text: &str) -> Result<Trace, String> {
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        let evicted = v
            .get("evicted")
            .and_then(Value::as_u64)
            .ok_or("missing 'evicted'")?;
        let events = v
            .get("events")
            .and_then(Value::as_arr)
            .ok_or("missing 'events'")?
            .iter()
            .map(Event::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trace { events, evicted })
    }

    /// Number of nodes referenced by any event (max node id + 1).
    pub fn node_count(&self) -> usize {
        self.events.iter().map(|e| e.node + 1).max().unwrap_or(0)
    }

    /// Count events matching a predicate on the kind.
    pub fn count_kind(&self, pred: impl Fn(&EventKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> EventKind {
        EventKind::PageFault {
            page: i,
            write: false,
        }
    }

    #[test]
    fn records_in_order_and_drains() {
        let tr = Tracer::new(16);
        for i in 0..5u64 {
            tr.record(i * 10, 0, ev(i));
        }
        let trace = tr.take();
        assert_eq!(trace.events.len(), 5);
        assert_eq!(trace.evicted, 0);
        assert!(trace.events.windows(2).all(|w| w[0].t <= w[1].t));
        assert!(tr.take().events.is_empty());
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let tr = Tracer::new(4);
        for i in 0..10u64 {
            tr.record(i, 0, ev(i));
        }
        let trace = tr.take();
        assert_eq!(trace.evicted, 6);
        let pages: Vec<u64> = trace
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::PageFault { page, .. } => page,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pages, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(16);
        tr.set_enabled(false);
        tr.record(1, 0, ev(0));
        assert!(tr.snapshot().events.is_empty());
        tr.set_enabled(true);
        tr.record(2, 0, ev(1));
        assert_eq!(tr.snapshot().events.len(), 1);
    }

    #[test]
    fn corrupt_trace_json_is_an_error() {
        let tr = Tracer::new(16);
        tr.record(5, 1, ev(3));
        let good = tr.take().to_json();
        let bad = [
            "[".repeat(1_000_000),
            good[..good.len() / 2].to_string(),
            r#"{"events":[]}"#.to_string(),
            r#"{"evicted":0}"#.to_string(),
            r#"{"evicted":"0","events":[]}"#.to_string(),
            r#"{"evicted":0,"events":{}}"#.to_string(),
            r#"{"evicted":0,"events":[{"t":"5","node":1,"kind":"proc_start"}]}"#.to_string(),
            r#"{"evicted":0,"events":[{"t":5,"node":1,"kind":"no_such_kind"}]}"#.to_string(),
        ];
        for text in bad {
            assert!(Trace::from_json(&text).is_err(), "{:.60}", text);
        }
        assert!(Trace::from_json(&good).is_ok());
    }

    #[test]
    fn trace_json_round_trip() {
        let tr = Tracer::new(16);
        tr.record(5, 1, ev(3));
        tr.record(
            9,
            0,
            EventKind::SpanBegin {
                name: "body".into(),
            },
        );
        let trace = tr.take();
        let text = trace.to_json();
        assert_eq!(Trace::from_json(&text).unwrap(), trace);
    }
}
