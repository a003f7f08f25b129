//! Chrome-trace JSON export, loadable in [Perfetto](https://ui.perfetto.dev)
//! (or `chrome://tracing`).
//!
//! Layout: one Perfetto *process* per simulated node, a single "protocol"
//! track each. Waits become complete slices (`ph:"X"`): view-acquire waits,
//! view holds, barrier waits, lock waits, and application `with_view`
//! bracket spans. Page faults, diff requests, drops and retransmissions
//! become instant events. Each view-grant → acquire-completion pair is tied
//! together with a flow arrow (`ph:"s"` / `ph:"f"`) from the home node's
//! grant slice to the requester's acquire slice. Timestamps are **virtual**
//! microseconds ([`Writer::us`]) — wall time never appears, so exports are
//! deterministic.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::io;

use crate::event::{EventKind, NodeId};
use crate::json::{IoSink, Part, Sink, Writer};
use crate::tracer::Trace;

/// FxHash (multiply and rotate, as in rustc) for the open-interval keys the
/// exporters build from a trace's own ids. Without SipHash a trace file
/// crafted to collide can slow its own export, nothing else.
#[derive(Default)]
pub(crate) struct FastHasher(u64);

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

fn mode(write: bool) -> &'static str {
    if write {
        " (W)"
    } else {
        " (R)"
    }
}

/// Whole `ph` members of the event shapes.
const META: &str = r#","ph":"M""#;
const SLICE: &str = r#","ph":"X""#;
const INSTANT: &str = r#","ph":"i""#;
const FLOW_START: &str = r#","ph":"s""#;
const FLOW_END: &str = r#","ph":"f""#;

/// Writes trace events into the open `traceEvents` array, one per call, in
/// call order. Fixed members come as escape-free literals
/// ([`Writer::member`]): `ph`, `cat` (`,"cat":"lock"`) and the `args` keys
/// (`,"view":`). Slice and instant names are written in pieces.
struct Emitter<'w, 'a, S: Sink> {
    w: &'w mut Writer<'a, S>,
}

impl<S: Sink> Emitter<'_, '_, S> {
    fn head(&mut self, ph: &str, pid: NodeId) {
        self.w.begin_obj();
        self.w.member(ph);
        if ph == INSTANT {
            self.w.member(r#","s":"t""#);
        }
        self.w.member(r#","pid":"#);
        self.w.u64(pid as u64);
        self.w.member(r#","tid":0"#);
    }

    /// The `args` object of integer members, which closes the event.
    fn args(&mut self, args: &[(&str, u64)]) {
        self.w.key("args");
        self.w.begin_obj();
        self.end_args(args);
    }

    /// The rest of an open `args` object, and the event.
    fn end_args(&mut self, args: &[(&str, u64)]) {
        for &(key, n) in args {
            self.w.member(key);
            self.w.u64(n);
        }
        self.w.end_obj();
        self.w.end_obj();
    }

    fn meta(&mut self, pid: NodeId, name: &str, value: impl FnOnce(&mut Writer<'_, S>)) {
        self.head(META, pid);
        self.w.member(name);
        self.w.key("args");
        self.w.begin_obj();
        self.w.key("name");
        value(self.w);
        self.w.end_obj();
        self.w.end_obj();
    }

    /// A slice up to its `args`.
    fn slice(&mut self, pid: NodeId, cat: &str, name: &[Part<'_>], start_ns: u64, end_ns: u64) {
        self.head(SLICE, pid);
        self.w.member(cat);
        self.w.key("name");
        self.w.str_parts(name);
        self.w.member(r#","ts":"#);
        self.w.us(start_ns);
        self.w.member(r#","dur":"#);
        self.w.us(end_ns.saturating_sub(start_ns));
    }

    /// An instant event up to its `args`.
    fn instant(&mut self, pid: NodeId, cat: &str, name: &[Part<'_>], t_ns: u64) {
        self.head(INSTANT, pid);
        self.w.member(cat);
        self.w.key("name");
        self.w.str_parts(name);
        self.w.member(r#","ts":"#);
        self.w.us(t_ns);
    }

    fn flow(&mut self, ph: &str, pid: NodeId, id: u64, t_ns: u64) {
        self.head(ph, pid);
        self.w.member(r#","cat":"grant-flow""#);
        self.w.member(r#","name":"view grant""#);
        self.w.member(r#","id":"#);
        self.w.u64(id);
        self.w.member(r#","ts":"#);
        self.w.us(t_ns);
        if ph == FLOW_END {
            // Bind the arrow head to the enclosing (acquire) slice.
            self.w.member(r#","bp":"e""#);
        }
        self.w.end_obj();
    }
}

/// Render a trace as a Chrome-trace JSON document.
pub fn to_chrome_json(trace: &Trace) -> String {
    // About 40 bytes per recorded event, so a large trace's buffer grows
    // at most once.
    let mut s = String::with_capacity(64 + 40 * trace.events.len());
    write_chrome_json(trace, &mut Writer::compact(&mut s));
    s
}

/// [`to_chrome_json`] written to `out` event by event: the document is
/// never held in memory. Hand in a `BufWriter` for a file.
pub fn write_chrome_json_to(trace: &Trace, out: &mut impl io::Write) -> io::Result<()> {
    let mut sink = IoSink::new(out);
    write_chrome_json(trace, &mut Writer::compact(&mut sink));
    sink.finish()
}

fn write_chrome_json<S: Sink>(trace: &Trace, w: &mut Writer<'_, S>) {
    use Part::{Int, Text};

    w.begin_obj();
    w.field_str("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.begin_arr();
    let mut em = Emitter { w };

    for node in 0..trace.node_count() {
        let n = node as u64;
        em.meta(node, r#","name":"process_name""#, |w| {
            w.str_parts(&[Text("node "), Int(n)])
        });
        em.meta(node, r#","name":"process_sort_index""#, |w| w.u64(n));
        em.meta(node, r#","name":"thread_name""#, |w| w.str("protocol"));
    }

    // Open-interval state, keyed so that pops always match the most recent
    // push for that key on that node. Maps are only written/popped, never
    // iterated, so emission order stays deterministic (scan order).
    // (start time, grant version, grant bytes) of an open view hold.
    type Hold = (u64, u64, u64);
    let mut acquires: FastMap<(NodeId, u64, bool), Vec<u64>> = FastMap::default();
    let mut holds: FastMap<(NodeId, u64, bool), Vec<Hold>> = FastMap::default();
    let mut barriers: FastMap<(NodeId, u64), Vec<u64>> = FastMap::default();
    let mut locks: FastMap<(NodeId, u64), Vec<u64>> = FastMap::default();
    let mut spans: FastMap<(NodeId, &str), Vec<u64>> = FastMap::default();
    // Grants not yet matched to the requester's acquire completion:
    // (view, version, requester) → flow ids, in grant order.
    let mut pending_grants: FastMap<(u64, u64, NodeId), VecDeque<u64>> = FastMap::default();
    let mut next_flow_id: u64 = 1;

    for ev in &trace.events {
        let n = ev.node;
        match &ev.kind {
            EventKind::AcquireStart { view, write } => {
                acquires.entry((n, *view, *write)).or_default().push(ev.t);
            }
            EventKind::AcquireEnd {
                view,
                write,
                version,
                bytes,
            } => {
                if let Some(start) = acquires.get_mut(&(n, *view, *write)).and_then(Vec::pop) {
                    let name = [Text("acquire v"), Int(*view), Text(mode(*write))];
                    em.slice(n, r#","cat":"acquire""#, &name, start, ev.t);
                    em.args(&[
                        (r#","view":"#, *view),
                        (r#","version":"#, *version),
                        (r#","grant_bytes":"#, *bytes),
                    ]);
                    if let Some(flow_id) = pending_grants
                        .get_mut(&(*view, *version, n))
                        .and_then(VecDeque::pop_front)
                    {
                        em.flow(FLOW_END, n, flow_id, ev.t);
                    }
                }
                holds
                    .entry((n, *view, *write))
                    .or_default()
                    .push((ev.t, *version, *bytes));
            }
            EventKind::ReleaseDone { view, write } => {
                if let Some((start, version, bytes)) =
                    holds.get_mut(&(n, *view, *write)).and_then(Vec::pop)
                {
                    let name = [Text("hold v"), Int(*view), Text(mode(*write))];
                    em.slice(n, r#","cat":"view""#, &name, start, ev.t);
                    em.args(&[
                        (r#","view":"#, *view),
                        (r#","version":"#, version),
                        (r#","grant_bytes":"#, bytes),
                    ]);
                }
            }
            EventKind::ViewGrantSent {
                view,
                to,
                version,
                bytes,
            } => {
                let flow_id = next_flow_id;
                next_flow_id += 1;
                pending_grants
                    .entry((*view, *version, *to))
                    .or_default()
                    .push_back(flow_id);
                // A short slice so the flow arrow has a visible anchor at
                // the home node; virtual grant processing is instantaneous.
                let name = [Text("grant v"), Int(*view), Text("→"), Int(*to as u64)];
                em.slice(n, r#","cat":"grant""#, &name, ev.t, ev.t + 1_000);
                em.args(&[
                    (r#","view":"#, *view),
                    (r#","version":"#, *version),
                    (r#","bytes":"#, *bytes),
                ]);
                em.flow(FLOW_START, n, flow_id, ev.t);
            }
            EventKind::BarrierEnter { id, .. } => {
                barriers.entry((n, *id)).or_default().push(ev.t);
            }
            EventKind::BarrierExit { id, epoch, notices } => {
                if let Some(start) = barriers.get_mut(&(n, *id)).and_then(Vec::pop) {
                    let name = [Text("barrier "), Int(*id)];
                    em.slice(n, r#","cat":"barrier""#, &name, start, ev.t);
                    em.args(&[(r#","epoch":"#, *epoch), (r#","notices":"#, *notices)]);
                }
            }
            EventKind::LockAcquireStart { lock } => {
                locks.entry((n, *lock)).or_default().push(ev.t);
            }
            EventKind::LockAcquireEnd { lock } => {
                if let Some(start) = locks.get_mut(&(n, *lock)).and_then(Vec::pop) {
                    let name = [Text("lock "), Int(*lock)];
                    em.slice(n, r#","cat":"lock""#, &name, start, ev.t);
                    em.args(&[(r#","lock":"#, *lock)]);
                }
            }
            EventKind::SpanBegin { name } => {
                spans.entry((n, &**name)).or_default().push(ev.t);
            }
            EventKind::SpanEnd { name } => {
                if let Some(start) = spans.get_mut(&(n, &**name)).and_then(Vec::pop) {
                    em.slice(n, r#","cat":"app""#, &[Text(name)], start, ev.t);
                    em.args(&[]);
                }
            }
            EventKind::PageFault { page, write } => {
                let name = [Text("fault p"), Int(*page), Text(mode(*write))];
                em.instant(n, r#","cat":"fault""#, &name, ev.t);
                em.args(&[(r#","page":"#, *page)]);
            }
            EventKind::DiffRequest { page, to } => {
                let name = [Text("diff req p"), Int(*page)];
                em.instant(n, r#","cat":"diff""#, &name, ev.t);
                em.args(&[(r#","page":"#, *page), (r#","to":"#, *to as u64)]);
            }
            EventKind::NetDrop {
                dst,
                wire_bytes,
                overflow,
            } => {
                let name = if *overflow { "drop (overflow)" } else { "drop" };
                em.instant(n, r#","cat":"net""#, &[Text(name)], ev.t);
                em.args(&[
                    (r#","dst":"#, *dst as u64),
                    (r#","wire_bytes":"#, *wire_bytes),
                ]);
            }
            EventKind::Rexmit { dst, tag } => {
                em.instant(n, r#","cat":"net""#, &[Text("rexmit")], ev.t);
                em.args(&[(r#","dst":"#, *dst as u64), (r#","tag":"#, *tag)]);
            }
            EventKind::RaceDetected {
                page,
                other,
                start,
                end,
                write,
            } => {
                let name = [
                    Text("race p"),
                    Int(*page),
                    Text(" vs n"),
                    Int(*other as u64),
                    Text(mode(*write)),
                ];
                em.instant(n, r#","cat":"racecheck""#, &name, ev.t);
                em.args(&[
                    (r#","page":"#, *page),
                    (r#","other":"#, *other as u64),
                    (r#","start":"#, *start),
                    (r#","end":"#, *end),
                ]);
            }
            EventKind::NodeCrash { pages } => {
                let name = [Text("crash ("), Int(*pages), Text(" pages lost)")];
                em.instant(n, r#","cat":"fault""#, &name, ev.t);
                em.args(&[(r#","pages":"#, *pages)]);
            }
            EventKind::ServeRequest {
                shard,
                write,
                latency_ns,
            } => {
                let name = [Text(if *write { "put s" } else { "get s" }), Int(*shard)];
                em.instant(n, r#","cat":"serve""#, &name, ev.t);
                em.args(&[(r#","shard":"#, *shard), (r#","latency_ns":"#, *latency_ns)]);
            }
            EventKind::DisciplineViolation {
                rule,
                page,
                start,
                end,
                write,
            } => {
                let name = [Text(rule), Text(" p"), Int(*page), Text(mode(*write))];
                em.instant(n, r#","cat":"racecheck""#, &name, ev.t);
                em.w.key("args");
                em.w.begin_obj();
                em.w.field_str("rule", rule);
                em.end_args(&[
                    (r#","page":"#, *page),
                    (r#","start":"#, *start),
                    (r#","end":"#, *end),
                ]);
            }
            // High-volume or structural events are available in the raw
            // trace JSON; they would only clutter the timeline here.
            EventKind::ProcStart
            | EventKind::ProcExit
            | EventKind::NetSend { .. }
            | EventKind::NetRecv { .. }
            | EventKind::DiffApply { .. }
            | EventKind::WriteNoticeApply { .. }
            | EventKind::LockRelease { .. } => {}
        }
    }

    w.end_arr();
    w.end_obj();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::json::Value;

    fn e(t: u64, node: NodeId, kind: EventKind) -> Event {
        Event { t, node, kind }
    }

    #[test]
    fn exports_spans_flows_and_metadata() {
        let trace = Trace {
            events: vec![
                e(
                    1_000,
                    1,
                    EventKind::AcquireStart {
                        view: 3,
                        write: true,
                    },
                ),
                e(
                    2_000,
                    0,
                    EventKind::ViewGrantSent {
                        view: 3,
                        to: 1,
                        version: 7,
                        bytes: 128,
                    },
                ),
                e(
                    5_000,
                    1,
                    EventKind::AcquireEnd {
                        view: 3,
                        write: true,
                        version: 7,
                        bytes: 128,
                    },
                ),
                e(
                    9_000,
                    1,
                    EventKind::ReleaseDone {
                        view: 3,
                        write: true,
                    },
                ),
            ],
            evicted: 0,
        };
        let text = to_chrome_json(&trace);
        let doc = Value::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();

        let phs: Vec<&str> = events
            .iter()
            .map(|ev| ev.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert!(phs.contains(&"M"), "process metadata present");
        assert!(
            phs.contains(&"s") && phs.contains(&"f"),
            "flow pair present"
        );

        let slices: Vec<&Value> = events
            .iter()
            .filter(|ev| ev.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        let names: Vec<&str> = slices
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"acquire v3 (W)"));
        assert!(names.contains(&"hold v3 (W)"));
        assert!(names.contains(&"grant v3→1"));

        // Acquire wait: 1µs → 5µs on node 1.
        let acq = slices
            .iter()
            .find(|s| s.get("name").unwrap().as_str() == Some("acquire v3 (W)"))
            .unwrap();
        assert_eq!(acq.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(acq.get("dur").unwrap().as_f64(), Some(4.0));
        assert_eq!(acq.get("pid").unwrap().as_u64(), Some(1));

        // Flow start and finish share an id.
        let start = events
            .iter()
            .find(|ev| ev.get("ph").unwrap().as_str() == Some("s"))
            .unwrap();
        let finish = events
            .iter()
            .find(|ev| ev.get("ph").unwrap().as_str() == Some("f"))
            .unwrap();
        assert_eq!(
            start.get("id").unwrap().as_u64(),
            finish.get("id").unwrap().as_u64()
        );
        assert_eq!(finish.get("bp").unwrap().as_str(), Some("e"));
    }

    #[test]
    fn export_is_valid_json_for_empty_trace() {
        let doc = Value::parse(&to_chrome_json(&Trace::default())).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }
}
