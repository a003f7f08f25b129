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
//! microseconds — wall time never appears, so exports are deterministic.

use std::collections::HashMap;
use std::fmt;
use std::io;

use crate::event::{EventKind, NodeId};
use crate::json::{IoSink, Sink, Writer};
use crate::tracer::Trace;

/// Nanoseconds of virtual time as the microsecond floats Chrome trace
/// events use. Sub-microsecond precision is preserved as fractions.
fn us(t_ns: u64) -> f64 {
    t_ns as f64 / 1000.0
}

fn mode(write: bool) -> &'static str {
    if write {
        "W"
    } else {
        "R"
    }
}

/// One `args` member of a trace event: an integer or a formatted string.
enum Arg<'a> {
    U(u64),
    F(fmt::Arguments<'a>),
}

/// Writes trace events into the open `traceEvents` array, one per call, in
/// call order.
struct Emitter<'w, 'a, S: Sink> {
    w: &'w mut Writer<'a, S>,
}

impl<S: Sink> Emitter<'_, '_, S> {
    fn head(&mut self, ph: &str, pid: NodeId) {
        self.w.begin_obj();
        self.w.field_str("ph", ph);
        if ph == "i" {
            self.w.field_str("s", "t");
        }
        self.w.field_u64("pid", pid as u64);
        self.w.field_u64("tid", 0);
    }

    fn args(&mut self, args: &[(&str, Arg<'_>)]) {
        self.w.key("args");
        self.w.begin_obj();
        for (key, arg) in args {
            match arg {
                Arg::U(n) => self.w.field_u64(key, *n),
                Arg::F(text) => self.w.field_fmt(key, *text),
            }
        }
        self.w.end_obj();
    }

    fn meta(&mut self, pid: NodeId, name: &str, value: Arg<'_>) {
        self.head("M", pid);
        self.w.field_str("name", name);
        self.args(&[("name", value)]);
        self.w.end_obj();
    }

    fn slice(
        &mut self,
        pid: NodeId,
        cat: &str,
        name: fmt::Arguments<'_>,
        start_ns: u64,
        end_ns: u64,
        args: &[(&str, Arg<'_>)],
    ) {
        self.head("X", pid);
        self.w.field_str("cat", cat);
        self.w.field_fmt("name", name);
        self.w.field_f64("ts", us(start_ns));
        self.w.field_f64("dur", us(end_ns.saturating_sub(start_ns)));
        self.args(args);
        self.w.end_obj();
    }

    fn instant(
        &mut self,
        pid: NodeId,
        cat: &str,
        name: fmt::Arguments<'_>,
        t_ns: u64,
        args: &[(&str, Arg<'_>)],
    ) {
        self.head("i", pid);
        self.w.field_str("cat", cat);
        self.w.field_fmt("name", name);
        self.w.field_f64("ts", us(t_ns));
        self.args(args);
        self.w.end_obj();
    }

    fn flow(&mut self, ph: &str, pid: NodeId, id: u64, t_ns: u64) {
        self.head(ph, pid);
        self.w.field_str("cat", "grant-flow");
        self.w.field_str("name", "view grant");
        self.w.field_u64("id", id);
        self.w.field_f64("ts", us(t_ns));
        if ph == "f" {
            // Bind the arrow head to the enclosing (acquire) slice.
            self.w.field_str("bp", "e");
        }
        self.w.end_obj();
    }
}

/// Render a trace as a Chrome-trace JSON document.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut s = String::new();
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
    w.begin_obj();
    w.field_str("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.begin_arr();
    let mut em = Emitter { w };

    for node in 0..trace.node_count() {
        em.meta(node, "process_name", Arg::F(format_args!("node {node}")));
        em.meta(node, "process_sort_index", Arg::U(node as u64));
        em.meta(node, "thread_name", Arg::F(format_args!("protocol")));
    }

    // Open-interval state, keyed so that pops always match the most recent
    // push for that key on that node. Maps are only written/popped, never
    // iterated, so emission order stays deterministic (scan order).
    // (start time, grant version, grant bytes) of an open view hold.
    type Hold = (u64, u64, u64);
    let mut acquires: HashMap<(NodeId, u64, bool), Vec<u64>> = HashMap::new();
    let mut holds: HashMap<(NodeId, u64, bool), Vec<Hold>> = HashMap::new();
    let mut barriers: HashMap<(NodeId, u64), Vec<(u64, u64)>> = HashMap::new();
    let mut locks: HashMap<(NodeId, u64), Vec<u64>> = HashMap::new();
    let mut spans: HashMap<(NodeId, &str), Vec<u64>> = HashMap::new();
    // Grants not yet matched to the requester's acquire completion:
    // (view, version, requester) → flow ids, in grant order.
    let mut pending_grants: HashMap<(u64, u64, NodeId), Vec<u64>> = HashMap::new();
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
                if let Some(start) = acquires.entry((n, *view, *write)).or_default().pop() {
                    em.slice(
                        n,
                        "acquire",
                        format_args!("acquire v{view} ({})", mode(*write)),
                        start,
                        ev.t,
                        &[
                            ("view", Arg::U(*view)),
                            ("version", Arg::U(*version)),
                            ("grant_bytes", Arg::U(*bytes)),
                        ],
                    );
                    if let Some(flow_id) = pending_grants
                        .get_mut(&(*view, *version, n))
                        .and_then(|ids| (!ids.is_empty()).then(|| ids.remove(0)))
                    {
                        em.flow("f", n, flow_id, ev.t);
                    }
                }
                holds
                    .entry((n, *view, *write))
                    .or_default()
                    .push((ev.t, *version, *bytes));
            }
            EventKind::ReleaseDone { view, write } => {
                if let Some((start, version, bytes)) =
                    holds.entry((n, *view, *write)).or_default().pop()
                {
                    em.slice(
                        n,
                        "view",
                        format_args!("hold v{view} ({})", mode(*write)),
                        start,
                        ev.t,
                        &[
                            ("view", Arg::U(*view)),
                            ("version", Arg::U(version)),
                            ("grant_bytes", Arg::U(bytes)),
                        ],
                    );
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
                    .push(flow_id);
                // A short slice so the flow arrow has a visible anchor at
                // the home node; virtual grant processing is instantaneous.
                em.slice(
                    n,
                    "grant",
                    format_args!("grant v{view}→{to}"),
                    ev.t,
                    ev.t + 1_000,
                    &[
                        ("view", Arg::U(*view)),
                        ("version", Arg::U(*version)),
                        ("bytes", Arg::U(*bytes)),
                    ],
                );
                em.flow("s", n, flow_id, ev.t);
            }
            EventKind::BarrierEnter { id, epoch } => {
                barriers.entry((n, *id)).or_default().push((ev.t, *epoch));
            }
            EventKind::BarrierExit { id, epoch, notices } => {
                if let Some((start, _)) = barriers.entry((n, *id)).or_default().pop() {
                    em.slice(
                        n,
                        "barrier",
                        format_args!("barrier {id}"),
                        start,
                        ev.t,
                        &[("epoch", Arg::U(*epoch)), ("notices", Arg::U(*notices))],
                    );
                }
            }
            EventKind::LockAcquireStart { lock } => {
                locks.entry((n, *lock)).or_default().push(ev.t);
            }
            EventKind::LockAcquireEnd { lock } => {
                if let Some(start) = locks.entry((n, *lock)).or_default().pop() {
                    em.slice(
                        n,
                        "lock",
                        format_args!("lock {lock}"),
                        start,
                        ev.t,
                        &[("lock", Arg::U(*lock))],
                    );
                }
            }
            EventKind::SpanBegin { name } => {
                spans.entry((n, name)).or_default().push(ev.t);
            }
            EventKind::SpanEnd { name } => {
                if let Some(start) = spans.entry((n, name)).or_default().pop() {
                    em.slice(n, "app", format_args!("{name}"), start, ev.t, &[]);
                }
            }
            EventKind::PageFault { page, write } => {
                em.instant(
                    n,
                    "fault",
                    format_args!("fault p{page} ({})", mode(*write)),
                    ev.t,
                    &[("page", Arg::U(*page))],
                );
            }
            EventKind::DiffRequest { page, to } => {
                em.instant(
                    n,
                    "diff",
                    format_args!("diff req p{page}"),
                    ev.t,
                    &[("page", Arg::U(*page)), ("to", Arg::U(*to as u64))],
                );
            }
            EventKind::NetDrop {
                dst,
                wire_bytes,
                overflow,
            } => {
                em.instant(
                    n,
                    "net",
                    format_args!("{}", if *overflow { "drop (overflow)" } else { "drop" }),
                    ev.t,
                    &[
                        ("dst", Arg::U(*dst as u64)),
                        ("wire_bytes", Arg::U(*wire_bytes)),
                    ],
                );
            }
            EventKind::Rexmit { dst, tag } => {
                em.instant(
                    n,
                    "net",
                    format_args!("rexmit"),
                    ev.t,
                    &[("dst", Arg::U(*dst as u64)), ("tag", Arg::U(*tag))],
                );
            }
            EventKind::RaceDetected {
                page,
                other,
                start,
                end,
                write,
            } => {
                em.instant(
                    n,
                    "racecheck",
                    format_args!("race p{page} vs n{other} ({})", mode(*write)),
                    ev.t,
                    &[
                        ("page", Arg::U(*page)),
                        ("other", Arg::U(*other as u64)),
                        ("start", Arg::U(*start)),
                        ("end", Arg::U(*end)),
                    ],
                );
            }
            EventKind::NodeCrash { pages } => {
                em.instant(
                    n,
                    "fault",
                    format_args!("crash ({pages} pages lost)"),
                    ev.t,
                    &[("pages", Arg::U(*pages))],
                );
            }
            EventKind::ServeRequest {
                shard,
                write,
                latency_ns,
            } => {
                em.instant(
                    n,
                    "serve",
                    format_args!("{} s{shard}", if *write { "put" } else { "get" }),
                    ev.t,
                    &[
                        ("shard", Arg::U(*shard)),
                        ("latency_ns", Arg::U(*latency_ns)),
                    ],
                );
            }
            EventKind::DisciplineViolation {
                rule,
                page,
                start,
                end,
                write,
            } => {
                em.instant(
                    n,
                    "racecheck",
                    format_args!("{rule} p{page} ({})", mode(*write)),
                    ev.t,
                    &[
                        ("rule", Arg::F(format_args!("{rule}"))),
                        ("page", Arg::U(*page)),
                        ("start", Arg::U(*start)),
                        ("end", Arg::U(*end)),
                    ],
                );
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
