//! The tree-building exporters the streaming ones replaced, kept as the
//! reference the streamed bytes are compared against: one `Value` per event,
//! the whole document assembled, then printed by the recursive printer
//! `Value` had then (`Value::to_json` rides the streaming writer now, so it
//! would be no independent check of the layout). The only departure from the
//! code this was taken from: integers are exact above 2^53.

use std::collections::HashMap;

use vopp_trace::json::{self, Value};
use vopp_trace::{Event, EventKind, NodeId, Trace};

/// The canonical JSON object of one event.
pub fn event_to_value(ev: &Event) -> Value {
    let mut pairs = vec![
        ("t", json::num(ev.t)),
        ("node", json::num(ev.node as u64)),
        ("kind", json::str(ev.kind.name())),
    ];
    match &ev.kind {
        EventKind::ProcStart | EventKind::ProcExit => {}
        EventKind::NetSend {
            dst,
            wire_bytes,
            tag,
            svc,
        } => {
            pairs.push(("dst", json::num(*dst as u64)));
            pairs.push(("wire_bytes", json::num(*wire_bytes)));
            pairs.push(("tag", json::num(*tag)));
            pairs.push(("svc", Value::Bool(*svc)));
        }
        EventKind::NetRecv {
            src,
            wire_bytes,
            tag,
        } => {
            pairs.push(("src", json::num(*src as u64)));
            pairs.push(("wire_bytes", json::num(*wire_bytes)));
            pairs.push(("tag", json::num(*tag)));
        }
        EventKind::NetDrop {
            dst,
            wire_bytes,
            overflow,
        } => {
            pairs.push(("dst", json::num(*dst as u64)));
            pairs.push(("wire_bytes", json::num(*wire_bytes)));
            pairs.push(("overflow", Value::Bool(*overflow)));
        }
        EventKind::Rexmit { dst, tag } => {
            pairs.push(("dst", json::num(*dst as u64)));
            pairs.push(("tag", json::num(*tag)));
        }
        EventKind::PageFault { page, write } => {
            pairs.push(("page", json::num(*page)));
            pairs.push(("write", Value::Bool(*write)));
        }
        EventKind::DiffRequest { page, to } => {
            pairs.push(("page", json::num(*page)));
            pairs.push(("to", json::num(*to as u64)));
        }
        EventKind::DiffApply { page, bytes } => {
            pairs.push(("page", json::num(*page)));
            pairs.push(("bytes", json::num(*bytes)));
        }
        EventKind::WriteNoticeApply {
            owner,
            seq,
            scope,
            pages,
        } => {
            pairs.push(("owner", json::num(*owner as u64)));
            pairs.push(("seq", json::num(*seq)));
            pairs.push(("scope", json::num(*scope)));
            pairs.push(("pages", json::num(*pages)));
        }
        EventKind::AcquireStart { view, write } => {
            pairs.push(("view", json::num(*view)));
            pairs.push(("write", Value::Bool(*write)));
        }
        EventKind::AcquireEnd {
            view,
            write,
            version,
            bytes,
        } => {
            pairs.push(("view", json::num(*view)));
            pairs.push(("write", Value::Bool(*write)));
            pairs.push(("version", json::num(*version)));
            pairs.push(("bytes", json::num(*bytes)));
        }
        EventKind::ReleaseDone { view, write } => {
            pairs.push(("view", json::num(*view)));
            pairs.push(("write", Value::Bool(*write)));
        }
        EventKind::ViewGrantSent {
            view,
            to,
            version,
            bytes,
        } => {
            pairs.push(("view", json::num(*view)));
            pairs.push(("to", json::num(*to as u64)));
            pairs.push(("version", json::num(*version)));
            pairs.push(("bytes", json::num(*bytes)));
        }
        EventKind::BarrierEnter { id, epoch } => {
            pairs.push(("id", json::num(*id)));
            pairs.push(("epoch", json::num(*epoch)));
        }
        EventKind::BarrierExit { id, epoch, notices } => {
            pairs.push(("id", json::num(*id)));
            pairs.push(("epoch", json::num(*epoch)));
            pairs.push(("notices", json::num(*notices)));
        }
        EventKind::LockAcquireStart { lock }
        | EventKind::LockAcquireEnd { lock }
        | EventKind::LockRelease { lock } => {
            pairs.push(("lock", json::num(*lock)));
        }
        EventKind::NodeCrash { pages } => {
            pairs.push(("pages", json::num(*pages)));
        }
        EventKind::ServeRequest {
            shard,
            write,
            latency_ns,
        } => {
            pairs.push(("shard", json::num(*shard)));
            pairs.push(("write", Value::Bool(*write)));
            pairs.push(("latency_ns", json::num(*latency_ns)));
        }
        EventKind::RaceDetected {
            page,
            other,
            start,
            end,
            write,
        } => {
            pairs.push(("page", json::num(*page)));
            pairs.push(("other", json::num(*other as u64)));
            pairs.push(("start", json::num(*start)));
            pairs.push(("end", json::num(*end)));
            pairs.push(("write", Value::Bool(*write)));
        }
        EventKind::DisciplineViolation {
            rule,
            page,
            start,
            end,
            write,
        } => {
            pairs.push(("rule", json::str(rule)));
            pairs.push(("page", json::num(*page)));
            pairs.push(("start", json::num(*start)));
            pairs.push(("end", json::num(*end)));
            pairs.push(("write", Value::Bool(*write)));
        }
        EventKind::SpanBegin { name } | EventKind::SpanEnd { name } => {
            pairs.push(("name", json::str(name)));
        }
    }
    json::obj(pairs)
}

/// The canonical document of [`Trace::to_json`].
pub fn trace_to_json(trace: &Trace) -> String {
    print(&json::obj(vec![
        ("evicted", json::num(trace.evicted)),
        (
            "events",
            Value::Arr(trace.events.iter().map(event_to_value).collect()),
        ),
    ]))
}

/// Convert nanoseconds of virtual time to the microsecond floats Chrome
/// trace events use. Sub-microsecond precision is preserved as fractions.
fn us(t_ns: u64) -> Value {
    Value::Num(t_ns as f64 / 1000.0)
}

fn mode(write: bool) -> &'static str {
    if write {
        "W"
    } else {
        "R"
    }
}

struct Emitter {
    out: Vec<Value>,
}

impl Emitter {
    fn meta(&mut self, pid: NodeId, name: &str, value: Value) {
        self.out.push(json::obj(vec![
            ("ph", json::str("M")),
            ("pid", json::num(pid as u64)),
            ("tid", json::num(0)),
            ("name", json::str(name)),
            ("args", json::obj(vec![("name", value)])),
        ]));
    }

    fn slice(
        &mut self,
        pid: NodeId,
        cat: &str,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        args: Vec<(&str, Value)>,
    ) {
        self.out.push(json::obj(vec![
            ("ph", json::str("X")),
            ("pid", json::num(pid as u64)),
            ("tid", json::num(0)),
            ("cat", json::str(cat)),
            ("name", json::str(name)),
            ("ts", us(start_ns)),
            ("dur", us(end_ns.saturating_sub(start_ns))),
            ("args", json::obj(args)),
        ]));
    }

    fn instant(&mut self, pid: NodeId, cat: &str, name: &str, t_ns: u64, args: Vec<(&str, Value)>) {
        self.out.push(json::obj(vec![
            ("ph", json::str("i")),
            ("s", json::str("t")),
            ("pid", json::num(pid as u64)),
            ("tid", json::num(0)),
            ("cat", json::str(cat)),
            ("name", json::str(name)),
            ("ts", us(t_ns)),
            ("args", json::obj(args)),
        ]));
    }

    fn flow(&mut self, ph: &str, pid: NodeId, id: u64, t_ns: u64) {
        let mut pairs = vec![
            ("ph", json::str(ph)),
            ("pid", json::num(pid as u64)),
            ("tid", json::num(0)),
            ("cat", json::str("grant-flow")),
            ("name", json::str("view grant")),
            ("id", json::num(id)),
            ("ts", us(t_ns)),
        ];
        if ph == "f" {
            // Bind the arrow head to the enclosing (acquire) slice.
            pairs.push(("bp", json::str("e")));
        }
        self.out.push(json::obj(pairs));
    }
}

/// The Chrome-trace document of [`vopp_trace::to_chrome_json`].
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut em = Emitter { out: Vec::new() };

    for node in 0..trace.node_count() {
        em.meta(node, "process_name", json::str(&format!("node {node}")));
        em.meta(node, "process_sort_index", json::num(node as u64));
        em.meta(node, "thread_name", json::str("protocol"));
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
    let mut spans: HashMap<(NodeId, String), Vec<u64>> = HashMap::new();
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
                        &format!("acquire v{view} ({})", mode(*write)),
                        start,
                        ev.t,
                        vec![
                            ("view", json::num(*view)),
                            ("version", json::num(*version)),
                            ("grant_bytes", json::num(*bytes)),
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
                        &format!("hold v{view} ({})", mode(*write)),
                        start,
                        ev.t,
                        vec![
                            ("view", json::num(*view)),
                            ("version", json::num(version)),
                            ("grant_bytes", json::num(bytes)),
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
                    &format!("grant v{view}→{to}"),
                    ev.t,
                    ev.t + 1_000,
                    vec![
                        ("view", json::num(*view)),
                        ("version", json::num(*version)),
                        ("bytes", json::num(*bytes)),
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
                        &format!("barrier {id}"),
                        start,
                        ev.t,
                        vec![
                            ("epoch", json::num(*epoch)),
                            ("notices", json::num(*notices)),
                        ],
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
                        &format!("lock {lock}"),
                        start,
                        ev.t,
                        vec![("lock", json::num(*lock))],
                    );
                }
            }
            EventKind::SpanBegin { name } => {
                spans.entry((n, name.to_string())).or_default().push(ev.t);
            }
            EventKind::SpanEnd { name } => {
                if let Some(start) = spans.entry((n, name.to_string())).or_default().pop() {
                    em.slice(n, "app", name, start, ev.t, vec![]);
                }
            }
            EventKind::PageFault { page, write } => {
                em.instant(
                    n,
                    "fault",
                    &format!("fault p{page} ({})", mode(*write)),
                    ev.t,
                    vec![("page", json::num(*page))],
                );
            }
            EventKind::DiffRequest { page, to } => {
                em.instant(
                    n,
                    "diff",
                    &format!("diff req p{page}"),
                    ev.t,
                    vec![("page", json::num(*page)), ("to", json::num(*to as u64))],
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
                    if *overflow { "drop (overflow)" } else { "drop" },
                    ev.t,
                    vec![
                        ("dst", json::num(*dst as u64)),
                        ("wire_bytes", json::num(*wire_bytes)),
                    ],
                );
            }
            EventKind::Rexmit { dst, tag } => {
                em.instant(
                    n,
                    "net",
                    "rexmit",
                    ev.t,
                    vec![("dst", json::num(*dst as u64)), ("tag", json::num(*tag))],
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
                    &format!("race p{page} vs n{other} ({})", mode(*write)),
                    ev.t,
                    vec![
                        ("page", json::num(*page)),
                        ("other", json::num(*other as u64)),
                        ("start", json::num(*start)),
                        ("end", json::num(*end)),
                    ],
                );
            }
            EventKind::NodeCrash { pages } => {
                em.instant(
                    n,
                    "fault",
                    &format!("crash ({pages} pages lost)"),
                    ev.t,
                    vec![("pages", json::num(*pages))],
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
                    &format!("{} s{shard}", if *write { "put" } else { "get" }),
                    ev.t,
                    vec![
                        ("shard", json::num(*shard)),
                        ("latency_ns", json::num(*latency_ns)),
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
                    &format!("{rule} p{page} ({})", mode(*write)),
                    ev.t,
                    vec![
                        ("rule", json::str(rule)),
                        ("page", json::num(*page)),
                        ("start", json::num(*start)),
                        ("end", json::num(*end)),
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

    print(&json::obj(vec![
        ("displayTimeUnit", json::str("ns")),
        ("traceEvents", Value::Arr(em.out)),
    ]))
}

/// The tree printer the streaming writer replaced, compact layout.
pub fn print(v: &Value) -> String {
    let mut s = String::new();
    write(v, &mut s);
    s
}

/// The tree printer the streaming writer replaced, two-space layout with a
/// trailing newline.
pub fn print_pretty(v: &Value) -> String {
    let mut s = String::new();
    write_pretty(v, &mut s, 0);
    s.push('\n');
    s
}

/// Serialize without whitespace.
fn write(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(v, out);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write(v, out);
            }
            out.push('}');
        }
    }
}

/// Serialize with two-space indentation (for human-facing output).
fn write_pretty(v: &Value, out: &mut String, indent: usize) {
    let pad = |out: &mut String, n: usize| {
        for _ in 0..n {
            out.push_str("  ");
        }
    };
    match v {
        Value::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                write_pretty(v, out, indent + 1);
            }
            out.push('\n');
            pad(out, indent);
            out.push(']');
        }
        Value::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(v, out, indent + 1);
            }
            out.push('\n');
            pad(out, indent);
            out.push('}');
        }
        _ => write(v, out),
    }
}

fn write_number(n: f64, out: &mut String) {
    use std::fmt::Write;
    if n.fract() == 0.0 && n.abs() <= 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        // JSON has no NaN/Inf; the tracer never produces them.
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
    use std::fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
