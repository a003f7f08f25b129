//! The structured event vocabulary recorded by every runtime layer.
//!
//! Events deliberately use raw `u64` nanosecond timestamps and plain `usize`
//! node ids rather than `vopp-sim`'s newtypes: the simulator depends on this
//! crate (not the other way around), so the trace vocabulary must stand
//! alone. Each variant maps 1:1 to a JSON object via [`Event::write_json`] /
//! [`Event::from_value`]; the conformance checker and the Perfetto exporter
//! both consume the in-memory form.

use crate::json::{Sink, Value, Writer};

/// A simulated process id (mirrors `vopp_sim::ProcId` without the dependency).
pub type NodeId = usize;

/// One recorded occurrence: virtual time, emitting node, and what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual time in nanoseconds since simulation start.
    pub t: u64,
    /// The simulated process this event belongs to.
    pub node: NodeId,
    /// What happened.
    pub kind: EventKind,
}

/// Everything the runtime layers know how to record.
///
/// The taxonomy covers four layers (see `docs/OBSERVABILITY.md`):
/// kernel scheduling, network, DSM protocol, and application spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    // ── kernel layer ────────────────────────────────────────────────────
    /// A simulated process began executing its body.
    ProcStart,
    /// A simulated process ran to completion.
    ProcExit,

    // ── network layer ───────────────────────────────────────────────────
    /// A datagram was handed to the network model by `node`.
    NetSend {
        /// Destination process.
        dst: NodeId,
        /// Bytes on the wire including headers.
        wire_bytes: u64,
        /// Demultiplexing tag.
        tag: u64,
        /// Service-class (handler-dispatched) rather than mailbox delivery.
        svc: bool,
    },
    /// A datagram arrived at `node` (the destination).
    NetRecv {
        /// Originating process.
        src: NodeId,
        /// Bytes on the wire including headers.
        wire_bytes: u64,
        /// Demultiplexing tag.
        tag: u64,
    },
    /// The network model dropped a datagram sent by `node`.
    NetDrop {
        /// Intended destination.
        dst: NodeId,
        /// Bytes that would have been on the wire.
        wire_bytes: u64,
        /// True when the receiver queue was past the overflow threshold —
        /// the congestion-loss regime, as opposed to background bit error.
        overflow: bool,
    },
    /// The reliable transport on `node` timed out and retransmitted a call.
    Rexmit {
        /// Callee the request is retried against.
        dst: NodeId,
        /// RPC tag of the retried call.
        tag: u64,
    },

    // ── DSM protocol layer ──────────────────────────────────────────────
    /// `node` faulted on a shared page.
    PageFault {
        /// Page index within the shared region.
        page: u64,
        /// Write fault (twin created) vs read fault.
        write: bool,
    },
    /// `node` asked `to` for diffs of a page (LRC/VC_d fault service).
    DiffRequest {
        /// Page index.
        page: u64,
        /// Node serving the diff.
        to: NodeId,
    },
    /// `node` applied a diff (or whole page) to its copy.
    DiffApply {
        /// Page index.
        page: u64,
        /// Encoded diff size in bytes.
        bytes: u64,
    },
    /// `node` applied an interval of write notices from `owner`.
    ///
    /// `scope` is 0 for the global LRC history and `view + 1` for per-view
    /// VC histories; within one `(node, scope, owner)` series the interval
    /// sequence numbers must advance monotonically — this is the
    /// vector-time-causality invariant the checker enforces.
    WriteNoticeApply {
        /// Node whose writes the notices describe.
        owner: NodeId,
        /// Interval sequence number in the owner's history.
        seq: u64,
        /// History scope: 0 = global (LRC), otherwise view id + 1.
        scope: u64,
        /// Number of pages invalidated or updated.
        pages: u64,
    },
    /// `node` started waiting for a view.
    AcquireStart {
        /// View id.
        view: u64,
        /// Write (exclusive) vs read acquisition.
        write: bool,
    },
    /// `node` was granted the view and left the acquire call.
    AcquireEnd {
        /// View id.
        view: u64,
        /// Write vs read acquisition.
        write: bool,
        /// Version of the view carried by the grant.
        version: u64,
        /// Consistency payload bytes carried by the grant.
        bytes: u64,
    },
    /// `node` released a view (release fully acknowledged).
    ReleaseDone {
        /// View id.
        view: u64,
        /// Write vs read release.
        write: bool,
    },
    /// The view home on `node` sent a grant to a waiting requester.
    ViewGrantSent {
        /// View id.
        view: u64,
        /// Requester being granted.
        to: NodeId,
        /// View version carried.
        version: u64,
        /// Consistency payload bytes carried.
        bytes: u64,
    },
    /// `node` entered a barrier and sent its arrival message.
    BarrierEnter {
        /// Barrier id.
        id: u64,
        /// Episode counter (how many times `node` has entered this barrier).
        epoch: u64,
    },
    /// `node` left the barrier after the release arrived.
    BarrierExit {
        /// Barrier id.
        id: u64,
        /// Episode counter.
        epoch: u64,
        /// Write notices carried by the release message (must be 0 for VC).
        notices: u64,
    },
    /// `node` started waiting for a lock.
    LockAcquireStart {
        /// Lock id.
        lock: u64,
    },
    /// `node` obtained the lock.
    LockAcquireEnd {
        /// Lock id.
        lock: u64,
    },
    /// `node` released the lock.
    LockRelease {
        /// Lock id.
        lock: u64,
    },
    /// `node` crashed and restarted its DSM engine: volatile state (page
    /// copies, pending invalidations, view versions) was lost; its durable
    /// write-ahead log survived. Recovery is lazy via version-0 acquires.
    NodeCrash {
        /// Materialized page buffers lost in the crash.
        pages: u64,
    },

    // ── correctness checking (vopp-racecheck) ───────────────────────────
    /// The happens-before checker confirmed a data race: `node`'s access is
    /// unordered with a conflicting access by `other`.
    RaceDetected {
        /// Page both accesses touch.
        page: u64,
        /// The other node of the unordered pair.
        other: NodeId,
        /// First byte of this node's access range (absolute address).
        start: u64,
        /// One past the last byte of the range.
        end: u64,
        /// Whether this node's access was a write.
        write: bool,
    },
    /// The view-discipline checker flagged a VOPP access by `node`.
    DisciplineViolation {
        /// Broken rule (stable snake_case label from vopp-racecheck).
        rule: String,
        /// Page touched.
        page: u64,
        /// First byte of the access range (absolute address).
        start: u64,
        /// One past the last byte of the range.
        end: u64,
        /// Whether the access was a write.
        write: bool,
    },

    // ── application layer ───────────────────────────────────────────────
    /// The serving workload on `node` completed one request.
    ServeRequest {
        /// Shard the request addressed.
        shard: u64,
        /// PUT (write) vs GET (read).
        write: bool,
        /// Open-loop latency: completion minus scheduled arrival.
        latency_ns: u64,
    },
    /// An application-level span opened (e.g. a `with_view` bracket).
    SpanBegin {
        /// Span label.
        name: String,
    },
    /// The matching span closed.
    SpanEnd {
        /// Span label.
        name: String,
    },
}

impl EventKind {
    /// Stable machine name of the variant, used as the JSON `"kind"` field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ProcStart => "proc_start",
            EventKind::ProcExit => "proc_exit",
            EventKind::NetSend { .. } => "net_send",
            EventKind::NetRecv { .. } => "net_recv",
            EventKind::NetDrop { .. } => "net_drop",
            EventKind::Rexmit { .. } => "rexmit",
            EventKind::PageFault { .. } => "page_fault",
            EventKind::DiffRequest { .. } => "diff_request",
            EventKind::DiffApply { .. } => "diff_apply",
            EventKind::WriteNoticeApply { .. } => "write_notice_apply",
            EventKind::AcquireStart { .. } => "acquire_start",
            EventKind::AcquireEnd { .. } => "acquire_end",
            EventKind::ReleaseDone { .. } => "release_done",
            EventKind::ViewGrantSent { .. } => "view_grant_sent",
            EventKind::BarrierEnter { .. } => "barrier_enter",
            EventKind::BarrierExit { .. } => "barrier_exit",
            EventKind::LockAcquireStart { .. } => "lock_acquire_start",
            EventKind::LockAcquireEnd { .. } => "lock_acquire_end",
            EventKind::LockRelease { .. } => "lock_release",
            EventKind::NodeCrash { .. } => "node_crash",
            EventKind::RaceDetected { .. } => "race_detected",
            EventKind::DisciplineViolation { .. } => "discipline_violation",
            EventKind::ServeRequest { .. } => "serve_request",
            EventKind::SpanBegin { .. } => "span_begin",
            EventKind::SpanEnd { .. } => "span_end",
        }
    }
}

impl Event {
    /// Write the canonical JSON object form.
    pub fn write_json<S: Sink>(&self, w: &mut Writer<'_, S>) {
        w.begin_obj();
        w.field_u64("t", self.t);
        w.field_u64("node", self.node as u64);
        w.field_str("kind", self.kind.name());
        match &self.kind {
            EventKind::ProcStart | EventKind::ProcExit => {}
            EventKind::NetSend {
                dst,
                wire_bytes,
                tag,
                svc,
            } => {
                w.field_u64("dst", *dst as u64);
                w.field_u64("wire_bytes", *wire_bytes);
                w.field_u64("tag", *tag);
                w.field_bool("svc", *svc);
            }
            EventKind::NetRecv {
                src,
                wire_bytes,
                tag,
            } => {
                w.field_u64("src", *src as u64);
                w.field_u64("wire_bytes", *wire_bytes);
                w.field_u64("tag", *tag);
            }
            EventKind::NetDrop {
                dst,
                wire_bytes,
                overflow,
            } => {
                w.field_u64("dst", *dst as u64);
                w.field_u64("wire_bytes", *wire_bytes);
                w.field_bool("overflow", *overflow);
            }
            EventKind::Rexmit { dst, tag } => {
                w.field_u64("dst", *dst as u64);
                w.field_u64("tag", *tag);
            }
            EventKind::PageFault { page, write } => {
                w.field_u64("page", *page);
                w.field_bool("write", *write);
            }
            EventKind::DiffRequest { page, to } => {
                w.field_u64("page", *page);
                w.field_u64("to", *to as u64);
            }
            EventKind::DiffApply { page, bytes } => {
                w.field_u64("page", *page);
                w.field_u64("bytes", *bytes);
            }
            EventKind::WriteNoticeApply {
                owner,
                seq,
                scope,
                pages,
            } => {
                w.field_u64("owner", *owner as u64);
                w.field_u64("seq", *seq);
                w.field_u64("scope", *scope);
                w.field_u64("pages", *pages);
            }
            EventKind::AcquireStart { view, write } => {
                w.field_u64("view", *view);
                w.field_bool("write", *write);
            }
            EventKind::AcquireEnd {
                view,
                write,
                version,
                bytes,
            } => {
                w.field_u64("view", *view);
                w.field_bool("write", *write);
                w.field_u64("version", *version);
                w.field_u64("bytes", *bytes);
            }
            EventKind::ReleaseDone { view, write } => {
                w.field_u64("view", *view);
                w.field_bool("write", *write);
            }
            EventKind::ViewGrantSent {
                view,
                to,
                version,
                bytes,
            } => {
                w.field_u64("view", *view);
                w.field_u64("to", *to as u64);
                w.field_u64("version", *version);
                w.field_u64("bytes", *bytes);
            }
            EventKind::BarrierEnter { id, epoch } => {
                w.field_u64("id", *id);
                w.field_u64("epoch", *epoch);
            }
            EventKind::BarrierExit { id, epoch, notices } => {
                w.field_u64("id", *id);
                w.field_u64("epoch", *epoch);
                w.field_u64("notices", *notices);
            }
            EventKind::LockAcquireStart { lock }
            | EventKind::LockAcquireEnd { lock }
            | EventKind::LockRelease { lock } => {
                w.field_u64("lock", *lock);
            }
            EventKind::NodeCrash { pages } => {
                w.field_u64("pages", *pages);
            }
            EventKind::ServeRequest {
                shard,
                write,
                latency_ns,
            } => {
                w.field_u64("shard", *shard);
                w.field_bool("write", *write);
                w.field_u64("latency_ns", *latency_ns);
            }
            EventKind::RaceDetected {
                page,
                other,
                start,
                end,
                write,
            } => {
                w.field_u64("page", *page);
                w.field_u64("other", *other as u64);
                w.field_u64("start", *start);
                w.field_u64("end", *end);
                w.field_bool("write", *write);
            }
            EventKind::DisciplineViolation {
                rule,
                page,
                start,
                end,
                write,
            } => {
                w.field_str("rule", rule);
                w.field_u64("page", *page);
                w.field_u64("start", *start);
                w.field_u64("end", *end);
                w.field_bool("write", *write);
            }
            EventKind::SpanBegin { name } | EventKind::SpanEnd { name } => {
                w.field_str("name", name);
            }
        }
        w.end_obj();
    }

    /// Deserialize from the canonical JSON object form.
    pub fn from_value(v: &Value) -> Result<Event, String> {
        let t = v.get("t").and_then(Value::as_u64).ok_or("missing 't'")?;
        let node = v
            .get("node")
            .and_then(Value::as_usize)
            .ok_or("missing 'node'")?;
        let kind_name = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("missing 'kind'")?;

        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{kind_name}: missing '{key}'"))
        };
        let id = |key: &str| -> Result<NodeId, String> { u(key).map(|n| n as NodeId) };
        let b = |key: &str| -> Result<bool, String> {
            v.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("{kind_name}: missing '{key}'"))
        };
        let s = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{kind_name}: missing '{key}'"))
        };

        let kind = match kind_name {
            "proc_start" => EventKind::ProcStart,
            "proc_exit" => EventKind::ProcExit,
            "net_send" => EventKind::NetSend {
                dst: id("dst")?,
                wire_bytes: u("wire_bytes")?,
                tag: u("tag")?,
                svc: b("svc")?,
            },
            "net_recv" => EventKind::NetRecv {
                src: id("src")?,
                wire_bytes: u("wire_bytes")?,
                tag: u("tag")?,
            },
            "net_drop" => EventKind::NetDrop {
                dst: id("dst")?,
                wire_bytes: u("wire_bytes")?,
                overflow: b("overflow")?,
            },
            "rexmit" => EventKind::Rexmit {
                dst: id("dst")?,
                tag: u("tag")?,
            },
            "page_fault" => EventKind::PageFault {
                page: u("page")?,
                write: b("write")?,
            },
            "diff_request" => EventKind::DiffRequest {
                page: u("page")?,
                to: id("to")?,
            },
            "diff_apply" => EventKind::DiffApply {
                page: u("page")?,
                bytes: u("bytes")?,
            },
            "write_notice_apply" => EventKind::WriteNoticeApply {
                owner: id("owner")?,
                seq: u("seq")?,
                scope: u("scope")?,
                pages: u("pages")?,
            },
            "acquire_start" => EventKind::AcquireStart {
                view: u("view")?,
                write: b("write")?,
            },
            "acquire_end" => EventKind::AcquireEnd {
                view: u("view")?,
                write: b("write")?,
                version: u("version")?,
                bytes: u("bytes")?,
            },
            "release_done" => EventKind::ReleaseDone {
                view: u("view")?,
                write: b("write")?,
            },
            "view_grant_sent" => EventKind::ViewGrantSent {
                view: u("view")?,
                to: id("to")?,
                version: u("version")?,
                bytes: u("bytes")?,
            },
            "barrier_enter" => EventKind::BarrierEnter {
                id: u("id")?,
                epoch: u("epoch")?,
            },
            "barrier_exit" => EventKind::BarrierExit {
                id: u("id")?,
                epoch: u("epoch")?,
                notices: u("notices")?,
            },
            "lock_acquire_start" => EventKind::LockAcquireStart { lock: u("lock")? },
            "lock_acquire_end" => EventKind::LockAcquireEnd { lock: u("lock")? },
            "lock_release" => EventKind::LockRelease { lock: u("lock")? },
            "node_crash" => EventKind::NodeCrash { pages: u("pages")? },
            "serve_request" => EventKind::ServeRequest {
                shard: u("shard")?,
                write: b("write")?,
                latency_ns: u("latency_ns")?,
            },
            "race_detected" => EventKind::RaceDetected {
                page: u("page")?,
                other: id("other")?,
                start: u("start")?,
                end: u("end")?,
                write: b("write")?,
            },
            "discipline_violation" => EventKind::DisciplineViolation {
                rule: s("rule")?,
                page: u("page")?,
                start: u("start")?,
                end: u("end")?,
                write: b("write")?,
            },
            "span_begin" => EventKind::SpanBegin { name: s("name")? },
            "span_end" => EventKind::SpanEnd { name: s("name")? },
            other => return Err(format!("unknown event kind '{other}'")),
        };
        Ok(Event { t, node, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                t: 0,
                node: 0,
                kind: EventKind::ProcStart,
            },
            Event {
                t: 10,
                node: 1,
                kind: EventKind::NetSend {
                    dst: 2,
                    wire_bytes: 1458,
                    tag: 77,
                    svc: true,
                },
            },
            Event {
                t: 55_000,
                node: 2,
                kind: EventKind::NetRecv {
                    src: 1,
                    wire_bytes: 1458,
                    tag: 77,
                },
            },
            Event {
                t: 60_000,
                node: 3,
                kind: EventKind::NetDrop {
                    dst: 0,
                    wire_bytes: 58,
                    overflow: true,
                },
            },
            Event {
                t: 61_000,
                node: 3,
                kind: EventKind::Rexmit { dst: 0, tag: 9 },
            },
            Event {
                t: 70_000,
                node: 0,
                kind: EventKind::PageFault {
                    page: 12,
                    write: true,
                },
            },
            Event {
                t: 71_000,
                node: 0,
                kind: EventKind::DiffRequest { page: 12, to: 1 },
            },
            Event {
                t: 72_000,
                node: 0,
                kind: EventKind::DiffApply {
                    page: 12,
                    bytes: 256,
                },
            },
            Event {
                t: 73_000,
                node: 0,
                kind: EventKind::WriteNoticeApply {
                    owner: 1,
                    seq: 4,
                    scope: 3,
                    pages: 2,
                },
            },
            Event {
                t: 80_000,
                node: 2,
                kind: EventKind::AcquireStart {
                    view: 5,
                    write: true,
                },
            },
            Event {
                t: 90_000,
                node: 2,
                kind: EventKind::AcquireEnd {
                    view: 5,
                    write: true,
                    version: 17,
                    bytes: 4096,
                },
            },
            Event {
                t: 95_000,
                node: 2,
                kind: EventKind::ReleaseDone {
                    view: 5,
                    write: true,
                },
            },
            Event {
                t: 85_000,
                node: 1,
                kind: EventKind::ViewGrantSent {
                    view: 5,
                    to: 2,
                    version: 17,
                    bytes: 4096,
                },
            },
            Event {
                t: 100_000,
                node: 0,
                kind: EventKind::BarrierEnter { id: 0, epoch: 3 },
            },
            Event {
                t: 110_000,
                node: 0,
                kind: EventKind::BarrierExit {
                    id: 0,
                    epoch: 3,
                    notices: 0,
                },
            },
            Event {
                t: 111_000,
                node: 0,
                kind: EventKind::LockAcquireStart { lock: 2 },
            },
            Event {
                t: 112_000,
                node: 0,
                kind: EventKind::LockAcquireEnd { lock: 2 },
            },
            Event {
                t: 113_000,
                node: 0,
                kind: EventKind::LockRelease { lock: 2 },
            },
            Event {
                t: 113_200,
                node: 2,
                kind: EventKind::NodeCrash { pages: 18 },
            },
            Event {
                t: 113_300,
                node: 2,
                kind: EventKind::ServeRequest {
                    shard: 6,
                    write: true,
                    latency_ns: 480_000,
                },
            },
            Event {
                t: 113_500,
                node: 1,
                kind: EventKind::RaceDetected {
                    page: 7,
                    other: 2,
                    start: 0x7000,
                    end: 0x7008,
                    write: true,
                },
            },
            Event {
                t: 113_600,
                node: 2,
                kind: EventKind::DisciplineViolation {
                    rule: "unbracketed".to_string(),
                    page: 9,
                    start: 0x9010,
                    end: 0x9014,
                    write: false,
                },
            },
            Event {
                t: 114_000,
                node: 0,
                kind: EventKind::SpanBegin {
                    name: "view 5".to_string(),
                },
            },
            Event {
                t: 115_000,
                node: 0,
                kind: EventKind::SpanEnd {
                    name: "view 5".to_string(),
                },
            },
            Event {
                t: 120_000,
                node: 0,
                kind: EventKind::ProcExit,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        for ev in sample_events() {
            let mut text = String::new();
            ev.write_json(&mut Writer::compact(&mut text));
            let back = Event::from_value(&Value::parse(&text).unwrap()).unwrap();
            assert_eq!(back, ev, "round-trip mismatch for {}", ev.kind.name());
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let v = Value::parse(r#"{"t":1,"node":0,"kind":"warp_drive"}"#).unwrap();
        assert!(Event::from_value(&v).is_err());
    }
}
