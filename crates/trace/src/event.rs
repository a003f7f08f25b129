//! The structured event vocabulary recorded by every runtime layer.
//!
//! Events deliberately use raw `u64` nanosecond timestamps and plain `usize`
//! node ids rather than `vopp-sim`'s newtypes: the simulator depends on this
//! crate (not the other way around), so the trace vocabulary must stand
//! alone. Each variant maps 1:1 to a JSON object via [`Event::write_json`] /
//! [`Event::from_value`]; the conformance checker and the Perfetto exporter
//! both consume the in-memory form.
//!
//! Every kind is declared once, in the `event_kinds!` table below: its
//! variant, docs, JSON `"kind"` name and fields in JSON key order. The
//! macro derives the enum, [`EventKind::name`], [`EventKind::NAMES`] and
//! both directions of the JSON form from that one entry.

use std::sync::Arc;

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

/// Expands the kind table into the [`EventKind`] enum, its JSON names and
/// the per-kind halves of [`Event::write_json`] and [`Event::from_value`].
macro_rules! event_kinds {
    (
        $(#[$meta:meta])*
        pub enum EventKind {
            $(
                $(#[$doc:meta])*
                $variant:ident = $json:literal $({
                    $($(#[$fdoc:meta])* $field:ident: $ty:ty),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum EventKind {
            $($(#[$doc])* $variant $({ $($(#[$fdoc])* $field: $ty),* })?,)*
        }

        impl EventKind {
            /// The JSON `"kind"` name of every declared kind, in declaration
            /// order.
            pub const NAMES: &'static [&'static str] = &[$($json),*];

            /// Stable machine name of the variant, used as the JSON `"kind"` field.
            pub fn name(&self) -> &'static str {
                match self {
                    $(EventKind::$variant { .. } => $json,)*
                }
            }

            /// Write the `kind` member and the variant's own fields, in
            /// declaration order, each key as one escape-free literal.
            fn write_fields<S: Sink>(&self, w: &mut Writer<'_, S>) {
                match self {
                    $(EventKind::$variant $({ $($field),* })? => {
                        w.member(concat!(",\"kind\":\"", $json, "\""));
                        $($(
                            w.member(concat!(",\"", stringify!($field), "\":"));
                            Field::write($field, w);
                        )*)?
                    })*
                }
            }

            /// Read the fields of the kind named `kind` from its JSON object.
            fn read_fields(kind: &str, v: &Value) -> Result<EventKind, String> {
                Ok(match kind {
                    $($json => EventKind::$variant $({
                        $($field: read_field(v, kind, stringify!($field))?),*
                    })?,)*
                    other => return Err(format!("unknown event kind '{other}'")),
                })
            }
        }
    };
}

/// The JSON form of one field type: the value behind its key.
trait Field: Sized {
    fn write<S: Sink>(&self, w: &mut Writer<'_, S>);
    fn read(v: &Value) -> Option<Self>;
}

impl Field for u64 {
    fn write<S: Sink>(&self, w: &mut Writer<'_, S>) {
        w.u64(*self);
    }
    fn read(v: &Value) -> Option<u64> {
        v.as_u64()
    }
}

impl Field for NodeId {
    fn write<S: Sink>(&self, w: &mut Writer<'_, S>) {
        w.u64(*self as u64);
    }
    fn read(v: &Value) -> Option<NodeId> {
        v.as_usize()
    }
}

impl Field for bool {
    fn write<S: Sink>(&self, w: &mut Writer<'_, S>) {
        w.bool(*self);
    }
    fn read(v: &Value) -> Option<bool> {
        v.as_bool()
    }
}

impl Field for String {
    fn write<S: Sink>(&self, w: &mut Writer<'_, S>) {
        w.str(self);
    }
    fn read(v: &Value) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

/// A span label: the `SpanBegin` and `SpanEnd` of one bracket share it.
impl Field for Arc<str> {
    fn write<S: Sink>(&self, w: &mut Writer<'_, S>) {
        w.str(self);
    }
    fn read(v: &Value) -> Option<Arc<str>> {
        v.as_str().map(Arc::from)
    }
}

fn read_field<T: Field>(v: &Value, kind: &str, key: &str) -> Result<T, String> {
    v.get(key)
        .and_then(T::read)
        .ok_or_else(|| format!("{kind}: missing '{key}'"))
}

event_kinds! {
    /// Everything the runtime layers know how to record.
    ///
    /// The taxonomy covers four layers (see `docs/OBSERVABILITY.md`):
    /// kernel scheduling, network, DSM protocol, and application spans.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum EventKind {
        // ── kernel layer ────────────────────────────────────────────────
        /// A simulated process began executing its body.
        ProcStart = "proc_start",
        /// A simulated process ran to completion.
        ProcExit = "proc_exit",

        // ── network layer ───────────────────────────────────────────────
        /// A datagram was handed to the network model by `node`.
        NetSend = "net_send" {
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
        NetRecv = "net_recv" {
            /// Originating process.
            src: NodeId,
            /// Bytes on the wire including headers.
            wire_bytes: u64,
            /// Demultiplexing tag.
            tag: u64,
        },
        /// The network model dropped a datagram sent by `node`.
        NetDrop = "net_drop" {
            /// Intended destination.
            dst: NodeId,
            /// Bytes that would have been on the wire.
            wire_bytes: u64,
            /// True when the receiver queue was past the overflow threshold —
            /// the congestion-loss regime, as opposed to background bit error.
            overflow: bool,
        },
        /// The reliable transport on `node` timed out and retransmitted a call.
        Rexmit = "rexmit" {
            /// Callee the request is retried against.
            dst: NodeId,
            /// RPC tag of the retried call.
            tag: u64,
        },

        // ── DSM protocol layer ──────────────────────────────────────────
        /// `node` faulted on a shared page.
        PageFault = "page_fault" {
            /// Page index within the shared region.
            page: u64,
            /// Write fault (twin created) vs read fault.
            write: bool,
        },
        /// `node` asked `to` for diffs of a page (LRC/VC_d fault service).
        DiffRequest = "diff_request" {
            /// Page index.
            page: u64,
            /// Node serving the diff.
            to: NodeId,
        },
        /// `node` applied a diff (or whole page) to its copy.
        DiffApply = "diff_apply" {
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
        WriteNoticeApply = "write_notice_apply" {
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
        AcquireStart = "acquire_start" {
            /// View id.
            view: u64,
            /// Write (exclusive) vs read acquisition.
            write: bool,
        },
        /// `node` was granted the view and left the acquire call.
        AcquireEnd = "acquire_end" {
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
        ReleaseDone = "release_done" {
            /// View id.
            view: u64,
            /// Write vs read release.
            write: bool,
        },
        /// The view home on `node` sent a grant to a waiting requester.
        ViewGrantSent = "view_grant_sent" {
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
        BarrierEnter = "barrier_enter" {
            /// Barrier id.
            id: u64,
            /// Episode counter (how many times `node` has entered this barrier).
            epoch: u64,
        },
        /// `node` left the barrier after the release arrived.
        BarrierExit = "barrier_exit" {
            /// Barrier id.
            id: u64,
            /// Episode counter.
            epoch: u64,
            /// Write notices carried by the release message (must be 0 for VC).
            notices: u64,
        },
        /// `node` started waiting for a lock.
        LockAcquireStart = "lock_acquire_start" {
            /// Lock id.
            lock: u64,
        },
        /// `node` obtained the lock.
        LockAcquireEnd = "lock_acquire_end" {
            /// Lock id.
            lock: u64,
        },
        /// `node` released the lock.
        LockRelease = "lock_release" {
            /// Lock id.
            lock: u64,
        },
        /// `node` crashed and restarted its DSM engine: volatile state (page
        /// copies, pending invalidations, view versions) was lost; its durable
        /// write-ahead log survived. Recovery is lazy via version-0 acquires.
        NodeCrash = "node_crash" {
            /// Materialized page buffers lost in the crash.
            pages: u64,
        },

        // ── correctness checking (vopp-racecheck) ───────────────────────
        /// The happens-before checker confirmed a data race: `node`'s access is
        /// unordered with a conflicting access by `other`.
        RaceDetected = "race_detected" {
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
        DisciplineViolation = "discipline_violation" {
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

        // ── application layer ───────────────────────────────────────────
        /// The serving workload on `node` completed one request.
        ServeRequest = "serve_request" {
            /// Shard the request addressed.
            shard: u64,
            /// PUT (write) vs GET (read).
            write: bool,
            /// Open-loop latency: completion minus scheduled arrival.
            latency_ns: u64,
        },
        /// An application-level span opened (e.g. a `with_view` bracket).
        SpanBegin = "span_begin" {
            /// Span label, shared with the matching `SpanEnd`.
            name: Arc<str>,
        },
        /// The matching span closed.
        SpanEnd = "span_end" {
            /// Span label.
            name: Arc<str>,
        },
    }
}

impl Event {
    /// Write the canonical JSON object form.
    pub fn write_json<S: Sink>(&self, w: &mut Writer<'_, S>) {
        w.begin_obj();
        w.member(",\"t\":");
        w.u64(self.t);
        w.member(",\"node\":");
        w.u64(self.node as u64);
        self.kind.write_fields(w);
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
        let kind = EventKind::read_fields(kind_name, v)?;
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
                    name: "view 5".into(),
                },
            },
            Event {
                t: 115_000,
                node: 0,
                kind: EventKind::SpanEnd {
                    name: "view 5".into(),
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
    fn the_samples_hold_one_event_of_every_declared_kind() {
        let mut declared = EventKind::NAMES.to_vec();
        declared.sort_unstable();
        let count = declared.len();
        declared.dedup();
        assert_eq!(declared.len(), count, "two kinds share a JSON name");
        let mut sampled: Vec<_> = sample_events().iter().map(|e| e.kind.name()).collect();
        sampled.sort_unstable();
        assert_eq!(sampled, declared, "one sample per declared kind");
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let v = Value::parse(r#"{"t":1,"node":0,"kind":"warp_drive"}"#).unwrap();
        assert_eq!(
            Event::from_value(&v),
            Err("unknown event kind 'warp_drive'".to_string())
        );
    }

    #[test]
    fn a_missing_field_is_named_with_its_kind() {
        let v = Value::parse(r#"{"t":1,"node":0,"kind":"net_send","dst":2}"#).unwrap();
        assert_eq!(
            Event::from_value(&v),
            Err("net_send: missing 'wire_bytes'".to_string())
        );
    }
}
