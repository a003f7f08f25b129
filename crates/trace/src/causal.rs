//! Causal-edge recorder for the critical-path profiler.
//!
//! The simulation kernel executes exactly one context at a time: either an
//! application thread that has just been woken ([`CtxKind::Start`],
//! [`CtxKind::Compute`], [`CtxKind::Wait`], [`CtxKind::Timeout`]) or a
//! service handler dispatched for a delivered packet ([`CtxKind::Svc`]).
//! A [`CausalProfiler`] assigns every such context a record id and keeps,
//! per record, the edge to its *immediate causal predecessor*:
//!
//! * a compute resume or a timer expiry was caused by the same node's
//!   previous context (the one that scheduled it),
//! * a wake out of a blocking receive was caused by the context that sent
//!   the delivered packet (the packet carries the sender's record id),
//! * a service dispatch was caused by the context that sent the request.
//!
//! Because execution is serialized, the "currently executing context" is a
//! single atomic cell ([`CausalProfiler::cur_ctx`]) that the transport
//! reads when stamping outgoing packets — no per-thread state, no races,
//! and identical ids at any `--jobs` value (each run owns its profiler).
//!
//! On top of the kernel-level edges, the DSM layer annotates the same
//! timeline with [`OpSpan`]s: which protocol operation (barrier, acquire,
//! data fetch, flush) a blocking interval belonged to and which
//! view/page/lock it touched, plus the app/overhead/diff split of compute
//! intervals. Spans are pure annotations — they join against path segments
//! by interval containment after the run; nothing here perturbs virtual
//! time or event ordering.
//!
//! Recording is pure observation: with no profiler installed the hot paths
//! pay one `Option` test, and an installed profiler never feeds anything
//! back into the simulation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Sentinel record id: "no causal predecessor known".
pub const NO_CTX: u64 = u64::MAX;

/// What kind of context a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxKind {
    /// The startup resume at virtual time zero.
    Start,
    /// A wake out of a `compute()` sleep (the node was burning CPU).
    Compute,
    /// A wake out of a blocking receive (a packet delivery).
    Wait,
    /// A wake out of a blocking receive via its timeout timer.
    Timeout,
    /// A service-handler dispatch (runs at its packet's arrival instant).
    Svc,
}

/// One executed context: a node-local interval of virtual time ending at
/// the instant the context began running, plus its causal edges.
#[derive(Debug, Clone, Copy)]
pub struct CtxRecord {
    /// Node the context ran on.
    pub node: usize,
    /// Node-local clock before the wake (interval start). Equals `t_ns`
    /// for zero-width [`CtxKind::Svc`] records.
    pub prev_ns: u64,
    /// Virtual time the context began running (interval end).
    pub t_ns: u64,
    /// Context kind.
    pub kind: CtxKind,
    /// Record id of the causal predecessor: the packet sender's context
    /// for [`CtxKind::Wait`]/[`CtxKind::Svc`], the same node's previous
    /// context otherwise. [`NO_CTX`] only on [`CtxKind::Start`] records
    /// (or a packet predating the profiler, which cannot happen when the
    /// profiler is installed before the run).
    pub cause: u64,
    /// The same node's previous app-thread record ([`NO_CTX`] at start).
    pub prev: u64,
}

/// The protocol operation a timeline annotation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Application compute (with the overhead/diff split carried on the
    /// span).
    App,
    /// Deliberate idling (open-loop pacing).
    Idle,
    /// Barrier arrive/release.
    Barrier,
    /// Lock or view acquisition.
    Acquire,
    /// Remote data fetch (page or diff).
    Data,
    /// Flush/release-side sends (write notices, home flushes, releases).
    Flush,
    /// No annotation matched.
    Other,
}

impl OpKind {
    /// Stable artifact label.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::App => "app",
            OpKind::Idle => "idle",
            OpKind::Barrier => "barrier",
            OpKind::Acquire => "acquire",
            OpKind::Data => "data",
            OpKind::Flush => "flush",
            OpKind::Other => "other",
        }
    }
}

/// A node-local annotation interval: what protocol operation the node was
/// performing over `[lo_ns, hi_ns]` of its virtual timeline. Spans on one
/// node are disjoint and recorded in increasing time order (the node's
/// clock is monotone), so lookups are a binary search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    /// Interval start (node-local virtual time).
    pub lo_ns: u64,
    /// Interval end.
    pub hi_ns: u64,
    /// Operation kind.
    pub op: OpKind,
    /// Object identity: view/page/lock/barrier id, 0 when not applicable.
    pub obj: u64,
    /// Application share of a compute span (0 on wait spans).
    pub app_ns: u64,
    /// Protocol-overhead share of a compute span.
    pub overhead_ns: u64,
    /// Diff create/apply share of `overhead_ns` (the free-diff what-if).
    pub diff_ns: u64,
}

/// The finished recording: every context plus per-node annotations.
#[derive(Debug, Default)]
pub struct CausalLog {
    /// All context records, in execution order (ids are indices).
    pub records: Vec<CtxRecord>,
    /// Per node: the id of its latest app-thread record.
    pub last_wake: Vec<u64>,
    /// Per node: annotation spans in increasing time order.
    pub spans: Vec<Vec<OpSpan>>,
}

impl CausalLog {
    fn new(nprocs: usize) -> CausalLog {
        CausalLog {
            records: Vec::new(),
            last_wake: vec![NO_CTX; nprocs],
            spans: vec![Vec::new(); nprocs],
        }
    }

    /// The annotation span on `node` containing time `t_ns`, if any.
    pub fn span_at(&self, node: usize, t_ns: u64) -> Option<&OpSpan> {
        let spans = self.spans.get(node)?;
        // First span with hi_ns >= t_ns; containment then needs lo <= t.
        let i = spans.partition_point(|s| s.hi_ns < t_ns);
        spans.get(i).filter(|s| s.lo_ns <= t_ns)
    }
}

/// Race-free causal recorder, one per cluster run.
///
/// Installed on the simulation kernel before the run starts; the kernel
/// records wakes and service dispatches, the transport stamps packets with
/// [`CausalProfiler::cur_ctx`], and the DSM layer adds [`OpSpan`]s. The
/// mutex is uncontended by construction (one context executes at a time).
#[derive(Debug)]
pub struct CausalProfiler {
    cur: AtomicU64,
    log: Mutex<CausalLog>,
}

impl CausalProfiler {
    /// Fresh profiler for a run with `nprocs` nodes.
    pub fn new(nprocs: usize) -> CausalProfiler {
        CausalProfiler {
            cur: AtomicU64::new(NO_CTX),
            log: Mutex::new(CausalLog::new(nprocs)),
        }
    }

    /// Record id of the context executing right now (stamped onto every
    /// packet sent from it).
    pub fn cur_ctx(&self) -> u64 {
        self.cur.load(Ordering::Relaxed)
    }

    /// Record an app-thread wake on `node`: its clock advanced from
    /// `prev_ns` to `t_ns`. `pkt_cause` is the delivered packet's stamped
    /// sender context for [`CtxKind::Wait`] wakes and ignored otherwise
    /// (self-caused kinds chain to the node's previous record).
    pub fn record_wake(&self, node: usize, prev_ns: u64, t_ns: u64, kind: CtxKind, pkt_cause: u64) {
        let mut log = self.log.lock().expect("causal log lock");
        let id = log.records.len() as u64;
        let prev = log.last_wake[node];
        let cause = match kind {
            CtxKind::Wait => pkt_cause,
            _ => prev,
        };
        log.records.push(CtxRecord {
            node,
            prev_ns,
            t_ns,
            kind,
            cause,
            prev,
        });
        log.last_wake[node] = id;
        self.cur.store(id, Ordering::Relaxed);
    }

    /// Record a service-handler dispatch on `node` at `t_ns`, caused by
    /// the context that sent the request (`pkt_cause`).
    pub fn record_svc(&self, node: usize, t_ns: u64, pkt_cause: u64) {
        let mut log = self.log.lock().expect("causal log lock");
        let id = log.records.len() as u64;
        let prev = log.last_wake[node];
        log.records.push(CtxRecord {
            node,
            prev_ns: t_ns,
            t_ns,
            kind: CtxKind::Svc,
            cause: pkt_cause,
            prev,
        });
        self.cur.store(id, Ordering::Relaxed);
    }

    /// Annotate `[lo_ns, hi_ns]` on `node` with a protocol operation.
    /// Zero-width spans are dropped (they can never contain a segment).
    pub fn record_op(&self, node: usize, span: OpSpan) {
        if span.hi_ns <= span.lo_ns {
            return;
        }
        let mut log = self.log.lock().expect("causal log lock");
        debug_assert!(
            log.spans[node].last().map_or(0, |s| s.hi_ns) <= span.lo_ns,
            "op spans on one node must be disjoint and time-ordered"
        );
        log.spans[node].push(span);
    }

    /// Consume the recording (the run is over).
    pub fn take(&self) -> CausalLog {
        std::mem::take(&mut *self.log.lock().expect("causal log lock"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_records_chain_per_node() {
        let p = CausalProfiler::new(2);
        p.record_wake(0, 0, 0, CtxKind::Start, NO_CTX);
        p.record_wake(1, 0, 0, CtxKind::Start, NO_CTX);
        assert_eq!(p.cur_ctx(), 1);
        p.record_wake(0, 0, 500, CtxKind::Compute, NO_CTX);
        // Node 0 sends at clock 500 from record 2; node 1 wakes on it.
        p.record_wake(1, 0, 700, CtxKind::Wait, 2);
        let log = p.take();
        assert_eq!(log.records.len(), 4);
        let w = log.records[3];
        assert_eq!((w.node, w.prev_ns, w.t_ns), (1, 0, 700));
        assert_eq!(w.kind, CtxKind::Wait);
        assert_eq!(w.cause, 2, "wait wakes chain to the packet sender");
        assert_eq!(w.prev, 1, "node-local chain is independent of cause");
        let c = log.records[2];
        assert_eq!(c.cause, 0, "computes chain to the node's own history");
        assert_eq!(log.last_wake, vec![2, 3]);
    }

    #[test]
    fn svc_records_are_zero_width_and_do_not_advance_the_node_chain() {
        let p = CausalProfiler::new(2);
        p.record_wake(0, 0, 0, CtxKind::Start, NO_CTX);
        p.record_svc(1, 300, 0);
        let log = p.take();
        let s = log.records[1];
        assert_eq!((s.prev_ns, s.t_ns, s.kind), (300, 300, CtxKind::Svc));
        assert_eq!(s.cause, 0);
        assert_eq!(log.last_wake[1], NO_CTX, "svc is not an app-thread wake");
    }

    #[test]
    fn span_lookup_by_containment() {
        let p = CausalProfiler::new(1);
        let span = |lo, hi, op| OpSpan {
            lo_ns: lo,
            hi_ns: hi,
            op,
            obj: 7,
            app_ns: 0,
            overhead_ns: 0,
            diff_ns: 0,
        };
        p.record_op(0, span(100, 200, OpKind::Barrier));
        p.record_op(0, span(200, 200, OpKind::Idle)); // dropped: zero-width
        p.record_op(0, span(250, 400, OpKind::Data));
        let log = p.take();
        assert_eq!(log.spans[0].len(), 2);
        assert_eq!(log.span_at(0, 150).unwrap().op, OpKind::Barrier);
        assert_eq!(log.span_at(0, 200).unwrap().op, OpKind::Barrier);
        assert_eq!(log.span_at(0, 240), None);
        assert_eq!(log.span_at(0, 400).unwrap().op, OpKind::Data);
        assert_eq!(log.span_at(0, 401), None);
    }
}
