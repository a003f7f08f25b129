//! Critical-path extraction, blame attribution, and what-if estimators.
//!
//! Input: the [`CausalLog`] a [`vopp_trace::CausalProfiler`] recorded
//! during one cluster run. The walk starts at the context that produced
//! the run's makespan (the latest per-node clock) and follows each
//! record's causal edge backward:
//!
//! * a compute wake charges its interval to CPU on its node and continues
//!   on the node's own history,
//! * a receive wake charges the tail of its blocked interval — from the
//!   instant the waking packet was *sent* — to the network, then continues
//!   on the sender's chain (or, if the send predates the block, charges
//!   the whole blocked interval to the network and continues locally:
//!   after that point delivery was the only remaining constraint),
//! * a service dispatch contributes the request's flight and chains to the
//!   requester — so a barrier release walks through the home node's
//!   handler to the *last-arriving* participant, and a deferred lock grant
//!   walks through the release that triggered it.
//!
//! Every step moves the time cursor to exactly where the next record ends,
//! so the segments telescope: their lengths sum to the makespan *exactly*
//! (debug-asserted). Blame refinement joins each segment against the DSM
//! layer's [`vopp_trace::OpSpan`] annotations by interval containment, yielding the
//! `(node, category, protocol-op, object)` tuple per nanosecond.
//!
//! What-if estimators follow from the path by an exchange argument: if all
//! edges of kind X became free, the original path minus its X-time is
//! still a dependency chain in the new graph, so the new makespan is at
//! least `T - X_on_path` and the achievable speedup is at most
//! `T / (T - X_on_path)` — a true *ceiling*, not an estimate of the
//! realized gain (other paths can become critical first).

use std::io;

use vopp_trace::json::{IoSink, Part, Sink, Writer};
use vopp_trace::{CausalLog, CtxKind, OpKind, NO_CTX};

/// How a critical-path segment spent its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegCat {
    /// The node was burning (virtual) CPU.
    Cpu,
    /// The time was network flight/queueing or waiting on a remote chain.
    Net,
    /// The node sat out a retransmission timeout.
    Timeout,
}

impl SegCat {
    /// Stable artifact label.
    pub fn label(self) -> &'static str {
        match self {
            SegCat::Cpu => "cpu",
            SegCat::Net => "net",
            SegCat::Timeout => "timeout",
        }
    }
}

/// One segment of the virtual-time critical path.
#[derive(Debug, Clone, Copy)]
pub struct CritSeg {
    /// Node the segment is blamed on (the consumer for network segments).
    pub node: usize,
    /// Segment start (virtual ns).
    pub lo_ns: u64,
    /// Segment end (virtual ns).
    pub hi_ns: u64,
    /// Time category.
    pub cat: SegCat,
    /// Protocol operation ([`OpKind::Other`] when unannotated).
    pub op: OpKind,
    /// View/page/lock id of the operation (0 when not applicable).
    pub obj: u64,
    /// Application share of a CPU segment.
    pub app_ns: u64,
    /// Protocol-overhead share of a CPU segment.
    pub overhead_ns: u64,
    /// Diff create/apply share of `overhead_ns`.
    pub diff_ns: u64,
}

impl CritSeg {
    /// Segment length in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.hi_ns - self.lo_ns
    }
}

/// The extracted critical path of one run.
#[derive(Debug, Clone, Default)]
pub struct CritPath {
    /// The run's makespan (latest per-node clock), in virtual ns.
    pub makespan_ns: u64,
    /// Node whose finish produced the makespan (lowest id on ties).
    pub end_node: usize,
    /// Path segments in forward time order; lengths sum to `makespan_ns`.
    pub segs: Vec<CritSeg>,
}

impl CritPath {
    fn sum(&self, f: impl Fn(&CritSeg) -> u64) -> u64 {
        self.segs.iter().map(f).sum()
    }

    /// CPU time on the path (app + overhead).
    pub fn cpu_ns(&self) -> u64 {
        self.sum(|s| if s.cat == SegCat::Cpu { s.len_ns() } else { 0 })
    }

    /// Application share of path CPU time.
    pub fn cpu_app_ns(&self) -> u64 {
        self.sum(|s| s.app_ns)
    }

    /// Protocol-overhead share of path CPU time.
    pub fn cpu_overhead_ns(&self) -> u64 {
        self.sum(|s| s.overhead_ns)
    }

    /// Diff create/apply share of path CPU time.
    pub fn diff_cpu_ns(&self) -> u64 {
        self.sum(|s| s.diff_ns)
    }

    /// Network (flight/queueing/remote-chain) time on the path.
    pub fn net_ns(&self) -> u64 {
        self.sum(|s| if s.cat == SegCat::Net { s.len_ns() } else { 0 })
    }

    /// Retransmission-timeout time on the path.
    pub fn timeout_ns(&self) -> u64 {
        self.sum(|s| {
            if s.cat == SegCat::Timeout {
                s.len_ns()
            } else {
                0
            }
        })
    }

    /// Non-CPU path time blamed on a protocol operation.
    pub fn wait_ns(&self, op: OpKind) -> u64 {
        self.sum(|s| {
            if s.cat != SegCat::Cpu && s.op == op {
                s.len_ns()
            } else {
                0
            }
        })
    }

    /// CPU path time whose annotation is `op` (e.g. [`OpKind::Idle`]).
    pub fn cpu_op_ns(&self, op: OpKind) -> u64 {
        self.sum(|s| {
            if s.cat == SegCat::Cpu && s.op == op {
                s.len_ns()
            } else {
                0
            }
        })
    }

    /// Percentage of the makespan, `0.0` on an empty run.
    pub fn pct(&self, ns: u64) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / self.makespan_ns as f64
        }
    }

    /// Speedup ceiling if `x_ns` of path time became free:
    /// `T / (T - x)`. Infinite when the whole path is `x`.
    pub fn ceiling(&self, x_ns: u64) -> f64 {
        let t = self.makespan_ns;
        debug_assert!(x_ns <= t, "what-if time exceeds the makespan");
        if t == 0 {
            1.0
        } else if x_ns >= t {
            f64::INFINITY
        } else {
            t as f64 / (t - x_ns) as f64
        }
    }

    /// Path time removed by a zero-latency, infinite-bandwidth network:
    /// every network segment.
    pub fn whatif_net_free_ns(&self) -> u64 {
        self.net_ns()
    }

    /// Path time removed by free diff create/apply: the diff share of
    /// path CPU time (fetch round-trips themselves stay).
    pub fn whatif_diff_free_ns(&self) -> u64 {
        self.diff_cpu_ns()
    }

    /// Path time removed by an infinite-fan-in (free) barrier: every
    /// non-CPU segment blamed on a barrier operation.
    pub fn whatif_barrier_free_ns(&self) -> u64 {
        self.wait_ns(OpKind::Barrier)
    }
}

/// Walk the causal log backward from the run's completion and return the
/// exact virtual-time critical path. `proc_end_ns` is each node's final
/// clock. Panics (debug) if the segments do not telescope to the makespan.
pub fn extract(log: &CausalLog, proc_end_ns: &[u64]) -> CritPath {
    let makespan_ns = proc_end_ns.iter().copied().max().unwrap_or(0);
    let end_node = proc_end_ns
        .iter()
        .position(|&t| t == makespan_ns)
        .unwrap_or(0);
    let mut segs: Vec<CritSeg> = Vec::new();
    // The op a network chain is being consumed by: set at the receive wake
    // that starts (in backward order) the chain, carried across service
    // hops so e.g. barrier fan-in flight is blamed on the barrier.
    let mut consumer: (usize, OpKind, u64) = (end_node, OpKind::Other, 0);
    let mut cur = log.last_wake.get(end_node).copied().unwrap_or(NO_CTX);
    while cur != NO_CTX {
        let r = log.records[cur as usize];
        match r.kind {
            CtxKind::Start => break,
            CtxKind::Compute => {
                // A compute annotation (flush/idle) always ends exactly at
                // the wake time; a span merely *starting* there belongs to
                // the wait that follows, not to this interval.
                let (op, obj, app, ovh, diff) = match log.span_at(r.node, r.t_ns) {
                    Some(s) if s.hi_ns == r.t_ns => {
                        (s.op, s.obj, s.app_ns, s.overhead_ns, s.diff_ns)
                    }
                    // Unannotated compute (raw kernel users): all app time.
                    _ => (OpKind::Other, 0, r.t_ns - r.prev_ns, 0, 0),
                };
                segs.push(CritSeg {
                    node: r.node,
                    lo_ns: r.prev_ns,
                    hi_ns: r.t_ns,
                    cat: SegCat::Cpu,
                    op,
                    obj,
                    app_ns: app,
                    overhead_ns: ovh,
                    diff_ns: diff,
                });
                cur = r.prev;
            }
            CtxKind::Timeout => {
                let (op, obj) = match log.span_at(r.node, r.t_ns) {
                    Some(s) => (s.op, s.obj),
                    None => (OpKind::Other, 0),
                };
                segs.push(CritSeg {
                    node: r.node,
                    lo_ns: r.prev_ns,
                    hi_ns: r.t_ns,
                    cat: SegCat::Timeout,
                    op,
                    obj,
                    app_ns: 0,
                    overhead_ns: 0,
                    diff_ns: 0,
                });
                cur = r.prev;
            }
            CtxKind::Wait => {
                let (op, obj) = match log.span_at(r.node, r.t_ns) {
                    Some(s) => (s.op, s.obj),
                    None => (OpKind::Other, 0),
                };
                consumer = (r.node, op, obj);
                // When the waking packet was sent after this node blocked,
                // the chain continues on the sender; otherwise the whole
                // blocked interval was flight/queueing and the chain
                // continues on this node's own history.
                let sender_chain = if r.cause == NO_CTX {
                    None
                } else {
                    let send_t = log.records[r.cause as usize].t_ns;
                    (send_t > r.prev_ns).then_some((r.cause, send_t))
                };
                let (next, lo_ns) = match sender_chain {
                    Some((cause, send_t)) => (cause, send_t),
                    None => (r.prev, r.prev_ns),
                };
                segs.push(CritSeg {
                    node: r.node,
                    lo_ns,
                    hi_ns: r.t_ns,
                    cat: SegCat::Net,
                    op,
                    obj,
                    app_ns: 0,
                    overhead_ns: 0,
                    diff_ns: 0,
                });
                cur = next;
            }
            CtxKind::Svc => {
                // Zero-width hop at the packet's arrival time: contribute
                // the request's flight, blamed on the downstream consumer.
                debug_assert_ne!(r.cause, NO_CTX, "svc dispatch without a stamped request");
                if r.cause == NO_CTX {
                    break;
                }
                let send_t = log.records[r.cause as usize].t_ns;
                let (node, op, obj) = consumer;
                segs.push(CritSeg {
                    node,
                    lo_ns: send_t.min(r.t_ns),
                    hi_ns: r.t_ns,
                    cat: SegCat::Net,
                    op,
                    obj,
                    app_ns: 0,
                    overhead_ns: 0,
                    diff_ns: 0,
                });
                cur = r.cause;
            }
        }
    }
    segs.reverse();
    // The path outlives the run in its `RunStats`, so it keeps no doubling
    // slack: up to half of a 16 Ki-segment path's 1 MiB would be idle.
    segs.shrink_to_fit();
    let cp = CritPath {
        makespan_ns,
        end_node,
        segs,
    };
    debug_assert_eq!(
        cp.sum(CritSeg::len_ns),
        makespan_ns,
        "critical-path segments must telescope exactly to the makespan"
    );
    debug_assert!(
        cp.segs.windows(2).all(|w| w[0].hi_ns == w[1].lo_ns),
        "critical-path segments must be contiguous"
    );
    cp
}

/// Export the critical path as a Chrome-trace JSON document with one
/// dedicated *process* ("critical path") and one thread per node, so the
/// Perfetto timeline shows which node carries the path at every instant.
/// Deterministic: virtual time only, insertion order fixed by the path.
pub fn critpath_to_chrome_json(cp: &CritPath) -> String {
    let mut s = String::new();
    write_chrome_json(cp, &mut Writer::pretty(&mut s));
    s
}

/// [`critpath_to_chrome_json`] written to `out` segment by segment. Hand in
/// a `BufWriter` for a file.
pub fn write_critpath_chrome_json_to(cp: &CritPath, out: &mut impl io::Write) -> io::Result<()> {
    let mut sink = IoSink::new(out);
    write_chrome_json(cp, &mut Writer::pretty(&mut sink));
    sink.finish()
}

fn write_chrome_json<S: Sink>(cp: &CritPath, w: &mut Writer<'_, S>) {
    // Metadata event naming process 0 (`process_name`) or one of its threads.
    fn meta<S: Sink>(w: &mut Writer<'_, S>, tid: u64, what: &str, name: &[Part<'_>]) {
        w.begin_obj();
        w.field_str("ph", "M");
        w.field_u64("pid", 0);
        w.field_u64("tid", tid);
        w.field_str("name", what);
        w.key("args");
        w.begin_obj();
        w.key("name");
        w.str_parts(name);
        w.end_obj();
        w.end_obj();
    }

    w.begin_obj();
    w.field_str("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.begin_arr();
    meta(w, 0, "process_name", &[Part::Text("critical path")]);
    let mut named: Vec<usize> = cp.segs.iter().map(|s| s.node).collect();
    named.sort_unstable();
    named.dedup();
    for node in named {
        let name = [Part::Text("node "), Part::Int(node as u64)];
        meta(w, node as u64, "thread_name", &name);
    }
    for s in &cp.segs {
        if s.len_ns() == 0 {
            continue;
        }
        w.begin_obj();
        w.field_str("ph", "X");
        w.field_u64("pid", 0);
        w.field_u64("tid", s.node as u64);
        w.field_str("cat", s.cat.label());
        w.key("name");
        w.str_parts(&[
            Part::Text(s.cat.label()),
            Part::Text(":"),
            Part::Text(s.op.label()),
        ]);
        w.key("ts");
        w.us(s.lo_ns);
        w.key("dur");
        w.us(s.len_ns());
        w.key("args");
        w.begin_obj();
        w.field_u64("obj", s.obj);
        if s.cat == SegCat::Cpu {
            w.field_u64("app_ns", s.app_ns);
            w.field_u64("overhead_ns", s.overhead_ns);
            w.field_u64("diff_ns", s.diff_ns);
        }
        w.end_obj();
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.end_document();
}

#[cfg(test)]
mod tests {
    use super::*;
    use vopp_trace::json::Value;
    use vopp_trace::{CausalProfiler, OpSpan};

    fn span(lo: u64, hi: u64, op: OpKind, obj: u64) -> OpSpan {
        OpSpan {
            lo_ns: lo,
            hi_ns: hi,
            op,
            obj,
            app_ns: 0,
            overhead_ns: 0,
            diff_ns: 0,
        }
    }

    /// Two nodes: node 1 computes 400, sends; node 0 computed 100, blocked
    /// at 100, wakes at 600 on node 1's packet. Path: 400 cpu on node 1,
    /// then 200 net (send at 400, delivery at 600) on node 0.
    #[test]
    fn wait_chains_to_the_sender() {
        let p = CausalProfiler::new(2);
        p.record_wake(0, 0, 0, CtxKind::Start, NO_CTX); // 0
        p.record_wake(1, 0, 0, CtxKind::Start, NO_CTX); // 1
        p.record_wake(0, 0, 100, CtxKind::Compute, NO_CTX); // 2
        p.record_wake(1, 0, 400, CtxKind::Compute, NO_CTX); // 3: sends at 400
        p.record_wake(0, 100, 600, CtxKind::Wait, 3); // 4
        let log = p.take();
        let cp = extract(&log, &[600, 400]);
        assert_eq!(cp.makespan_ns, 600);
        assert_eq!(cp.end_node, 0);
        let spans: Vec<_> = cp
            .segs
            .iter()
            .map(|s| (s.node, s.lo_ns, s.hi_ns, s.cat))
            .collect();
        assert_eq!(
            spans,
            vec![(1, 0, 400, SegCat::Cpu), (0, 400, 600, SegCat::Net)]
        );
        assert_eq!(cp.cpu_ns(), 400);
        assert_eq!(cp.net_ns(), 200);
    }

    /// The packet was sent before the receiver blocked: the whole blocked
    /// interval is network time and the chain stays on the receiver.
    #[test]
    fn early_send_charges_the_whole_wait_locally() {
        let p = CausalProfiler::new(2);
        p.record_wake(0, 0, 0, CtxKind::Start, NO_CTX); // 0
        p.record_wake(1, 0, 0, CtxKind::Start, NO_CTX); // 1: sends at 0
        p.record_wake(0, 0, 300, CtxKind::Compute, NO_CTX); // 2
        p.record_wake(0, 300, 350, CtxKind::Wait, 1); // 3: sent at 0 < 300
        let log = p.take();
        let cp = extract(&log, &[350, 0]);
        let spans: Vec<_> = cp
            .segs
            .iter()
            .map(|s| (s.node, s.lo_ns, s.hi_ns, s.cat))
            .collect();
        assert_eq!(
            spans,
            vec![(0, 0, 300, SegCat::Cpu), (0, 300, 350, SegCat::Net)]
        );
    }

    /// A request/reply through a service handler: the reply wake chains to
    /// the svc record, which contributes the request flight and chains to
    /// the requester's own compute — both flights blamed on the consumer's
    /// operation (here a Data fetch).
    #[test]
    fn svc_hop_splits_request_and_reply_flight() {
        let p = CausalProfiler::new(2);
        p.record_wake(0, 0, 0, CtxKind::Start, NO_CTX); // 0
        p.record_wake(0, 0, 100, CtxKind::Compute, NO_CTX); // 1: sends req at 100
        p.record_svc(1, 150, 1); // 2: home handler replies at 150
        p.record_wake(0, 100, 200, CtxKind::Wait, 2); // 3: reply delivered
        p.record_op(0, span(100, 200, OpKind::Data, 42));
        let log = p.take();
        let cp = extract(&log, &[200, 0]);
        let spans: Vec<_> = cp
            .segs
            .iter()
            .map(|s| (s.node, s.lo_ns, s.hi_ns, s.cat, s.op, s.obj))
            .collect();
        assert_eq!(
            spans,
            vec![
                (0, 0, 100, SegCat::Cpu, OpKind::Other, 0),
                (0, 100, 150, SegCat::Net, OpKind::Data, 42), // request flight
                (0, 150, 200, SegCat::Net, OpKind::Data, 42), // reply flight
            ]
        );
        assert_eq!(cp.wait_ns(OpKind::Data), 100);
        assert_eq!(cp.whatif_net_free_ns(), 100);
        assert!((cp.ceiling(cp.whatif_net_free_ns()) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn timeouts_chain_locally_and_empty_runs_are_empty() {
        let p = CausalProfiler::new(1);
        p.record_wake(0, 0, 0, CtxKind::Start, NO_CTX); // 0
        p.record_wake(0, 0, 1000, CtxKind::Timeout, NO_CTX); // 1
        let log = p.take();
        let cp = extract(&log, &[1000]);
        assert_eq!(cp.timeout_ns(), 1000);
        assert_eq!(cp.segs.len(), 1);

        let p = CausalProfiler::new(1);
        p.record_wake(0, 0, 0, CtxKind::Start, NO_CTX);
        let cp = extract(&p.take(), &[0]);
        assert_eq!(cp.makespan_ns, 0);
        assert!(cp.segs.is_empty());
        assert_eq!(cp.ceiling(0), 1.0);
    }

    #[test]
    fn chrome_export_names_nodes_and_segments() {
        let p = CausalProfiler::new(2);
        p.record_wake(0, 0, 0, CtxKind::Start, NO_CTX);
        p.record_wake(1, 0, 0, CtxKind::Start, NO_CTX);
        p.record_wake(1, 0, 400, CtxKind::Compute, NO_CTX);
        p.record_wake(0, 0, 600, CtxKind::Wait, 2);
        let cp = extract(&p.take(), &[600, 400]);
        let doc = critpath_to_chrome_json(&cp);
        let v = Value::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        // 1 process meta + 2 thread metas + 2 slices.
        assert_eq!(events.len(), 5);
        assert!(doc.contains("critical path"));
        assert!(doc.contains("cpu:other"));
        assert!(doc.contains("net:other"));
    }
}
