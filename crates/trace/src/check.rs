//! Trace-driven protocol conformance checking.
//!
//! The checker replays an event stream *offline* and asserts invariants the
//! live protocol engines are supposed to maintain. It never consults
//! protocol state — everything is derived from the trace alone, so a
//! violation always points at an observable sequence of events, and the
//! checker doubles as a regression net for future protocol changes.
//!
//! Invariants (see `docs/OBSERVABILITY.md` for rationale):
//! 1. **monotone-time** — global event time never decreases (the simulator
//!    runs one process at a time on one clock).
//! 2. **paired-intervals** — acquire/release, barrier enter/exit and lock
//!    start/end events pair up on each node.
//! 3. **non-nested-acquires** — a node never issues a view acquire while
//!    already holding a write view, and never re-acquires a view it holds.
//! 4. **zero-diff-requests** — under VC_sd the integrated-diff grant makes
//!    fault-time diff fetches impossible.
//! 5. **no-barrier-notices** — under VC, barrier releases carry no write
//!    notices (consistency rides on views, not barriers).
//! 6. **rexmit-covered** — on a LAN with sub-millisecond round trips and a
//!    one-second RPC timeout, a retransmission *outside a synchronization
//!    wait* only happens after loss: replies to data RPCs are immediate, so
//!    at each such retransmission the cumulative drop count must be at
//!    least the cumulative count of these rexmits. Retransmissions *during*
//!    a barrier/lock/view wait are exempt — there the manager legitimately
//!    defers the reply (until the barrier fills or the resource frees),
//!    which can exceed the timeout with nothing lost. In the paper's
//!    bursty-barrier regime the covering drops are overwhelmingly
//!    receiver-queue overflows; the checker reports the overflow share so
//!    spurious-timeout bugs cannot hide behind background bit errors.
//! 7. **vector-time-causality** — write-notice intervals from a given owner
//!    are applied in strictly increasing sequence order within a history
//!    scope (global for LRC, per-view for VC).

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::event::{EventKind, NodeId};
use crate::tracer::Trace;

/// The two protocol-specific invariants to enforce (4 and 5); every other
/// invariant holds for all protocols and always runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckConfig {
    /// Invariant 4: fail on any `DiffRequest` (true for VC_sd).
    pub expect_zero_diff_requests: bool,
    /// Invariant 5: fail on a `BarrierExit` carrying notices (true for
    /// VC_d / VC_sd).
    pub expect_no_barrier_notices: bool,
}

/// One invariant breach, pointing at the offending event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant name (e.g. `"zero-diff-requests"`).
    pub invariant: &'static str,
    /// Index into `trace.events` of the event that tripped the check.
    pub index: usize,
    /// Human-readable explanation with the relevant state.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] event #{}: {}",
            self.invariant, self.index, self.message
        )
    }
}

/// Replay `trace` and collect every invariant violation.
pub fn check(trace: &Trace, cfg: &CheckConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut push = |invariant: &'static str, index: usize, message: String| {
        out.push(Violation {
            invariant,
            index,
            message,
        });
    };

    let mut last_t: u64 = 0;
    // Per-node held views: (view, write) pairs currently held.
    let mut held: HashMap<NodeId, HashSet<(u64, bool)>> = HashMap::new();
    // Per-node outstanding barrier enters: (id) → epoch stack.
    let mut in_barrier: HashMap<(NodeId, u64), Vec<u64>> = HashMap::new();
    // Per-node locks currently being waited for / held.
    let mut lock_waiting: HashMap<(NodeId, u64), u64> = HashMap::new();
    let mut lock_held: HashMap<(NodeId, u64), u64> = HashMap::new();
    // Cumulative counters for the rexmit-covered prefix check.
    let mut drops: u64 = 0;
    let mut overflow_drops: u64 = 0;
    let mut uncovered_rexmits: u64 = 0;
    // Per-node depth of open synchronization waits (view acquire, lock
    // acquire, barrier). Replies to these requests are legitimately
    // deferred by the serving manager, so their timeouts retransmit
    // without any datagram having been lost.
    let mut sync_wait: HashMap<NodeId, u64> = HashMap::new();
    // (node, scope, owner) → last applied interval seq.
    let mut applied_seq: HashMap<(NodeId, u64, NodeId), u64> = HashMap::new();

    for (i, ev) in trace.events.iter().enumerate() {
        if ev.t < last_t {
            push(
                "monotone-time",
                i,
                format!("time went backwards: {} ns after {} ns", ev.t, last_t),
            );
        }
        last_t = last_t.max(ev.t);

        let n = ev.node;
        match &ev.kind {
            EventKind::AcquireStart { view, write } => {
                *sync_wait.entry(n).or_default() += 1;
                let h = held.entry(n).or_default();
                if h.contains(&(*view, true)) || h.contains(&(*view, false)) {
                    push(
                        "non-nested-acquires",
                        i,
                        format!("node {n} re-acquires view {view} it already holds"),
                    );
                }
                if *write {
                    if let Some((other, _)) = h.iter().find(|(_, w)| *w) {
                        push(
                            "non-nested-acquires",
                            i,
                            format!(
                                "node {n} acquires write view {view} while holding write view {other}"
                            ),
                        );
                    }
                }
            }
            EventKind::AcquireEnd { view, write, .. } => {
                let d = sync_wait.entry(n).or_default();
                *d = d.saturating_sub(1);
                held.entry(n).or_default().insert((*view, *write));
            }
            EventKind::ReleaseDone { view, write }
                if !held.entry(n).or_default().remove(&(*view, *write)) =>
            {
                push(
                    "paired-intervals",
                    i,
                    format!("node {n} releases view {view} it does not hold"),
                );
            }
            EventKind::BarrierEnter { id, epoch } => {
                *sync_wait.entry(n).or_default() += 1;
                in_barrier.entry((n, *id)).or_default().push(*epoch);
            }
            EventKind::BarrierExit { id, epoch, notices } => {
                let d = sync_wait.entry(n).or_default();
                *d = d.saturating_sub(1);
                match in_barrier.entry((n, *id)).or_default().pop() {
                    Some(entered) if entered == *epoch => {}
                    Some(entered) => push(
                        "paired-intervals",
                        i,
                        format!(
                            "node {n} exits barrier {id} epoch {epoch} but entered epoch {entered}"
                        ),
                    ),
                    None => push(
                        "paired-intervals",
                        i,
                        format!("node {n} exits barrier {id} without entering"),
                    ),
                }
                if cfg.expect_no_barrier_notices && *notices > 0 {
                    push(
                        "no-barrier-notices",
                        i,
                        format!(
                            "node {n} left barrier {id} with {notices} write notices under a view protocol"
                        ),
                    );
                }
            }
            EventKind::LockAcquireStart { lock } => {
                *sync_wait.entry(n).or_default() += 1;
                lock_waiting.insert((n, *lock), ev.t);
            }
            EventKind::LockAcquireEnd { lock } => {
                let d = sync_wait.entry(n).or_default();
                *d = d.saturating_sub(1);
                if lock_waiting.remove(&(n, *lock)).is_none() {
                    push(
                        "paired-intervals",
                        i,
                        format!("node {n} obtained lock {lock} without a start event"),
                    );
                }
                lock_held.insert((n, *lock), ev.t);
            }
            EventKind::LockRelease { lock } if lock_held.remove(&(n, *lock)).is_none() => {
                push(
                    "paired-intervals",
                    i,
                    format!("node {n} releases lock {lock} it does not hold"),
                );
            }
            EventKind::DiffRequest { page, to } if cfg.expect_zero_diff_requests => {
                push(
                    "zero-diff-requests",
                    i,
                    format!("node {n} requested diffs for page {page} from node {to} under VC_sd"),
                );
            }
            EventKind::NetDrop { overflow, .. } => {
                drops += 1;
                if *overflow {
                    overflow_drops += 1;
                }
            }
            EventKind::Rexmit { dst, tag } => {
                // A retransmission during a synchronization wait is the
                // deferred-reply regime: the manager holds the reply until
                // the barrier fills / the lock or view frees, which can
                // exceed the RPC timeout with nothing lost. Outside a
                // wait, replies are immediate, so the timeout can only
                // have fired because a datagram was dropped.
                if sync_wait.get(&n).copied().unwrap_or(0) > 0 {
                    continue;
                }
                uncovered_rexmits += 1;
                if uncovered_rexmits > drops {
                    push(
                        "rexmit-covered",
                        i,
                        format!(
                            "node {n} retransmitted tag {tag} to {dst} outside any sync wait: \
                             {uncovered_rexmits} such rexmits but only {drops} drops \
                             ({overflow_drops} overflow) so far"
                        ),
                    );
                }
            }
            EventKind::WriteNoticeApply {
                owner, seq, scope, ..
            } => {
                let key = (n, *scope, *owner);
                if let Some(prev) = applied_seq.get(&key) {
                    if *seq <= *prev {
                        push(
                            "vector-time-causality",
                            i,
                            format!(
                                "node {n} applied interval {seq} from owner {owner} (scope {scope}) after already applying {prev}"
                            ),
                        );
                    }
                }
                applied_seq
                    .entry(key)
                    .and_modify(|p| *p = (*p).max(*seq))
                    .or_insert(*seq);
            }
            _ => {}
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn e(t: u64, node: NodeId, kind: EventKind) -> Event {
        Event { t, node, kind }
    }

    fn trace(events: Vec<Event>) -> Trace {
        Trace { events, evicted: 0 }
    }

    fn names(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn clean_stream_passes() {
        let t = trace(vec![
            e(
                0,
                0,
                EventKind::AcquireStart {
                    view: 1,
                    write: true,
                },
            ),
            e(
                10,
                0,
                EventKind::AcquireEnd {
                    view: 1,
                    write: true,
                    version: 1,
                    bytes: 0,
                },
            ),
            e(
                20,
                0,
                EventKind::ReleaseDone {
                    view: 1,
                    write: true,
                },
            ),
            e(30, 0, EventKind::BarrierEnter { id: 0, epoch: 0 }),
            e(
                40,
                0,
                EventKind::BarrierExit {
                    id: 0,
                    epoch: 0,
                    notices: 0,
                },
            ),
        ]);
        assert!(check(&t, &CheckConfig::default()).is_empty());
    }

    #[test]
    fn detects_time_regression() {
        let t = trace(vec![
            e(100, 0, EventKind::ProcStart),
            e(50, 1, EventKind::ProcStart),
        ]);
        assert_eq!(
            names(&check(&t, &CheckConfig::default())),
            ["monotone-time"]
        );
    }

    #[test]
    fn detects_nested_write_acquire() {
        let t = trace(vec![
            e(
                0,
                0,
                EventKind::AcquireStart {
                    view: 1,
                    write: true,
                },
            ),
            e(
                1,
                0,
                EventKind::AcquireEnd {
                    view: 1,
                    write: true,
                    version: 1,
                    bytes: 0,
                },
            ),
            e(
                2,
                0,
                EventKind::AcquireStart {
                    view: 2,
                    write: true,
                },
            ),
        ]);
        assert_eq!(
            names(&check(&t, &CheckConfig::default())),
            ["non-nested-acquires"]
        );
    }

    #[test]
    fn detects_diff_request_under_sd() {
        let t = trace(vec![e(0, 2, EventKind::DiffRequest { page: 7, to: 0 })]);
        let cfg = CheckConfig {
            expect_zero_diff_requests: true,
            ..CheckConfig::default()
        };
        assert_eq!(names(&check(&t, &cfg)), ["zero-diff-requests"]);
        assert!(check(&t, &CheckConfig::default()).is_empty());
    }

    #[test]
    fn detects_barrier_notices_under_vc() {
        let t = trace(vec![
            e(0, 0, EventKind::BarrierEnter { id: 0, epoch: 0 }),
            e(
                1,
                0,
                EventKind::BarrierExit {
                    id: 0,
                    epoch: 0,
                    notices: 3,
                },
            ),
        ]);
        let cfg = CheckConfig {
            expect_no_barrier_notices: true,
            ..CheckConfig::default()
        };
        assert_eq!(names(&check(&t, &cfg)), ["no-barrier-notices"]);
    }

    #[test]
    fn detects_uncovered_rexmit() {
        let naked = trace(vec![e(0, 0, EventKind::Rexmit { dst: 1, tag: 5 })]);
        assert_eq!(
            names(&check(&naked, &CheckConfig::default())),
            ["rexmit-covered"]
        );

        let covered = trace(vec![
            e(
                0,
                1,
                EventKind::NetDrop {
                    dst: 0,
                    wire_bytes: 100,
                    overflow: true,
                },
            ),
            e(1_000_000_000, 0, EventKind::Rexmit { dst: 1, tag: 5 }),
        ]);
        assert!(check(&covered, &CheckConfig::default()).is_empty());

        // A background bit-error drop also licenses a retransmission —
        // the overflow flag classifies the loss, it does not gate it.
        let random = trace(vec![
            e(
                0,
                1,
                EventKind::NetDrop {
                    dst: 0,
                    wire_bytes: 100,
                    overflow: false,
                },
            ),
            e(1_000_000_000, 0, EventKind::Rexmit { dst: 1, tag: 5 }),
        ]);
        assert!(check(&random, &CheckConfig::default()).is_empty());

        // One drop covers one retransmission, not two.
        let double = trace(vec![
            e(
                0,
                1,
                EventKind::NetDrop {
                    dst: 0,
                    wire_bytes: 100,
                    overflow: true,
                },
            ),
            e(1_000_000_000, 0, EventKind::Rexmit { dst: 1, tag: 5 }),
            e(2_000_000_000, 0, EventKind::Rexmit { dst: 1, tag: 5 }),
        ]);
        assert_eq!(
            names(&check(&double, &CheckConfig::default())),
            ["rexmit-covered"]
        );

        // During a synchronization wait the reply is legitimately deferred
        // (a barrier waiting for stragglers, a contended lock or view), so
        // a timeout retransmission there needs no covering drop.
        let deferred = trace(vec![
            e(0, 0, EventKind::BarrierEnter { id: 0, epoch: 1 }),
            e(1_000_000_000, 0, EventKind::Rexmit { dst: 1, tag: 5 }),
            e(
                2_000_000_000,
                0,
                EventKind::BarrierExit {
                    id: 0,
                    epoch: 1,
                    notices: 0,
                },
            ),
        ]);
        assert!(check(&deferred, &CheckConfig::default()).is_empty());

        // ...but once the wait is over the exemption ends.
        let after_wait = trace(vec![
            e(0, 0, EventKind::BarrierEnter { id: 0, epoch: 1 }),
            e(
                1_000_000_000,
                0,
                EventKind::BarrierExit {
                    id: 0,
                    epoch: 1,
                    notices: 0,
                },
            ),
            e(2_000_000_000, 0, EventKind::Rexmit { dst: 1, tag: 5 }),
        ]);
        assert_eq!(
            names(&check(&after_wait, &CheckConfig::default())),
            ["rexmit-covered"]
        );
    }

    #[test]
    fn detects_causality_regression() {
        let t = trace(vec![
            e(
                0,
                0,
                EventKind::WriteNoticeApply {
                    owner: 1,
                    seq: 5,
                    scope: 0,
                    pages: 1,
                },
            ),
            e(
                1,
                0,
                EventKind::WriteNoticeApply {
                    owner: 1,
                    seq: 4,
                    scope: 0,
                    pages: 1,
                },
            ),
            // Same seqs in a different scope are independent histories.
            e(
                2,
                0,
                EventKind::WriteNoticeApply {
                    owner: 1,
                    seq: 4,
                    scope: 9,
                    pages: 1,
                },
            ),
        ]);
        assert_eq!(
            names(&check(&t, &CheckConfig::default())),
            ["vector-time-causality"]
        );
    }

    #[test]
    fn detects_unpaired_release_and_barrier() {
        let t = trace(vec![
            e(
                0,
                0,
                EventKind::ReleaseDone {
                    view: 4,
                    write: true,
                },
            ),
            e(
                1,
                0,
                EventKind::BarrierExit {
                    id: 2,
                    epoch: 0,
                    notices: 0,
                },
            ),
        ]);
        assert_eq!(
            names(&check(&t, &CheckConfig::default())),
            ["paired-intervals", "paired-intervals"]
        );
    }
}
