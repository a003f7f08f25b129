//! Tier-1 tripwire for the kernel's process hand-off: a view-based run is a
//! stream of short blocking operations, each one a wake-up handed on by the
//! process that blocked or exited (or, once per run, by the thread that
//! called `run`). The *number* of wake-ups of each kind is a pure function
//! of the event order, so a kernel change that reorders, drops or
//! duplicates a wake-up moves these counts even when the virtual-time
//! results happen to survive — and fails here, in the root package, not
//! only in the workspace suite or the benchmark.

use vopp_repro::dsm::{run_cluster, ClusterConfig, Layout, Protocol};
use vopp_repro::sim::handoff_totals;

const NODES: usize = 16;
const ROUNDS: usize = 24;
const WORDS: usize = 256;

/// The only test in this binary: `handoff_totals` is process-wide, and a
/// second simulation running on a parallel test thread would be counted in.
#[test]
fn acquire_release_loop_keeps_its_wake_up_counts() {
    let mut l = Layout::new();
    let (view, addr) = l.add_view(4 * WORDS);
    let mut cfg = ClusterConfig::new(NODES, Protocol::VcSd);
    // One datagram in fifty is lost: retransmission timers and duplicate
    // requests are part of the wake-up stream.
    cfg.net.base_drop_prob = 0.02;
    cfg.net.seed = 11;
    let before = handoff_totals();
    let out = run_cluster(&cfg, l.freeze(), move |ctx| {
        let me = ctx.me();
        for round in 0..ROUNDS {
            ctx.acquire_view(view);
            ctx.update_u32(addr + 4 * (1 + (7 * me + round) % (WORDS - 1)), |x| x + 1);
            ctx.update_u32(addr, |x| x + 1);
            ctx.release_view(view);
            ctx.compute_ns((1_000 * (me + 1) + 50 * round) as f64);
        }
        ctx.barrier();
        ctx.acquire_rview(view);
        let total = ctx.read_u32(addr);
        ctx.release_rview(view);
        total
    });
    let after = handoff_totals();
    assert!(out
        .results
        .iter()
        .all(|&total| total == (NODES * ROUNDS) as u32));
    assert!(out.stats.rexmits() > 0, "2 % loss must retransmit");
    // Virtual time, datagrams and wire bytes as measured at the commit
    // before the per-process baton replaced the per-process condvar.
    assert_eq!(
        (
            out.stats.time.nanos(),
            out.stats.net.msgs,
            out.stats.net.bytes
        ),
        (14_061_453_450u64, 1_740u64, 181_014u64),
        "virtual time, datagrams or wire bytes moved"
    );
    let (total, self_wakes, absorbed) = (
        after.total() - before.total(),
        after.self_wakes - before.self_wakes,
        after.absorbed - before.absorbed,
    );
    // The wake-up count as first counted, when a controller thread still
    // handed on every wake after a non-final exit and a waiting thread
    // checked every delivery itself: each of those wakes is now either
    // taken or finished by the kernel.
    assert_eq!(total + absorbed, 2_161, "the number of wake-ups moved");
    // Four of them were a late duplicate reply to a retransmitted request,
    // landing while its node waited on the tag of a later call. 384 end the
    // diff-creation span a write release owes before its release RPC: the
    // kernel ends the span, sends the request and starts the reply wait.
    // The other 368 end the compute span each node runs up between a
    // release and its next acquire (16 nodes, rounds 1 to 23), which the
    // acquire owes the same way. The kernel finishes all of those without
    // a hand-off.
    assert_eq!(
        (total, self_wakes, absorbed),
        (1_405u64, 710u64, 756u64),
        "the split of wake-ups moved"
    );
    // Since the exiting thread hands on itself, only the start-up wake comes
    // from the thread that called `run`; the 15 non-final exits moved from
    // the controller's count to `direct`.
    assert_eq!(
        (
            after.direct - before.direct,
            after.via_controller - before.via_controller
        ),
        (1_404u64, 1u64),
        "the routing of wake-ups moved"
    );
}
