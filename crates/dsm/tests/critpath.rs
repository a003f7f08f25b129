//! End-to-end critical-path profiler tests on real cluster runs.
//!
//! These exercise the full stack — kernel causal recording, DSM op-span
//! annotation, and the backward-walk extraction (whose telescoping and
//! contiguity debug-asserts fire in test builds) — across every protocol,
//! and pin the standing invariant: profiling is pure observation, so every
//! statistic is identical with the profiler on or off.

use std::sync::Arc;

use vopp_dsm::{run_cluster, ClusterConfig, Layout, Protocol, RunStats};
use vopp_metrics::{OpKind, SegCat};
use vopp_sim::CausalProfiler;
use vopp_trace::json::Value;

const PROTOCOLS: [Protocol; 5] = [
    Protocol::LrcD,
    Protocol::Hlrc,
    Protocol::ScC,
    Protocol::VcD,
    Protocol::VcSd,
];

/// A small workload touching barriers, view/lock sync, and shared data.
fn small_run(protocol: Protocol, profiled: bool) -> (Vec<u32>, RunStats) {
    let mut layout = Layout::new();
    let (view, addr) = layout.add_view(4);
    let mut cfg = ClusterConfig::new(4, protocol);
    if profiled {
        cfg.profiler = Some(Arc::new(CausalProfiler::new(cfg.nprocs)));
    }
    let out = run_cluster(&cfg, layout.freeze(), move |ctx| {
        for _ in 0..3 {
            ctx.flops(5_000);
            if protocol.is_vc() {
                ctx.acquire_view(view);
                ctx.update_u32(addr, |x| x + 1);
                ctx.release_view(view);
            } else {
                ctx.lock_acquire(0);
                ctx.update_u32(addr, |x| x + 1);
                ctx.lock_release(0);
            }
            ctx.barrier();
        }
        if protocol.is_vc() {
            ctx.acquire_rview(view);
            let total = ctx.read_u32(addr);
            ctx.release_rview(view);
            total
        } else {
            ctx.read_u32(addr)
        }
    });
    (out.results, out.stats)
}

#[test]
fn path_telescopes_to_the_makespan_for_every_protocol() {
    for protocol in PROTOCOLS {
        let (results, stats) = small_run(protocol, true);
        assert_eq!(results, vec![12, 12, 12, 12], "{protocol:?}");
        let cp = stats.crit.as_ref().expect("profiler attached");
        assert_eq!(
            cp.makespan_ns,
            stats.time.nanos(),
            "{protocol:?}: path must cover the whole run"
        );
        assert!(!cp.segs.is_empty(), "{protocol:?}");
        // The extract() debug_asserts already checked telescoping; pin the
        // identity here too so release builds of this test still verify it.
        let total: u64 = cp.segs.iter().map(|s| s.len_ns()).sum();
        assert_eq!(total, cp.makespan_ns, "{protocol:?}");
        for w in cp.segs.windows(2) {
            assert_eq!(w[0].hi_ns, w[1].lo_ns, "{protocol:?}: gap in path");
        }
        // A sync-heavy run must show both CPU and network on the path.
        assert!(cp.cpu_ns() > 0, "{protocol:?}");
        assert!(cp.net_ns() > 0, "{protocol:?}");
        // Category identities close exactly.
        assert_eq!(
            cp.cpu_ns() + cp.net_ns() + cp.timeout_ns(),
            cp.makespan_ns,
            "{protocol:?}"
        );
        assert_eq!(
            cp.cpu_app_ns() + cp.cpu_overhead_ns() + cp.cpu_op_ns(OpKind::Idle),
            cp.cpu_ns(),
            "{protocol:?}: app + overhead + idle must cover path CPU time"
        );
        // Ceilings are sound: at least 1x, and the what-if times are
        // within the makespan.
        for x in [
            cp.whatif_net_free_ns(),
            cp.whatif_diff_free_ns(),
            cp.whatif_barrier_free_ns(),
        ] {
            assert!(x <= cp.makespan_ns, "{protocol:?}");
            assert!(cp.ceiling(x) >= 1.0, "{protocol:?}");
        }
    }
}

#[test]
fn profiler_never_perturbs_results_or_statistics() {
    for protocol in PROTOCOLS {
        let (r_off, s_off) = small_run(protocol, false);
        let (r_on, s_on) = small_run(protocol, true);
        assert_eq!(r_off, r_on, "{protocol:?}");
        assert!(s_off.crit.is_none());
        assert!(s_on.crit.is_some());
        // Every counter, histogram and per-view row must be identical.
        assert_eq!(
            s_off.nodes, s_on.nodes,
            "{protocol:?}: profiling must be pure observation"
        );
        assert_eq!(s_off.net, s_on.net, "{protocol:?}");
        assert_eq!(s_off.time, s_on.time, "{protocol:?}");
        assert_eq!(s_off.node_end, s_on.node_end, "{protocol:?}");
        for (a, b) in s_off.node_breakdowns.iter().zip(&s_on.node_breakdowns) {
            assert_eq!(a, b, "{protocol:?}");
        }
    }
}

#[test]
fn network_segments_carry_protocol_blame() {
    let (_, stats) = small_run(Protocol::VcSd, true);
    let cp = stats.crit.as_ref().unwrap();
    // With 4 nodes meeting 3 barriers, barrier fan-in must appear on the
    // path, blamed on OpKind::Barrier at some waiting node.
    assert!(cp.wait_ns(OpKind::Barrier) > 0);
    // Every network segment carries an op other than a bare wait.
    let unblamed: u64 = cp
        .segs
        .iter()
        .filter(|s| s.cat == SegCat::Net && s.op == OpKind::Other)
        .map(|s| s.len_ns())
        .sum();
    assert_eq!(unblamed, 0, "all waits in this workload are annotated");
}

#[test]
fn chrome_export_is_valid_json_and_covers_the_path() {
    let (_, stats) = small_run(Protocol::VcD, true);
    let cp = stats.crit.as_ref().unwrap();
    let doc = vopp_metrics::critpath_to_chrome_json(cp);
    let v = Value::parse(&doc).expect("valid JSON");
    let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
    let slices = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .count();
    let nonzero = cp.segs.iter().filter(|s| s.len_ns() > 0).count();
    assert_eq!(slices, nonzero);
}
