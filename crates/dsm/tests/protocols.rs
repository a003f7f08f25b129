//! End-to-end protocol tests: correctness of LRC_d, VC_d, VC_sd and
//! VC_rdma on a simulated cluster, plus runtime enforcement of the VOPP
//! discipline.

use std::sync::Arc;

use vopp_dsm::{run_cluster, ClusterConfig, Layout, Protocol};

fn lrc(n: usize) -> ClusterConfig {
    ClusterConfig::lossless(n, Protocol::LrcD)
}
fn vcd(n: usize) -> ClusterConfig {
    ClusterConfig::lossless(n, Protocol::VcD)
}
fn vcsd(n: usize) -> ClusterConfig {
    ClusterConfig::lossless(n, Protocol::VcSd)
}
fn vcrdma(n: usize) -> ClusterConfig {
    ClusterConfig::lossless(n, Protocol::VcRdma)
}

// ---------------------------------------------------------------------
// LRC_d (traditional lock/barrier programs)
// ---------------------------------------------------------------------

#[test]
fn lrc_lock_passes_value() {
    let mut l = Layout::new();
    let a = l.alloc(8, 8);
    let out = run_cluster(&lrc(2), l.freeze(), |ctx| {
        if ctx.me() == 0 {
            ctx.lock_acquire(0);
            ctx.write_u32(a, 41);
            ctx.write_u32(a + 4, 1);
            ctx.lock_release(0);
            ctx.barrier();
            0
        } else {
            ctx.barrier(); // ensure 0 released first
            ctx.lock_acquire(0);
            let v = ctx.read_u32(a) + ctx.read_u32(a + 4);
            ctx.lock_release(0);
            v
        }
    });
    assert_eq!(out.results[1], 42);
    assert!(
        out.stats.diff_requests() >= 1,
        "consumer must fault and fetch"
    );
}

#[test]
fn lrc_barrier_makes_writes_visible() {
    let mut l = Layout::new();
    let base = l.alloc(4 * 16, 4);
    let out = run_cluster(&lrc(4), l.freeze(), |ctx| {
        // Each proc writes its slot, then all read all slots.
        ctx.write_u32(base + 4 * ctx.me(), ctx.me() as u32 + 1);
        ctx.barrier();
        (0..4).map(|i| ctx.read_u32(base + 4 * i)).sum::<u32>()
    });
    assert_eq!(out.results, vec![10, 10, 10, 10]);
}

#[test]
fn lrc_false_sharing_multiple_writers_converge() {
    // All four procs write distinct words of the SAME page concurrently.
    let mut l = Layout::new();
    let base = l.alloc(4 * 4, 4);
    let out = run_cluster(&lrc(4), l.freeze(), |ctx| {
        ctx.write_u32(base + 4 * ctx.me(), 100 + ctx.me() as u32);
        ctx.barrier();
        (0..4)
            .map(|i| ctx.read_u32(base + 4 * i))
            .collect::<Vec<_>>()
    });
    for r in &out.results {
        assert_eq!(r, &vec![100, 101, 102, 103]);
    }
    // Every proc faulted and fetched diffs from the other three writers.
    assert!(out.stats.diff_requests() >= 4);
}

#[test]
fn lrc_lock_chain_transitive_visibility() {
    // 0 writes under lock; 1 reads+writes under lock; 2 must see both.
    let mut l = Layout::new();
    let a = l.alloc(16, 8);
    let out = run_cluster(&lrc(3), l.freeze(), |ctx| {
        match ctx.me() {
            0 => {
                ctx.lock_acquire(7);
                ctx.write_u32(a, 5);
                ctx.lock_release(7);
                ctx.barrier();
                ctx.barrier();
                0
            }
            1 => {
                ctx.barrier(); // after 0's release
                ctx.lock_acquire(7);
                let v = ctx.read_u32(a);
                ctx.write_u32(a + 4, v * 2);
                ctx.lock_release(7);
                ctx.barrier();
                v
            }
            _ => {
                ctx.barrier();
                ctx.barrier(); // after 1's release
                ctx.lock_acquire(7);
                let v = ctx.read_u32(a) + ctx.read_u32(a + 4);
                ctx.lock_release(7);
                v
            }
        }
    });
    assert_eq!(out.results, vec![0, 5, 15]);
}

#[test]
fn lrc_successive_intervals_ordered() {
    // Proc 0 overwrites the same word across two barrier phases; readers
    // must end with the latest value (diffs applied in lamport order).
    let mut l = Layout::new();
    let a = l.alloc(4, 4);
    let out = run_cluster(&lrc(2), l.freeze(), |ctx| {
        if ctx.me() == 0 {
            ctx.write_u32(a, 1);
            ctx.barrier();
            ctx.barrier();
            ctx.write_u32(a, 2);
            ctx.barrier();
            0
        } else {
            ctx.barrier();
            assert_eq!(ctx.read_u32(a), 1);
            ctx.barrier();
            ctx.barrier();
            ctx.read_u32(a)
        }
    });
    assert_eq!(out.results[1], 2);
}

// ---------------------------------------------------------------------
// VOPP on VC_d / VC_sd
// ---------------------------------------------------------------------

fn vopp_producer_consumer(cfg: &ClusterConfig) -> (u32, u64) {
    let mut l = Layout::new();
    let (v, addr) = l.add_view(64);
    let out = run_cluster(cfg, l.freeze(), move |ctx| {
        if ctx.me() == 0 {
            ctx.acquire_view(v);
            ctx.write_u32(addr, 10);
            ctx.write_u32(addr + 4, 32);
            ctx.release_view(v);
            ctx.barrier();
            0
        } else {
            ctx.barrier();
            ctx.acquire_view(v);
            let s = ctx.read_u32(addr) + ctx.read_u32(addr + 4);
            ctx.release_view(v);
            s
        }
    });
    (out.results[1], out.stats.diff_requests())
}

#[test]
fn vcd_view_passes_value_with_diff_requests() {
    let (v, dr) = vopp_producer_consumer(&vcd(2));
    assert_eq!(v, 42);
    assert!(
        dr >= 1,
        "VC_d is an invalidate protocol: faults fetch diffs"
    );
}

#[test]
fn vcsd_view_passes_value_without_diff_requests() {
    let (v, dr) = vopp_producer_consumer(&vcsd(2));
    assert_eq!(v, 42);
    assert_eq!(
        dr, 0,
        "VC_sd piggy-backs integrated diffs: zero diff requests"
    );
}

#[test]
fn vcrdma_view_passes_value_without_diff_requests() {
    let (v, dr) = vopp_producer_consumer(&vcrdma(2));
    assert_eq!(v, 42);
    assert_eq!(
        dr, 0,
        "VC_rdma writes view data one-sided: zero diff requests"
    );
}

#[test]
fn vc_exclusive_view_serializes_increments() {
    for cfg in [vcd(4), vcsd(4), vcrdma(4)] {
        let mut l = Layout::new();
        let (v, addr) = l.add_view(4);
        let out = run_cluster(&cfg, l.freeze(), move |ctx| {
            for _ in 0..10 {
                ctx.acquire_view(v);
                ctx.update_u32(addr, |x| x + 1);
                ctx.release_view(v);
            }
            ctx.barrier();
            ctx.acquire_rview(v);
            let got = ctx.read_u32(addr);
            ctx.release_rview(v);
            got
        });
        for r in &out.results {
            assert_eq!(*r, 40, "{}", cfg.protocol);
        }
    }
}

#[test]
fn vc_rviews_grant_concurrently() {
    let cfg = vcsd(8);
    let mut l = Layout::new();
    let (v, addr) = l.add_view(8);
    let out = run_cluster(&cfg, l.freeze(), move |ctx| {
        if ctx.me() == 0 {
            ctx.acquire_view(v);
            ctx.write_u32(addr, 9);
            ctx.release_view(v);
        }
        ctx.barrier();
        let t0 = ctx.now();
        ctx.acquire_rview(v);
        let val = ctx.read_u32(addr);
        // Hold the read view for 50ms: if reads serialized, total time
        // would exceed 8 * 50ms.
        ctx.compute_ns(50_000_000.0);
        ctx.release_rview(v);
        let held = ctx.now() - t0;
        (val, held.nanos())
    });
    for (val, _) in &out.results {
        assert_eq!(*val, 9);
    }
    // Concurrency check: the whole run fits well under the serial bound.
    assert!(
        out.stats.time.as_secs_f64() < 0.25,
        "read views must be granted concurrently, run took {}",
        out.stats.time
    );
}

#[test]
fn vc_write_waits_for_readers() {
    let cfg = vcsd(3);
    let mut l = Layout::new();
    let (v, addr) = l.add_view(8);
    let out = run_cluster(&cfg, l.freeze(), move |ctx| {
        match ctx.me() {
            0 => {
                // Writer: arrives while readers hold the view.
                ctx.barrier();
                ctx.compute_ns(5_000_000.0);
                ctx.acquire_view(v);
                let t = ctx.now();
                ctx.write_u32(addr, 1);
                ctx.release_view(v);
                t.nanos()
            }
            _ => {
                ctx.barrier();
                ctx.acquire_rview(v);
                ctx.compute_ns(40_000_000.0); // hold 40ms
                ctx.release_rview(v);
                ctx.now().nanos()
            }
        }
    });
    // The writer's acquire completed only after both readers released.
    assert!(out.results[0] >= 40_000_000);
}

#[test]
fn vcsd_integrated_diff_carries_latest_value() {
    // Two successive writers; a late reader must see the second value via
    // a single integrated diff.
    let cfg = vcsd(3);
    let mut l = Layout::new();
    let (v, addr) = l.add_view(8);
    let out = run_cluster(&cfg, l.freeze(), move |ctx| match ctx.me() {
        0 => {
            ctx.acquire_view(v);
            ctx.write_u32(addr, 1);
            ctx.write_u32(addr + 4, 7);
            ctx.release_view(v);
            ctx.barrier();
            ctx.barrier();
            0
        }
        1 => {
            ctx.barrier();
            ctx.acquire_view(v);
            ctx.update_u32(addr, |x| x + 10);
            ctx.release_view(v);
            ctx.barrier();
            0
        }
        _ => {
            ctx.barrier();
            ctx.barrier();
            ctx.acquire_rview(v);
            let a = ctx.read_u32(addr);
            let b = ctx.read_u32(addr + 4);
            ctx.release_rview(v);
            a + b
        }
    });
    assert_eq!(out.results[2], 18); // (1+10) + 7
    assert_eq!(out.stats.diff_requests(), 0);
}

#[test]
fn vc_barriers_carry_no_consistency() {
    // Under VC the barrier payload is constant-size: barrier time must not
    // grow with the amount of modified data.
    let mut l = Layout::new();
    let (v, addr) = l.add_view(64 * 1024);
    let cfg = vcsd(4);
    let out = run_cluster(&cfg, l.freeze(), move |ctx| {
        if ctx.me() == 0 {
            ctx.acquire_view(v);
            let big = vec![3u32; 16 * 1024];
            ctx.write_u32s(addr, &big);
            ctx.release_view(v);
        }
        ctx.barrier();
    });
    // 64 KB were released, yet the barrier crossing stays in the
    // microsecond range (2 small messages + manager turnaround).
    assert!(
        out.stats.barrier_time_usec() < 2_000.0,
        "VC barrier time was {}us",
        out.stats.barrier_time_usec()
    );
}

#[test]
fn merge_views_updates_everything_vcd() {
    merge_views_updates_everything_on(vcd(2));
}

#[test]
fn merge_views_updates_everything() {
    merge_views_updates_everything_on(vcsd(2));
}

fn merge_views_updates_everything_on(cfg: ClusterConfig) {
    let mut l = Layout::new();
    let views: Vec<_> = l.add_views(4, 16);
    let vs = Arc::new(views);
    let vs2 = vs.clone();
    let out = run_cluster(&cfg, l.freeze(), move |ctx| {
        if ctx.me() == 0 {
            for (i, (v, addr)) in vs2.iter().enumerate() {
                ctx.acquire_view(*v);
                ctx.write_u32(*addr, i as u32 + 1);
                ctx.release_view(*v);
            }
            ctx.barrier();
            0
        } else {
            ctx.barrier();
            ctx.merge_views();
            // After merge_views all views are up to date; read them
            // under read views per the access discipline.
            let mut sum = 0;
            for (v, addr) in vs2.iter() {
                ctx.acquire_rview(*v);
                sum += ctx.read_u32(*addr);
                ctx.release_rview(*v);
            }
            sum
        }
    });
    assert_eq!(out.results[1], 10);
}

// ---------------------------------------------------------------------
// VOPP discipline enforcement
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "cannot be nested")]
fn nested_acquire_view_rejected() {
    let mut l = Layout::new();
    let (v0, _) = l.add_view(8);
    let (v1, _) = l.add_view(8);
    run_cluster(&vcsd(1), l.freeze(), move |ctx| {
        ctx.acquire_view(v0);
        ctx.acquire_view(v1);
    });
}

#[test]
#[should_panic(expected = "without acquire_view-ing")]
fn write_without_view_rejected() {
    let mut l = Layout::new();
    let (_, addr) = l.add_view(8);
    run_cluster(&vcsd(1), l.freeze(), move |ctx| {
        ctx.write_u32(addr, 1);
    });
}

#[test]
#[should_panic(expected = "without acquiring")]
fn read_without_view_rejected() {
    let mut l = Layout::new();
    let (_, addr) = l.add_view(8);
    run_cluster(&vcsd(1), l.freeze(), move |ctx| {
        let _ = ctx.read_u32(addr);
    });
}

#[test]
#[should_panic(expected = "without acquire_view-ing")]
fn write_under_read_view_rejected() {
    let mut l = Layout::new();
    let (v, addr) = l.add_view(8);
    run_cluster(&vcsd(1), l.freeze(), move |ctx| {
        ctx.acquire_rview(v);
        ctx.write_u32(addr, 1);
        ctx.release_rview(v);
    });
}

#[test]
#[should_panic(expected = "outside any view")]
fn vopp_access_outside_views_rejected() {
    let mut l = Layout::new();
    let a = l.alloc(8, 8); // non-view shared memory
    let (_, _) = l.add_view(8);
    run_cluster(&vcsd(1), l.freeze(), move |ctx| {
        let _ = ctx.read_u32(a);
    });
}

#[test]
fn rview_nesting_is_local() {
    let mut l = Layout::new();
    let (v, addr) = l.add_view(8);
    let out = run_cluster(&vcsd(2), l.freeze(), move |ctx| {
        if ctx.me() == 0 {
            ctx.acquire_view(v);
            ctx.write_u32(addr, 5);
            ctx.release_view(v);
        }
        ctx.barrier();
        ctx.acquire_rview(v);
        ctx.acquire_rview(v); // nested
        let x = ctx.read_u32(addr);
        ctx.release_rview(v);
        let y = ctx.read_u32(addr); // still held
        ctx.release_rview(v);
        x + y
    });
    assert_eq!(out.results, vec![10, 10]);
    // Nested re-acquire sends no extra message: 1 write + 2 read acquires.
    assert_eq!(out.stats.acquires(), 3);
}

// ---------------------------------------------------------------------
// Cross-cutting properties
// ---------------------------------------------------------------------

#[test]
fn stats_rows_populated() {
    let mut l = Layout::new();
    let (v, addr) = l.add_view(8);
    let out = run_cluster(&vcsd(4), l.freeze(), move |ctx| {
        for _ in 0..5 {
            ctx.acquire_view(v);
            ctx.update_u32(addr, |x| x + 1);
            ctx.release_view(v);
            ctx.barrier();
        }
    });
    let s = &out.stats;
    assert_eq!(s.barriers(), 5);
    assert_eq!(s.acquires(), 20);
    assert_eq!(s.diff_requests(), 0);
    assert!(s.num_msgs() > 0);
    assert!(s.data_mbytes() > 0.0);
    assert!(s.barrier_time_usec() > 0.0);
    assert!(s.acquire_time_usec() > 0.0);
    assert!(s.time_secs() > 0.0);
}

#[test]
fn runs_are_deterministic() {
    let run = || {
        let mut l = Layout::new();
        let (v, addr) = l.add_view(256);
        let mut cfg = ClusterConfig::new(6, Protocol::VcSd);
        cfg.net.base_drop_prob = 0.01; // losses included in determinism
        run_cluster(&cfg, l.freeze(), move |ctx| {
            for i in 0..20u32 {
                ctx.acquire_view(v);
                ctx.update_u32(addr, |x| x.wrapping_add(i));
                ctx.release_view(v);
            }
            ctx.barrier();
            ctx.acquire_rview(v);
            let got = ctx.read_u32(addr);
            ctx.release_rview(v);
            got
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results);
    assert_eq!(a.stats.time, b.stats.time);
    assert_eq!(a.stats.num_msgs(), b.stats.num_msgs());
    assert_eq!(a.stats.rexmits(), b.stats.rexmits());
}

#[test]
fn lossy_network_still_correct() {
    let mut l = Layout::new();
    let (v, addr) = l.add_view(16);
    for proto in [Protocol::VcD, Protocol::VcSd, Protocol::VcRdma] {
        let mut cfg = ClusterConfig::new(4, proto);
        cfg.net.base_drop_prob = 0.05; // harsh
        cfg.net.seed = 42;
        let out = run_cluster(&cfg, l.clone_for_test(), move |ctx| {
            for _ in 0..8 {
                ctx.acquire_view(v);
                ctx.update_u32(addr, |x| x + 1);
                ctx.release_view(v);
            }
            ctx.barrier();
            ctx.acquire_rview(v);
            let got = ctx.read_u32(addr);
            ctx.release_rview(v);
            got
        });
        for r in &out.results {
            assert_eq!(*r, 32, "{proto}");
        }
        assert!(
            out.stats.rexmits() > 0,
            "5% loss must cause retransmissions"
        );
    }
}

// ---------------------------------------------------------------------
// VC_rdma (one-sided transport)
// ---------------------------------------------------------------------

/// The modeled RDMA benefit: view data lands in the acquirer's preposted
/// buffer by one-sided write, so the acquirer pays no software diff
/// application. VC_sd charges `diff_apply` per stale page on the same
/// workload.
#[test]
fn vcrdma_skips_acquirer_diff_apply_cpu() {
    use vopp_metrics::Phase;
    let consumer_proto_cpu = |proto: Protocol| {
        let mut l = Layout::new();
        let (v, addr) = l.add_view(16 * 4096);
        let out = run_cluster(&ClusterConfig::lossless(2, proto), l.freeze(), move |ctx| {
            if ctx.me() == 0 {
                ctx.acquire_view(v);
                let big = vec![7u32; 16 * 1024]; // dirty all 16 pages
                ctx.write_u32s(addr, &big);
                ctx.release_view(v);
                ctx.barrier();
                0
            } else {
                ctx.barrier();
                ctx.acquire_rview(v);
                let got = ctx.read_u32(addr);
                ctx.release_rview(v);
                got
            }
        });
        assert_eq!(out.results[1], 7, "{proto}");
        assert_eq!(out.stats.diff_requests(), 0, "{proto}");
        out.stats.node_breakdowns[1].get(Phase::ProtoCpu)
    };
    let sd = consumer_proto_cpu(Protocol::VcSd);
    let rdma = consumer_proto_cpu(Protocol::VcRdma);
    // VC_sd applies 16 diffs at 15us each on the acquirer's CPU; VC_rdma
    // must not. Allow slack for the other protocol overheads both pay.
    assert!(
        sd >= rdma + 200_000,
        "VC_sd consumer proto CPU ({sd} ns) should exceed VC_rdma ({rdma} ns) by ~16 diff applications"
    );
}

/// VC_rdma on the RDMA-class generation: microsecond fabric, no losses,
/// no retransmissions, and a run dominated by CPU costs instead of wire
/// time.
#[test]
fn vcrdma_on_rdma_generation() {
    use vopp_simnet::NetGen;
    let mut l = Layout::new();
    let (v, addr) = l.add_view(16);
    let mut cfg = ClusterConfig::new(4, Protocol::VcRdma);
    cfg.net = NetGen::Rdma.config();
    let out = run_cluster(&cfg, l.freeze(), move |ctx| {
        for _ in 0..8 {
            ctx.acquire_view(v);
            ctx.update_u32(addr, |x| x + 1);
            ctx.release_view(v);
        }
        ctx.barrier();
        ctx.acquire_rview(v);
        let got = ctx.read_u32(addr);
        ctx.release_rview(v);
        got
    });
    for r in &out.results {
        assert_eq!(*r, 32);
    }
    assert_eq!(out.stats.rexmits(), 0, "RDMA-class profile is lossless");
    assert!(
        out.stats.time.as_secs_f64() < 0.05,
        "an RDMA fabric run must be CPU-bound, took {}",
        out.stats.time
    );
}

/// Regression for the hardcoded 1 s retransmission timeout: a loss on
/// 10 GbE recovers on that generation's 25 ms timescale. Under the old
/// fixed timeout any loss on the critical path cost at least a full
/// second.
#[test]
fn vcrdma_loss_on_10g_recovers_on_generation_timescale() {
    use vopp_simnet::NetGen;
    let mut l = Layout::new();
    let (v, addr) = l.add_view(16);
    let mut cfg = ClusterConfig::new(4, Protocol::VcRdma);
    cfg.net = NetGen::Eth10g.config();
    cfg.net.base_drop_prob = 0.05; // force losses
    cfg.net.seed = 7;
    let out = run_cluster(&cfg, l.freeze(), move |ctx| {
        for _ in 0..8 {
            ctx.acquire_view(v);
            ctx.update_u32(addr, |x| x + 1);
            ctx.release_view(v);
        }
        ctx.barrier();
        ctx.acquire_rview(v);
        let got = ctx.read_u32(addr);
        ctx.release_rview(v);
        got
    });
    for r in &out.results {
        assert_eq!(*r, 32);
    }
    assert!(out.stats.rexmits() >= 1, "5% loss must cause rexmits");
    assert!(
        out.stats.time.as_secs_f64() < 1.0,
        "rexmits must recover at the 25 ms generation timeout, took {}",
        out.stats.time
    );
}

/// Helper so the lossy test can reuse one layout for two runs.
trait CloneForTest {
    fn clone_for_test(&self) -> Arc<Layout>;
}
impl CloneForTest for Layout {
    fn clone_for_test(&self) -> Arc<Layout> {
        // Layouts are cheap to rebuild; reconstruct an identical one.
        let mut l = Layout::new();
        for v in self.views() {
            let _ = l.add_view(v.len);
        }
        l.freeze()
    }
}

/// A lone LRC-family node keeps no diff store (no peer can request a
/// diff), but it still creates and counts every diff and pays its virtual
/// cost: time and `diffs_created` are the values recorded while the store
/// was still kept.
#[test]
fn lone_lrc_node_still_creates_and_charges_every_diff() {
    for protocol in [Protocol::LrcD, Protocol::Hlrc, Protocol::ScC] {
        let mut l = Layout::new();
        let base = l.alloc(8 * vopp_page::PAGE_SIZE, 4);
        let out = run_cluster(&ClusterConfig::lossless(1, protocol), l.freeze(), |ctx| {
            for round in 0..5u32 {
                ctx.lock_acquire(0);
                for page in 0..8 {
                    let a = base + page * vopp_page::PAGE_SIZE + 4 * round as usize;
                    ctx.write_u32(a, round + 1);
                }
                ctx.lock_release(0);
                ctx.barrier();
            }
            ctx.read_u32(base + 16)
        });
        assert_eq!(out.results, vec![5], "{protocol}");
        assert_eq!(
            (out.stats.time.nanos(), out.stats.nodes.diffs_created),
            (2_260_492, 40),
            "{protocol}"
        );
    }
}
