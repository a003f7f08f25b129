//! Failure-injection tests: the protocols must produce identical verified
//! results under arbitrary datagram loss, duplicate deliveries (from
//! retransmission) and manager-queue contention.

use vopp_dsm::{run_cluster, ClusterConfig, FaultPlan, Layout, Protocol};
use vopp_metrics::Phase;
use vopp_sim::{SimDuration, SimTime};

/// Sweep loss seeds and rates: results must never change, only timings and
/// retransmission counts. (The per-round updates commute, so the
/// timing-dependent acquisition order cannot affect the final value.)
#[test]
fn loss_sweep_preserves_results() {
    for proto in [Protocol::LrcD, Protocol::VcD, Protocol::VcSd] {
        let mut reference = None;
        for (rate, seed) in [(0.0, 1), (0.01, 2), (0.03, 3), (0.08, 4), (0.01, 99)] {
            let mut l = Layout::new();
            let (results, rexmits) = if proto == Protocol::LrcD {
                let addr = l.alloc(256, 4);
                let mut cfg = ClusterConfig::new(3, proto);
                cfg.faults = FaultPlan::none().with_loss(rate, seed);
                let out = run_cluster(&cfg, l.freeze(), move |ctx| {
                    for round in 0..6u32 {
                        ctx.lock_acquire(1);
                        ctx.update_u32(addr, |x| x + (ctx.me() as u32 + 1) * (round + 1));
                        ctx.lock_release(1);
                        ctx.barrier();
                    }
                    ctx.read_u32(addr)
                });
                (out.results, out.stats.rexmits())
            } else {
                let (v, addr) = l.add_view(16);
                let mut cfg = ClusterConfig::new(3, proto);
                cfg.faults = FaultPlan::none().with_loss(rate, seed);
                let out = run_cluster(&cfg, l.freeze(), move |ctx| {
                    for round in 0..6u32 {
                        ctx.acquire_view(v);
                        ctx.update_u32(addr, |x| x + (ctx.me() as u32 + 1) * (round + 1));
                        ctx.release_view(v);
                        ctx.barrier();
                    }
                    ctx.acquire_rview(v);
                    let got = ctx.read_u32(addr);
                    ctx.release_rview(v);
                    got
                });
                (out.results, out.stats.rexmits())
            };
            // All nodes converge on the same value...
            assert!(
                results.windows(2).all(|w| w[0] == w[1]),
                "{proto} rate={rate}"
            );
            // ...and the value is independent of the loss pattern.
            match &reference {
                None => reference = Some(results),
                Some(r) => assert_eq!(r, &results, "{proto} rate={rate} seed={seed}"),
            }
            if rate >= 0.05 {
                assert!(rexmits > 0, "{proto}: heavy loss must retransmit");
            }
        }
    }
}

/// View grants are FIFO: queued writers are served in request-arrival
/// order, so a long producer chain is starvation-free.
#[test]
fn view_queue_is_fifo_and_starvation_free() {
    let mut l = Layout::new();
    let (v, addr) = l.add_view(4 * 64);
    let np = 8;
    let out = run_cluster(
        &ClusterConfig::lossless(np, Protocol::VcSd),
        l.freeze(),
        move |ctx| {
            // Everyone stamps the next free slot with its id, 8 times. FIFO
            // grant order bounds how long anyone can wait.
            for _ in 0..8 {
                ctx.acquire_view(v);
                let n = ctx.read_u32(addr);
                ctx.write_u32(addr + 4 + 4 * n as usize, ctx.me() as u32);
                ctx.write_u32(addr, n + 1);
                ctx.release_view(v);
            }
            ctx.barrier();
            ctx.acquire_rview(v);
            let total = ctx.read_u32(addr);
            let mut counts = vec![0u32; np];
            for i in 0..total as usize {
                counts[ctx.read_u32(addr + 4 + 4 * i) as usize] += 1;
            }
            ctx.release_rview(v);
            (total, counts)
        },
    );
    for (total, counts) in &out.results {
        assert_eq!(*total, 64);
        // Every proc got exactly its 8 slots: nobody starved or duplicated.
        assert!(counts.iter().all(|&c| c == 8));
    }
}

/// Several locks with overlapping critical sections on LRC: total counts
/// must be exact under loss.
#[test]
fn multi_lock_contention_under_loss() {
    let mut l = Layout::new();
    let a = l.alloc(4, 4);
    let b = l.alloc(4, 4);
    let mut cfg = ClusterConfig::new(6, Protocol::LrcD);
    cfg.faults = FaultPlan::none().with_loss(0.02, cfg.net.seed);
    let out = run_cluster(&cfg, l.freeze(), move |ctx| {
        for i in 0..10 {
            let lock = (ctx.me() + i) % 2;
            ctx.lock_acquire(lock as u32);
            let addr = if lock == 0 { a } else { b };
            ctx.update_u32(addr, |x| x + 1);
            ctx.lock_release(lock as u32);
        }
        ctx.barrier();
        ctx.lock_acquire(0);
        ctx.lock_release(0);
        ctx.lock_acquire(1);
        ctx.lock_release(1);
        (ctx.read_u32(a), ctx.read_u32(b))
    });
    for (va, vb) in &out.results {
        assert_eq!(va + vb, 60, "increments must never be lost or doubled");
    }
}

/// Barrier episodes survive loss of arrival and release messages (the
/// manager regenerates releases for retransmitted arrivals).
#[test]
fn barriers_survive_heavy_loss() {
    let l = Layout::new();
    let mut cfg = ClusterConfig::new(5, Protocol::VcSd);
    cfg.faults = FaultPlan::none().with_loss(0.10, cfg.net.seed);
    let out = run_cluster(&cfg, l.freeze(), |ctx| {
        for _ in 0..30 {
            ctx.barrier();
        }
        ctx.now().nanos()
    });
    assert_eq!(out.stats.barriers(), 30);
    assert!(out.stats.rexmits() > 0);
}

/// The same program text runs on VC_d and VC_sd with identical results and
/// identical acquire/barrier counts — only the transport-level statistics
/// differ (the paper's "same program, different implementation" premise).
#[test]
fn vcd_vcsd_program_equivalence() {
    let run = |proto: Protocol| {
        let mut l = Layout::new();
        let views: Vec<_> = (0..6).map(|_| l.add_view(128)).collect();
        run_cluster(&ClusterConfig::lossless(4, proto), l.freeze(), move |ctx| {
            let mut acc = 0u64;
            for round in 0..5 {
                for (v, addr) in &views {
                    ctx.acquire_view(*v);
                    ctx.update_u32(*addr, |x| x + round + 1);
                    ctx.release_view(*v);
                }
                ctx.barrier();
                for (v, addr) in &views {
                    ctx.acquire_rview(*v);
                    acc += ctx.read_u32(*addr) as u64;
                    ctx.release_rview(*v);
                }
                ctx.barrier();
            }
            acc
        })
    };
    let d = run(Protocol::VcD);
    let sd = run(Protocol::VcSd);
    assert_eq!(d.results, sd.results);
    assert_eq!(d.stats.acquires(), sd.stats.acquires());
    assert_eq!(d.stats.barriers(), sd.stats.barriers());
    assert_eq!(sd.stats.diff_requests(), 0);
    assert!(d.stats.diff_requests() > 0);
    assert!(sd.stats.num_msgs() < d.stats.num_msgs());
}

/// Single-node cluster: every operation degenerates to loopback and all
/// protocols behave identically.
#[test]
fn single_node_degenerate_cluster() {
    for proto in [Protocol::LrcD, Protocol::VcD, Protocol::VcSd] {
        let mut l = Layout::new();
        let outcome = if proto == Protocol::LrcD {
            let addr = l.alloc(64, 4);
            run_cluster(&ClusterConfig::new(1, proto), l.freeze(), move |ctx| {
                ctx.lock_acquire(0);
                ctx.write_u32(addr, 5);
                ctx.lock_release(0);
                ctx.barrier();
                ctx.read_u32(addr)
            })
        } else {
            let (v, addr) = l.add_view(64);
            run_cluster(&ClusterConfig::new(1, proto), l.freeze(), move |ctx| {
                ctx.acquire_view(v);
                ctx.write_u32(addr, 5);
                ctx.release_view(v);
                ctx.barrier();
                ctx.acquire_rview(v);
                let got = ctx.read_u32(addr);
                ctx.release_rview(v);
                got
            })
        };
        assert_eq!(outcome.results, vec![5], "{proto}");
        assert_eq!(
            outcome.stats.num_msgs(),
            0,
            "{proto}: 1-node runs stay off the wire"
        );
    }
}

/// A slowdown fault scales one node's cost model. Results never change,
/// but the slowed node finishes later and drags the whole run with it.
#[test]
fn slowdown_delays_one_node_without_changing_results() {
    let run = |faults: FaultPlan| {
        let mut l = Layout::new();
        let (v, addr) = l.add_view(64);
        let mut cfg = ClusterConfig::lossless(4, Protocol::VcSd);
        cfg.faults = faults;
        run_cluster(&cfg, l.freeze(), move |ctx| {
            for _ in 0..4 {
                ctx.flops(50_000);
                ctx.acquire_view(v);
                ctx.update_u32(addr, |x| x + 1);
                ctx.release_view(v);
                ctx.barrier();
            }
            ctx.acquire_rview(v);
            let got = ctx.read_u32(addr);
            ctx.release_rview(v);
            got
        })
    };
    let base = run(FaultPlan::none());
    let slow = run(FaultPlan::none().with_slowdown(2, 3.0));
    assert_eq!(base.results, slow.results);
    assert_eq!(base.results, vec![16; 4]);
    assert!(
        slow.stats.node_end[2] > base.stats.node_end[2],
        "the slowed node must take longer"
    );
    assert!(slow.stats.time > base.stats.time);
}

/// `idle_until` parks a node in virtual time and charges the wait to the
/// `Idle` phase, leaving the fault-free phase groups untouched.
#[test]
fn idle_until_charges_the_idle_phase() {
    let l = Layout::new();
    let out = run_cluster(
        &ClusterConfig::lossless(2, Protocol::VcSd),
        l.freeze(),
        |ctx| {
            let mut idled = 0;
            if ctx.me() == 1 {
                idled = ctx.idle_until(SimTime::default() + SimDuration::from_millis(2));
                // Idling to a time already in the past is free.
                idled += ctx.idle_until(SimTime::default());
            }
            ctx.barrier();
            idled
        },
    );
    assert_eq!(out.results[0], 0);
    assert_eq!(out.results[1], 2_000_000);
    assert_eq!(out.stats.node_breakdowns[1].get(Phase::Idle), 2_000_000);
    assert_eq!(out.stats.node_breakdowns[0].get(Phase::Idle), 0);
}

/// Crash and recovery: a node drops every cached view page plus its
/// unapplied write-notice state, then lazily refetches the full view
/// history from the home nodes on its next acquire. The reconstructed
/// contents must be byte-for-byte what the survivors hold.
#[test]
fn crash_recovery_reconstructs_view_state_from_homes() {
    for proto in [Protocol::VcD, Protocol::VcSd] {
        let mut l = Layout::new();
        let (v, addr) = l.add_view(256);
        let (w, waddr) = l.add_view(128);
        let out = run_cluster(&ClusterConfig::lossless(3, proto), l.freeze(), move |ctx| {
            // Phase 1: everyone accumulates into its own slots of both
            // views, so every node caches copies of every page.
            for round in 1..=4u32 {
                ctx.acquire_view(v);
                ctx.update_u32(addr + 4 * ctx.me(), |x| x + round);
                ctx.release_view(v);
                ctx.acquire_view(w);
                ctx.update_u32(waddr + 4 * ctx.me(), |x| x + 2 * round);
                ctx.release_view(w);
                ctx.barrier();
            }
            // Phase 2: node 1 crashes, losing all cached view pages.
            let dropped = if ctx.me() == 1 {
                ctx.crash_recover()
            } else {
                0
            };
            ctx.barrier();
            // Phase 3: everyone re-reads. The crashed node starts from
            // zeroed frames and version 0, so its acquire pulls the
            // complete history back from the home nodes.
            ctx.acquire_rview(v);
            let a: Vec<u32> = (0..3).map(|i| ctx.read_u32(addr + 4 * i)).collect();
            ctx.release_rview(v);
            ctx.acquire_rview(w);
            let b: Vec<u32> = (0..3).map(|i| ctx.read_u32(waddr + 4 * i)).collect();
            ctx.release_rview(w);
            (a, b, dropped)
        });
        for (node, (a, b, dropped)) in out.results.iter().enumerate() {
            assert_eq!(a, &vec![10, 10, 10], "{proto} node {node}: view v");
            assert_eq!(b, &vec![20, 20, 20], "{proto} node {node}: view w");
            if node == 1 {
                assert!(*dropped > 0, "{proto}: the crash must shed pages");
            } else {
                assert_eq!(*dropped, 0);
            }
        }
        if proto == Protocol::VcSd {
            // Single-diffing stays diff-request-free even across recovery:
            // full-history grants carry the diffs inline.
            assert_eq!(out.stats.diff_requests(), 0);
        } else {
            assert!(out.stats.diff_requests() > 0);
        }
    }
}

/// A crash mid-stream with further writes afterwards: the recovered node
/// must see writes from before its crash (including its own, whose diffs
/// lived only in its durable diff store) and writes that happened while it
/// was down.
#[test]
fn crash_recovery_catches_up_on_missed_writes() {
    let mut l = Layout::new();
    let (v, addr) = l.add_view(64);
    let out = run_cluster(
        &ClusterConfig::lossless(4, Protocol::VcD),
        l.freeze(),
        move |ctx| {
            ctx.acquire_view(v);
            ctx.update_u32(addr, |x| x + 1 + ctx.me() as u32);
            ctx.release_view(v);
            ctx.barrier();
            if ctx.me() == 3 {
                ctx.crash_recover();
                // Down for 1ms of virtual time while the others write.
                ctx.idle_until(ctx.now() + SimDuration::from_millis(1));
            } else {
                ctx.acquire_view(v);
                ctx.update_u32(addr, |x| x + 100);
                ctx.release_view(v);
            }
            ctx.barrier();
            ctx.acquire_rview(v);
            let got = ctx.read_u32(addr);
            ctx.release_rview(v);
            got
        },
    );
    // 1+2+3+4 from round one, plus 3 × 100 while node 3 was down.
    assert_eq!(out.results, vec![310; 4]);
}

/// The fault-plan label grammar round-trips and rejects nonsense — the
/// bench CLI leans on this for `--faults`.
#[test]
fn fault_plan_labels_round_trip() {
    let plan = FaultPlan::none()
        .with_loss(0.02, 7)
        .with_slowdown(3, 1.5)
        .with_crash(
            2,
            SimTime::default() + SimDuration::from_millis(40),
            SimDuration::from_millis(30),
        );
    let label = plan.label();
    assert_eq!(label, "loss=0.02@7,slow=3x1.5,crash=2@40ms+30ms");
    assert_eq!(FaultPlan::parse(&label).unwrap(), plan);
    assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
    assert!(FaultPlan::parse("crash=2").is_err());
}
