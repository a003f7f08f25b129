//! Running the serving workload on a simulated cluster.

use vopp_core::{prelude::*, ClusterOutcome};
use vopp_metrics::Histogram;
use vopp_sim::SimTime;
use vopp_trace::EventKind;

use vopp_apps::workload::mix64;

use crate::membership::Membership;
use crate::params::ServeParams;
use crate::schedule::{build_schedule, Request};

/// Which store implementation serves the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeVariant {
    /// Each shard is one view with a fixed home node (runs on VC_d/VC_sd).
    Vopp,
    /// The shards live in one packed allocation behind one lock per shard
    /// (runs on the LRC family).
    Traditional,
}

/// Everything a serve run produces.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The usual run statistics (time, messages, phase breakdowns).
    pub stats: RunStats,
    /// Per-request service latency, merged across all serving nodes.
    pub latency: Histogram,
    /// Final-store checksum, identical on every node and equal to
    /// [`serve_reference`] for a correct run.
    pub checksum: u64,
    /// Order-independent digest of every GET's observed value.
    pub get_digest: u64,
    /// Requests served (always the full schedule).
    pub served: u64,
    /// Pages shed by crash windows across the run (0 without crash faults).
    pub recovered_pages: u64,
}

/// Position-tagged fold for store contents: commutative across shards, so
/// every node and the sequential reference compute it the same way.
fn fold_slot(acc: u64, index: usize, value: u32) -> u64 {
    acc.wrapping_add(mix64(index as u64, value as u64))
}

/// The final store contents, computed sequentially: each slot accumulates
/// the deltas of every PUT that targets it (addition commutes, so placement
/// and timing cannot change the answer). Returns the checksum the cluster
/// must converge to.
pub fn serve_reference(p: &ServeParams) -> u64 {
    let mut store = vec![0u32; p.shards * p.slots_per_shard];
    for rq in build_schedule(p) {
        if rq.write {
            let slot = &mut store[rq.shard * p.slots_per_shard + rq.slot];
            *slot = slot.wrapping_add(rq.delta);
        }
    }
    store
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &v)| fold_slot(acc, i, v))
}

/// Run the open-loop serving workload on a simulated cluster.
///
/// Every node walks the same global schedule and serves the requests the
/// membership map places on it: wait (idle) until the arrival instant,
/// bracket the target shard, apply the PUT delta or fold the GET value,
/// and record `completion − arrival` as the request's latency. Crash
/// windows from `cfg.faults` are choreographed in schedule order: the
/// victim sheds its volatile pages at the crash instant, idles through the
/// downtime, and reconstructs lazily from the home nodes afterwards.
///
/// After a final barrier every node checksums the whole store under read
/// views; the checksums must agree with each other (asserted here) and
/// with [`serve_reference`] (asserted by callers/tests) — which is what
/// "recovery reconstructed the shards" means concretely.
pub fn run_serve(cfg: &ClusterConfig, p: &ServeParams, variant: ServeVariant) -> ServeOutcome {
    match variant {
        ServeVariant::Vopp => {
            assert!(cfg.protocol.is_vc(), "VOPP serving runs on VC_d / VC_sd");
            run_serve_vopp(cfg, p, false)
        }
        ServeVariant::Traditional => {
            assert!(
                cfg.protocol.is_lrc_family(),
                "traditional serving runs on the LRC family"
            );
            assert!(
                cfg.faults.crashes.is_empty(),
                "crash/recovery is only modelled for the view-backed store"
            );
            run_serve_traditional(cfg, p)
        }
    }
}

/// Per-node serving state threaded through the request loop.
#[derive(Default)]
struct NodeTally {
    hist: Histogram,
    served: u64,
    get_digest: u64,
    recovered: u64,
}

fn run_serve_vopp(cfg: &ClusterConfig, p: &ServeParams, undisciplined: bool) -> ServeOutcome {
    let np = cfg.nprocs;
    let schedule = build_schedule(p);
    let membership = Membership::new(np, &cfg.faults);
    let slots = p.slots_per_shard;
    let mut world = WorldBuilder::new();
    // Scratch outside every view: only touched by the undisciplined
    // variant's seeded violation.
    let scratch = world.alloc_u32(4);
    let shard_views: Vec<_> = (0..p.shards)
        .map(|s| world.view_u32_at(slots, membership.home_of(s)))
        .collect();
    let layout = world.build();
    let faults = cfg.faults.clone();
    let out = run_cluster(cfg, layout, move |ctx| {
        let me = ctx.me();
        if undisciplined && me == 0 {
            // SEEDED VIOLATIONS — one per view-discipline rule, one-shot,
            // before disciplined serving starts (see `run_serve_undisciplined`).
            let _ = scratch.get(ctx, 0); // 1. outside_views
            let _ = shard_views[0].region.get(ctx, 0); // 2. unbracketed
            {
                let _g = ctx.rview(shard_views[0].view);
                let _ = shard_views[1].region.get(ctx, 0); // 3. foreign_view
                shard_views[0].region.set(ctx, 0, 0); // 4. read_only_write
            }
        }
        let mut tally = NodeTally::default();
        let my_crashes = faults.crashes_for(me);
        let mut next_crash = 0;
        for (i, rq) in schedule.iter().enumerate() {
            // Crash choreography happens between requests, in arrival order.
            while next_crash < my_crashes.len() && my_crashes[next_crash].at.nanos() <= rq.arrival {
                let c = my_crashes[next_crash];
                ctx.idle_until(c.at);
                tally.recovered += ctx.crash_recover();
                ctx.idle_until(c.up_at());
                next_crash += 1;
            }
            let epoch = membership.epoch_at(rq.arrival);
            if membership.server_for(rq.shard, epoch) != me {
                continue;
            }
            serve_one(ctx, &mut tally, rq, |ctx, tally| {
                let sv = &shard_views[rq.shard];
                if rq.write {
                    ctx.with_view(sv, |r| {
                        r.update(ctx, rq.slot, |x| x.wrapping_add(rq.delta));
                    });
                } else {
                    let v = ctx.with_rview(sv, |r| r.get(ctx, rq.slot));
                    tally.get_digest = tally.get_digest.wrapping_add(mix64(i as u64, v as u64));
                }
            });
        }
        // Late crash windows (after the last arrival) still happen, so the
        // final verification exercises recovery even then.
        for c in &my_crashes[next_crash..] {
            ctx.idle_until(c.at);
            tally.recovered += ctx.crash_recover();
            ctx.idle_until(c.up_at());
        }
        ctx.barrier();
        // Full-store verification read: every node — crashed ones included —
        // must see the converged contents.
        let mut checksum = 0u64;
        for (s, sv) in shard_views.iter().enumerate() {
            ctx.with_rview(sv, |r| {
                for i in 0..slots {
                    checksum = fold_slot(checksum, s * slots + i, r.get(ctx, i));
                }
            });
        }
        ctx.int_ops((p.shards * slots) as u64);
        (
            tally.hist,
            tally.served,
            tally.get_digest,
            checksum,
            tally.recovered,
        )
    });
    assemble(out, p)
}

fn run_serve_traditional(cfg: &ClusterConfig, p: &ServeParams) -> ServeOutcome {
    let np = cfg.nprocs;
    let schedule = build_schedule(p);
    let membership = Membership::new(np, &cfg.faults);
    let slots = p.slots_per_shard;
    let mut world = WorldBuilder::new();
    // One packed store; shard `s` owns slots `[s*slots, (s+1)*slots)` and
    // lock `s`.
    let store = world.alloc_u32(p.shards * slots);
    let layout = world.build();
    let out = run_cluster(cfg, layout, move |ctx| {
        let me = ctx.me();
        let mut tally = NodeTally::default();
        for (i, rq) in schedule.iter().enumerate() {
            let epoch = membership.epoch_at(rq.arrival);
            if membership.server_for(rq.shard, epoch) != me {
                continue;
            }
            serve_one(ctx, &mut tally, rq, |ctx, tally| {
                let lock = rq.shard as u32;
                let slot = rq.shard * slots + rq.slot;
                ctx.lock_acquire(lock);
                if rq.write {
                    store.update(ctx, slot, |x| x.wrapping_add(rq.delta));
                } else {
                    let v = store.get(ctx, slot);
                    tally.get_digest = tally.get_digest.wrapping_add(mix64(i as u64, v as u64));
                }
                ctx.lock_release(lock);
            });
        }
        ctx.barrier();
        // Locks order the updates; after the barrier everyone reads the
        // converged store directly.
        let mut checksum = 0u64;
        for i in 0..p.shards * slots {
            checksum = fold_slot(checksum, i, store.get(ctx, i));
        }
        ctx.int_ops((p.shards * slots) as u64);
        (
            tally.hist,
            tally.served,
            tally.get_digest,
            checksum,
            tally.recovered,
        )
    });
    assemble(out, p)
}

/// Shared per-request choreography: idle to the arrival instant, run the
/// store operation, charge handler CPU, record latency, trace.
fn serve_one(
    ctx: &DsmCtx<'_>,
    tally: &mut NodeTally,
    rq: &Request,
    op: impl FnOnce(&DsmCtx<'_>, &mut NodeTally),
) {
    let arrival = SimTime(rq.arrival);
    ctx.idle_until(arrival);
    op(ctx, tally);
    // Fixed request-handler overhead (parse, route, respond).
    ctx.int_ops(64);
    let latency = (ctx.now() - arrival).nanos();
    tally.hist.record(latency);
    tally.served += 1;
    if ctx.tracing() {
        ctx.trace(EventKind::ServeRequest {
            shard: rq.shard as u64,
            write: rq.write,
            latency_ns: latency,
        });
    }
}

/// Merge per-node tallies, cross-check the checksums, and package the run.
fn assemble(out: ClusterOutcome<(Histogram, u64, u64, u64, u64)>, p: &ServeParams) -> ServeOutcome {
    let mut latency = Histogram::default();
    let mut served = 0u64;
    let mut get_digest = 0u64;
    let mut recovered = 0u64;
    let checksum = out.results[0].3;
    for (hist, n, digest, cks, rec) in &out.results {
        latency.absorb(hist);
        served += n;
        get_digest = get_digest.wrapping_add(*digest);
        recovered += rec;
        assert_eq!(
            *cks, checksum,
            "store checksums diverge across nodes — recovery failed"
        );
    }
    assert_eq!(
        served, p.requests as u64,
        "placement must cover the whole schedule exactly once"
    );
    ServeOutcome {
        stats: out.stats,
        latency,
        checksum,
        get_digest,
        served,
        recovered_pages: recovered,
    }
}

/// Distinct view-discipline violations seeded by
/// [`run_serve_undisciplined`]: node 0 breaks each rule (`outside_views`,
/// `unbracketed`, `foreign_view`, `read_only_write`) exactly once.
pub fn undisciplined_expected() -> usize {
    4
}

/// The VOPP serving store with node 0 breaking every view-discipline rule
/// exactly once before serving starts — the known-answer workload for
/// racecheck coverage of the shard-view discipline.
///
/// Requires a [`vopp_core::RaceChecker`] attached to `cfg`
/// (without one the runtime enforces the discipline by panicking) and at
/// least two shards.
pub fn run_serve_undisciplined(cfg: &ClusterConfig, p: &ServeParams) -> ServeOutcome {
    assert!(cfg.protocol.is_vc(), "VOPP serving runs on VC_d / VC_sd");
    assert!(p.shards >= 2, "the foreign-view violation needs two shards");
    assert!(
        cfg.racecheck.is_some(),
        "run_serve_undisciplined needs a checker attached \
         (the seeded violations would otherwise panic)"
    );
    run_serve_vopp(cfg, p, true)
}

#[cfg(test)]
mod tests {
    use vopp_core::Protocol;
    use vopp_sim::SimDuration;

    use super::*;

    fn quick() -> ServeParams {
        ServeParams::quick()
    }

    #[test]
    fn every_protocol_converges_to_the_reference() {
        let p = quick();
        let expect = serve_reference(&p);
        for proto in [Protocol::VcD, Protocol::VcSd] {
            let cfg = ClusterConfig::lossless(4, proto);
            let out = run_serve(&cfg, &p, ServeVariant::Vopp);
            assert_eq!(out.checksum, expect, "{proto}");
            assert_eq!(out.served, p.requests as u64);
            assert_eq!(out.latency.count(), p.requests as u64);
        }
        for proto in [Protocol::LrcD, Protocol::Hlrc, Protocol::ScC] {
            let cfg = ClusterConfig::lossless(4, proto);
            let out = run_serve(&cfg, &p, ServeVariant::Traditional);
            assert_eq!(out.checksum, expect, "{proto}");
            assert_eq!(out.served, p.requests as u64);
        }
    }

    #[test]
    fn runs_are_byte_identical() {
        let p = quick();
        let cfg = ClusterConfig::lossless(4, Protocol::VcSd);
        let a = run_serve(&cfg, &p, ServeVariant::Vopp);
        let b = run_serve(&cfg, &p, ServeVariant::Vopp);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.get_digest, b.get_digest);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.stats.time, b.stats.time);
    }

    #[test]
    fn crash_recovery_converges_and_degrades_the_tail() {
        let p = quick();
        let expect = serve_reference(&p);
        let cfg = ClusterConfig::lossless(4, Protocol::VcSd);
        let clean = run_serve(&cfg, &p, ServeVariant::Vopp);
        // Crash node 1 mid-stream for a quarter of the horizon.
        let horizon = build_schedule(&p).last().unwrap().arrival;
        let mut faulty = cfg.clone();
        faulty.faults = FaultPlan::none().with_crash(
            1,
            SimTime(horizon / 4),
            SimDuration::from_nanos(horizon / 4),
        );
        let crashed = run_serve(&faulty, &p, ServeVariant::Vopp);
        // Both converge to the sequential store...
        assert_eq!(clean.checksum, expect);
        assert_eq!(crashed.checksum, expect);
        assert_eq!(crashed.served, p.requests as u64);
        // ...the crash actually shed pages...
        assert_eq!(clean.recovered_pages, 0);
        assert!(crashed.recovered_pages > 0);
        // ...and the fault window shows up in the tail.
        assert!(
            crashed.latency.p999() >= clean.latency.p999(),
            "crash must not improve the p99.9 ({} < {})",
            crashed.latency.p999(),
            clean.latency.p999()
        );
    }

    #[test]
    fn slowdown_fault_inflates_latency_without_changing_contents() {
        let p = quick();
        let cfg = ClusterConfig::lossless(4, Protocol::VcSd);
        let clean = run_serve(&cfg, &p, ServeVariant::Vopp);
        let mut slow = cfg.clone();
        slow.faults = FaultPlan::none().with_slowdown(0, 4.0);
        let slowed = run_serve(&slow, &p, ServeVariant::Vopp);
        assert_eq!(clean.checksum, slowed.checksum);
        assert!(slowed.latency.mean_ns() >= clean.latency.mean_ns());
    }

    #[test]
    fn single_node_cluster_serves_everything() {
        let p = quick();
        let cfg = ClusterConfig::lossless(1, Protocol::VcSd);
        let out = run_serve(&cfg, &p, ServeVariant::Vopp);
        assert_eq!(out.checksum, serve_reference(&p));
        assert_eq!(out.served, p.requests as u64);
    }
}
