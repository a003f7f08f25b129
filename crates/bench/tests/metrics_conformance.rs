//! The phase-accounting invariant: on every protocol (and on MPI), each
//! node's breakdown must classify *every* nanosecond of its virtual time —
//! `compute + proto cpu + waits == run time`, per node, exactly. The
//! cluster wiring `debug_assert`s this against the kernel's independent
//! compute/blocked split; this test asserts it unconditionally so the
//! release profile is covered too. MPI runs on the same wiring, so the
//! cluster config's faults, tracer and profiler reach it as well.

use std::sync::Arc;

use vopp_apps::nn::{nn_reference, run_nn, NnParams, NnVariant};
use vopp_bench::tables::check_config_for;
use vopp_core::prelude::*;
use vopp_core::VoppExt;
use vopp_dsm::FaultPlan;
use vopp_trace::{check, CausalProfiler, EventKind, Tracer};

const NPROCS: usize = 4;
const ROUNDS: u32 = 3;

fn assert_accounted(label: &str, stats: &RunStats) {
    assert_eq!(
        stats.node_breakdowns.len(),
        stats.node_end.len(),
        "{label}: one breakdown per node"
    );
    assert!(!stats.node_breakdowns.is_empty(), "{label}: no breakdowns");
    for (p, (bd, end)) in stats
        .node_breakdowns
        .iter()
        .zip(&stats.node_end)
        .enumerate()
    {
        assert_eq!(
            bd.total_ns(),
            end.nanos(),
            "{label} node {p}: breakdown must sum to the node's run time"
        );
    }
    // The aggregate breakdown is exactly the sum of the per-node ones.
    let per_node: u64 = stats.node_breakdowns.iter().map(|b| b.total_ns()).sum();
    assert_eq!(stats.breakdown().total_ns(), per_node, "{label}: aggregate");
}

/// Traditional lock + barrier workload (the LRC family's API).
fn lrc_family_stats(proto: Protocol) -> RunStats {
    let mut w = WorldBuilder::new();
    let arr = w.alloc_u32(1024);
    let cfg = ClusterConfig::new(NPROCS, proto);
    let out = run_cluster(&cfg, w.build(), move |ctx| {
        for _ in 0..ROUNDS {
            ctx.lock_acquire(0);
            arr.update(ctx, 0, |x| x + 1);
            ctx.lock_release(0);
            ctx.barrier();
            let _ = arr.get(ctx, 0);
            ctx.barrier();
        }
    });
    out.stats
}

/// View bracket + barrier workload (the VOPP API).
fn vc_stats(proto: Protocol) -> RunStats {
    let mut w = WorldBuilder::new();
    let v = w.view_u32(64);
    let cfg = ClusterConfig::new(NPROCS, proto);
    let out = run_cluster(&cfg, w.build(), move |ctx| {
        for _ in 0..ROUNDS {
            ctx.with_view(&v, |r| r.update(ctx, 0, |x| x + 1));
            ctx.barrier();
            let first = ctx.with_rview(&v, |r| r.get(ctx, 0));
            assert!(first > 0);
            ctx.barrier();
        }
    });
    out.stats
}

#[test]
fn all_five_protocols_account_every_nanosecond() {
    for proto in [Protocol::LrcD, Protocol::Hlrc, Protocol::ScC] {
        let stats = lrc_family_stats(proto);
        assert_accounted(proto.label(), &stats);
        // The workload synchronizes, so classified wait time must show up.
        assert!(
            stats.breakdown().blocked_ns() > 0,
            "{proto}: lock/barrier workload must record wait time"
        );
    }
    for proto in [Protocol::VcD, Protocol::VcSd] {
        let stats = vc_stats(proto);
        assert_accounted(proto.label(), &stats);
        assert!(
            stats.breakdown().get(vopp_core::Phase::BarrierWait) > 0,
            "{proto}: barriers must record barrier wait"
        );
    }
}

#[test]
fn mpi_accounts_every_nanosecond() {
    let p = NnParams::quick();
    let cfg = ClusterConfig::lossless(NPROCS, Protocol::VcSd);
    let out = run_nn(&cfg, &p, NnVariant::Mpi);
    assert_eq!(out.value, nn_reference(&p, NPROCS));
    assert_accounted("MPI", &out.stats);
    assert!(
        out.stats.breakdown().cpu_ns() > 0,
        "MPI run must record compute time"
    );
}

/// NN MPI at `NPROCS` nodes on the quick parameters, on `cfg`'s cluster.
fn nn_mpi(cfg: &ClusterConfig) -> RunStats {
    let p = NnParams::quick();
    let out = run_nn(cfg, &p, NnVariant::Mpi);
    assert_eq!(out.value, nn_reference(&p, NPROCS), "MPI result mismatch");
    assert_accounted("MPI", &out.stats);
    out.stats
}

#[test]
fn mpi_honours_a_slowdown() {
    let clean = nn_mpi(&ClusterConfig::new(NPROCS, Protocol::VcSd));
    let mut cfg = ClusterConfig::new(NPROCS, Protocol::VcSd);
    cfg.faults = FaultPlan::none().with_slowdown(0, 3.0);
    let slowed = nn_mpi(&cfg);
    assert!(
        slowed.time > clean.time,
        "a 3x slower rank 0 must slow the run: {:?} vs {:?}",
        slowed.time,
        clean.time
    );
}

#[test]
fn mpi_honours_elevated_loss() {
    let mut cfg = ClusterConfig::new(NPROCS, Protocol::VcSd);
    cfg.faults = FaultPlan::none().with_loss(0.02, 7);
    let stats = nn_mpi(&cfg);
    assert!(stats.rexmits() > 0, "2 % loss must force retransmissions");
    assert!(stats.net.drops > 0, "2 % loss must drop datagrams");
}

#[test]
fn mpi_runs_are_traced_and_conform() {
    let tracer = Arc::new(Tracer::default());
    let mut cfg = ClusterConfig::new(NPROCS, Protocol::VcSd);
    cfg.tracer = Some(tracer.clone());
    nn_mpi(&cfg);
    let trace = tracer.take();
    assert_eq!(trace.evicted, 0);
    for rank in 0..NPROCS {
        let has = |want: fn(&EventKind) -> bool| {
            trace.events.iter().any(|e| e.node == rank && want(&e.kind))
        };
        assert!(has(|k| matches!(k, EventKind::ProcStart)), "rank {rank}");
        assert!(
            has(|k| matches!(k, EventKind::NetSend { .. })),
            "rank {rank}"
        );
    }
    let violations = check(&trace, &check_config_for(Protocol::VcSd));
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn mpi_runs_are_profiled() {
    let mut cfg = ClusterConfig::new(NPROCS, Protocol::VcSd);
    cfg.profiler = Some(Arc::new(CausalProfiler::new(NPROCS)));
    let stats = nn_mpi(&cfg);
    let crit = stats
        .crit
        .as_deref()
        .expect("a profiled MPI run has a critical path");
    assert_eq!(crit.makespan_ns, stats.time.nanos());
}
