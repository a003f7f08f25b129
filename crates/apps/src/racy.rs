//! Seeded-racy application variants: known-answer workloads for the
//! `vopp-racecheck` dynamic checker (see `docs/CORRECTNESS.md`).
//!
//! Each variant runs a normally-disciplined kernel with a small number of
//! deliberate violations injected at fixed program points, so a checker
//! attached via `ClusterConfig::racecheck` reports an exact, deterministic
//! count:
//!
//! * [`run_is_racy`] — traditional (barrier-phased) IS sharing pattern where
//!   every processor additionally pokes one word of its neighbour's
//!   partial-histogram row before the first barrier. A happens-before
//!   checker reports exactly [`is_racy_expected`]`(np)` data races.
//! * [`run_sor_racy`] — a VOPP border-exchange (SOR-flavoured) kernel where
//!   node 0 breaks each view-discipline rule exactly once. A view-discipline
//!   checker reports exactly [`sor_racy_expected`]`()` violations.
//!
//! The programs stay deterministic with or without a checker: checking is
//! pure observation, and undisciplined writes are reverted by the DSM layer
//! before the protocol can observe them.

use vopp_core::prelude::*;

use crate::workload::share;
use crate::AppOutcome;

/// Distinct data races reported for [`run_is_racy`] on `np >= 2`
/// processors: each processor's poke of its neighbour's row start is
/// unordered with the neighbour's same-phase read (one race) and write (one
/// race) of its own row.
pub fn is_racy_expected(np: usize) -> usize {
    2 * np
}

/// Traditional (lock/barrier) IS sharing pattern with one seeded data race
/// per processor.
///
/// The kernel is the barrier-phased partial-histogram exchange of
/// [`crate::is`], shrunk to its sharing structure: each repetition
/// accumulates synthetic counts into the processor's own packed row, then
/// reads a rotating slice of every row after a barrier. In the first
/// repetition each processor additionally writes the first word of its
/// *neighbour's* row before the barrier — unordered with the neighbour's
/// own read and write of that word in the same phase.
///
/// Runs with or without a checker attached; races are benign for
/// termination (the poked word merely corrupts the histogram).
pub fn run_is_racy(cfg: &ClusterConfig, bmax: usize, reps: usize) -> AppOutcome<u64> {
    assert!(
        cfg.protocol.is_lrc_family(),
        "traditional IS runs on the LRC family"
    );
    assert!(cfg.nprocs >= 2, "the seeded race needs a neighbour");
    let np = cfg.nprocs;
    let mut world = WorldBuilder::new();
    // One packed array of per-processor rows (rows straddle pages: the
    // usual false sharing, which word-precise checking must NOT flag).
    let partials = world.alloc_u32(np * bmax);
    let layout = world.build();
    let out = run_cluster(cfg, layout, move |ctx| {
        let me = ctx.me();
        let my_row = me * bmax;
        let mut row = vec![0u32; bmax];
        let mut cks = 0u64;
        for rep in 0..reps {
            // Accumulate a synthetic count into my shared row.
            partials.read_into(ctx, my_row, &mut row);
            for (b, r) in row.iter_mut().enumerate() {
                *r += (b as u32 % 7) + 1;
            }
            partials.write_at(ctx, my_row, &row);
            if rep == 0 {
                // SEEDED RACE: poke the first word of the neighbour's row
                // on the wrong side of the barrier.
                partials.set(ctx, ((me + 1) % np) * bmax, 1);
            }
            ctx.int_ops(bmax as u64);
            ctx.barrier();
            // Read my rotating slice of the accumulated histogram.
            let (bs, be) = share(bmax, (me + rep) % np, np);
            let mut buf = vec![0u32; be - bs];
            for q in 0..np {
                partials.read_into(ctx, q * bmax + bs, &mut buf);
                for v in &buf {
                    cks = cks.wrapping_add(*v as u64);
                }
            }
            ctx.int_ops((np * (be - bs)) as u64);
            ctx.barrier();
        }
        cks
    });
    AppOutcome {
        value: out.results.iter().fold(0u64, |a, b| a.wrapping_add(*b)),
        stats: out.stats,
    }
}

/// Distinct view-discipline violations reported for [`run_sor_racy`]: node
/// 0 breaks each of the four rules (`outside_views`, `unbracketed`,
/// `foreign_view`, `read_only_write`) exactly once.
pub fn sor_racy_expected() -> usize {
    4
}

/// VOPP border-exchange (SOR-flavoured) kernel with node 0 breaking every
/// view-discipline rule exactly once before the disciplined sweeps start.
///
/// Requires a [`vopp_core::RaceChecker`] attached to `cfg`: without one the
/// runtime enforces the discipline by panicking on the first seeded
/// violation.
pub fn run_sor_racy(cfg: &ClusterConfig, n: usize, sweeps: usize) -> AppOutcome<f64> {
    assert!(cfg.protocol.is_vc(), "VOPP programs run on VC protocols");
    assert!(
        cfg.nprocs >= 2,
        "the foreign-view violation needs a second view"
    );
    assert!(
        cfg.racecheck.is_some(),
        "run_sor_racy needs a checker attached \
         (the seeded violations would otherwise panic)"
    );
    let np = cfg.nprocs;
    let mut world = WorldBuilder::new();
    // A plain allocation: shared data outside every view.
    let scratch = world.alloc_f64(8);
    // One border view per processor, exchanged ring-wise each sweep.
    let borders: Vec<_> = (0..np).map(|_| world.view_f64(n)).collect();
    let layout = world.build();
    let out = run_cluster(cfg, layout, move |ctx| {
        let me = ctx.me();
        if me == 0 {
            // SEEDED VIOLATIONS — one per discipline rule, one-shot.
            // 1. outside_views: shared data not owned by any view.
            let _ = scratch.get(ctx, 0);
            // 2. unbracketed: a view's data with nothing acquired.
            let _ = borders[1].region.get(ctx, 0);
            {
                // 3. foreign_view: the wrong view held (read view of
                //    border 0, touch border 1).
                let _g = ctx.rview(borders[0].view);
                let _ = borders[1].region.get(ctx, 0);
                // 4. read_only_write: write under a read-only acquisition.
                borders[0].region.set(ctx, 0, 1.0);
            }
        }
        // Disciplined sweeps: publish my border, read my neighbour's.
        let mut acc = 0.0f64;
        for sweep in 0..sweeps {
            ctx.with_view(&borders[me], |r| {
                for i in 0..n {
                    r.set(ctx, i, (me * sweeps + sweep) as f64 + i as f64 * 0.5);
                }
            });
            ctx.flops(n as u64);
            ctx.barrier();
            acc += ctx.with_rview(&borders[(me + 1) % np], |r| r.get(ctx, n - 1));
            ctx.barrier();
        }
        acc
    });
    AppOutcome {
        value: out.results.iter().sum(),
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vopp_core::{RaceChecker, Violation};

    use super::*;

    fn with_checker(np: usize, proto: Protocol) -> (ClusterConfig, Arc<RaceChecker>) {
        let rc = Arc::new(RaceChecker::new());
        let mut cfg = ClusterConfig::lossless(np, proto);
        cfg.racecheck = Some(rc.clone());
        (cfg, rc)
    }

    #[test]
    fn one_checker_follows_runs_of_different_sizes() {
        // The run sizes the checker; violations of earlier runs are kept.
        // The two row widths keep the two runs' races distinct.
        let (cfg, rc) = with_checker(4, Protocol::LrcD);
        run_is_racy(&cfg, 600, 2);
        assert_eq!(rc.count(), is_racy_expected(4));
        let mut cfg = ClusterConfig::lossless(16, Protocol::LrcD);
        cfg.racecheck = Some(rc.clone());
        run_is_racy(&cfg, 300, 2);
        assert_eq!(rc.count(), is_racy_expected(4) + is_racy_expected(16));
    }

    #[test]
    fn sor_racy_reports_each_rule_once_on_both_vc() {
        for proto in [Protocol::VcD, Protocol::VcSd] {
            let (cfg, rc) = with_checker(2, proto);
            run_sor_racy(&cfg, 64, 2);
            assert_eq!(rc.count(), sor_racy_expected(), "{proto}");
            let mut labels: Vec<&str> = rc
                .violations()
                .iter()
                .map(|v| match v {
                    Violation::Discipline { rule, .. } => rule.label(),
                    Violation::DataRace { .. } => "race",
                })
                .collect();
            labels.sort_unstable();
            assert_eq!(
                labels,
                [
                    "foreign_view",
                    "outside_views",
                    "read_only_write",
                    "unbracketed"
                ],
                "{proto}"
            );
        }
    }

    #[test]
    fn checker_never_perturbs_results_or_virtual_time() {
        let cfg = ClusterConfig::lossless(2, Protocol::LrcD);
        let plain = run_is_racy(&cfg, 600, 2);
        let (checked_cfg, rc) = with_checker(2, Protocol::LrcD);
        let checked = run_is_racy(&checked_cfg, 600, 2);
        assert!(rc.count() > 0);
        assert_eq!(plain.value, checked.value);
        assert_eq!(plain.stats.time, checked.stats.time);
    }

    #[test]
    fn locked_counter_is_clean_and_unlocked_is_racy() {
        let mut world = WorldBuilder::new();
        let counter = world.alloc_u32(1);
        let layout = world.build();
        for locked in [true, false] {
            let (cfg, rc) = with_checker(2, Protocol::LrcD);
            let layout = layout.clone();
            run_cluster(&cfg, layout, move |ctx| {
                if locked {
                    ctx.lock_acquire(0);
                }
                counter.update(ctx, 0, |x| x + 1);
                if locked {
                    ctx.lock_release(0);
                }
                ctx.barrier();
            });
            if locked {
                assert_eq!(rc.count(), 0, "lock-ordered updates must be silent");
            } else {
                assert_eq!(rc.count(), 1, "unordered counter updates must race");
            }
        }
    }
}
