//! Ablations of the design choices called out in DESIGN.md, reported in
//! *virtual* time (the metric that matters): each benchmark runs the
//! miniature workload and asserts the ablation direction, while the
//! harness tracks the simulator's wall-clock throughput.

use std::sync::Arc;

use vopp_apps::is::{run_is, IsParams, IsVariant};
use vopp_apps::nn::{run_nn, NnParams, NnVariant};
use vopp_bench::harness::Runner;
use vopp_core::{ClusterConfig, Protocol};
use vopp_trace::Tracer;

/// Diff integration + piggy-backing (VC_sd) vs separate fault-time fetches
/// (VC_d): the integrated protocol must use fewer messages and zero diff
/// requests.
fn ablation_diff_integration(r: &mut Runner) {
    let p = IsParams::quick();
    r.bench("ablation_vcd_vs_vcsd", || {
        let d = run_is(
            &ClusterConfig::lossless(4, Protocol::VcD),
            &p,
            IsVariant::Vopp,
        );
        let sd = run_is(
            &ClusterConfig::lossless(4, Protocol::VcSd),
            &p,
            IsVariant::Vopp,
        );
        assert!(sd.stats.num_msgs() < d.stats.num_msgs());
        assert_eq!(sd.stats.diff_requests(), 0);
        assert!(d.stats.diff_requests() > 0);
        assert!(sd.stats.time <= d.stats.time);
        (d.stats.time, sd.stats.time)
    });
}

/// Barrier hoisting (§3.2): the lb variant of IS must beat the standard
/// VOPP variant in virtual time.
fn ablation_barrier_hoisting(r: &mut Runner) {
    let p = IsParams::quick();
    r.bench("ablation_barrier_hoisting", || {
        let std = run_is(
            &ClusterConfig::lossless(4, Protocol::VcSd),
            &p,
            IsVariant::Vopp,
        );
        let lb = run_is(
            &ClusterConfig::lossless(4, Protocol::VcSd),
            &p,
            IsVariant::VoppLb,
        );
        assert!(lb.stats.time < std.stats.time);
        assert!(lb.stats.barriers() < std.stats.barriers());
        (std.stats.time, lb.stats.time)
    });
}

/// Read views (§3.4): concurrent weight reads in NN vs exclusive access —
/// VC_sd with Rviews must not serialize readers (checked via acquire wait).
fn ablation_read_views(r: &mut Runner) {
    let p = NnParams::quick();
    r.bench("ablation_nn_rviews", || {
        let out = run_nn(
            &ClusterConfig::lossless(4, Protocol::VcSd),
            &p,
            NnVariant::Vopp,
        );
        out.stats.time
    });
}

/// Automated view insertion (§6 future work) vs programmer-placed
/// primitives: naive per-access acquisition must cost more acquires,
/// messages and virtual time.
fn ablation_auto_views(r: &mut Runner) {
    use vopp_core::{run_cluster, WorldBuilder};
    r.bench("ablation_auto_vs_manual_views", || {
        let manual = {
            let mut w = WorldBuilder::new();
            let v = w.view_u32(128);
            run_cluster(
                &ClusterConfig::lossless(4, Protocol::VcSd),
                w.build(),
                move |ctx| {
                    use vopp_core::VoppExt;
                    let _g = ctx.view(v.view);
                    for i in 0..64 {
                        v.region.set(ctx, i, i as u32);
                    }
                    drop(_g);
                    ctx.barrier();
                },
            )
        };
        let auto = {
            let mut w = WorldBuilder::new();
            let v = w.view_u32(128);
            run_cluster(
                &ClusterConfig::lossless(4, Protocol::VcSd),
                w.build(),
                move |ctx| {
                    ctx.set_auto_views(true);
                    for i in 0..64 {
                        v.region.set(ctx, i, i as u32);
                    }
                    ctx.barrier();
                },
            )
        };
        assert!(auto.stats.acquires() > 10 * manual.stats.acquires());
        assert!(auto.stats.time > manual.stats.time);
        (manual.stats.time, auto.stats.time)
    });
}

/// Homeless (TreadMarks) vs home-based LRC on the SOR workload: the home
/// variant trades eager flush traffic for single-round-trip faults.
fn ablation_homeless_vs_home_lrc(r: &mut Runner) {
    use vopp_apps::sor::{run_sor, SorParams, SorVariant};
    let p = SorParams::quick();
    r.bench("ablation_lrc_vs_hlrc_sor", || {
        let homeless = run_sor(
            &ClusterConfig::lossless(4, Protocol::LrcD),
            &p,
            SorVariant::Traditional,
        );
        let home = run_sor(
            &ClusterConfig::lossless(4, Protocol::Hlrc),
            &p,
            SorVariant::Traditional,
        );
        assert_eq!(homeless.value, home.value);
        // Home-based: fewer fault round trips, more flush data.
        assert!(home.stats.diff_requests() <= homeless.stats.diff_requests());
        assert!(home.stats.data_mbytes() > homeless.stats.data_mbytes());
        (homeless.stats.time, home.stats.time)
    });
}

/// Tracing must not perturb the simulation: virtual time is byte-identical
/// with and without a tracer. The two rows time an untraced and a traced
/// run of the same cell.
fn ablation_trace_overhead(r: &mut Runner) {
    let p = IsParams::quick();
    let run = |tracer: Option<Arc<Tracer>>| {
        let mut cfg = ClusterConfig::lossless(4, Protocol::VcSd);
        cfg.tracer = tracer;
        run_is(&cfg, &p, IsVariant::Vopp).stats.time
    };
    let vt_none = run(None);
    let vt_on = run(Some(Arc::new(Tracer::default())));
    assert_eq!(vt_none, vt_on, "tracing changed virtual time");

    r.bench("trace_overhead/none", || run(None));
    r.bench("trace_overhead/on", || {
        run(Some(Arc::new(Tracer::default())))
    });
}

fn main() {
    let mut r = Runner::from_args();
    ablation_diff_integration(&mut r);
    ablation_barrier_hoisting(&mut r);
    ablation_read_views(&mut r);
    ablation_auto_views(&mut r);
    ablation_homeless_vs_home_lrc(&mut r);
    ablation_trace_overhead(&mut r);
}
