//! Cross-crate integration tests: every application agrees with its
//! sequential reference on every DSM system and several cluster sizes, on
//! both lossless and lossy networks.

use std::sync::Arc;

use vopp_repro::apps::gauss::{gauss_reference, run_gauss, GaussParams, GaussVariant};
use vopp_repro::apps::is::{is_reference, run_is, IsParams, IsVariant};
use vopp_repro::apps::nn::{nn_reference, run_nn, NnParams, NnVariant};
use vopp_repro::apps::sor::{run_sor, sor_reference, SorParams, SorVariant};
use vopp_repro::core::prelude::*;
use vopp_repro::sim::Tracer;

#[test]
fn is_all_systems_all_variants() {
    let p = IsParams::quick();
    for np in [2, 5, 8] {
        let t = run_is(
            &ClusterConfig::lossless(np, Protocol::LrcD),
            &p,
            IsVariant::Traditional,
        );
        assert_eq!(t.value, is_reference(&p, np, false), "trad np={np}");
        for proto in [Protocol::VcD, Protocol::VcSd] {
            let v = run_is(&ClusterConfig::lossless(np, proto), &p, IsVariant::Vopp);
            assert_eq!(v.value, is_reference(&p, np, false), "{proto} np={np}");
            let lb = run_is(&ClusterConfig::lossless(np, proto), &p, IsVariant::VoppLb);
            assert_eq!(lb.value, is_reference(&p, np, true), "{proto} lb np={np}");
        }
    }
}

#[test]
fn gauss_all_systems() {
    let p = GaussParams::quick();
    for np in [2, 6] {
        let t = run_gauss(
            &ClusterConfig::lossless(np, Protocol::LrcD),
            &p,
            GaussVariant::Traditional,
        );
        assert_eq!(t.value, gauss_reference(&p, np));
        for proto in [Protocol::VcD, Protocol::VcSd] {
            let v = run_gauss(&ClusterConfig::lossless(np, proto), &p, GaussVariant::Vopp);
            assert_eq!(v.value, gauss_reference(&p, np), "{proto} np={np}");
        }
    }
}

#[test]
fn sor_all_systems() {
    let p = SorParams::quick();
    for np in [2, 5] {
        let t = run_sor(
            &ClusterConfig::lossless(np, Protocol::LrcD),
            &p,
            SorVariant::Traditional,
        );
        assert_eq!(t.value, sor_reference(&p));
        for proto in [Protocol::VcD, Protocol::VcSd] {
            let v = run_sor(&ClusterConfig::lossless(np, proto), &p, SorVariant::Vopp);
            assert_eq!(v.value, sor_reference(&p), "{proto} np={np}");
        }
    }
}

#[test]
fn nn_all_systems_bit_exact() {
    let p = NnParams::quick();
    for np in [2, 4] {
        let expect = nn_reference(&p, np);
        let t = run_nn(
            &ClusterConfig::lossless(np, Protocol::LrcD),
            &p,
            NnVariant::Traditional,
        );
        assert_eq!(t.value, expect);
        for proto in [Protocol::VcD, Protocol::VcSd] {
            let v = run_nn(&ClusterConfig::lossless(np, proto), &p, NnVariant::Vopp);
            assert_eq!(v.value, expect, "{proto} np={np}");
        }
        let m = run_nn(
            &ClusterConfig::lossless(np, Protocol::VcSd),
            &p,
            NnVariant::Mpi,
        );
        assert_eq!(m.value, expect);
    }
}

#[test]
fn traditional_apps_run_on_home_based_lrc() {
    // The HLRC extension must compute identical results on the paper's
    // traditional programs.
    let p = IsParams::quick();
    let is = run_is(
        &ClusterConfig::lossless(4, Protocol::Hlrc),
        &p,
        IsVariant::Traditional,
    );
    assert_eq!(is.value, is_reference(&p, 4, false));

    let g = GaussParams::quick();
    let gauss = run_gauss(
        &ClusterConfig::lossless(4, Protocol::Hlrc),
        &g,
        GaussVariant::Traditional,
    );
    assert_eq!(gauss.value, gauss_reference(&g, 4));

    let s = SorParams::quick();
    let sor = run_sor(
        &ClusterConfig::lossless(4, Protocol::Hlrc),
        &s,
        SorVariant::Traditional,
    );
    assert_eq!(sor.value, sor_reference(&s));
    // Against homeless LRC_d, the home-based protocol trades eager flush
    // traffic for single-round-trip faults.
    let homeless = run_sor(
        &ClusterConfig::lossless(4, Protocol::LrcD),
        &s,
        SorVariant::Traditional,
    );
    assert_eq!(homeless.value, sor.value);
    assert!(sor.stats.diff_requests() <= homeless.stats.diff_requests());
    assert!(sor.stats.data_mbytes() > homeless.stats.data_mbytes());

    let n = NnParams::quick();
    let nn = run_nn(
        &ClusterConfig::lossless(4, Protocol::Hlrc),
        &n,
        NnVariant::Traditional,
    );
    assert_eq!(nn.value, nn_reference(&n, 4));
}

#[test]
fn applications_survive_lossy_network() {
    // A harsh network: results must still be exact, with retransmissions.
    let mut total_rexmits = 0;
    let mut cfg = ClusterConfig::new(4, Protocol::VcSd);
    cfg.net.base_drop_prob = 0.02;
    cfg.net.seed = 1234;

    let p = IsParams::quick();
    let is = run_is(&cfg, &p, IsVariant::Vopp);
    assert_eq!(is.value, is_reference(&p, 4, false));
    total_rexmits += is.stats.rexmits();

    let g = GaussParams::quick();
    let gauss = run_gauss(&cfg, &g, GaussVariant::Vopp);
    assert_eq!(gauss.value, gauss_reference(&g, 4));
    total_rexmits += gauss.stats.rexmits();

    let mut lcfg = ClusterConfig::new(4, Protocol::LrcD);
    lcfg.net.base_drop_prob = 0.02;
    lcfg.net.seed = 99;
    let s = SorParams::quick();
    let sor = run_sor(&lcfg, &s, SorVariant::Traditional);
    assert_eq!(sor.value, sor_reference(&s));
    total_rexmits += sor.stats.rexmits();

    assert!(
        total_rexmits > 0,
        "2% loss must force retransmissions somewhere"
    );
}

#[test]
fn stats_invariants_across_apps() {
    // Cross-protocol invariants the paper's tables rely on.
    let p = IsParams::quick();
    let lrc = run_is(
        &ClusterConfig::lossless(4, Protocol::LrcD),
        &p,
        IsVariant::Traditional,
    );
    let vcd = run_is(
        &ClusterConfig::lossless(4, Protocol::VcD),
        &p,
        IsVariant::Vopp,
    );
    let vcsd = run_is(
        &ClusterConfig::lossless(4, Protocol::VcSd),
        &p,
        IsVariant::Vopp,
    );

    // Traditional programs acquire nothing; VOPP programs acquire a lot.
    assert_eq!(lrc.stats.acquires(), 0);
    assert!(vcd.stats.acquires() > 0);
    assert_eq!(vcd.stats.acquires(), vcsd.stats.acquires());
    // The update protocol never issues diff requests.
    assert_eq!(vcsd.stats.diff_requests(), 0);
    assert!(vcd.stats.diff_requests() > 0);
    // Same program on both VC systems: same barrier count.
    assert_eq!(vcd.stats.barriers(), vcsd.stats.barriers());
    // VC_sd needs fewer messages than VC_d (integration + piggy-backing),
    // and no more virtual time.
    assert!(vcsd.stats.num_msgs() < vcd.stats.num_msgs());
    assert!(vcsd.stats.time <= vcd.stats.time);
    // Tracing is pure observation: the same cell traced takes the same
    // virtual time.
    let mut traced = ClusterConfig::lossless(4, Protocol::VcSd);
    traced.tracer = Some(Arc::new(Tracer::default()));
    let vcsd_traced = run_is(&traced, &p, IsVariant::Vopp);
    assert_eq!(vcsd_traced.stats.time, vcsd.stats.time);
}

#[test]
fn runs_deterministic_per_seed_across_apps() {
    let p = SorParams::quick();
    let run = |seed: u64| {
        let mut cfg = ClusterConfig::new(4, Protocol::VcSd);
        cfg.net.base_drop_prob = 0.01;
        cfg.net.seed = seed;
        let out = run_sor(&cfg, &p, SorVariant::Vopp);
        (
            out.value,
            out.stats.time,
            out.stats.num_msgs(),
            out.stats.rexmits(),
        )
    };
    assert_eq!(run(5), run(5));
    let (v7, t7, _, _) = run(7);
    let (v5, t5, _, _) = run(5);
    // Same verified answer regardless of network seed, but timings differ
    // when losses land differently.
    assert_eq!(v5, v7);
    let _ = (t5, t7);
}
