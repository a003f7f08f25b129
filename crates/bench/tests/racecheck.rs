//! Zero-cost guard for the dynamic checker: attaching a `RaceChecker` must
//! never change any artifact — metrics documents and trace streams stay
//! byte-identical whether a (silent) checker is attached or not, and a
//! tracing run only gains events for actual violations. Plus the full
//! checker suite (`make racecheck` runs it alone, in release, and shows
//! its per-cell report).

use std::sync::Arc;

use vopp_apps::is::{run_is, IsParams, IsVariant};
use vopp_apps::racy::{is_racy_expected, run_is_racy};
use vopp_bench::sweep::{CellApp, CellVariant};
use vopp_bench::{CellRecord, CellSpec, MetricsSink};
use vopp_core::{ClusterConfig, Protocol, RaceChecker, RunStats};
use vopp_trace::{EventKind, Tracer};

fn checked(np: usize, proto: Protocol) -> (ClusterConfig, Arc<RaceChecker>) {
    let rc = Arc::new(RaceChecker::new());
    let mut cfg = ClusterConfig::lossless(np, proto);
    cfg.racecheck = Some(rc.clone());
    (cfg, rc)
}

#[test]
fn full_racecheck_suite_is_green() {
    let outcome = vopp_bench::run_racecheck();
    print!("{}", outcome.render());
    assert_eq!(
        outcome.cells.len(),
        22,
        "5 clean app pairs + 5 seeded app cells + 5 clean serve + 2 seeded serve"
    );
    assert!(
        outcome.ok(),
        "racecheck suite failed:\n{}",
        outcome.render()
    );
}

fn record_one(sink: &MetricsSink, stats: RunStats) {
    let spec = CellSpec {
        app: CellApp::Is,
        variant: CellVariant::Traditional,
        proto: Protocol::LrcD,
        np: 2,
        serve: None,
        netgen: None,
    };
    sink.record(&CellRecord {
        table: "racecheck-identity",
        spec,
        stats,
        serve: None,
    });
}

#[test]
fn metrics_documents_are_byte_identical_with_checker_attached() {
    // Even a checker that FIRES must not perturb the recorded statistics.
    let plain = run_is_racy(&ClusterConfig::lossless(2, Protocol::LrcD), 600, 2);
    let (cfg, rc) = checked(2, Protocol::LrcD);
    let with_rc = run_is_racy(&cfg, 600, 2);
    assert!(rc.count() > 0, "the seeded cell must actually fire");

    let (a, b) = (MetricsSink::new(), MetricsSink::new());
    record_one(&a, plain.stats);
    record_one(&b, with_rc.stats);
    let (da, db) = (a.to_documents(), b.to_documents());
    assert_eq!(
        da["is"].to_json_pretty(),
        db["is"].to_json_pretty(),
        "BENCH_is.json differs when a checker is attached"
    );
}

fn traced_clean_is(rc: bool) -> String {
    let mut cfg = ClusterConfig::lossless(4, Protocol::VcSd);
    if rc {
        cfg.racecheck = Some(Arc::new(RaceChecker::new()));
    }
    let tracer = Arc::new(Tracer::default());
    cfg.tracer = Some(tracer.clone());
    run_is(&cfg, &IsParams::quick(), IsVariant::Vopp);
    tracer.take().to_json()
}

#[test]
fn clean_run_trace_is_byte_identical_with_checker_attached() {
    // A silent checker adds zero events: the event stream of a clean run is
    // byte-for-byte the stream of an unchecked run.
    assert_eq!(
        traced_clean_is(false),
        traced_clean_is(true),
        "clean-run trace differs when a silent checker is attached"
    );
}

#[test]
fn racy_run_trace_gains_exactly_the_violation_events() {
    let (cfg, rc) = checked(2, Protocol::LrcD);
    let mut cfg = cfg;
    let tracer = Arc::new(Tracer::default());
    cfg.tracer = Some(tracer.clone());
    run_is_racy(&cfg, 600, 2);

    let trace = tracer.take();
    let races = trace.count_kind(|k| matches!(k, EventKind::RaceDetected { .. }));
    assert_eq!(rc.count(), is_racy_expected(2));
    assert_eq!(
        races,
        is_racy_expected(2),
        "one RaceDetected event per distinct race"
    );
    assert_eq!(
        trace.count_kind(|k| matches!(k, EventKind::DisciplineViolation { .. })),
        0,
        "a happens-before checker never emits discipline events"
    );
}
