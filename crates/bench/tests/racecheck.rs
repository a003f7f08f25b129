//! The racecheck suite (`make racecheck` runs this file alone, in release,
//! and shows its per-cell report): a known-answer matrix of clean and
//! seeded cells, each of which must report exactly its violation count.
//! Plus the zero-cost guard for the dynamic checker: attaching a
//! `RaceChecker` must never change any artifact — metrics documents and
//! trace streams stay byte-identical whether a (silent) checker is
//! attached or not.

use std::sync::Arc;

use vopp_apps::is::{run_is, IsParams, IsVariant};
use vopp_apps::racy::{is_racy_expected, run_is_racy, run_sor_racy, sor_racy_expected};
use vopp_apps::sor::{run_sor, SorParams, SorVariant};
use vopp_bench::sweep::{CellApp, CellVariant};
use vopp_bench::{CellRecord, CellSpec, MetricsSink};
use vopp_core::{ClusterConfig, Protocol, RaceChecker, RunStats, Violation};
use vopp_serve::{
    run_serve, run_serve_undisciplined, serve_reference, undisciplined_expected, ServeParams,
    ServeVariant,
};
use vopp_trace::{EventKind, Tracer};

/// Processor count for every matrix cell.
const NP: usize = 4;
/// The traditional programs' protocols, checked for data races.
const LRC: &[Protocol] = &[Protocol::LrcD, Protocol::Hlrc, Protocol::ScC];
/// The VOPP programs' protocols, checked for view discipline.
const VC: &[Protocol] = &[Protocol::VcD, Protocol::VcSd];

/// One row of the matrix: a program, run once on each of its protocols,
/// and the exact number of violations each of those cells must report.
struct Row {
    name: &'static str,
    protos: &'static [Protocol],
    run: fn(&ClusterConfig),
    expected: fn() -> usize,
}

/// The known-answer matrix. Clean rows are the paper's programs (and the
/// serving store) in every protocol×style cell: race-free and
/// view-disciplined, so silent. Seeded rows are the deliberately broken
/// variants, whose counts are known exactly. Every cell runs the quick
/// instance: checking validates properties that do not depend on scale.
const MATRIX: [Row; 9] = [
    Row {
        name: "clean is traditional",
        protos: LRC,
        run: |c| drop(run_is(c, &IsParams::quick(), IsVariant::Traditional)),
        expected: || 0,
    },
    Row {
        name: "clean sor traditional",
        protos: LRC,
        run: |c| drop(run_sor(c, &SorParams::quick(), SorVariant::Traditional)),
        expected: || 0,
    },
    Row {
        name: "clean is vopp",
        protos: VC,
        run: |c| drop(run_is(c, &IsParams::quick(), IsVariant::Vopp)),
        expected: || 0,
    },
    Row {
        name: "clean sor vopp",
        protos: VC,
        run: |c| drop(run_sor(c, &SorParams::quick(), SorVariant::Vopp)),
        expected: || 0,
    },
    Row {
        name: "seeded is-racy traditional",
        protos: LRC,
        run: |c| drop(run_is_racy(c, 600, 2)),
        expected: || is_racy_expected(NP),
    },
    Row {
        name: "seeded sor-racy vopp",
        protos: VC,
        run: |c| drop(run_sor_racy(c, 64, 2)),
        expected: sor_racy_expected,
    },
    Row {
        name: "clean serve traditional",
        protos: LRC,
        run: |c| {
            drop(run_serve(
                c,
                &ServeParams::quick(),
                ServeVariant::Traditional,
            ))
        },
        expected: || 0,
    },
    Row {
        name: "clean serve vopp",
        protos: VC,
        run: |c| drop(run_serve(c, &ServeParams::quick(), ServeVariant::Vopp)),
        expected: || 0,
    },
    Row {
        name: "seeded serve-undisciplined vopp",
        protos: VC,
        run: |c| {
            let p = ServeParams::quick();
            let out = run_serve_undisciplined(c, &p);
            assert_eq!(out.checksum, serve_reference(&p), "{}", c.protocol);
        },
        expected: undisciplined_expected,
    },
];

fn checked(np: usize, proto: Protocol) -> (ClusterConfig, Arc<RaceChecker>) {
    let rc = Arc::new(RaceChecker::new());
    let mut cfg = ClusterConfig::lossless(np, proto);
    cfg.racecheck = Some(rc.clone());
    (cfg, rc)
}

#[test]
fn every_cell_reports_exactly_its_known_answer() {
    let mut cells = 0;
    for row in &MATRIX {
        for &proto in row.protos {
            let cell = format!("{} {proto}", row.name);
            let (mut cfg, rc) = checked(NP, proto);
            let tracer = Arc::new(Tracer::default());
            cfg.tracer = Some(tracer.clone());
            (row.run)(&cfg);

            let (found, expected, report) = (rc.count(), (row.expected)(), rc.report());
            println!("[racecheck] {cell:<44} {found} violation(s), expected {expected}");
            assert_eq!(found, expected, "{cell}:\n{report}");
            assert_eq!(report.is_empty(), expected == 0, "{cell}: report\n{report}");
            let lrc = proto.is_lrc_family();
            assert!(
                rc.violations().iter().all(|v| match v {
                    Violation::DataRace { .. } => lrc,
                    Violation::Discipline { .. } => !lrc,
                }),
                "{cell}: a data race under VC or a discipline violation under LRC:\n{report}"
            );

            // One trace event per violation, of the family's kind only.
            let trace = tracer.take();
            assert_eq!(trace.evicted, 0, "{cell}: the trace ring wrapped");
            let races = trace.count_kind(|k| matches!(k, EventKind::RaceDetected { .. }));
            let breaches = trace.count_kind(|k| matches!(k, EventKind::DisciplineViolation { .. }));
            let want = if lrc { (expected, 0) } else { (0, expected) };
            assert_eq!(
                (races, breaches),
                want,
                "{cell}: (RaceDetected, DisciplineViolation) events"
            );
            cells += 1;
        }
    }
    assert_eq!(
        cells, 22,
        "5 clean app pairs + 5 seeded app cells + 5 clean serve + 2 seeded serve"
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
