//! One VOPP-discipline classifier serves both ways of handling a broken
//! rule: each of the four rules, seeded once, panics without a checker and
//! is recorded once, with its label, with a checker attached.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use vopp_dsm::{
    run_cluster, ClusterConfig, DisciplineRule, Layout, Protocol, RaceChecker, Violation,
};
use vopp_trace::{EventKind, Tracer};

/// Each rule and the panic message it raises without a checker.
const CASES: [(DisciplineRule, &str); 4] = [
    (DisciplineRule::OutsideViews, "outside any view"),
    (DisciplineRule::Unbracketed, "without acquiring"),
    (DisciplineRule::ForeignView, "without acquiring"),
    (DisciplineRule::ReadOnlyWrite, "without acquire_view-ing"),
];

/// Node 0 breaks `rule` once, then both nodes meet at a barrier.
fn seeded(cfg: &ClusterConfig, rule: DisciplineRule) {
    let mut l = Layout::new();
    let plain = l.alloc(8, 8);
    let (v0, a0) = l.add_view(8);
    let (_, a1) = l.add_view(8);
    run_cluster(cfg, l.freeze(), move |ctx| {
        if ctx.me() == 0 {
            match rule {
                DisciplineRule::OutsideViews => {
                    ctx.read_u32(plain);
                }
                DisciplineRule::Unbracketed => {
                    ctx.read_u32(a1);
                }
                DisciplineRule::ForeignView => {
                    ctx.acquire_rview(v0);
                    ctx.read_u32(a1);
                    ctx.release_rview(v0);
                }
                DisciplineRule::ReadOnlyWrite => {
                    ctx.acquire_rview(v0);
                    ctx.write_u32(a0, 1);
                    ctx.release_rview(v0);
                }
            }
        }
        ctx.barrier();
    });
}

fn panic_message(run: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(run)).expect_err("the run must panic");
    match err.downcast::<String>() {
        Ok(s) => *s,
        Err(e) => (*e.downcast::<&'static str>().expect("string payload")).to_string(),
    }
}

#[test]
fn each_rule_panics_unchecked_and_is_recorded_once_checked() {
    for proto in [Protocol::VcD, Protocol::VcSd, Protocol::VcRdma] {
        for (rule, message) in CASES {
            let cfg = ClusterConfig::lossless(2, proto);
            let got = panic_message(|| seeded(&cfg, rule));
            assert!(got.contains(message), "{proto} {rule:?}: {got}");

            let rc = Arc::new(RaceChecker::new());
            let tracer = Arc::new(Tracer::default());
            let mut cfg = cfg;
            cfg.racecheck = Some(rc.clone());
            cfg.tracer = Some(tracer.clone());
            seeded(&cfg, rule);
            let found: Vec<_> = rc
                .violations()
                .into_iter()
                .map(|v| match v {
                    Violation::Discipline { rule, node, .. } => (rule, node),
                    other => panic!("{proto}: unexpected {other:?}"),
                })
                .collect();
            assert_eq!(found, [(rule, 0)], "{proto}");
            let labels: Vec<String> = tracer
                .take()
                .events
                .into_iter()
                .filter_map(|e| match e.kind {
                    EventKind::DisciplineViolation { rule, .. } => Some(rule),
                    _ => None,
                })
                .collect();
            assert_eq!(labels, [rule.label()], "{proto}");
        }
    }
}
