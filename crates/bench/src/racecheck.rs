//! The racecheck suite: dynamic correctness checking of the paper's
//! application matrix (see `docs/CORRECTNESS.md`). `make racecheck` runs it
//! through `tests/racecheck.rs`.
//!
//! Two kinds of cells are run, each with a [`RaceChecker`] attached to the
//! cluster:
//!
//! * **Clean cells** — IS and SOR in both styles across all five
//!   protocol×style cells of the paper's matrix (traditional on
//!   LRC_d/HLRC_d/ScC, checked for data races; VOPP on VC_d/VC_sd, checked
//!   for view discipline). Every cell must report **zero**
//!   violations: the paper's programs are race-free and view-disciplined.
//! * **Seeded cells** — the deliberately broken variants of
//!   [`vopp_apps::racy`], whose violation counts are known exactly. Every
//!   cell must report exactly its expected count, proving the checker
//!   detects what it claims to detect.
//!
//! The suite always runs the quick problem instances: checking validates
//! correctness properties, which do not depend on problem scale. Checking
//! is pure observation (it never advances virtual time): a checked run's
//! artifacts are those of the same run unchecked.

use std::fmt::Write as _;
use std::sync::Arc;

use vopp_apps::is::{run_is, IsParams, IsVariant};
use vopp_apps::racy::{is_racy_expected, run_is_racy, run_sor_racy, sor_racy_expected};
use vopp_apps::sor::{run_sor, SorParams, SorVariant};
use vopp_core::{ClusterConfig, Protocol, RaceChecker};
use vopp_serve::{run_serve, run_serve_undisciplined, undisciplined_expected, ServeParams};

/// Processor count for every racecheck cell.
const NP: usize = 4;

/// The result of one checked cell.
pub struct CellReport {
    /// Cell label, e.g. `clean is traditional LRC_d`.
    pub label: String,
    /// Violations reported by the checker.
    pub found: usize,
    /// Violations the cell must report.
    pub expected: usize,
    /// The checker's full violation report (empty when clean).
    pub report: String,
}

impl CellReport {
    /// Whether the cell reported exactly its expected count.
    pub fn ok(&self) -> bool {
        self.found == self.expected
    }
}

/// The outcome of the whole suite.
pub struct RacecheckOutcome {
    /// One report per cell, in run order.
    pub cells: Vec<CellReport>,
}

impl RacecheckOutcome {
    /// Whether every cell matched its expected violation count.
    pub fn ok(&self) -> bool {
        self.cells.iter().all(CellReport::ok)
    }

    /// Human-readable summary, one line per cell plus violation reports
    /// for the seeded cells.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            let _ = writeln!(
                out,
                "[racecheck] {:<44} {} violation(s), expected {} — {}",
                c.label,
                c.found,
                c.expected,
                if c.ok() { "ok" } else { "FAIL" }
            );
            if !c.report.is_empty() {
                for line in c.report.lines() {
                    let _ = writeln!(out, "    {line}");
                }
            }
        }
        let _ = writeln!(
            out,
            "[racecheck] {}/{} cells ok",
            self.cells.iter().filter(|c| c.ok()).count(),
            self.cells.len()
        );
        out
    }
}

fn checked(np: usize, proto: Protocol) -> (ClusterConfig, Arc<RaceChecker>) {
    let rc = Arc::new(RaceChecker::new());
    let mut cfg = ClusterConfig::lossless(np, proto);
    cfg.racecheck = Some(rc.clone());
    (cfg, rc)
}

fn cell(label: String, expected: usize, rc: &RaceChecker) -> CellReport {
    CellReport {
        label,
        found: rc.count(),
        expected,
        report: rc.report(),
    }
}

/// Run the full racecheck matrix: clean cells must be silent, seeded cells
/// must report their exact known-answer counts.
pub fn run_racecheck() -> RacecheckOutcome {
    let mut cells = Vec::new();
    let is_p = IsParams::quick();
    let sor_p = SorParams::quick();

    // Clean cells: the paper's programs, all five protocol×style cells.
    for proto in [Protocol::LrcD, Protocol::Hlrc, Protocol::ScC] {
        let (cfg, rc) = checked(NP, proto);
        run_is(&cfg, &is_p, IsVariant::Traditional);
        cells.push(cell(format!("clean is traditional {proto}"), 0, &rc));
        let (cfg, rc) = checked(NP, proto);
        run_sor(&cfg, &sor_p, SorVariant::Traditional);
        cells.push(cell(format!("clean sor traditional {proto}"), 0, &rc));
    }
    for proto in [Protocol::VcD, Protocol::VcSd] {
        let (cfg, rc) = checked(NP, proto);
        run_is(&cfg, &is_p, IsVariant::Vopp);
        cells.push(cell(format!("clean is vopp {proto}"), 0, &rc));
        let (cfg, rc) = checked(NP, proto);
        run_sor(&cfg, &sor_p, SorVariant::Vopp);
        cells.push(cell(format!("clean sor vopp {proto}"), 0, &rc));
    }

    // Seeded cells: known-answer violation counts.
    for proto in [Protocol::LrcD, Protocol::Hlrc, Protocol::ScC] {
        let (cfg, rc) = checked(NP, proto);
        run_is_racy(&cfg, 600, 2);
        cells.push(cell(
            format!("seeded is-racy traditional {proto}"),
            is_racy_expected(NP),
            &rc,
        ));
    }
    for proto in [Protocol::VcD, Protocol::VcSd] {
        let (cfg, rc) = checked(NP, proto);
        run_sor_racy(&cfg, 64, 2);
        cells.push(cell(
            format!("seeded sor-racy vopp {proto}"),
            sor_racy_expected(),
            &rc,
        ));
    }

    // The serving store: the shard-view discipline must be clean across
    // all five protocol×style cells, and the seeded undisciplined variant
    // must report exactly one violation per discipline rule.
    let serve_p = ServeParams::quick();
    for proto in [Protocol::LrcD, Protocol::Hlrc, Protocol::ScC] {
        let (cfg, rc) = checked(NP, proto);
        run_serve(&cfg, &serve_p, vopp_serve::ServeVariant::Traditional);
        cells.push(cell(format!("clean serve traditional {proto}"), 0, &rc));
    }
    for proto in [Protocol::VcD, Protocol::VcSd] {
        let (cfg, rc) = checked(NP, proto);
        run_serve(&cfg, &serve_p, vopp_serve::ServeVariant::Vopp);
        cells.push(cell(format!("clean serve vopp {proto}"), 0, &rc));
        let (cfg, rc) = checked(NP, proto);
        run_serve_undisciplined(&cfg, &serve_p);
        cells.push(cell(
            format!("seeded serve-undisciplined vopp {proto}"),
            undisciplined_expected(),
            &rc,
        ));
    }
    RacecheckOutcome { cells }
}
