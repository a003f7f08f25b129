//! The `tables` command line refuses what it does not understand: an
//! unknown flag or table name used to be dropped silently (`tables tabel1`
//! swept zero cells and exited 0).

use std::process::{Command, Output};

use vopp_bench::sweep::TABLES;

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("spawn tables")
}

#[test]
fn bad_command_lines_exit_2_with_the_usage_text() {
    for args in [
        &["table1", "--quick", "--bogus-flag"][..],
        &["tabel1", "--quick"],
        // A flag this binary once had is an unknown flag like any other.
        &["scaling", "--quick", "--sim-workers", "4"],
        // `--metrics DIR` is the machine-readable output; `--json` is gone.
        &["table1", "--quick", "--json"],
        // The checker suite is a test (`make racecheck`), not a table.
        &["--racecheck"],
        &["table1", "--quick", "--jobs", "0"],
        &["table1", "--quick", "--jobs"],
        &["--quick"],
        // Faults come from a cell's own plan; there is no global one.
        &["table1", "--quick", "--faults", "loss=0.02@7"],
    ] {
        let out = tables(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: tables"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}

#[test]
fn a_known_table_runs() {
    let out = tables(&["table1", "--quick"]);
    assert!(out.status.success(), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 1"));
}

/// The binary accepts exactly the registry's table names, plus `all`: a
/// registered name gets past the table check to the (bad) `--jobs 0`, an
/// unregistered one stops at it.
#[test]
fn the_binary_accepts_exactly_the_registered_tables() {
    let refused = |name: &str| {
        let out = tables(&[name, "--jobs", "0"]);
        assert_eq!(out.status.code(), Some(2), "{name}");
        String::from_utf8_lossy(&out.stderr).contains("unknown table")
    };
    for name in TABLES.iter().map(|(name, _)| *name).chain(["all"]) {
        assert!(!refused(name), "{name} is registered but refused");
    }
    for name in ["table10", "table0", "Table1", "scale", "claims"] {
        assert!(refused(name), "{name} is not registered but accepted");
    }
}
