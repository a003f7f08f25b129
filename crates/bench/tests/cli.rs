//! The `tables` command line refuses what it does not understand: an
//! unknown flag or table name used to be dropped silently (`tables tabel1`
//! swept zero cells and exited 0).

use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .env_remove("VOPP_JOBS")
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
        &["table1", "--quick", "--jobs", "0"],
        &["table1", "--quick", "--jobs"],
        &["--quick"],
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
