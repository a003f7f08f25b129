#![warn(missing_docs)]

//! # vopp-bench — the evaluation harness
//!
//! [`tables`] regenerates every table of the paper's §5 (see the `tables`
//! binary: `cargo run -p vopp-bench --release --bin tables -- all`, with
//! `--trace DIR` for per-run structured traces and conformance checks and
//! `--metrics DIR` for machine-readable `BENCH_<app>.json` artifacts);
//! [`metrics`] implements those artifacts and the perf-regression gate
//! (`metrics_diff` binary) comparing them against committed baselines.
//! Host cost (wall-clock, allocations, the substrate probes) is measured
//! by the stand-alone `benchmark/` crate, which links this one.

pub mod hostprof;
pub mod metrics;
pub mod persist;
pub mod racecheck;
pub mod sweep;
pub mod table;
pub mod tables;

pub use hostprof::{alloc_totals, peak_rss_bytes, CountingAlloc};
pub use metrics::MetricsSink;
pub use racecheck::{run_racecheck, RacecheckOutcome};
pub use sweep::{
    cells_for, context_hash, dedup_cells, run_sweep, run_sweep_cached, CellSpec, DiskCache,
    RunCache, ServeCell, ServeFault, ServeLoad, ServePayload,
};
pub use table::Table;
pub use tables::{all_tables, Scale};
