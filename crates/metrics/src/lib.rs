//! Per-node metrics for the VOPP simulator.
//!
//! Three primitives, all deterministic and allocation-light so they can sit
//! on the simulated hot path:
//!
//! * [`Breakdown`] — a phase-accounting clock that classifies every
//!   nanosecond of a node's virtual time into one of six [`Phase`]s. The
//!   runtime maintains the invariant that the six buckets sum exactly to the
//!   node's final virtual clock, so "where did the time go" is an identity,
//!   not an estimate.
//! * [`Histogram`] — a fixed-bucket latency histogram (1-2-5 ladder from
//!   1µs to 1s) with exact count/sum/max and bucket-resolution p50/p95.
//! * [`critpath`] — backward-walk extraction of the exact virtual-time
//!   critical path from a `vopp_trace::CausalLog`, with blame attribution
//!   and what-if speedup ceilings.
//!
//! The crate deliberately knows nothing about the simulator: `vopp-sim`
//! stays metrics-free, `vopp-dsm`/`vopp-mpi` charge phases at their blocking
//! points, and `vopp-bench` serialises the result into `BENCH_<app>.json`
//! artifacts for the regression gate.

pub mod critpath;
pub mod hist;
pub mod phase;

pub use critpath::{
    critpath_to_chrome_json, extract, write_critpath_chrome_json_to, CritPath, CritSeg, SegCat,
};
pub use hist::{Histogram, Summary};
pub use phase::{Breakdown, Phase};
pub use vopp_trace::{CausalLog, CausalProfiler, OpKind, OpSpan};
