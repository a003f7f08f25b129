//! `vopp-trace`: structured event tracing for the VOPP cluster simulation.
//!
//! Every runtime layer — the simulation kernel, the Ethernet model, the
//! reliable transport, the DSM protocol engines, and the application-facing
//! view guards — records [`Event`]s into a shared ring-buffered [`Tracer`].
//! A finished run yields an immutable [`Trace`] that can be:
//!
//! * exported to Perfetto/Chrome-trace JSON ([`perfetto::to_chrome_json`]),
//! * replayed through the protocol conformance checker ([`check::check`]),
//! * summarized into a wait-time report ([`report::report`]),
//! * round-tripped through canonical JSON ([`Trace::to_json`] /
//!   [`Trace::from_json`]) for archival and diffing.
//!
//! The crate is dependency-free and knows nothing about the simulator's
//! types: timestamps are virtual nanoseconds as `u64`, nodes are `usize`.
//! `vopp-sim` and everything above it depend on this crate, not vice versa.
//!
//! Tracing is opt-in per run. When no tracer is installed the hot paths pay
//! a single `Option` test. The host benchmark's `observe` workload times
//! both: its traced cells against their plain twins
//! (`trace.record_overhead_s`, see `benchmark/README.md`).

pub mod causal;
pub mod check;
pub mod event;
pub mod json;
pub mod perfetto;
pub mod report;
pub mod tracer;

pub use causal::{CausalLog, CausalProfiler, CtxKind, CtxRecord, OpKind, OpSpan, NO_CTX};
pub use check::{check, CheckConfig, Violation};
pub use event::{Event, EventKind, NodeId};
pub use perfetto::{to_chrome_json, write_chrome_json_to};
pub use report::report;
pub use tracer::{Trace, Tracer, DEFAULT_CAPACITY};
