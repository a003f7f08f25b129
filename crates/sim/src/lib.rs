#![warn(missing_docs)]

//! # vopp-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under the VOPP/DSM reproduction: a sequential discrete-event
//! simulator whose processes are ordinary Rust closures running on their own
//! threads, cooperatively scheduled in virtual-time order (exactly one thread
//! executes at any instant). Processes communicate only through the kernel
//! (`send`/`recv`), so runs are bit-for-bit deterministic.
//!
//! * [`Sim`] — build and run a simulation.
//! * [`AppCtx`] — process-side API: `compute`, `send`, `recv`, tag
//!   receives the kernel finishes (`recv_tag`, `recv_tags`), timeouts, and
//!   `defer_compute`, a span the kernel ends when the next tag wait blocks.
//! * [`SvcCtx`] + [`Handler`] — interrupt-style service handlers, the
//!   simulation analogue of a DSM's SIGIO request handler.
//! * [`NetModel`] — pluggable timing/loss model ([`PerfectNet`] here; the
//!   switched-Ethernet model lives in `vopp-simnet`).

mod ctx;
mod kernel;
mod net;
mod packet;
pub mod sync;
mod time;

/// Identifier of a simulated process (0-based, dense).
pub type ProcId = usize;

pub use ctx::{AppCtx, SvcCtx};
pub use kernel::{handoff_totals, run_simple, Handler, HandoffStats, ProcTimes, RunOutcome, Sim};
pub use net::{Dropped, NetModel, NetStats, PerfectNet, RouteRequest};
pub use packet::{DeliveryClass, Packet, Payload};
pub use time::{SimDuration, SimTime};
pub use vopp_trace::{
    CausalLog, CausalProfiler, CtxKind, CtxRecord, EventKind, OpKind, OpSpan, Tracer, NO_CTX,
};
