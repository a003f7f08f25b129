#![warn(missing_docs)]

//! # vopp-dsm — the paper's three DSM systems and three extensions
//!
//! The paper's systems:
//!
//! * **LRC_d** — diff-based Lazy Release Consistency (TreadMarks-style):
//!   twins, word-granularity diffs, write notices with vector timestamps, an
//!   invalidate protocol with fault-time diff requests, and barriers that
//!   perform centralized whole-memory consistency maintenance.
//! * **VC_d** — View-based Consistency on the same machinery: consistency is
//!   maintained *per view* at `acquire_view`; barriers only synchronize.
//! * **VC_sd** — the optimal VC implementation (CCGrid'05): a single
//!   integrated diff per page, piggy-backed on the view-grant message — an
//!   update protocol with zero fault-time diff requests.
//!
//! Extensions, selected through the same [`Protocol`] enum:
//!
//! * **HLRC** — home-based LRC: diffs are flushed to each page's home at
//!   interval end, and a fault fetches the whole page from its home.
//! * **ScC** — Scope Consistency (the paper's related work): a lock grant
//!   enforces only the updates made under that lock's scope.
//! * **VC_rdma** — VC_sd on one-sided RDMA verbs: view data moves by
//!   one-sided writes, with no diff application on the acquirer's CPU.
//!
//! Modules: [`protocol`] holds every per-protocol decision — [`Protocol`]
//! and its properties, the LRC family (`protocol/lrc.rs`: locks, HLRC home
//! flushes, ScC scopes) and the VC family (`protocol/vc.rs`: the view
//! primitives, crash recovery, the view round trip, VC_rdma's one-sided
//! transport). The
//! shared engine is [`node`] (per-node state, the one invalidation loop),
//! [`homes`] (lock, barrier and view managers), [`api`] ([`DsmCtx`]: CPU
//! accounting, round trips, interval close, faults, memory access) and
//! [`runtime`] ([`run_cluster`], producing the paper's [`RunStats`]), over
//! [`msg`], [`layout`], [`cost`], [`fault`] and [`stats`].

/// Wire size of a full page transfer payload.
pub(crate) const PAGE_SIZE_WIRE: usize = vopp_page::PAGE_SIZE;

pub mod api;
pub mod cost;
pub mod fault;
pub mod homes;
pub mod layout;
pub mod msg;
pub mod node;
pub mod protocol;
pub mod runtime;
pub mod stats;

pub use api::DsmCtx;
pub use cost::{CostModel, CpuDebt};
pub use fault::{Crash, FaultPlan, Loss, Slowdown};
pub use layout::{check_views, Layout, ViewDef, ViewId};
pub use msg::{AccessMode, Req, Resp, ViewRecord};
pub use node::{interval_log, IntervalLog, NodeState, PendingFetch, StoredDiff};
pub use protocol::Protocol;
pub use runtime::{run_cluster, ClusterConfig, ClusterOutcome};
pub use stats::{NodeMetrics, NodeStats, RunStats, ViewStats, ViewStatsMap};
pub use vopp_metrics::{Breakdown, Histogram, Phase, Registry, Summary};
pub use vopp_racecheck::{
    AccessRec, DisciplineRule, Mode as RacecheckMode, RaceChecker, Violation,
};
