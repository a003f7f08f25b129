#![warn(missing_docs)]

//! # vopp-core — View-Oriented Parallel Programming
//!
//! The public API of this reproduction of *Performance Evaluation of
//! View-Oriented Parallel Programming* (Huang, Purvis, Werstein — ICPP
//! 2005).
//!
//! VOPP is a programming style for page-based software DSM: the programmer
//! partitions shared data into non-overlapping **views** and brackets every
//! access with `acquire_view`/`release_view` (exclusive) or
//! `acquire_Rview`/`release_Rview` (shared read). Consistency is then
//! maintained per view — which both removes consistency work from barriers
//! and enables the optimal "integrated diff" implementation (`VC_sd`).
//!
//! ```
//! use vopp_core::prelude::*;
//!
//! // The paper's "sum" pattern: everyone adds into a shared accumulator.
//! let mut world = WorldBuilder::new();
//! let acc = world.view_u32(1);
//! let cfg = ClusterConfig::lossless(4, Protocol::VcSd);
//! let out = run_cluster(&cfg, world.build(), |ctx| {
//!     ctx.with_view(&acc, |a| a.update(ctx, 0, |x| x + ctx.me() as u32 + 1));
//!     ctx.barrier();
//!     ctx.with_rview(&acc, |a| a.get(ctx, 0))
//! });
//! assert_eq!(out.results, vec![10, 10, 10, 10]);
//! ```
//!
//! The crate re-exports the protocol engines (`vopp-dsm`), the cluster
//! simulator (`vopp-sim`/`vopp-simnet`) and the memory substrate
//! (`vopp-page`), and adds the typed-region/world/guard layer that
//! applications use.

mod guard;
mod region;
mod world;

pub use guard::{RViewGuard, ViewGuard, VoppExt};
pub use region::{Region, ViewRegion};
pub use world::WorldBuilder;

pub use vopp_dsm::{
    check_views, run_cluster, Breakdown, ClusterConfig, ClusterOutcome, CostModel, Crash,
    DisciplineRule, DsmCtx, FaultPlan, Layout, Loss, NodeMetrics, NodeStats, Phase, Protocol,
    RaceChecker, RunStats, Slowdown, Summary, ViewId, Violation,
};
pub use vopp_page::{Addr, PAGE_SIZE};
pub use vopp_simnet::NetConfig;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::{
        run_cluster, ClusterConfig, CostModel, DsmCtx, FaultPlan, NetConfig, Protocol, Region,
        RunStats, ViewRegion, VoppExt, WorldBuilder,
    };
}
