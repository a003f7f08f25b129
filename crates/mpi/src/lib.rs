#![warn(missing_docs)]

//! # vopp-mpi — message-passing baseline
//!
//! A small MPI-like library running over the same simulated switched
//! Ethernet as the DSM systems, standing in for the paper's MPICH runs
//! (Table 9 compares the VOPP neural-network application against MPI).
//! [`run_mpi`] takes the DSM's `ClusterConfig` and runs on the same
//! cluster wiring, so fault plans, tracing and critical-path profiling
//! apply to MPI runs exactly as to DSM runs, and the outcome carries the
//! same `RunStats`.
//!
//! Point-to-point transfers are reliable stop-and-wait exchanges: DATA goes
//! to the receiver's service handler, which acknowledges immediately and
//! hands the payload (in order) to the application mailbox. Retransmission
//! and duplicate suppression reuse the `vopp-simnet` transport. Collectives
//! (barrier, broadcast, reduce, allreduce) use binomial trees, like MPICH's
//! defaults of the era.

mod comm;
mod p2p;

pub use comm::{run_mpi, MpiCtx};
pub use p2p::MpiPayload;
