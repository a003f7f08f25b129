#![warn(missing_docs)]

//! # vopp-simnet — the cluster network substrate
//!
//! Models the paper's testbed network: a 100 Mbps switched Ethernet carrying
//! UDP datagrams, with timeout-based retransmission on top.
//!
//! * [`NetConfig`] — bandwidth/latency/loss parameters (defaults calibrated
//!   to the paper's Godzilla cluster).
//! * [`NetGen`] — named generation presets (the testbed, 10 GbE and an
//!   RDMA-class fabric) for the modern-interconnect what-ifs.
//! * [`EthernetModel`] — per-link serialization (picosecond-resolution link
//!   occupancy), store-and-forward switch, receiver-overflow losses; plugs
//!   into the `vopp-sim` kernel.
//! * [`RpcClient`] — blocking request/reply with generation-appropriate
//!   retransmission timeouts (~1 s on the testbed); source of the `Rexmit`
//!   statistic in the paper's tables.

mod config;
mod model;
mod transport;

pub use config::{NetConfig, NetGen, HEADER_BYTES};
pub use model::EthernetModel;
pub use transport::{reply, RpcClient, RPC_TAG_BIT};
pub use vopp_sim::NetStats;
