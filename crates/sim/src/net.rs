//! The kernel-facing network abstraction.
//!
//! The kernel is network-agnostic: every send is routed through a [`NetModel`]
//! that decides *when* (and whether) the packet arrives. `vopp-simnet`
//! provides the switched-Ethernet model used by the DSM experiments; the
//! [`PerfectNet`] here is a fixed-latency, lossless model for unit tests.

use crate::time::{SimDuration, SimTime};
use crate::ProcId;

/// Inputs the kernel hands to the network model for one datagram.
#[derive(Debug, Clone, Copy)]
pub struct RouteRequest {
    /// Time the sender issued the send.
    pub now: SimTime,
    /// Sending process.
    pub src: ProcId,
    /// Destination process.
    pub dst: ProcId,
    /// Bytes on the wire, including headers.
    pub wire_bytes: usize,
    /// Total wire bytes of the packets already queued for delivery at `dst`
    /// (scheduled but not yet handed over) — the receive-buffer occupancy a
    /// bursting sender overflows.
    pub pending_bytes_at_dst: usize,
    /// The datagram is a one-sided verb carried by reliable transport
    /// (RDMA RC): the model must not apply its loss machinery (hardware
    /// retransmission is below the timescale modelled here), though the
    /// datagram still occupies link time and counts in traffic statistics.
    pub reliable: bool,
}

/// Aggregate traffic counters of a network model ([`NetModel::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams put on the wire (including ones later dropped).
    pub msgs: u64,
    /// Wire bytes put on the network (including headers and drops).
    pub bytes: u64,
    /// Datagrams lost.
    pub drops: u64,
    /// Self-deliveries (not counted in `msgs`/`bytes`).
    pub loopback_msgs: u64,
    /// One-sided (reliable-transport) datagrams — a subset of `msgs`.
    pub one_sided: u64,
}

/// A datagram the network model lost ([`NetModel::route`]'s error). The
/// kernel records it as a `NetDrop` event right after the send's `NetSend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dropped {
    /// The receiver queue was past the overflow threshold: the
    /// congestion-loss regime, as opposed to background bit error. Only the
    /// model can tell the two apart.
    pub overflow: bool,
}

/// Decides delivery time and loss for each datagram.
///
/// Implementations must be deterministic given the same sequence of calls
/// (use an internally seeded RNG for loss decisions).
pub trait NetModel: Send {
    /// Return the arrival time of the packet, or [`Dropped`] if it is lost.
    fn route(&mut self, req: RouteRequest) -> Result<SimTime, Dropped>;

    /// The traffic counted so far (all zero unless the model counts).
    fn stats(&self) -> NetStats {
        NetStats::default()
    }
}

/// Lossless constant-latency network; useful for tests and as a null model.
#[derive(Debug, Clone)]
pub struct PerfectNet {
    latency: SimDuration,
    stats: NetStats,
}

impl PerfectNet {
    /// A perfect network with the given one-way latency.
    pub fn new(latency: SimDuration) -> PerfectNet {
        PerfectNet {
            latency,
            stats: NetStats::default(),
        }
    }
}

impl Default for PerfectNet {
    fn default() -> Self {
        PerfectNet::new(SimDuration::from_micros(10))
    }
}

impl NetModel for PerfectNet {
    fn route(&mut self, req: RouteRequest) -> Result<SimTime, Dropped> {
        self.stats.msgs += 1;
        self.stats.bytes += req.wire_bytes as u64;
        Ok(req.now + self.latency)
    }

    fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_net_adds_latency_and_counts() {
        let mut n = PerfectNet::new(SimDuration::from_micros(50));
        let t = n
            .route(RouteRequest {
                now: SimTime(1_000),
                src: 0,
                dst: 1,
                wire_bytes: 123,
                pending_bytes_at_dst: 0,
                reliable: false,
            })
            .unwrap();
        assert_eq!(t, SimTime(51_000));
        let s = n.stats();
        assert_eq!((s.msgs, s.bytes, s.drops), (1, 123, 0));
    }
}
