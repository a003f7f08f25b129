//! The statistics reported in the paper's tables.
//!
//! Every table row of the evaluation (Tables 1, 2, 4, 6, 8) is a field here:
//! `Time`, `Barriers`, `Acquires`, `Data`, `Num. Msg`, `Diff Requests`,
//! `Barrier Time`, `Acquire Time`, `Rexmit`.

use vopp_metrics::{Breakdown, Histogram, Phase, Summary};
use vopp_sim::SimTime;
use vopp_simnet::NetStats;

/// Phase-accounting breakdown and latency histograms collected on one node
/// (or aggregated across nodes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Where every nanosecond of this node's virtual time went.
    pub breakdown: Breakdown,
    /// Round-trip latency of view/lock acquire requests.
    pub acquire_rtt: Histogram,
    /// Round-trip latency of barrier crossings (rpc only, excluding the
    /// local interval-close work before entering).
    pub barrier_rtt: Histogram,
    /// Round-trip latency of fault-time page/diff fetches.
    pub diff_rtt: Histogram,
    /// Round-trip latency of every reliable-transport call (superset of the
    /// above plus release/flush traffic), from `RpcClient::rtt`.
    pub rpc_rtt: Histogram,
}

impl NodeMetrics {
    /// Merge another node's metrics into an aggregate.
    pub fn absorb(&mut self, o: &NodeMetrics) {
        self.breakdown.absorb(&o.breakdown);
        self.acquire_rtt.absorb(&o.acquire_rtt);
        self.barrier_rtt.absorb(&o.barrier_rtt);
        self.diff_rtt.absorb(&o.diff_rtt);
        self.rpc_rtt.absorb(&o.rpc_rtt);
    }
}

/// Counters collected on one node during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Barrier operations performed by this node.
    pub barriers: u64,
    /// Lock/view acquire request messages issued (read and write views).
    pub acquires: u64,
    /// Diff request messages issued on page faults.
    pub diff_requests: u64,
    /// Page faults taken (invalid page accessed).
    pub page_faults: u64,
    /// Retransmitted datagrams (from the reliable transport).
    pub rexmits: u64,
    /// Total virtual time spent blocked in barriers.
    pub barrier_wait_ns: u64,
    /// Total virtual time spent blocked acquiring locks/views.
    pub acquire_wait_ns: u64,
    /// Twin snapshots taken.
    pub twins: u64,
    /// Diffs created at interval ends.
    pub diffs_created: u64,
    /// Diffs applied to local pages.
    pub diffs_applied: u64,
    /// Phase breakdown and latency histograms.
    pub metrics: NodeMetrics,
}

impl NodeStats {
    /// Merge another node's counters into an aggregate.
    pub fn absorb(&mut self, o: &NodeStats) {
        self.barriers += o.barriers;
        self.acquires += o.acquires;
        self.diff_requests += o.diff_requests;
        self.page_faults += o.page_faults;
        self.rexmits += o.rexmits;
        self.barrier_wait_ns += o.barrier_wait_ns;
        self.acquire_wait_ns += o.acquire_wait_ns;
        self.twins += o.twins;
        self.diffs_created += o.diffs_created;
        self.diffs_applied += o.diffs_applied;
        self.metrics.absorb(&o.metrics);
    }
}

/// Whole-run statistics: the paper's table rows.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Wall-clock (virtual) execution time.
    pub time: SimTime,
    /// Number of processors.
    pub nprocs: usize,
    /// Summed node counters.
    pub nodes: NodeStats,
    /// Network totals (messages, bytes, drops).
    pub net: NetStats,
    /// Per-node phase breakdowns, indexed by node id. Each sums exactly to
    /// the matching entry of [`RunStats::node_end`].
    pub node_breakdowns: Vec<Breakdown>,
    /// Per-node virtual finish times, indexed by node id.
    pub node_end: Vec<SimTime>,
    /// The run's virtual-time critical path, present when the causal
    /// profiler was attached ([`crate::ClusterConfig::profiler`]). Pure
    /// observation: everything else in this struct is byte-identical with
    /// or without it.
    pub crit: Option<std::sync::Arc<vopp_metrics::CritPath>>,
}

impl RunStats {
    /// `Time (Sec.)` row.
    pub fn time_secs(&self) -> f64 {
        self.time.as_secs_f64()
    }

    /// `Barriers` row: barriers per node (every node executes each barrier).
    pub fn barriers(&self) -> u64 {
        if self.nprocs == 0 {
            0
        } else {
            self.nodes.barriers / self.nprocs as u64
        }
    }

    /// `Acquires` row: total acquire messages across the cluster.
    pub fn acquires(&self) -> u64 {
        self.nodes.acquires
    }

    /// `Data` row, in megabytes put on the wire.
    pub fn data_mbytes(&self) -> f64 {
        self.net.bytes as f64 / 1e6
    }

    /// `Num. Msg` row: datagrams on the wire (including retransmissions).
    pub fn num_msgs(&self) -> u64 {
        self.net.msgs
    }

    /// `Diff Requests` row.
    pub fn diff_requests(&self) -> u64 {
        self.nodes.diff_requests
    }

    /// `Barrier Time (usec.)` row: mean blocked time per barrier crossing.
    pub fn barrier_time_usec(&self) -> f64 {
        if self.nodes.barriers == 0 {
            0.0
        } else {
            self.nodes.barrier_wait_ns as f64 / 1000.0 / self.nodes.barriers as f64
        }
    }

    /// `Acquire Time (usec.)` row: mean blocked time per acquire.
    pub fn acquire_time_usec(&self) -> f64 {
        if self.nodes.acquires == 0 {
            0.0
        } else {
            self.nodes.acquire_wait_ns as f64 / 1000.0 / self.nodes.acquires as f64
        }
    }

    /// `Rexmit` row.
    pub fn rexmits(&self) -> u64 {
        self.nodes.rexmits
    }

    /// Aggregate phase breakdown across all nodes.
    pub fn breakdown(&self) -> &Breakdown {
        &self.nodes.metrics.breakdown
    }

    /// Percentage of aggregate node time spent in `phase` (0.0 when empty).
    pub fn phase_pct(&self, phase: Phase) -> f64 {
        self.breakdown().pct(phase)
    }

    /// The paper-style "send overhead" percentage: protocol CPU plus
    /// release/flush waits, as a share of aggregate node time.
    pub fn send_overhead_pct(&self) -> f64 {
        let b = self.breakdown();
        let total = b.total_ns();
        if total == 0 {
            0.0
        } else {
            b.send_overhead_ns() as f64 * 100.0 / total as f64
        }
    }

    /// Acquire round-trip latency summary (p50/p95/max) across all nodes.
    pub fn acquire_latency(&self) -> Summary {
        self.nodes.metrics.acquire_rtt.summary()
    }

    /// Barrier round-trip latency summary across all nodes.
    pub fn barrier_latency(&self) -> Summary {
        self.nodes.metrics.barrier_rtt.summary()
    }

    /// Fault-time page/diff fetch latency summary across all nodes.
    pub fn diff_latency(&self) -> Summary {
        self.nodes.metrics.diff_rtt.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_everything() {
        let mut a = NodeStats {
            barriers: 1,
            acquires: 2,
            diff_requests: 3,
            page_faults: 4,
            rexmits: 5,
            barrier_wait_ns: 6,
            acquire_wait_ns: 7,
            twins: 8,
            diffs_created: 9,
            diffs_applied: 10,
            ..Default::default()
        };
        a.absorb(&a.clone());
        assert_eq!(a.barriers, 2);
        assert_eq!(a.diffs_applied, 20);
    }

    #[test]
    fn absorb_merges_metrics() {
        let mut a = NodeStats::default();
        a.metrics.breakdown.charge(Phase::Compute, 10);
        a.metrics.acquire_rtt.record(1_000);
        let mut b = NodeStats::default();
        b.metrics.breakdown.charge(Phase::BarrierWait, 5);
        b.metrics.acquire_rtt.record(3_000);
        b.metrics.diff_rtt.record(7_000);
        a.absorb(&b);
        assert_eq!(a.metrics.breakdown.total_ns(), 15);
        assert_eq!(a.metrics.breakdown.get(Phase::BarrierWait), 5);
        assert_eq!(a.metrics.acquire_rtt.count(), 2);
        assert_eq!(a.metrics.diff_rtt.max_ns(), 7_000);
    }

    #[test]
    fn derived_rows() {
        let s = RunStats {
            time: SimTime(2_000_000_000),
            nprocs: 4,
            nodes: NodeStats {
                barriers: 40, // 10 per node
                acquires: 8,
                barrier_wait_ns: 40_000_000, // 1ms per crossing
                acquire_wait_ns: 16_000,     // 2us per acquire
                rexmits: 3,
                ..Default::default()
            },
            net: NetStats {
                msgs: 100,
                bytes: 3_000_000,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(s.time_secs(), 2.0);
        assert_eq!(s.barriers(), 10);
        assert_eq!(s.acquires(), 8);
        assert_eq!(s.data_mbytes(), 3.0);
        assert_eq!(s.num_msgs(), 100);
        assert_eq!(s.barrier_time_usec(), 1000.0);
        assert_eq!(s.acquire_time_usec(), 2.0);
        assert_eq!(s.rexmits(), 3);
    }

    #[test]
    fn zero_division_guards() {
        let s = RunStats {
            time: SimTime::ZERO,
            nprocs: 1,
            ..Default::default()
        };
        assert_eq!(s.barrier_time_usec(), 0.0);
        assert_eq!(s.acquire_time_usec(), 0.0);
        assert_eq!(s.phase_pct(Phase::Compute), 0.0);
        assert_eq!(s.send_overhead_pct(), 0.0);
        assert_eq!(s.acquire_latency().p95_ns, 0);
    }

    #[test]
    fn nprocs_zero_yields_zero_not_panic() {
        let s = RunStats {
            nodes: NodeStats {
                barriers: 12,
                barrier_wait_ns: 1_000,
                ..Default::default()
            },
            // nprocs defaults to 0: an empty/aggregated-away run.
            ..Default::default()
        };
        assert_eq!(s.nprocs, 0);
        assert_eq!(s.barriers(), 0);
        // Per-barrier means still well-defined (barriers counter nonzero).
        assert!(s.barrier_time_usec() > 0.0);
    }
}
