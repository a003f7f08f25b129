//! Network configuration, calibrated to the paper's testbed — plus the
//! modern-interconnect generations the what-if experiments sweep over.
//!
//! Godzilla: 32 PCs (350 MHz, Linux 2.4) on a switched 100 Mbps Ethernet,
//! DSM messaging over UDP with ~1 s retransmission timeouts. That testbed is
//! [`NetGen::Eth100m`] and stays byte-for-byte the [`NetConfig::default`];
//! the later generations rescale bandwidth, latency, loss and the
//! retransmission timeout to ask how the paper's LRC-vs-VC verdict shifts
//! once the network stops being the bottleneck (the `netgen` table,
//! docs/NETWORK.md).

use vopp_sim::SimDuration;

/// Fixed per-datagram wire overhead: Ethernet (14+4) + IP (20) + UDP (8) +
/// DSM protocol header (12) bytes.
pub const HEADER_BYTES: usize = 58;

/// Parameters of the switched-Ethernet model.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Link bandwidth in bits per second (both directions, full duplex).
    pub bandwidth_bps: f64,
    /// Fixed one-way delay: propagation + store-and-forward switch +
    /// interrupt/UDP-stack software overhead on both hosts.
    pub latency: SimDuration,
    /// Delivery delay for messages a node sends to itself (no wire).
    pub loopback_latency: SimDuration,
    /// Probability that any datagram is lost for reasons unrelated to load
    /// (bit errors, kernel buffer pressure).
    pub base_drop_prob: f64,
    /// Receive-buffer occupancy (bytes of queued, undelivered datagrams)
    /// above which overload losses begin — models the era's small kernel
    /// socket buffers overflowing under bursts at one node.
    pub overflow_threshold_bytes: usize,
    /// Additional drop probability per KB of occupancy beyond the threshold.
    pub overflow_slope_per_kb: f64,
    /// Upper bound on the overload drop probability.
    pub overflow_cap: f64,
    /// Default RPC retransmission timeout on this network. The paper's
    /// testbed observed ~1 s per retransmission (UDP + kernel timers); a
    /// modern generation retransmits on a scale matched to its RTT, so one
    /// loss no longer stalls six orders of magnitude past the round trip.
    pub rexmit_timeout: SimDuration,
    /// Seed for the loss RNG (runs are deterministic per seed).
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            bandwidth_bps: 100e6,
            latency: SimDuration::from_micros(45),
            loopback_latency: SimDuration::from_micros(2),
            base_drop_prob: 2e-6,
            overflow_threshold_bytes: 48 * 1024,
            overflow_slope_per_kb: 0.004,
            overflow_cap: 0.6,
            rexmit_timeout: SimDuration::from_secs(1),
            seed: 0x9E3779B97F4A7C15,
        }
    }
}

impl NetConfig {
    /// A lossless variant (used by tests and the MPI baseline sanity runs).
    pub fn lossless() -> NetConfig {
        NetConfig {
            base_drop_prob: 0.0,
            overflow_slope_per_kb: 0.0,
            ..NetConfig::default()
        }
    }

    /// Transmission time of `bytes` on one link, in integer picoseconds.
    /// This is the resolution the link-occupancy accumulators run at: at
    /// 100 GbE a minimum datagram serializes in under 5 ns, so whole-ns
    /// rounding would lose most of each packet's occupancy and let N
    /// back-to-back packets serialize in far less than N× the wire time.
    pub fn tx_time_ps(&self, bytes: usize) -> u64 {
        (bytes as f64 * 8.0e12 / self.bandwidth_bps).round() as u64
    }

    /// Transmission time of `bytes` on one link, rounded to the simulator's
    /// ns tick. Display/estimation only — timing-critical link occupancy
    /// accumulates [`NetConfig::tx_time_ps`] instead.
    pub fn tx_time(&self, bytes: usize) -> SimDuration {
        SimDuration((self.tx_time_ps(bytes) + 500) / 1000)
    }
}

/// A named network generation: the paper's testbed plus the modern
/// interconnects the `netgen` table family sweeps over. Each is just a
/// [`NetConfig`] preset; `eth100m` is bit-for-bit [`NetConfig::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetGen {
    /// The paper's testbed: switched 100 Mbps Ethernet, 45 µs one-way,
    /// ~1 s retransmission timeout. The byte-identity baseline.
    Eth100m,
    /// Gigabit Ethernet, interrupt-driven UDP stack.
    Eth1g,
    /// 10 GbE with a leaner stack (µs-scale latency).
    Eth10g,
    /// 100 GbE datacenter Ethernet.
    Eth100g,
    /// RDMA-class interconnect: ~1 µs one-way for small messages
    /// (800 ns switch+NIC latency plus serialization), sub-µs loopback,
    /// hardware-reliable transport (no loss machinery), credit-based flow
    /// control instead of socket-buffer overflow.
    Rdma,
}

impl NetGen {
    /// Every generation, oldest first.
    pub const ALL: [NetGen; 5] = [
        NetGen::Eth100m,
        NetGen::Eth1g,
        NetGen::Eth10g,
        NetGen::Eth100g,
        NetGen::Rdma,
    ];

    /// Stable label used in cell keys and artifact names.
    pub fn label(self) -> &'static str {
        match self {
            NetGen::Eth100m => "eth100m",
            NetGen::Eth1g => "1g",
            NetGen::Eth10g => "10g",
            NetGen::Eth100g => "100g",
            NetGen::Rdma => "rdma",
        }
    }

    /// The generation's [`NetConfig`] preset. All presets share the default
    /// loss seed so protocol comparisons within a generation see the same
    /// loss stream.
    pub fn config(self) -> NetConfig {
        match self {
            NetGen::Eth100m => NetConfig::default(),
            NetGen::Eth1g => NetConfig {
                bandwidth_bps: 1e9,
                latency: SimDuration::from_micros(20),
                loopback_latency: SimDuration::from_micros(1),
                base_drop_prob: 1e-6,
                overflow_threshold_bytes: 256 * 1024,
                rexmit_timeout: SimDuration::from_millis(250),
                ..NetConfig::default()
            },
            NetGen::Eth10g => NetConfig {
                bandwidth_bps: 10e9,
                latency: SimDuration::from_micros(5),
                loopback_latency: SimDuration::from_nanos(500),
                base_drop_prob: 1e-7,
                overflow_threshold_bytes: 1024 * 1024,
                rexmit_timeout: SimDuration::from_millis(25),
                ..NetConfig::default()
            },
            NetGen::Eth100g => NetConfig {
                bandwidth_bps: 100e9,
                latency: SimDuration::from_micros(2),
                loopback_latency: SimDuration::from_nanos(250),
                base_drop_prob: 1e-8,
                overflow_threshold_bytes: 4 * 1024 * 1024,
                rexmit_timeout: SimDuration::from_millis(5),
                ..NetConfig::default()
            },
            NetGen::Rdma => NetConfig {
                bandwidth_bps: 100e9,
                latency: SimDuration::from_nanos(800),
                loopback_latency: SimDuration::from_nanos(150),
                // Reliable-connection hardware retransmits below the
                // timescale modelled here; the sim-level loss machinery is
                // off entirely.
                base_drop_prob: 0.0,
                overflow_threshold_bytes: usize::MAX / 2,
                overflow_slope_per_kb: 0.0,
                // Software-level give-up timer for the control plane.
                rexmit_timeout: SimDuration::from_millis(1),
                ..NetConfig::default()
            },
        }
    }
}

impl std::fmt::Display for NetGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_100mbps() {
        let c = NetConfig::default();
        // 1250 bytes = 10_000 bits = 100us at 100 Mbps.
        assert_eq!(c.tx_time(1250), SimDuration::from_micros(100));
        // A 4 KB page + headers is a little over 330us.
        let t = c.tx_time(4096 + HEADER_BYTES);
        assert!(t > SimDuration::from_micros(330) && t < SimDuration::from_micros(340));
    }

    #[test]
    fn tx_time_ps_is_exact_at_every_generation() {
        // Power-of-ten bandwidths give integer ps-per-byte: 80_000 ps at
        // 100 Mbps down to 80 ps at 100 GbE.
        for (gen, per_byte_ps) in [
            (NetGen::Eth100m, 80_000),
            (NetGen::Eth1g, 8_000),
            (NetGen::Eth10g, 800),
            (NetGen::Eth100g, 80),
            (NetGen::Rdma, 80),
        ] {
            let c = gen.config();
            assert_eq!(c.tx_time_ps(1), per_byte_ps, "{gen}");
            assert_eq!(c.tx_time_ps(1250), 1250 * per_byte_ps, "{gen}");
        }
        // Sub-ns regime: a minimum datagram at 100 GbE is 4.64 ns — whole-ns
        // math would halve it.
        assert_eq!(NetGen::Eth100g.config().tx_time_ps(HEADER_BYTES), 4_640);
    }

    #[test]
    fn lossless_has_no_drops() {
        let c = NetConfig::lossless();
        assert_eq!(c.base_drop_prob, 0.0);
        assert_eq!(c.overflow_slope_per_kb, 0.0);
    }

    #[test]
    fn eth100m_preset_is_the_default() {
        // The standing byte-identity invariant: the paper generation must be
        // exactly the historical default config, field for field.
        let g = NetGen::Eth100m.config();
        let d = NetConfig::default();
        assert_eq!(g.bandwidth_bps, d.bandwidth_bps);
        assert_eq!(g.latency, d.latency);
        assert_eq!(g.loopback_latency, d.loopback_latency);
        assert_eq!(g.base_drop_prob, d.base_drop_prob);
        assert_eq!(g.overflow_threshold_bytes, d.overflow_threshold_bytes);
        assert_eq!(g.overflow_slope_per_kb, d.overflow_slope_per_kb);
        assert_eq!(g.overflow_cap, d.overflow_cap);
        assert_eq!(g.rexmit_timeout, SimDuration::from_secs(1));
        assert_eq!(g.seed, d.seed);
    }

    #[test]
    fn generation_labels_round_trip() {
        // Cell keys and artifact names carry the label, so each label must
        // lead back to exactly its own generation.
        for g in NetGen::ALL {
            let named: Vec<NetGen> = NetGen::ALL
                .into_iter()
                .filter(|h| h.label() == g.label())
                .collect();
            assert_eq!(named, [g]);
        }
    }

    #[test]
    fn rexmit_timeouts_shrink_with_the_generation() {
        let mut prev = None;
        for g in NetGen::ALL {
            let t = g.config().rexmit_timeout;
            if let Some(p) = prev {
                assert!(t < p, "{g} timeout {t} not below its predecessor {p}");
            }
            prev = Some(t);
        }
        assert_eq!(
            NetGen::Eth100m.config().rexmit_timeout,
            SimDuration::from_secs(1)
        );
    }
}
