//! The switched-Ethernet [`NetModel`].
//!
//! Each node has a full-duplex link into one store-and-forward switch.
//! A datagram serializes on the sender's uplink, crosses the switch after a
//! fixed latency, then serializes on the receiver's downlink; both links are
//! modelled as busy-until timestamps, so concurrent traffic to one node
//! queues behind earlier traffic (the effect that makes centralized barrier
//! managers a bottleneck in the paper).
//!
//! Link occupancy is tracked in **picoseconds** while the simulator's event
//! clock ticks in nanoseconds. At the paper's 100 Mbps this distinction is
//! invisible (every byte is 80 ns), but at 100 Gbps a minimum datagram
//! serializes in 4.64 ns — accumulating whole-ns rounded times would let N
//! back-to-back packets finish in well under N× the true wire time. The
//! ps accumulators carry the fractional part exactly; only the final
//! delivery instant is rounded (upward) to the ns event grid.
//!
//! Losses have two sources, matching the paper's observations about message
//! retransmission: a tiny base rate, and receiver-queue overflow when many
//! nodes burst at a single destination (LRC barriers, diff-request storms).
//! One-sided verbs ([`RouteRequest::reliable`]) model RDMA reliable
//! connections: they occupy the links like any datagram but bypass the loss
//! machinery entirely — no RNG draw, so protocols that never use them see an
//! unchanged loss stream.

use vopp_sim::{Dropped, NetModel, NetStats, RouteRequest, SimTime};

use crate::config::NetConfig;

/// SplitMix64: a tiny, high-quality deterministic PRNG for loss decisions.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The switched-Ethernet network model.
pub struct EthernetModel {
    cfg: NetConfig,
    /// Per-node uplink busy-until, in picoseconds.
    tx_free_ps: Vec<u64>,
    /// Per-node downlink busy-until, in picoseconds.
    rx_free_ps: Vec<u64>,
    rng: SplitMix64,
    stats: NetStats,
}

impl EthernetModel {
    /// A model for `nprocs` nodes.
    pub fn new(nprocs: usize, cfg: NetConfig) -> EthernetModel {
        EthernetModel {
            rng: SplitMix64(cfg.seed),
            cfg,
            tx_free_ps: vec![0; nprocs],
            rx_free_ps: vec![0; nprocs],
            stats: NetStats::default(),
        }
    }

    fn drop_probability(&self, pending_bytes_at_dst: usize) -> f64 {
        let over = pending_bytes_at_dst.saturating_sub(self.cfg.overflow_threshold_bytes);
        let p = self.cfg.base_drop_prob + over as f64 / 1024.0 * self.cfg.overflow_slope_per_kb;
        p.min(self.cfg.overflow_cap)
    }
}

impl NetModel for EthernetModel {
    fn route(&mut self, req: RouteRequest) -> Result<SimTime, Dropped> {
        if req.src == req.dst {
            self.stats.loopback_msgs += 1;
            return Ok(req.now + self.cfg.loopback_latency);
        }
        self.stats.msgs += 1;
        self.stats.bytes += req.wire_bytes as u64;
        if req.reliable {
            self.stats.one_sided += 1;
        }
        if !req.reliable {
            // Loss decision consumes exactly one RNG draw per lossy-path
            // wire datagram, keeping the random stream aligned across
            // protocol variations. One-sided verbs ride a hardware-reliable
            // transport: no draw, no drop, no overflow accounting.
            let p = self.drop_probability(req.pending_bytes_at_dst);
            if p > 0.0 && self.rng.next_f64() < p {
                self.stats.drops += 1;
                return Err(Dropped {
                    overflow: req.pending_bytes_at_dst > self.cfg.overflow_threshold_bytes,
                });
            }
        }
        let now_ps = req.now.0 * 1000;
        let tx_ps = self.cfg.tx_time_ps(req.wire_bytes);
        // Sender uplink serialization.
        let tx_start = now_ps.max(self.tx_free_ps[req.src]);
        let tx_end = tx_start + tx_ps;
        self.tx_free_ps[req.src] = tx_end;
        // Switch + software latency, then receiver downlink serialization.
        let at_switch = tx_end + self.cfg.latency.0 * 1000;
        let rx_start = at_switch.max(self.rx_free_ps[req.dst]);
        let rx_end = rx_start + tx_ps;
        self.rx_free_ps[req.dst] = rx_end;
        // Round the delivery *up* to the ns event grid: `rx_end >= now_ps +
        // latency_ps`, so ceiling keeps `delivery >= now + latency`.
        Ok(SimTime(rx_end.div_ceil(1000)))
    }

    fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetGen, HEADER_BYTES};
    use vopp_sim::SimDuration;

    fn req(now: u64, src: usize, dst: usize, bytes: usize, pending_bytes: usize) -> RouteRequest {
        RouteRequest {
            now: SimTime(now),
            src,
            dst,
            wire_bytes: bytes,
            pending_bytes_at_dst: pending_bytes,
            reliable: false,
        }
    }

    fn one_sided(now: u64, src: usize, dst: usize, bytes: usize) -> RouteRequest {
        RouteRequest {
            reliable: true,
            ..req(now, src, dst, bytes, 0)
        }
    }

    #[test]
    fn single_packet_time() {
        let mut m = EthernetModel::new(2, NetConfig::lossless());
        // 1250 bytes: 100us tx on each of the two links + 45us latency.
        let at = m.route(req(0, 0, 1, 1250, 0)).unwrap();
        assert_eq!(at, SimTime(100_000 + 45_000 + 100_000));
    }

    #[test]
    fn sender_link_serializes_back_to_back() {
        let mut m = EthernetModel::new(3, NetConfig::lossless());
        let a = m.route(req(0, 0, 1, 1250, 0)).unwrap();
        // Second packet to a *different* dst still waits for the uplink.
        let b = m.route(req(0, 0, 2, 1250, 0)).unwrap();
        assert_eq!(b.nanos() - a.nanos(), 100_000);
    }

    #[test]
    fn receiver_link_is_a_bottleneck() {
        let mut m = EthernetModel::new(3, NetConfig::lossless());
        // Two senders converge on node 2 at the same time: the second
        // delivery queues behind the first on node 2's downlink.
        let a = m.route(req(0, 0, 2, 1250, 0)).unwrap();
        let b = m.route(req(0, 1, 2, 1250, 0)).unwrap();
        assert_eq!(a, SimTime(245_000));
        assert_eq!(b, SimTime(345_000));
    }

    #[test]
    fn loopback_short_circuit() {
        let mut m = EthernetModel::new(2, NetConfig::lossless());
        let at = m.route(req(1_000, 1, 1, 50_000, 0)).unwrap();
        assert_eq!(at, SimTime(1_000) + SimDuration::from_micros(2));
        assert_eq!(m.stats.msgs, 0);
        assert_eq!(m.stats.loopback_msgs, 1);
    }

    #[test]
    fn overflow_drops_under_burst() {
        let cfg = NetConfig {
            base_drop_prob: 0.0,
            overflow_threshold_bytes: 4096,
            overflow_slope_per_kb: 1.0, // certain drop 1KB beyond threshold
            overflow_cap: 1.0,
            ..NetConfig::default()
        };
        let mut m = EthernetModel::new(2, cfg);
        assert!(m.route(req(0, 0, 1, 100, 4096)).is_ok());
        assert_eq!(
            m.route(req(0, 0, 1, 100, 8192)),
            Err(Dropped { overflow: true })
        );
        assert_eq!(m.stats.drops, 1);
    }

    #[test]
    fn base_drop_rate_statistical() {
        let cfg = NetConfig {
            base_drop_prob: 0.01,
            ..NetConfig::default()
        };
        let mut m = EthernetModel::new(2, cfg);
        let mut drops = 0;
        for i in 0..100_000 {
            if m.route(req(i, 0, 1, 100, 0)).is_err() {
                drops += 1;
            }
        }
        // ~1000 expected; allow wide tolerance.
        assert!((600..1500).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let cfg = NetConfig {
                base_drop_prob: 0.05,
                seed,
                ..NetConfig::default()
            };
            let mut m = EthernetModel::new(2, cfg);
            (0..1000)
                .map(|i| m.route(req(i, 0, 1, 64, 0)).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn switch_latency_bounds_deliveries_and_loopback_is_exact() {
        let cfg = NetConfig::lossless();
        let mut m = EthernetModel::new(4, cfg.clone());
        // Hammer one receiver from several senders: congestion only pushes
        // a cross-node delivery later than `now + latency`, and loopback is
        // exactly `now + loopback_latency`.
        for i in 0..200u64 {
            let now = i * 10_000;
            let src = (i % 3) as usize;
            let at = m.route(req(now, src, 3, 1250, 0)).unwrap();
            assert!(at >= SimTime(now) + cfg.latency, "delivery {at} too early");
            let lb = m.route(req(now, src, src, 64, 0)).unwrap();
            assert_eq!(lb, SimTime(now) + cfg.loopback_latency);
        }
    }

    #[test]
    fn stats_count_drops_as_sent() {
        let cfg = NetConfig {
            base_drop_prob: 1.0,
            overflow_cap: 1.0,
            ..NetConfig::default()
        };
        let mut m = EthernetModel::new(2, cfg);
        assert!(m.route(req(0, 0, 1, 500, 0)).is_err());
        // The datagram hit the wire before being lost.
        let s = m.stats;
        assert_eq!((s.msgs, s.bytes, s.drops), (1, 500, 1));
    }

    #[test]
    fn timing_is_exact_at_every_generation() {
        // Single-packet delivery must be exactly
        // ceil((2*tx_ps + latency_ps) / 1000) ns for every preset.
        for gen in NetGen::ALL {
            let cfg = NetConfig {
                base_drop_prob: 0.0,
                overflow_slope_per_kb: 0.0,
                ..gen.config()
            };
            let tx_ps = cfg.tx_time_ps(1250);
            let want = (2 * tx_ps + cfg.latency.0 * 1000).div_ceil(1000);
            let mut m = EthernetModel::new(2, cfg);
            let at = m.route(req(0, 0, 1, 1250, 0)).unwrap();
            assert_eq!(at, SimTime(want), "{gen}");
        }
    }

    #[test]
    fn sub_ns_serialization_accumulates_at_100g() {
        // The regression the ps accumulators fix: N minimum datagrams
        // back-to-back at 100 Gbps must occupy the uplink for exactly
        // N x 4.64 ns of wire time, not N x round(4.64) = N x 5 ns or —
        // with the old truncating accumulator reset each packet —
        // far less. 1000 packets: 4640 ns of wire, not 5000, not ~4000.
        let lossless = NetConfig {
            bandwidth_bps: 100e9,
            latency: SimDuration::from_micros(2),
            ..NetConfig::lossless()
        };
        let tx_ps = lossless.tx_time_ps(HEADER_BYTES);
        assert_eq!(tx_ps, 4_640); // 4.64 ns — not representable in whole ns
        let mut m = EthernetModel::new(2, lossless.clone());
        let n: u64 = 1000;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = m.route(req(0, 0, 1, HEADER_BYTES, 0)).unwrap();
        }
        // Last delivery = ceil((n*tx + latency + tx) / 1000): the uplink
        // serializes all n packets, the switch adds its latency once to the
        // final one, and it serializes once more on the downlink (earlier
        // downlink arrivals finished before it got there).
        let want = (n * tx_ps + lossless.latency.0 * 1000 + tx_ps).div_ceil(1000);
        assert_eq!(last, SimTime(want));
        // Sanity on the magnitude: 1000 x 4.64ns = 4640 ns of uplink wire.
        assert_eq!(want, 2000 + 4640 + 5); // latency 2us + wire + ceil(4.64)
    }

    #[test]
    fn eth100m_ps_accumulators_stay_on_the_ns_grid() {
        // Byte-identity guard for the paper generation: at 100 Mbps every
        // quantity is a multiple of 1000 ps, so the ps rewrite must produce
        // exactly the historical whole-ns delivery times under load.
        let mut m = EthernetModel::new(3, NetConfig::lossless());
        let mut prev = 0;
        for i in 0..50u64 {
            let at = m.route(req(i * 777, 0, 2, 963, 0)).unwrap();
            let tx = NetConfig::default().tx_time(963).0;
            assert_eq!((at.0 - 45_000) % tx, 0, "delivery {at} off the tx grid");
            assert!(at.0 > prev);
            prev = at.0;
        }
    }

    #[test]
    fn one_sided_is_never_dropped_and_draws_no_rng() {
        // Certain-loss config: every lossy datagram drops, every one-sided
        // write survives, and one-sided routing leaves the RNG untouched
        // (the loss stream of subsequent lossy traffic is unchanged).
        let cfg = NetConfig {
            base_drop_prob: 0.5,
            overflow_cap: 1.0,
            ..NetConfig::default()
        };
        let pattern_without = {
            let mut m = EthernetModel::new(2, cfg.clone());
            (0..200)
                .map(|i| m.route(req(i, 0, 1, 64, 0)).is_ok())
                .collect::<Vec<_>>()
        };
        let mut m = EthernetModel::new(2, cfg);
        for i in 0..50 {
            assert!(m.route(one_sided(i, 0, 1, 4096)).is_ok());
        }
        let pattern_with = (0..200)
            .map(|i| m.route(req(i, 0, 1, 64, 0)).is_ok())
            .collect::<Vec<_>>();
        assert_eq!(pattern_without, pattern_with);
        let s = m.stats;
        assert_eq!(s.one_sided, 50);
        assert_eq!(s.msgs, 250); // one-sided counts as wire traffic
    }

    #[test]
    fn one_sided_skips_overflow_but_still_occupies_links() {
        let cfg = NetConfig {
            base_drop_prob: 0.0,
            overflow_threshold_bytes: 0,
            overflow_slope_per_kb: 1.0,
            overflow_cap: 1.0,
            ..NetConfig::default()
        };
        let mut m = EthernetModel::new(2, cfg);
        // A lossy datagram into a saturated receiver drops...
        assert!(m.route(req(0, 0, 1, 100, 1 << 20)).is_err());
        // ...a one-sided write does not, and serializes on both links.
        let at = m
            .route(RouteRequest {
                reliable: true,
                ..req(0, 0, 1, 1250, 1 << 20)
            })
            .unwrap();
        assert_eq!(at, SimTime(245_000));
        // A later lossy packet queues behind the one-sided bytes.
        let cfg2 = NetConfig::lossless();
        let mut m2 = EthernetModel::new(2, cfg2);
        m2.route(one_sided(0, 0, 1, 1250)).unwrap();
        let b = m2.route(req(0, 0, 1, 1250, 0)).unwrap();
        assert_eq!(b, SimTime(345_000));
    }
}
