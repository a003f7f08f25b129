//! Property tests of the network model: per-pair FIFO delivery, causality,
//! bandwidth accounting.
//!
//! Exercised over seeded pseudo-random inputs (SplitMix64) instead of a
//! property-testing framework so the suite runs without external
//! dependencies; failures print the seed for replay.

use vopp_sim::{NetModel, RouteRequest, SimTime};
use vopp_simnet::{EthernetModel, NetConfig};

/// SplitMix64, the same generator the network model uses for loss decisions.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in [lo, hi).
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

const CASES: u64 = 64;

fn req(now: u64, src: usize, dst: usize, bytes: usize) -> RouteRequest {
    RouteRequest {
        now: SimTime(now),
        src,
        dst,
        wire_bytes: bytes,
        pending_bytes_at_dst: 0,
        reliable: false,
    }
}

/// Arrivals never precede sends, and consecutive sends over the same
/// (src, dst) pair arrive in order (links are FIFO).
#[test]
fn fifo_and_causal() {
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let sizes: Vec<usize> = (0..rng.range(1, 50))
            .map(|_| rng.range(1, 20_000))
            .collect();
        let mut m = EthernetModel::new(2, NetConfig::lossless());
        let mut now = 0u64;
        let mut last_arrival = SimTime::ZERO;
        for s in sizes {
            now += 100; // sender issues periodically
            let at = m.route(req(now, 0, 1, s)).unwrap();
            assert!(at > SimTime(now), "seed {seed}: arrival must be after send");
            assert!(
                at >= last_arrival,
                "seed {seed}: same-pair delivery must be FIFO"
            );
            last_arrival = at;
        }
    }
}

/// A saturated link delivers at exactly the configured bandwidth: the
/// last arrival of a back-to-back burst is bounded below by total bytes
/// over bandwidth.
#[test]
fn bandwidth_is_respected() {
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let sizes: Vec<usize> = (0..rng.range(2, 40))
            .map(|_| rng.range(100, 5_000))
            .collect();
        let cfg = NetConfig::lossless();
        let bw = cfg.bandwidth_bps;
        let mut m = EthernetModel::new(2, cfg);
        let total: usize = sizes.iter().sum();
        let mut last = SimTime::ZERO;
        for s in &sizes {
            last = m.route(req(0, 0, 1, *s)).unwrap();
        }
        let min_ns = total as f64 * 8.0 / bw * 1e9;
        assert!(
            last.nanos() as f64 >= min_ns,
            "seed {seed}: burst of {total} B arrived too fast: {last}"
        );
        assert_eq!(m.stats().bytes, total as u64, "seed {seed}");
    }
}

/// Different destination links do not interfere on the receive side:
/// two single packets from different senders to different receivers
/// take identical time.
#[test]
fn independent_pairs_have_equal_latency() {
    for seed in 0..CASES {
        let bytes = Rng(seed).range(1, 10_000);
        let mut m = EthernetModel::new(4, NetConfig::lossless());
        let a = m.route(req(0, 0, 1, bytes)).unwrap();
        let b = m.route(req(0, 2, 3, bytes)).unwrap();
        assert_eq!(a, b, "seed {seed}: {bytes} B");
    }
}

/// Loopback never consumes wire statistics.
#[test]
fn loopback_is_free() {
    for seed in 0..CASES {
        let n = Rng(seed).range(1, 100);
        let mut m = EthernetModel::new(2, NetConfig::default());
        for i in 0..n {
            let at = m.route(req(i as u64 * 10, 1, 1, 5000)).unwrap();
            assert!(at.nanos() > i as u64 * 10, "seed {seed}");
        }
        let s = m.stats();
        assert_eq!((s.msgs, s.bytes), (0, 0), "seed {seed}");
    }
}

#[test]
fn full_duplex_links() {
    // Simultaneous opposite-direction transfers do not serialize against
    // each other (tx and rx are separate resources).
    let cfg = NetConfig::lossless();
    let mut m = EthernetModel::new(2, cfg);
    let a = m.route(req(0, 0, 1, 5000)).unwrap();
    let b = m.route(req(0, 1, 0, 5000)).unwrap();
    assert_eq!(a, b, "full duplex: directions are independent");
}
