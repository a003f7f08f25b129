//! Lossless (de)serialization of [`RunStats`] for the on-disk sweep cache.
//!
//! The in-memory metrics export (`metrics.rs`) is intentionally lossy — it
//! condenses histograms to summaries for the artifacts. A cached cell,
//! by contrast, must reproduce the *exact* `RunStats` the simulator would
//! have produced, because table text and `BENCH_<app>.json` artifacts are
//! byte-gated against the cold run. This module therefore round-trips every
//! field: raw histogram buckets, the full phase breakdown, and per-node end
//! times.
//!
//! It also provides the content-addressing primitives: FNV-1a hashing and a
//! build fingerprint (hash of the running executable), so a cache produced
//! by one build is invalidated wholesale by the next.

use std::sync::OnceLock;

use vopp_dsm::stats::{NodeStats, RunStats};
use vopp_dsm::NodeMetrics;
use vopp_metrics::hist::NBUCKETS;
use vopp_metrics::{Breakdown, Histogram, Phase};
use vopp_sim::SimTime;
use vopp_simnet::NetStats;
use vopp_trace::json::{num, obj, Value};

/// 64-bit FNV-1a over a byte string. Stable, dependency-free, and fast
/// enough for the megabytes-sized executable hashed once per process.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `x` as 16 zero-padded hex digits, in one allocation whatever its value:
/// `format!("{x:016x}")` writes the padding zeros one character at a time
/// into an empty `String` and so allocates once more when `x` has a leading
/// zero digit, which made a sweep's allocation count depend on the bytes of
/// the executable through [`exe_fingerprint`].
pub fn hex16(x: u64) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(16);
    let _ = write!(s, "{x:016x}");
    s
}

/// FNV-1a hash of the running executable's bytes, computed once per process.
/// Any rebuild — new simulator code, new cost tables, new rustc — changes
/// this value and thereby invalidates every cached cell at once. Falls back
/// to 0 (an always-mismatching sentinel is unnecessary: a stable 0 still
/// only matches caches written by other unreadable-executable runs on the
/// same machine, and the context hash guards the configuration).
pub fn exe_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        std::env::current_exe()
            .ok()
            .and_then(|p| std::fs::read(p).ok())
            .map(|bytes| fnv1a(&bytes))
            .unwrap_or(0)
    })
}

/// Lossless histogram encoding: raw buckets plus sum and max. Also used by
/// the sweep cache for the serve cells' latency histograms.
pub fn hist_to_value(h: &Histogram) -> Value {
    obj(vec![
        (
            "counts",
            Value::Arr(h.bucket_counts().iter().map(|&c| num(c)).collect()),
        ),
        ("sum_ns", num(h.sum_ns())),
        ("max_ns", num(h.max_ns())),
    ])
}

/// Rebuild a histogram from [`hist_to_value`] output; `None` on any
/// structural mismatch.
pub fn hist_from_value(v: &Value) -> Option<Histogram> {
    let arr = v.get("counts")?.as_arr()?;
    if arr.len() != NBUCKETS {
        return None;
    }
    let mut counts = [0u64; NBUCKETS];
    for (slot, item) in counts.iter_mut().zip(arr) {
        *slot = item.as_u64()?;
    }
    Some(Histogram::from_raw(
        counts,
        v.get("sum_ns")?.as_u64()?,
        v.get("max_ns")?.as_u64()?,
    ))
}

/// Breakdown as an array of numbers in `Phase::ALL` order.
fn breakdown_to_value(b: &Breakdown) -> Value {
    Value::Arr(Phase::ALL.iter().map(|&p| num(b.get(p))).collect())
}

fn breakdown_from_value(v: &Value) -> Option<Breakdown> {
    let arr = v.as_arr()?;
    if arr.len() != Phase::ALL.len() {
        return None;
    }
    let mut b = Breakdown::default();
    for (&phase, item) in Phase::ALL.iter().zip(arr) {
        b.charge(phase, item.as_u64()?);
    }
    Some(b)
}

fn metrics_to_value(m: &NodeMetrics) -> Value {
    obj(vec![
        ("breakdown", breakdown_to_value(&m.breakdown)),
        ("acquire_rtt", hist_to_value(&m.acquire_rtt)),
        ("barrier_rtt", hist_to_value(&m.barrier_rtt)),
        ("diff_rtt", hist_to_value(&m.diff_rtt)),
        ("rpc_rtt", hist_to_value(&m.rpc_rtt)),
    ])
}

fn metrics_from_value(v: &Value) -> Option<NodeMetrics> {
    Some(NodeMetrics {
        breakdown: breakdown_from_value(v.get("breakdown")?)?,
        acquire_rtt: hist_from_value(v.get("acquire_rtt")?)?,
        barrier_rtt: hist_from_value(v.get("barrier_rtt")?)?,
        diff_rtt: hist_from_value(v.get("diff_rtt")?)?,
        rpc_rtt: hist_from_value(v.get("rpc_rtt")?)?,
    })
}

fn nodes_to_value(n: &NodeStats) -> Value {
    obj(vec![
        ("barriers", num(n.barriers)),
        ("acquires", num(n.acquires)),
        ("diff_requests", num(n.diff_requests)),
        ("page_faults", num(n.page_faults)),
        ("rexmits", num(n.rexmits)),
        ("barrier_wait_ns", num(n.barrier_wait_ns)),
        ("acquire_wait_ns", num(n.acquire_wait_ns)),
        ("twins", num(n.twins)),
        ("diffs_created", num(n.diffs_created)),
        ("diffs_applied", num(n.diffs_applied)),
        ("metrics", metrics_to_value(&n.metrics)),
    ])
}

fn nodes_from_value(v: &Value) -> Option<NodeStats> {
    Some(NodeStats {
        barriers: v.get("barriers")?.as_u64()?,
        acquires: v.get("acquires")?.as_u64()?,
        diff_requests: v.get("diff_requests")?.as_u64()?,
        page_faults: v.get("page_faults")?.as_u64()?,
        rexmits: v.get("rexmits")?.as_u64()?,
        barrier_wait_ns: v.get("barrier_wait_ns")?.as_u64()?,
        acquire_wait_ns: v.get("acquire_wait_ns")?.as_u64()?,
        twins: v.get("twins")?.as_u64()?,
        diffs_created: v.get("diffs_created")?.as_u64()?,
        diffs_applied: v.get("diffs_applied")?.as_u64()?,
        metrics: metrics_from_value(v.get("metrics")?)?,
    })
}

/// Serialize a complete [`RunStats`] to a JSON value that
/// [`stats_from_value`] inverts exactly.
pub fn stats_to_value(s: &RunStats) -> Value {
    obj(vec![
        ("time_ns", num(s.time.0)),
        ("nprocs", num(s.nprocs as u64)),
        ("nodes", nodes_to_value(&s.nodes)),
        (
            "net",
            obj(vec![
                ("msgs", num(s.net.msgs)),
                ("bytes", num(s.net.bytes)),
                ("drops", num(s.net.drops)),
                ("loopback_msgs", num(s.net.loopback_msgs)),
                ("one_sided", num(s.net.one_sided)),
            ]),
        ),
        (
            "node_breakdowns",
            Value::Arr(s.node_breakdowns.iter().map(breakdown_to_value).collect()),
        ),
        (
            "node_end_ns",
            Value::Arr(s.node_end.iter().map(|t| num(t.0)).collect()),
        ),
    ])
}

/// Rebuild a [`RunStats`] from [`stats_to_value`] output. Returns `None`
/// on any structural mismatch (treated by the cache as a miss).
pub fn stats_from_value(v: &Value) -> Option<RunStats> {
    let net_v = v.get("net")?;
    let mut node_breakdowns = Vec::new();
    for b in v.get("node_breakdowns")?.as_arr()? {
        node_breakdowns.push(breakdown_from_value(b)?);
    }
    let mut node_end = Vec::new();
    for t in v.get("node_end_ns")?.as_arr()? {
        node_end.push(SimTime(t.as_u64()?));
    }
    Some(RunStats {
        time: SimTime(v.get("time_ns")?.as_u64()?),
        nprocs: v.get("nprocs")?.as_u64()? as usize,
        nodes: nodes_from_value(v.get("nodes")?)?,
        net: NetStats {
            msgs: net_v.get("msgs")?.as_u64()?,
            bytes: net_v.get("bytes")?.as_u64()?,
            drops: net_v.get("drops")?.as_u64()?,
            loopback_msgs: net_v.get("loopback_msgs")?.as_u64()?,
            one_sided: net_v.get("one_sided")?.as_u64()?,
        },
        node_breakdowns,
        node_end,
        // Critical paths are never cached: profiled sweeps re-simulate
        // every cell (see run_sweep_cached), so a cache hit has no path.
        crit: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A RunStats with every field populated with distinct values, so a
    /// field swapped or dropped during (de)serialization changes the bytes.
    fn dense_stats() -> RunStats {
        let mut nodes = NodeStats {
            barriers: 11,
            acquires: 12,
            diff_requests: 13,
            page_faults: 14,
            rexmits: 15,
            barrier_wait_ns: 16,
            acquire_wait_ns: 17,
            twins: 18,
            diffs_created: 19,
            diffs_applied: 20,
            ..NodeStats::default()
        };
        nodes.metrics.breakdown.charge(Phase::Compute, 100);
        nodes.metrics.breakdown.charge(Phase::SendWait, 200);
        nodes.metrics.acquire_rtt.record(1_500);
        nodes.metrics.barrier_rtt.record(70_000);
        nodes.metrics.diff_rtt.record(2_000_000_000);
        nodes.metrics.rpc_rtt.record(42);

        let mut bd0 = Breakdown::default();
        bd0.charge(Phase::Compute, 60);
        bd0.charge(Phase::BarrierWait, 40);
        let mut bd1 = Breakdown::default();
        bd1.charge(Phase::DataWait, 99);

        RunStats {
            time: SimTime(123_456_789),
            nprocs: 2,
            nodes,
            net: NetStats {
                msgs: 1000,
                bytes: 2000,
                drops: 3,
                loopback_msgs: 44,
                one_sided: 55,
            },
            node_breakdowns: vec![bd0, bd1],
            node_end: vec![SimTime(100), SimTime(123_456_789)],
            crit: None,
        }
    }

    #[test]
    fn stats_round_trip_is_byte_identical() {
        let original = dense_stats();
        let encoded = stats_to_value(&original);
        let decoded = stats_from_value(&encoded).expect("decode");
        // RunStats has no PartialEq; byte-compare the canonical encoding
        // (which covers every field by construction) plus spot checks.
        assert_eq!(stats_to_value(&decoded).to_json(), encoded.to_json());
        assert_eq!(decoded.time, original.time);
        assert_eq!(decoded.nodes.metrics, original.nodes.metrics);
        assert_eq!(decoded.node_breakdowns, original.node_breakdowns);
    }

    #[test]
    fn parse_then_decode_round_trips_through_text() {
        let original = dense_stats();
        let text = stats_to_value(&original).to_json_pretty();
        let reparsed = Value::parse(&text).expect("parse");
        let decoded = stats_from_value(&reparsed).expect("decode");
        assert_eq!(
            stats_to_value(&decoded).to_json(),
            stats_to_value(&original).to_json()
        );
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        assert!(stats_from_value(&Value::Null).is_none());
        assert!(stats_from_value(&obj(vec![("time_ns", num(1))])).is_none());
        // Wrong bucket count in a histogram.
        let mut good = stats_to_value(&dense_stats());
        if let Value::Obj(fields) = &mut good {
            for (k, v) in fields.iter_mut() {
                if k == "nodes" {
                    if let Value::Obj(nf) = v {
                        for (nk, nv) in nf.iter_mut() {
                            if nk == "metrics" {
                                if let Value::Obj(mf) = nv {
                                    for (mk, mv) in mf.iter_mut() {
                                        if mk == "rpc_rtt" {
                                            *mv = obj(vec![
                                                ("counts", Value::Arr(vec![num(1)])),
                                                ("sum_ns", num(1)),
                                                ("max_ns", num(1)),
                                            ]);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(stats_from_value(&good).is_none());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn exe_fingerprint_is_stable_and_nonzero() {
        let a = exe_fingerprint();
        let b = exe_fingerprint();
        assert_eq!(a, b);
        assert_ne!(a, 0, "test executable should be readable");
    }
}
