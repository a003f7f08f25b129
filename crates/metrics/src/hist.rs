//! Fixed-bucket latency histogram.
//!
//! Bucket bounds follow a 1-2-5 ladder from 1µs to 1s (plus an overflow
//! bucket), which brackets every round-trip the simulator produces: the
//! fastest RPC is bounded below by the network latency (µs scale) and the
//! retransmission timeout caps single waits near 1s. Quantiles are resolved
//! to the bucket upper bound — deterministic, so the latency summaries are
//! as byte-stable as every other metric, while keeping `record()` a couple
//! of integer compares.

use vopp_trace::json::{num, obj, Value};

/// Upper bounds (inclusive), in nanoseconds, of the value buckets. A final
/// implicit overflow bucket catches everything above 1s.
pub const BOUNDS: [u64; 19] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
];

/// Number of buckets, including the overflow bucket.
pub const NBUCKETS: usize = BOUNDS.len() + 1;

/// A fixed-bucket histogram of nanosecond durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; NBUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; NBUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one duration.
    pub fn record(&mut self, ns: u64) {
        let idx = BOUNDS.partition_point(|&b| b < ns);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += ns;
        self.max = self.max.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations (ns).
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Largest recorded duration (ns), exact.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Mean duration (ns); 0.0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile `q` in `[0, 1]`, resolved to the containing bucket's upper
    /// bound and clamped to the exact maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let bound = BOUNDS.get(i).copied().unwrap_or(u64::MAX);
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// 99th percentile, at bucket resolution (ns).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile, at bucket resolution (ns). The tail statistic for
    /// open-loop serving cells, where a handful of requests landing behind a
    /// crash or a hot shard dominate the user-visible latency.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Fold another histogram into this one.
    pub fn absorb(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Condensed summary (count, sum, p50, p95, p99, p99.9, max).
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            sum_ns: self.sum,
            p50_ns: self.quantile(0.50),
            p95_ns: self.quantile(0.95),
            p99_ns: self.p99(),
            p999_ns: self.p999(),
            max_ns: self.max,
        }
    }

    /// JSON form of [`Histogram::summary`].
    pub fn to_value(&self) -> Value {
        self.summary().to_value()
    }

    /// Raw per-bucket counts (index `i` counts samples `<= BOUNDS[i]`; the
    /// last bucket is the overflow). For persistence; quantiles should use
    /// [`Histogram::quantile`].
    pub fn bucket_counts(&self) -> &[u64; NBUCKETS] {
        &self.counts
    }

    /// Rebuild a histogram from its raw parts, the inverse of
    /// [`Histogram::bucket_counts`] / [`Histogram::sum_ns`] /
    /// [`Histogram::max_ns`]. The sample count is derived from the buckets.
    pub fn from_raw(counts: [u64; NBUCKETS], sum_ns: u64, max_ns: u64) -> Histogram {
        Histogram {
            counts,
            count: counts.iter().sum(),
            sum: sum_ns,
            max: max_ns,
        }
    }
}

/// Condensed histogram statistics for table cells and JSON artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples (ns).
    pub sum_ns: u64,
    /// Median, at bucket resolution (ns).
    pub p50_ns: u64,
    /// 95th percentile, at bucket resolution (ns).
    pub p95_ns: u64,
    /// 99th percentile, at bucket resolution (ns).
    pub p99_ns: u64,
    /// 99.9th percentile, at bucket resolution (ns).
    pub p999_ns: u64,
    /// Exact maximum (ns).
    pub max_ns: u64,
}

impl Summary {
    /// Stable JSON object.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("count", num(self.count)),
            ("sum_ns", num(self.sum_ns)),
            ("p50_ns", num(self.p50_ns)),
            ("p95_ns", num(self.p95_ns)),
            ("p99_ns", num(self.p99_ns)),
            ("p999_ns", num(self.p999_ns)),
            ("max_ns", num(self.max_ns)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        let s = h.summary();
        assert_eq!(
            (s.count, s.p50_ns, s.p95_ns, s.p99_ns, s.p999_ns, s.max_ns),
            (0, 0, 0, 0, 0, 0)
        );
    }

    #[test]
    fn record_tracks_exact_count_sum_max() {
        let mut h = Histogram::default();
        for ns in [500, 1_500, 3_000, 70_000, 2_000_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_ns(), 2_000_075_000);
        assert_eq!(h.max_ns(), 2_000_000_000);
    }

    #[test]
    fn quantiles_resolve_to_bucket_bounds() {
        let mut h = Histogram::default();
        // 90 fast samples in the <=1µs bucket, 10 slow at ~40ms.
        for _ in 0..90 {
            h.record(800);
        }
        for _ in 0..10 {
            h.record(40_000_000);
        }
        assert_eq!(h.quantile(0.50), 1_000);
        // p95 lands in the 20-50ms bucket; clamped to the exact max.
        assert_eq!(h.quantile(0.95), 40_000_000);
        assert_eq!(h.max_ns(), 40_000_000);
    }

    #[test]
    fn single_sample_quantiles_clamp_to_max() {
        let mut h = Histogram::default();
        h.record(1_234);
        // Bucket bound is 2_000 but the exact max is smaller. Every
        // quantile of a one-sample histogram is that sample.
        assert_eq!(h.quantile(0.0), 1_234);
        assert_eq!(h.quantile(0.5), 1_234);
        assert_eq!(h.quantile(0.95), 1_234);
        assert_eq!(h.p99(), 1_234);
        assert_eq!(h.p999(), 1_234);
        assert_eq!(h.quantile(1.0), 1_234);
    }

    #[test]
    fn all_samples_in_one_bucket() {
        let mut h = Histogram::default();
        // 1000 samples, all in the (2µs, 5µs] bucket; max is 4.7µs.
        for i in 0..1000u64 {
            h.record(3_000 + i);
        }
        h.record(4_700);
        for q in [0.0, 0.5, 0.95, 0.99, 0.999] {
            assert_eq!(h.quantile(q), 4_700, "q={q}");
        }
        assert_eq!(h.quantile(1.0), 4_700);
    }

    #[test]
    fn extreme_quantiles_hit_first_and_last_sample() {
        let mut h = Histogram::default();
        for _ in 0..997 {
            h.record(800); // <=1µs bucket
        }
        for _ in 0..3 {
            h.record(300_000_000); // 200-500ms bucket
        }
        // q=0.0 clamps the rank to 1: the fastest bucket's bound.
        assert_eq!(h.quantile(0.0), 1_000);
        assert_eq!(h.quantile(0.5), 1_000);
        // The 3-in-1000 slow tail only surfaces at the 99.9th percentile.
        assert_eq!(h.p99(), 1_000);
        assert_eq!(h.p999(), 300_000_000);
        assert_eq!(h.quantile(1.0), 300_000_000);
    }

    #[test]
    fn p999_separates_from_p99_at_one_in_a_thousand() {
        let mut h = Histogram::default();
        for _ in 0..9_989 {
            h.record(900);
        }
        for _ in 0..11 {
            h.record(70_000_000); // 50-100ms bucket
        }
        assert_eq!(h.p99(), 1_000);
        assert_eq!(h.p999(), 70_000_000);
    }

    #[test]
    fn overflow_bucket_uses_exact_max() {
        let mut h = Histogram::default();
        h.record(5_000_000_000);
        assert_eq!(h.quantile(0.5), 5_000_000_000);
    }

    #[test]
    fn values_exactly_on_bucket_bounds_land_in_the_lower_bucket() {
        // Bounds are inclusive upper bounds: a sample equal to BOUNDS[i]
        // must count in bucket i, and BOUNDS[i] + 1 in bucket i + 1.
        for (i, &b) in BOUNDS.iter().enumerate() {
            let mut h = Histogram::default();
            h.record(b);
            assert_eq!(h.bucket_counts()[i], 1, "bound {b} in bucket {i}");
            let mut h = Histogram::default();
            h.record(b + 1);
            assert_eq!(h.bucket_counts()[i + 1], 1, "bound {b}+1 spills over");
        }
    }

    #[test]
    fn zero_lands_in_the_first_bucket() {
        let mut h = Histogram::default();
        h.record(0);
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.sum_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        // The bucket bound (1µs) exceeds the exact max; quantiles clamp.
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn u64_max_lands_in_overflow_and_keeps_exact_max() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.bucket_counts()[NBUCKETS - 1], 1);
        assert_eq!(h.max_ns(), u64::MAX);
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.p999(), u64::MAX);
    }

    #[test]
    fn one_below_the_first_bound_stays_in_the_first_bucket() {
        let mut h = Histogram::default();
        h.record(999);
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.quantile(0.5), 999);
    }

    #[test]
    fn p999_with_fewer_than_1000_samples_is_the_max_sample() {
        // With n < 1000, rank = ceil(0.999 * n) = n: p99.9 must be the
        // slowest sample, never a phantom sub-maximum bucket.
        for n in [1u64, 2, 10, 999] {
            let mut h = Histogram::default();
            for _ in 0..n - 1 {
                h.record(800);
            }
            h.record(42_000_000); // 20-50ms bucket; exact max 42ms
            assert_eq!(h.p999(), 42_000_000, "n={n}");
        }
    }

    #[test]
    fn p999_rank_boundary_at_exactly_1000_samples() {
        // 999 fast + 1 slow: rank = ceil(0.999 * 1000) = 999 → the fast
        // bucket; the single slow sample is only visible at q = 1.0.
        let mut h = Histogram::default();
        for _ in 0..999 {
            h.record(800);
        }
        h.record(42_000_000);
        assert_eq!(h.p999(), 1_000);
        assert_eq!(h.quantile(1.0), 42_000_000);

        // 998 fast + 2 slow: rank 999 is the first slow sample.
        let mut h = Histogram::default();
        for _ in 0..998 {
            h.record(800);
        }
        h.record(42_000_000);
        h.record(42_000_000);
        assert_eq!(h.p999(), 42_000_000);
    }

    #[test]
    fn absorb_merges_counts_and_max() {
        let mut a = Histogram::default();
        a.record(100);
        let mut b = Histogram::default();
        b.record(10_000);
        b.record(99);
        a.absorb(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ns(), 10_000);
        assert_eq!(a.sum_ns(), 10_199);
    }

    #[test]
    fn raw_round_trip_is_lossless() {
        let mut h = Histogram::default();
        for ns in [500, 1_500, 3_000, 70_000, 2_000_000_000, 42] {
            h.record(ns);
        }
        let rebuilt = Histogram::from_raw(*h.bucket_counts(), h.sum_ns(), h.max_ns());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.count(), 6);
    }

    #[test]
    fn json_summary_shape() {
        let mut h = Histogram::default();
        h.record(1_000);
        let s = h.to_value().to_json();
        assert_eq!(
            s,
            "{\"count\":1,\"sum_ns\":1000,\"p50_ns\":1000,\"p95_ns\":1000,\
             \"p99_ns\":1000,\"p999_ns\":1000,\"max_ns\":1000}"
        );
    }
}
