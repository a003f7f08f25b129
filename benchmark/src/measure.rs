//! Host-side measurement: order statistics, `/proc` readers, the
//! calibration spin that detects a noisy host, and the per-rep counters.

use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Order statistics of one metric over its samples. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method), the
/// definition `BENCHMARK.json`'s acceptance rule is stated in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarize");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    // One sample has no quartiles; report it for all three.
    let quartile = |i: usize| {
        if n < 2 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        min: v[0],
        q1: quartile(1),
        median,
        q3: quartile(3),
    }
}

/// Linux reports process CPU time in clock ticks; `USER_HZ` is 100 on every
/// architecture Linux supports, and std exposes no `sysconf`.
const TICKS_PER_S: f64 = 100.0;

/// `(utime, stime)` in seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime as f64 / TICKS_PER_S, stime as f64 / TICKS_PER_S))
}

/// CPU time of this process (all threads) so far; zeros where `/proc` is
/// not available.
pub fn cpu_times() -> (f64, f64) {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or((0.0, 0.0))
}

/// Number of CPUs in a `Cpus_allowed_list` value such as `0-3,8`.
pub fn parse_cpu_list(list: &str) -> Option<usize> {
    let mut n = 0;
    for part in list.trim().split(',') {
        n += match part.split_once('-') {
            None => part.parse::<usize>().map(|_| 1).ok()?,
            Some((lo, hi)) => {
                let (lo, hi): (usize, usize) = (lo.parse().ok()?, hi.parse().ok()?);
                hi.checked_sub(lo)? + 1
            }
        };
    }
    Some(n)
}

/// True when this process may run on exactly one CPU (`run.sh` pinned it).
pub fn pinned() -> bool {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("Cpus_allowed_list:"))?;
            parse_cpu_list(line.split_once(':')?.1)
        })
        == Some(1)
}

/// What the calibration spin takes on the reference host while it is quiet;
/// normalised times are stated at this speed.
pub const CALIB_REF_MS: f64 = 12.5;

/// A fixed piece of work whose wall-clock, in milliseconds, tracks how fast
/// the host runs this kind of program right now: 2000 futex hand-offs
/// between two threads, which is the simulator's own inner loop. It
/// allocates nothing, so the state the simulator leaves the heap in cannot
/// move it. (README "Noise": when a neighbour shares the core, it and every
/// workload slow down by the same factor of about 1.45, while a dependent
/// chain of arithmetic does not notice.)
pub fn calib_spin_ms() -> f64 {
    const HANDOFFS: u32 = 2_000;
    let t0 = Instant::now();
    // The two threads pass a counter back and forth: odd values belong to
    // the helper, even ones to this thread.
    let turn = (Mutex::new(0u32), Condvar::new());
    let pass = |mine: u32| {
        let mut n = turn.0.lock().expect("calibration mutex");
        while *n % 2 != mine {
            n = turn.1.wait(n).expect("calibration mutex");
        }
        *n += 1;
        turn.1.notify_one();
    };
    std::thread::scope(|s| {
        s.spawn(|| (0..HANDOFFS).for_each(|_| pass(1)));
        (0..HANDOFFS).for_each(|_| pass(0));
    });
    t0.elapsed().as_secs_f64() * 1e3
}

/// Host-side cost of one stretch of work, taken as deltas of process-wide
/// counters (valid because a run is one process doing one thing at a time).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCost {
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub handoffs_direct: u64,
    pub handoffs_via_controller: u64,
}

impl HostCost {
    pub fn add(&mut self, o: &HostCost) {
        self.wall_s += o.wall_s;
        self.user_s += o.user_s;
        self.sys_s += o.sys_s;
        self.allocs += o.allocs;
        self.alloc_bytes += o.alloc_bytes;
        self.handoffs_direct += o.handoffs_direct;
        self.handoffs_via_controller += o.handoffs_via_controller;
    }
}

pub struct HostProbe {
    t0: Instant,
    cpu0: (f64, f64),
    alloc0: (u64, u64),
    handoff0: vopp_sim::HandoffStats,
}

impl HostProbe {
    pub fn start() -> HostProbe {
        HostProbe {
            cpu0: cpu_times(),
            alloc0: vopp_bench::alloc_totals(),
            handoff0: vopp_sim::handoff_totals(),
            t0: Instant::now(),
        }
    }

    pub fn finish(self) -> HostCost {
        let wall_s = self.t0.elapsed().as_secs_f64();
        let cpu = cpu_times();
        let alloc = vopp_bench::alloc_totals();
        let handoff = vopp_sim::handoff_totals();
        HostCost {
            wall_s,
            user_s: cpu.0 - self.cpu0.0,
            sys_s: cpu.1 - self.cpu0.1,
            allocs: alloc.0 - self.alloc0.0,
            alloc_bytes: alloc.1 - self.alloc0.1,
            handoffs_direct: handoff.direct - self.handoff0.direct,
            handoffs_via_controller: handoff.via_controller - self.handoff0.via_controller,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.min), (10, 1.0));
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        let s = summarize(&[160.0, 10.0, 80.0, 20.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (15.0, 40.0, 120.0));
        assert_eq!(s.spread(), (120.0 - 15.0) / 40.0);
    }

    #[test]
    fn one_and_two_samples() {
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    1234 567 0 0 20 0 17 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some((12.34, 5.67)));
        assert_eq!(parse_stat_cpu("no parenthesis"), None);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2"), None);
    }

    #[test]
    fn cpu_time_of_this_process_is_readable() {
        let (u, s) = cpu_times();
        assert!(u >= 0.0 && s >= 0.0);
    }

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_cpu_list("1"), Some(1));
        assert_eq!(parse_cpu_list("\t0-1\n"), Some(2));
        assert_eq!(parse_cpu_list("0-3,8,10-11"), Some(7));
        assert_eq!(parse_cpu_list("3-1"), None);
        assert_eq!(parse_cpu_list("x"), None);
    }
}
