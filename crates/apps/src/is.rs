//! Integer Sort (IS): bucket-sort key ranking (paper §3, §5.1).
//!
//! The benchmark ranks `n_keys` integer keys in `[0, bmax)` over `reps`
//! repetitions, accumulating a global histogram and finally ranking every
//! key against it.
//!
//! * **Traditional** (LRC_d): each processor owns a per-processor partial
//!   histogram row in one packed shared array — rows are not page-aligned,
//!   so neighbouring rows share pages (false sharing). Barriers inside the
//!   repetition loop separate the accumulate and read phases.
//! * **VOPP** (VC_d/VC_sd): one global histogram split into `chunks` views;
//!   every processor adds its local counts into every chunk under
//!   `acquire_view`. The standard variant keeps the same barriers as the
//!   traditional program; the **lb** variant hoists the barrier out of the
//!   loop (paper §3.2) — view exclusivity already orders the additions, so
//!   only the final ranking needs a barrier.

use vopp_core::prelude::*;

use crate::workload::{bounded, share};
use crate::AppOutcome;

/// IS problem description.
#[derive(Debug, Clone)]
pub struct IsParams {
    /// Total number of keys.
    pub n_keys: usize,
    /// Number of buckets (chosen so partial-histogram rows straddle pages).
    pub bmax: usize,
    /// Repetitions of the accumulate(+read) phase.
    pub reps: usize,
    /// Number of histogram chunk views in the VOPP version.
    pub chunks: usize,
    /// Workload seed.
    pub seed: u64,
}

impl IsParams {
    /// Small instance for tests.
    pub fn quick() -> IsParams {
        IsParams {
            n_keys: 1 << 12,
            bmax: 600,
            reps: 3,
            chunks: 8,
            seed: 0x15,
        }
    }

    /// The benchmark instance (scaled from the paper's problem size; see
    /// EXPERIMENTS.md).
    pub fn bench() -> IsParams {
        IsParams {
            n_keys: 1 << 23,
            bmax: 6000,
            reps: 40,
            chunks: 32,
            seed: 0x15,
        }
    }

    fn key(&self, i: usize) -> usize {
        bounded(self.seed, i as u64, self.bmax)
    }

    /// Local bucket counts for one processor's key share.
    fn local_counts(&self, me: usize, np: usize) -> Vec<u32> {
        let (ks, ke) = share(self.n_keys, me, np);
        let mut cnt = vec![0u32; self.bmax];
        for i in ks..ke {
            cnt[self.key(i)] += 1;
        }
        cnt
    }
}

/// Which program variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsVariant {
    /// Barrier-phased partial histograms (runs on LRC_d).
    Traditional,
    /// Chunk views, same barrier count as the traditional program.
    Vopp,
    /// Chunk views with the barrier hoisted out of the loop (§3.2).
    VoppLb,
}

/// Per-rep slice index read by `me` at repetition `rep`.
fn slice_of(me: usize, rep: usize, np: usize) -> usize {
    (me + rep) % np
}

/// A per-processor chunk-walk stride coprime to `chunks`, so every
/// processor visits all chunks in a distinct order.
fn coprime_stride(me: usize, chunks: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut s = (2 * me + 1) % chunks.max(1);
    if s == 0 {
        s = 1;
    }
    while gcd(s, chunks) != 1 {
        s += 2;
        if s >= chunks {
            s = 1;
        }
    }
    s
}

/// Sequential reference checksum for `np` processors.
///
/// The checksum folds (a) per-repetition partial reads of the accumulated
/// histogram (skipped by the `lb` variant, whose loop has no barrier to
/// order them) and (b) the final ranking of every key.
pub fn is_reference(p: &IsParams, np: usize, lb: bool) -> u64 {
    let mut cnt_total = vec![0u64; p.bmax];
    for i in 0..p.n_keys {
        cnt_total[p.key(i)] += 1;
    }
    let mut cks = 0u64;
    if !lb {
        for rep in 0..p.reps {
            let mult = rep as u64 + 1;
            for q in 0..np {
                let (bs, be) = share(p.bmax, slice_of(q, rep, np), np);
                for cnt in &cnt_total[bs..be] {
                    cks = cks.wrapping_add(cnt * mult);
                }
            }
        }
    }
    // Final ranking against the fully accumulated histogram.
    let reps = p.reps as u64;
    let mut prefix = vec![0u64; p.bmax];
    let mut acc = 0u64;
    for (pref, cnt) in prefix.iter_mut().zip(&cnt_total) {
        *pref = acc;
        acc += cnt * reps;
    }
    for i in 0..p.n_keys {
        cks = cks.wrapping_add(prefix[p.key(i)]);
    }
    cks
}

/// Run IS on a simulated cluster.
pub fn run_is(cfg: &ClusterConfig, p: &IsParams, variant: IsVariant) -> AppOutcome<u64> {
    match variant {
        IsVariant::Traditional => {
            assert!(
                cfg.protocol.is_lrc_family(),
                "traditional IS runs on LRC_d/HLRC_d"
            );
            run_is_traditional(cfg, p)
        }
        IsVariant::Vopp | IsVariant::VoppLb => {
            assert!(cfg.protocol.is_vc(), "VOPP IS runs on VC_d / VC_sd");
            run_is_vopp(cfg, p, variant == IsVariant::VoppLb)
        }
    }
}

fn run_is_traditional(cfg: &ClusterConfig, p: &IsParams) -> AppOutcome<u64> {
    let np = cfg.nprocs;
    let mut world = WorldBuilder::new();
    // One packed array of per-processor rows: rows straddle page boundaries.
    let partials = world.alloc_u32(np * p.bmax);
    let layout = world.build();
    let p = p.clone();
    let out = run_cluster(cfg, layout, move |ctx| {
        let me = ctx.me();
        let (ks, ke) = share(p.n_keys, me, np);
        let nk = (ke - ks) as u64;
        let cnt = p.local_counts(me, np);
        let mut cks = 0u64;
        let my_row = me * p.bmax;
        let mut row = vec![0u32; p.bmax];
        for rep in 0..p.reps {
            // Count this processor's keys (identical every rep; the work is
            // charged every rep, as the original program recounts).
            ctx.int_ops(5 * nk);
            // Accumulate into my shared partial row.
            partials.read_into(ctx, my_row, &mut row);
            for (r, c) in row.iter_mut().zip(&cnt) {
                *r += c;
            }
            ctx.int_ops(p.bmax as u64);
            partials.write_at(ctx, my_row, &row);
            ctx.barrier();
            // Read my rotating slice of the accumulated histogram.
            let (bs, be) = share(p.bmax, slice_of(me, rep, np), np);
            let mut buf = vec![0u32; be - bs];
            for q in 0..np {
                partials.read_into(ctx, q * p.bmax + bs, &mut buf);
                for v in &buf {
                    cks = cks.wrapping_add(*v as u64);
                }
            }
            ctx.int_ops((np * (be - bs)) as u64);
            ctx.barrier();
        }
        // Final ranking: read every partial row, build the histogram.
        let mut hist = vec![0u64; p.bmax];
        for q in 0..np {
            partials.read_into(ctx, q * p.bmax, &mut row);
            for (h, v) in hist.iter_mut().zip(&row) {
                *h += *v as u64;
            }
        }
        ctx.int_ops((np * p.bmax) as u64);
        let mut prefix = vec![0u64; p.bmax];
        let mut acc = 0u64;
        for b in 0..p.bmax {
            prefix[b] = acc;
            acc += hist[b];
        }
        for i in ks..ke {
            cks = cks.wrapping_add(prefix[p.key(i)]);
        }
        ctx.int_ops(2 * nk + p.bmax as u64);
        cks
    });
    AppOutcome {
        value: out.results.iter().fold(0u64, |a, b| a.wrapping_add(*b)),
        stats: out.stats,
    }
}

fn run_is_vopp(cfg: &ClusterConfig, p: &IsParams, lb: bool) -> AppOutcome<u64> {
    let np = cfg.nprocs;
    let mut world = WorldBuilder::new();
    // The global histogram, split into chunk views.
    let chunk_views: Vec<_> = (0..p.chunks)
        .map(|c| {
            let (bs, be) = share(p.bmax, c, p.chunks);
            world.view_u32(be - bs)
        })
        .collect();
    let layout = world.build();
    let p = p.clone();
    let out = run_cluster(cfg, layout, move |ctx| {
        let me = ctx.me();
        let (ks, ke) = share(p.n_keys, me, np);
        let nk = (ke - ks) as u64;
        let cnt = p.local_counts(me, np);
        let mut cks = 0u64;
        // One buffer for every view access: no chunk is longer than this.
        let mut buf = vec![0u32; p.bmax.div_ceil(p.chunks)];
        for rep in 0..p.reps {
            ctx.int_ops(5 * nk);
            // Add local counts into every chunk. Each processor walks the
            // chunks with its own odd stride (coprime to any chunk count),
            // so processors never fall into a persistent convoy behind one
            // another — the "wise use of view primitives" of §3.6.
            let start = (me * p.chunks / np + rep) % p.chunks;
            let stride = coprime_stride(me, p.chunks);
            for k in 0..p.chunks {
                let c = (start + k * stride) % p.chunks;
                let (bs, be) = share(p.bmax, c, p.chunks);
                let cv = &chunk_views[c];
                let buf = &mut buf[..be - bs];
                ctx.with_view(cv, |r| {
                    r.read_into(ctx, 0, buf);
                    for (v, b) in buf.iter_mut().zip(bs..be) {
                        *v += cnt[b];
                    }
                    r.write_all(ctx, buf);
                });
                ctx.int_ops((be - bs) as u64);
            }
            if !lb {
                ctx.barrier();
                // Read my rotating slice under read views.
                let (bs, be) = share(p.bmax, slice_of(me, rep, np), np);
                for (c, cv) in chunk_views.iter().enumerate() {
                    let (cs, ce) = share(p.bmax, c, p.chunks);
                    let lo = bs.max(cs);
                    let hi = be.min(ce);
                    if lo >= hi {
                        continue;
                    }
                    let buf = &mut buf[..hi - lo];
                    ctx.with_rview(cv, |r| {
                        r.read_into(ctx, lo - cs, buf);
                        for v in buf.iter() {
                            cks = cks.wrapping_add(*v as u64);
                        }
                    });
                }
                ctx.int_ops((be - bs) as u64);
                ctx.barrier();
            }
        }
        // Final ranking: read the whole histogram under read views.
        ctx.barrier();
        let mut hist = vec![0u64; p.bmax];
        for (c, cv) in chunk_views.iter().enumerate() {
            let (cs, ce) = share(p.bmax, c, p.chunks);
            let buf = &mut buf[..ce - cs];
            ctx.with_rview(cv, |r| {
                r.read_into(ctx, 0, buf);
                for (b, v) in (cs..ce).zip(buf.iter()) {
                    hist[b] = *v as u64;
                }
            });
        }
        ctx.int_ops(p.bmax as u64);
        let mut prefix = vec![0u64; p.bmax];
        let mut acc = 0u64;
        for b in 0..p.bmax {
            prefix[b] = acc;
            acc += hist[b];
        }
        for i in ks..ke {
            cks = cks.wrapping_add(prefix[p.key(i)]);
        }
        ctx.int_ops(2 * nk + p.bmax as u64);
        cks
    });
    AppOutcome {
        value: out.results.iter().fold(0u64, |a, b| a.wrapping_add(*b)),
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic() {
        let p = IsParams::quick();
        assert_eq!(is_reference(&p, 4, false), is_reference(&p, 4, false));
        // The rotated slices of all processors tile the whole histogram, so
        // the folded checksum is processor-count invariant.
        assert_eq!(is_reference(&p, 2, false), is_reference(&p, 4, false));
        assert_eq!(is_reference(&p, 2, true), is_reference(&p, 4, true));
        // The lb variant folds only the final ranking.
        assert_ne!(is_reference(&p, 4, false), is_reference(&p, 4, true));
    }

    #[test]
    fn traditional_matches_reference() {
        let p = IsParams::quick();
        let cfg = ClusterConfig::lossless(4, Protocol::LrcD);
        let out = run_is(&cfg, &p, IsVariant::Traditional);
        assert_eq!(out.value, is_reference(&p, 4, false));
    }

    #[test]
    fn vopp_matches_reference_on_both_vc() {
        let p = IsParams::quick();
        for proto in [Protocol::VcD, Protocol::VcSd] {
            let cfg = ClusterConfig::lossless(4, proto);
            let out = run_is(&cfg, &p, IsVariant::Vopp);
            assert_eq!(out.value, is_reference(&p, 4, false), "{proto}");
        }
    }

    #[test]
    fn vopp_lb_matches_lb_reference() {
        let p = IsParams::quick();
        let cfg = ClusterConfig::lossless(4, Protocol::VcSd);
        let out = run_is(&cfg, &p, IsVariant::VoppLb);
        assert_eq!(out.value, is_reference(&p, 4, true));
    }

    #[test]
    fn lb_uses_one_barrier() {
        let p = IsParams::quick();
        let cfg = ClusterConfig::lossless(2, Protocol::VcSd);
        let std = run_is(&cfg, &p, IsVariant::Vopp);
        let lb = run_is(&cfg, &p, IsVariant::VoppLb);
        assert_eq!(std.stats.barriers(), 2 * p.reps as u64 + 1);
        assert_eq!(lb.stats.barriers(), 1);
        assert!(
            lb.stats.time < std.stats.time,
            "hoisting the barrier must not slow IS down"
        );
    }

    #[test]
    fn traditional_has_zero_acquires() {
        // Table 1: the traditional IS is barrier-only.
        let p = IsParams::quick();
        let cfg = ClusterConfig::lossless(4, Protocol::LrcD);
        let out = run_is(&cfg, &p, IsVariant::Traditional);
        assert_eq!(out.stats.acquires(), 0);
        assert!(
            out.stats.diff_requests() > 0,
            "false sharing must cause diff requests"
        );
    }

    #[test]
    fn vopp_acquire_count_formula() {
        // reps * chunks write-acquires per proc + per-rep slice rviews +
        // final chunk rviews.
        let p = IsParams::quick();
        let np = 4;
        let cfg = ClusterConfig::lossless(np, Protocol::VcSd);
        let out = run_is(&cfg, &p, IsVariant::Vopp);
        let writes = (p.reps * np * p.chunks) as u64;
        let final_reads = (np * p.chunks) as u64;
        assert!(out.stats.acquires() >= writes + final_reads);
        let lbout = run_is(&cfg, &p, IsVariant::VoppLb);
        assert_eq!(lbout.stats.acquires(), writes + final_reads);
    }

    #[test]
    fn single_proc_runs() {
        let p = IsParams::quick();
        let out = run_is(
            &ClusterConfig::lossless(1, Protocol::VcSd),
            &p,
            IsVariant::Vopp,
        );
        assert_eq!(out.value, is_reference(&p, 1, false));
    }
}
