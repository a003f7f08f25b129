//! Gauss: iterative in-place matrix processing (paper §3.1, §5.2).
//!
//! The paper's Gauss applies "Gaussian elimination steps" to a large matrix
//! over many iterations, with each processor working on its own share; its
//! data is "read in by individual processors and accessed by the same
//! processor until the end of the program" (§3.1). We realize that
//! structure as repeated block-local Gauss–Seidel sweeps over a row-block
//! partitioned matrix: all reads and writes stay within the processor's
//! block, so the computation itself needs no communication at all.
//!
//! * **Traditional** (LRC_d): the matrix lives in shared memory and is
//!   processed **in place**, with the original program's barrier after
//!   every sweep. Every sweep re-dirties the whole block (twin + diff per
//!   page per interval), each barrier centrally exchanges thousands of
//!   write notices, and block boundaries share pages (rows are not a whole
//!   number of pages), so boundary pages ping-pong between neighbours —
//!   the full false-sharing effect of §3.1.
//! * **VOPP** (VC_d/VC_sd): the paper's restructuring — each processor
//!   copies its view into a local buffer once, iterates locally, and copies
//!   back at the end; the per-sweep barriers disappear because views
//!   provide the exclusion (§3.2). Processor 0 finally reads all views for
//!   output under `acquire_Rview`.

use vopp_core::prelude::*;

use crate::workload::{share, unit_f64};
use crate::AppOutcome;

/// Gauss problem description.
#[derive(Debug, Clone)]
pub struct GaussParams {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns (sized so rows are not a whole number of pages —
    /// block boundaries share pages in the traditional layout).
    pub cols: usize,
    /// Sweeps over the matrix.
    pub iters: usize,
    /// Workload seed.
    pub seed: u64,
}

impl GaussParams {
    /// Small instance for tests.
    pub fn quick() -> GaussParams {
        GaussParams {
            rows: 48,
            cols: 20,
            iters: 5,
            seed: 0x6A,
        }
    }

    /// The benchmark instance (scaled from the paper's 2048x2048; see
    /// EXPERIMENTS.md).
    pub fn bench() -> GaussParams {
        GaussParams {
            rows: 1024,
            cols: 768,
            iters: 64,
            seed: 0x6A,
        }
    }

    /// Initial matrix value at `(i, j)`.
    #[inline]
    pub fn m0(&self, i: usize, j: usize) -> f64 {
        unit_f64(self.seed, (i * self.cols + j) as u64)
    }

    /// Checksum weight.
    #[inline]
    fn w(&self, idx: usize) -> f64 {
        unit_f64(self.seed ^ 0xC5C5, idx as u64)
    }

    /// Initial rows `[rs, re)` as a dense row-major block.
    pub fn init_rows(&self, rs: usize, re: usize) -> Vec<f64> {
        let mut m = Vec::with_capacity((re - rs) * self.cols);
        for i in rs..re {
            for j in 0..self.cols {
                m.push(self.m0(i, j));
            }
        }
        m
    }
}

/// One in-place Gauss–Seidel sweep over a block of rows, with the stencil
/// clamped to the block (the computation is block-local by construction).
/// Shared by the reference and both parallel versions.
///
/// A wavefront over groups of four rows: row `k` of a group runs `k`
/// columns behind row `k - 1`, so the group's four `left` dependency chains
/// interleave instead of running one after another. When element `(i, j)`
/// is computed, `(i - 1, j)` and `(i, j - 1)` are already new and
/// `(i + 1, j)` and `(i, j + 1)` still old, exactly as in the row-by-row
/// loop, and every value is `0.25 * (up + down + left + right)` added in
/// that order, so the result is bit-for-bit the row-by-row sweep's.
/// Edge columns, the wavefront's ramps, the last `nrows % GROUP` rows and
/// blocks narrower than 6 columns go through `relax` one element at a
/// time.
pub fn sweep_block(blk: &mut [f64], nrows: usize, cols: usize) {
    debug_assert_eq!(blk.len(), nrows * cols);
    let grouped = if cols < 2 + GROUP {
        0
    } else {
        nrows / GROUP * GROUP
    };
    for r in (0..grouped).step_by(GROUP) {
        sweep_group(blk, nrows, cols, r);
    }
    for i in grouped..nrows {
        for j in 0..cols {
            relax(blk, nrows, cols, i, j);
        }
    }
}

/// Rows per wavefront group (`sweep_group`'s steady state is written out
/// for four).
const GROUP: usize = 4;

/// The clamped stencil update of element `(i, j)`.
#[inline(always)]
fn relax(blk: &mut [f64], nrows: usize, cols: usize, i: usize, j: usize) {
    let up = blk[i.saturating_sub(1) * cols + j];
    let down = blk[(i + 1).min(nrows - 1) * cols + j];
    let left = blk[i * cols + j.saturating_sub(1)];
    let right = blk[i * cols + (j + 1).min(cols - 1)];
    blk[i * cols + j] = 0.25 * (up + down + left + right);
}

/// Rows `r..r + GROUP` as a wavefront (`cols >= 2 + GROUP`). Step `t`
/// computes column `t - k` of row `r + k`; in steps `GROUP..cols - 1` every
/// row is at an interior column and keeps its `left` neighbour, the value
/// it computed the step before, in a register.
fn sweep_group(blk: &mut [f64], nrows: usize, cols: usize, r: usize) {
    // The ramp in: steps 0..GROUP reach columns 0..GROUP.
    for t in 0..GROUP {
        for k in 0..=t {
            relax(blk, nrows, cols, r + k, t - k);
        }
    }
    let row = |k: usize| (r + k) * cols;
    // Above the first row and below the last, clamped at the block's edge
    // (where the element reads itself, still old).
    let up = r.saturating_sub(1) * cols;
    let down = (r + GROUP).min(nrows - 1) * cols;
    let (o0, o1, o2, o3) = (row(0), row(1), row(2), row(3));
    // What each row computed in the ramp's last step, at column 3 - k.
    let mut l0 = blk[o0 + 3];
    let mut l1 = blk[o1 + 2];
    let mut l2 = blk[o2 + 1];
    let mut l3 = blk[o3];
    for t in GROUP..cols - 1 {
        let j = t;
        l0 = 0.25 * (blk[up + j] + blk[o1 + j] + l0 + blk[o0 + j + 1]);
        blk[o0 + j] = l0;
        let j = t - 1;
        l1 = 0.25 * (blk[o0 + j] + blk[o2 + j] + l1 + blk[o1 + j + 1]);
        blk[o1 + j] = l1;
        let j = t - 2;
        l2 = 0.25 * (blk[o1 + j] + blk[o3 + j] + l2 + blk[o2 + j + 1]);
        blk[o2 + j] = l2;
        let j = t - 3;
        l3 = 0.25 * (blk[o2 + j] + blk[down + j] + l3 + blk[o3 + j + 1]);
        blk[o3 + j] = l3;
    }
    // The ramp out: steps cols - 1..cols - 1 + GROUP end at column cols - 1.
    for t in cols - 1..cols - 1 + GROUP {
        for k in t + 1 - cols..GROUP {
            relax(blk, nrows, cols, r + k, t - k);
        }
    }
}

fn checksum(p: &GaussParams, m: &[f64]) -> f64 {
    m.iter().enumerate().map(|(i, v)| v * p.w(i)).sum()
}

/// Sequential reference for `np` processors: the same block-local sweeps.
pub fn gauss_reference(p: &GaussParams, np: usize) -> f64 {
    let mut full = vec![0.0; p.rows * p.cols];
    for q in 0..np {
        let (rs, re) = share(p.rows, q, np);
        let mut blk = p.init_rows(rs, re);
        for _ in 0..p.iters {
            sweep_block(&mut blk, re - rs, p.cols);
        }
        full[rs * p.cols..re * p.cols].copy_from_slice(&blk);
    }
    checksum(p, &full)
}

/// Which program variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaussVariant {
    /// In-place shared-memory processing with per-sweep barriers (LRC_d).
    Traditional,
    /// Local buffers + per-processor views, no per-sweep sync (VC_d/VC_sd).
    Vopp,
}

/// Run Gauss on a simulated cluster; returns proc 0's checksum of the final
/// matrix.
pub fn run_gauss(cfg: &ClusterConfig, p: &GaussParams, variant: GaussVariant) -> AppOutcome<f64> {
    match variant {
        GaussVariant::Traditional => {
            assert!(cfg.protocol.is_lrc_family());
            run_gauss_traditional(cfg, p)
        }
        GaussVariant::Vopp => {
            assert!(cfg.protocol.is_vc());
            run_gauss_vopp(cfg, p)
        }
    }
}

fn run_gauss_traditional(cfg: &ClusterConfig, p: &GaussParams) -> AppOutcome<f64> {
    let np = cfg.nprocs;
    let c = p.cols;
    let mut world = WorldBuilder::new();
    // The whole matrix, packed: block boundaries fall inside pages.
    let matrix = world.alloc_f64(p.rows * c);
    let layout = world.build();
    let p = p.clone();
    let out = run_cluster(cfg, layout, move |ctx| {
        let me = ctx.me();
        let (rs, re) = share(p.rows, me, np);
        let nrows = re - rs;
        // Each processor reads in its share of the input.
        let init = p.init_rows(rs, re);
        matrix.write_at(ctx, rs * c, &init);
        ctx.barrier();
        let mut blk = vec![0.0; nrows * c];
        for _ in 0..p.iters {
            // Process the block in place in shared memory: read it, sweep,
            // write it back. Boundary pages were re-written by neighbours
            // in the previous sweep, so reading them faults (false sharing).
            matrix.read_into(ctx, rs * c, &mut blk);
            sweep_block(&mut blk, nrows, c);
            ctx.flops((4 * nrows * c) as u64);
            matrix.write_at(ctx, rs * c, &blk);
            // The original program's per-sweep barrier (used for access
            // exclusion, §3.2) — under LRC it also maintains consistency.
            ctx.barrier();
        }
        if me == 0 {
            let mut m = vec![0.0; p.rows * c];
            matrix.read_into(ctx, 0, &mut m);
            ctx.flops(2 * (p.rows * c) as u64);
            checksum(&p, &m)
        } else {
            0.0
        }
    });
    AppOutcome {
        value: out.results[0],
        stats: out.stats,
    }
}

fn run_gauss_vopp(cfg: &ClusterConfig, p: &GaussParams) -> AppOutcome<f64> {
    let np = cfg.nprocs;
    let c = p.cols;
    let mut world = WorldBuilder::new();
    // One view per processor block (views never share pages).
    let views: Vec<ViewRegion<f64>> = (0..np)
        .map(|q| {
            let (qs, qe) = share(p.rows, q, np);
            world.view_f64((qe - qs) * c)
        })
        .collect();
    let layout = world.build();
    let p = p.clone();
    let out = run_cluster(cfg, layout, move |ctx| {
        let me = ctx.me();
        let (rs, re) = share(p.rows, me, np);
        let nrows = re - rs;
        // Read in the input through the view, into the local buffer (§3.1).
        let mut blk = p.init_rows(rs, re);
        ctx.with_view(&views[me], |r| r.write_all(ctx, &blk));
        ctx.copy_cost((nrows * c * 8) as u64);
        ctx.barrier();
        // Iterate entirely on the local buffer: no synchronization needed —
        // the per-sweep barriers of the traditional program are gone (§3.2).
        for _ in 0..p.iters {
            sweep_block(&mut blk, nrows, c);
            ctx.flops((4 * nrows * c) as u64);
        }
        // Copy the result back into the view.
        ctx.with_view(&views[me], |r| r.write_all(ctx, &blk));
        ctx.copy_cost((nrows * c * 8) as u64);
        ctx.barrier();
        if me == 0 {
            // Read and print all views (paper's epilogue).
            let mut m = vec![0.0; p.rows * c];
            for (q, view) in views.iter().enumerate() {
                let (qs, qe) = share(p.rows, q, np);
                ctx.with_rview(view, |r| {
                    r.read_into(ctx, 0, &mut m[qs * c..qe * c]);
                });
            }
            ctx.flops(2 * (p.rows * c) as u64);
            checksum(&p, &m)
        } else {
            0.0
        }
    });
    AppOutcome {
        value: out.results[0],
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row-by-row sweep `sweep_block` must equal bit for bit.
    fn textbook_sweep(blk: &mut [f64], nrows: usize, cols: usize) {
        for i in 0..nrows {
            for j in 0..cols {
                let up = blk[i.saturating_sub(1) * cols + j];
                let down = blk[(i + 1).min(nrows - 1) * cols + j];
                let left = blk[i * cols + j.saturating_sub(1)];
                let right = blk[i * cols + (j + 1).min(cols - 1)];
                blk[i * cols + j] = 0.25 * (up + down + left + right);
            }
        }
    }

    #[test]
    fn sweep_equals_textbook_bit_for_bit() {
        // Every leftover row count after 0, 1 and 2 groups, the narrow path
        // and the first wavefront width, and whole blocks of the benchmark.
        let mut shapes: Vec<(usize, usize)> = Vec::new();
        for nrows in 1..=9 {
            shapes.extend((1..=7).map(|cols| (nrows, cols)));
        }
        shapes.extend([(64, 768), (65, 768)]);
        let p = GaussParams::bench();
        for (nrows, cols) in shapes {
            let p = GaussParams { cols, ..p.clone() };
            let mut fast = p.init_rows(0, nrows);
            let mut textbook = fast.clone();
            for _ in 0..3 {
                sweep_block(&mut fast, nrows, cols);
                textbook_sweep(&mut textbook, nrows, cols);
            }
            let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&textbook), "{nrows}x{cols}");
        }
    }

    #[test]
    fn sweep_is_contracting() {
        // Values stay within the initial range (averaging).
        let p = GaussParams::quick();
        let mut blk = p.init_rows(0, p.rows);
        for _ in 0..20 {
            sweep_block(&mut blk, p.rows, p.cols);
        }
        assert!(blk.iter().all(|v| v.is_finite() && (0.0..=1.0).contains(v)));
    }

    #[test]
    fn reference_known_answers() {
        // Recorded from the row-by-row sweep: every cell's check shares
        // `sweep_block` with this oracle, so a kernel change that moved both
        // would pass them all.
        let quick = GaussParams::quick();
        let paper16 = GaussParams {
            iters: 12,
            ..GaussParams::bench()
        };
        let cases = [
            (&quick, 1, 0x406e_77d3_2b30_9fa1),
            (&quick, 4, 0x406e_771b_0a63_d54c),
            (&paper16, 16, 0x4108_099f_4ae1_89b8),
        ];
        for (p, np, known) in cases {
            assert_eq!(gauss_reference(p, np).to_bits(), known, "{p:?} np={np}");
        }
    }

    #[test]
    fn reference_depends_on_partition() {
        let p = GaussParams::quick();
        // Block-local sweeps legitimately differ per processor count.
        assert_ne!(gauss_reference(&p, 2), gauss_reference(&p, 4));
        assert_eq!(gauss_reference(&p, 4), gauss_reference(&p, 4));
    }

    #[test]
    fn traditional_matches_reference_exactly() {
        let p = GaussParams::quick();
        for np in [1, 2, 4] {
            let cfg = ClusterConfig::lossless(np, Protocol::LrcD);
            let out = run_gauss(&cfg, &p, GaussVariant::Traditional);
            assert_eq!(out.value, gauss_reference(&p, np), "np={np}");
        }
    }

    #[test]
    fn vopp_matches_reference_exactly() {
        let p = GaussParams::quick();
        for proto in [Protocol::VcD, Protocol::VcSd] {
            for np in [1, 3, 4] {
                let cfg = ClusterConfig::lossless(np, proto);
                let out = run_gauss(&cfg, &p, GaussVariant::Vopp);
                assert_eq!(out.value, gauss_reference(&p, np), "{proto} np={np}");
            }
        }
    }

    #[test]
    fn false_sharing_only_in_traditional() {
        let p = GaussParams::quick();
        let tr = run_gauss(
            &ClusterConfig::lossless(4, Protocol::LrcD),
            &p,
            GaussVariant::Traditional,
        );
        let vc = run_gauss(
            &ClusterConfig::lossless(4, Protocol::VcSd),
            &p,
            GaussVariant::Vopp,
        );
        // Boundary pages ping-pong under LRC; VOPP never faults.
        assert!(tr.stats.diff_requests() > 0);
        assert_eq!(vc.stats.diff_requests(), 0);
        // §3.2: the VOPP program drops the per-sweep barriers.
        assert!(vc.stats.barriers() < tr.stats.barriers());
    }
}
