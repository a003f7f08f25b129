//! SOR: iterative grid relaxation with border exchange (paper §3.3, §5.3).
//!
//! A 2-D grid is relaxed with a 5-point Jacobi stencil for `iters`
//! iterations; the grid's outer frame is a fixed boundary condition.
//! Row blocks are distributed over processors; each iteration needs the
//! neighbouring blocks' edge rows.
//!
//! * **Traditional** (LRC_d): the whole grid (two ping-pong copies) lives in
//!   shared memory. Column counts are chosen so block boundaries fall inside
//!   pages: the pages holding edge rows have two writers (false sharing),
//!   and every iteration's barrier carries the consistency load of a whole
//!   block of dirty pages per processor.
//! * **VOPP**: blocks live in local buffers (paper §3.1); only the edge
//!   rows are shared, through dedicated border views (§3.3), ping-ponged by
//!   iteration parity. At the end each block is published once through a
//!   result view so processor 0 can assemble the answer — the paper's
//!   "read and print the whole matrix" epilogue.

use vopp_core::prelude::*;

use crate::workload::{share, unit_f64};
use crate::AppOutcome;

/// SOR problem description.
#[derive(Debug, Clone)]
pub struct SorParams {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns (sized so rows are a fraction of a page).
    pub cols: usize,
    /// Jacobi iterations.
    pub iters: usize,
    /// Workload seed.
    pub seed: u64,
}

impl SorParams {
    /// Small instance for tests.
    pub fn quick() -> SorParams {
        SorParams {
            rows: 40,
            cols: 24,
            iters: 5,
            seed: 0x50,
        }
    }

    /// The benchmark instance (scaled from the paper; see EXPERIMENTS.md).
    pub fn bench() -> SorParams {
        SorParams {
            rows: 2048,
            cols: 256,
            iters: 50,
            seed: 0x50,
        }
    }

    /// Initial grid value at `(i, j)`.
    #[inline]
    pub fn g0(&self, i: usize, j: usize) -> f64 {
        unit_f64(self.seed, (i * self.cols + j) as u64)
    }

    /// Checksum weight.
    #[inline]
    fn w(&self, idx: usize) -> f64 {
        unit_f64(self.seed ^ 0xD00D, idx as u64)
    }

    /// Initial rows `[rs, re)` as a dense row-major block.
    pub fn init_rows(&self, rs: usize, re: usize) -> Vec<f64> {
        let mut g = Vec::with_capacity((re - rs) * self.cols);
        for i in rs..re {
            for j in 0..self.cols {
                g.push(self.g0(i, j));
            }
        }
        g
    }
}

/// Relax one interior row: `up`, `mid`, `down` are rows `i-1`, `i`, `i+1`
/// of the current grid; boundary columns are copied through. Shared by the
/// reference and both parallel versions for bit-exact agreement.
#[inline]
pub fn relax_row(up: &[f64], mid: &[f64], down: &[f64], out: &mut [f64]) {
    let c = mid.len();
    out[0] = mid[0];
    out[c - 1] = mid[c - 1];
    for j in 1..c - 1 {
        out[j] = 0.25 * (up[j] + down[j] + mid[j - 1] + mid[j + 1]);
    }
}

fn checksum(p: &SorParams, grid: &[f64]) -> f64 {
    grid.iter().enumerate().map(|(i, v)| v * p.w(i)).sum()
}

/// Sequential reference: checksum of the final grid.
pub fn sor_reference(p: &SorParams) -> f64 {
    let c = p.cols;
    let mut cur = p.init_rows(0, p.rows);
    let mut next = cur.clone();
    for _ in 0..p.iters {
        for i in 1..p.rows - 1 {
            let (up, rest) = cur[(i - 1) * c..].split_at(c);
            let (mid, down) = rest.split_at(c);
            relax_row(up, mid, &down[..c], &mut next[i * c..(i + 1) * c]);
        }
        std::mem::swap(&mut cur, &mut next);
    }
    checksum(p, &cur)
}

/// Which program variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SorVariant {
    /// Whole grid in shared memory (LRC_d).
    Traditional,
    /// Local blocks + border views (VC_d / VC_sd).
    Vopp,
}

/// Run SOR on a simulated cluster. Returns proc 0's checksum of the final
/// grid.
pub fn run_sor(cfg: &ClusterConfig, p: &SorParams, variant: SorVariant) -> AppOutcome<f64> {
    match variant {
        SorVariant::Traditional => {
            assert!(cfg.protocol.is_lrc_family());
            run_sor_traditional(cfg, p)
        }
        SorVariant::Vopp => {
            assert!(cfg.protocol.is_vc());
            run_sor_vopp(cfg, p)
        }
    }
}

/// Relax this block's interior rows. `blk` holds rows `[rs, re)`; halo rows
/// are the rows just outside the block (empty slices at the global edges).
#[allow(clippy::too_many_arguments)]
fn relax_block(
    p: &SorParams,
    rs: usize,
    re: usize,
    blk: &[f64],
    halo_top: &[f64],
    halo_bot: &[f64],
    next: &mut [f64],
) {
    let c = p.cols;
    for i in rs..re {
        let li = i - rs;
        let out_range = li * c..(li + 1) * c;
        if i == 0 || i == p.rows - 1 {
            // Fixed boundary rows keep their values.
            next[out_range.clone()].copy_from_slice(&blk[out_range]);
            continue;
        }
        let up: &[f64] = if li == 0 {
            halo_top
        } else {
            &blk[(li - 1) * c..li * c]
        };
        let down: &[f64] = if i + 1 == re {
            halo_bot
        } else {
            &blk[(li + 1) * c..(li + 2) * c]
        };
        let mid = &blk[li * c..(li + 1) * c];
        relax_row(up, mid, down, &mut next[out_range]);
    }
}

fn run_sor_traditional(cfg: &ClusterConfig, p: &SorParams) -> AppOutcome<f64> {
    let np = cfg.nprocs;
    let c = p.cols;
    let mut world = WorldBuilder::new();
    let ga = world.alloc_f64(p.rows * c);
    let gb = world.alloc_f64(p.rows * c);
    let layout = world.build();
    let p = p.clone();
    let out = run_cluster(cfg, layout, move |ctx| {
        let me = ctx.me();
        let (rs, re) = share(p.rows, me, np);
        let rows = re - rs;
        // Initialize both ping-pong grids over my rows.
        let init = p.init_rows(rs, re);
        ga.write_at(ctx, rs * c, &init);
        gb.write_at(ctx, rs * c, &init);
        ctx.barrier();
        let mut blk = vec![0.0; rows * c];
        let mut next = vec![0.0; rows * c];
        let mut halo_top = vec![0.0; if rs > 0 { c } else { 0 }];
        let mut halo_bot = vec![0.0; if re < p.rows { c } else { 0 }];
        for it in 0..p.iters {
            let (src, dst) = if it % 2 == 0 { (&ga, &gb) } else { (&gb, &ga) };
            // Read my block and the halo rows from shared memory; the halo
            // pages were written by neighbours (diff fetches, false sharing).
            src.read_into(ctx, rs * c, &mut blk);
            if rs > 0 {
                src.read_into(ctx, (rs - 1) * c, &mut halo_top);
            }
            if re < p.rows {
                src.read_into(ctx, re * c, &mut halo_bot);
            }
            relax_block(&p, rs, re, &blk, &halo_top, &halo_bot, &mut next);
            ctx.flops((4 * rows * c) as u64);
            dst.write_at(ctx, rs * c, &next);
            ctx.barrier();
        }
        if me == 0 {
            let fin = if p.iters.is_multiple_of(2) { &ga } else { &gb };
            let mut g = vec![0.0; p.rows * c];
            fin.read_into(ctx, 0, &mut g);
            checksum(&p, &g)
        } else {
            0.0
        }
    });
    AppOutcome {
        value: out.results[0],
        stats: out.stats,
    }
}

fn run_sor_vopp(cfg: &ClusterConfig, p: &SorParams) -> AppOutcome<f64> {
    let np = cfg.nprocs;
    let c = p.cols;
    let mut world = WorldBuilder::new();
    // Border views: [parity][proc] for top and bottom edge rows.
    let top: Vec<Vec<ViewRegion<f64>>> = (0..2).map(|_| world.views_f64(np, c)).collect();
    let bot: Vec<Vec<ViewRegion<f64>>> = (0..2).map(|_| world.views_f64(np, c)).collect();
    // Result views for the final gather.
    let result: Vec<ViewRegion<f64>> = (0..np)
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
        let rows = re - rs;
        // The grid block lives in a local buffer (paper §3.1).
        let mut blk = p.init_rows(rs, re);
        ctx.copy_cost((rows * c * 8) as u64);
        let mut next = vec![0.0; rows * c];
        // Publish initial edges into the parity-0 border views.
        ctx.with_view(&top[0][me], |r| r.write_all(ctx, &blk[..c]));
        ctx.with_view(&bot[0][me], |r| r.write_all(ctx, &blk[(rows - 1) * c..]));
        ctx.barrier();
        let mut halo_top = vec![0.0; if rs > 0 { c } else { 0 }];
        let mut halo_bot = vec![0.0; if re < p.rows { c } else { 0 }];
        for it in 0..p.iters {
            let par = it % 2;
            // Read neighbours' edge rows of the current iterate.
            if rs > 0 {
                ctx.with_rview(&bot[par][me - 1], |r| r.read_into(ctx, 0, &mut halo_top));
            }
            if re < p.rows {
                ctx.with_rview(&top[par][me + 1], |r| r.read_into(ctx, 0, &mut halo_bot));
            }
            relax_block(&p, rs, re, &blk, &halo_top, &halo_bot, &mut next);
            ctx.flops((4 * rows * c) as u64);
            std::mem::swap(&mut blk, &mut next);
            // Publish my new edges for the next iteration's parity.
            let np_par = (it + 1) % 2;
            ctx.with_view(&top[np_par][me], |r| r.write_all(ctx, &blk[..c]));
            ctx.with_view(&bot[np_par][me], |r| {
                r.write_all(ctx, &blk[(rows - 1) * c..])
            });
            ctx.barrier();
        }
        // Publish the final block; proc 0 gathers and checksums.
        ctx.with_view(&result[me], |r| r.write_all(ctx, &blk));
        ctx.barrier();
        if me == 0 {
            let mut g = vec![0.0; p.rows * c];
            for (q, res) in result.iter().enumerate() {
                let (qs, qe) = share(p.rows, q, np);
                ctx.with_rview(res, |r| {
                    r.read_into(ctx, 0, &mut g[qs * c..qe * c]);
                });
            }
            checksum(&p, &g)
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

    #[test]
    fn reference_is_smooth() {
        // After many iterations interior values head towards the mean of
        // their neighbours; sanity: no NaNs and values stay in [0, 1].
        let p = SorParams {
            iters: 50,
            ..SorParams::quick()
        };
        let mut cur = p.init_rows(0, p.rows);
        let mut next = cur.clone();
        for _ in 0..p.iters {
            let c = p.cols;
            for i in 1..p.rows - 1 {
                relax_row(
                    &cur[(i - 1) * c..i * c],
                    &cur[i * c..(i + 1) * c],
                    &cur[(i + 1) * c..(i + 2) * c],
                    &mut next[i * c..(i + 1) * c],
                );
            }
            std::mem::swap(&mut cur, &mut next);
        }
        assert!(cur.iter().all(|v| v.is_finite() && (0.0..=1.0).contains(v)));
    }

    #[test]
    fn traditional_matches_reference_exactly() {
        let p = SorParams::quick();
        let cfg = ClusterConfig::lossless(4, Protocol::LrcD);
        let out = run_sor(&cfg, &p, SorVariant::Traditional);
        assert_eq!(out.value, sor_reference(&p));
    }

    #[test]
    fn vopp_matches_reference_exactly() {
        let p = SorParams::quick();
        for proto in [Protocol::VcD, Protocol::VcSd] {
            for np in [1, 3, 4] {
                let cfg = ClusterConfig::lossless(np, proto);
                let out = run_sor(&cfg, &p, SorVariant::Vopp);
                assert_eq!(out.value, sor_reference(&p), "{proto} np={np}");
            }
        }
    }

    #[test]
    fn vopp_moves_far_less_data() {
        let p = SorParams {
            rows: 64,
            cols: 32,
            iters: 8,
            seed: 1,
        };
        let tr = run_sor(
            &ClusterConfig::lossless(4, Protocol::LrcD),
            &p,
            SorVariant::Traditional,
        );
        let vc = run_sor(
            &ClusterConfig::lossless(4, Protocol::VcSd),
            &p,
            SorVariant::Vopp,
        );
        // Border views move only edge rows; the traditional version's
        // false sharing moves whole pages (Table 6's Data row shape).
        assert!(
            vc.stats.data_mbytes() < tr.stats.data_mbytes(),
            "vopp {} MB vs traditional {} MB",
            vc.stats.data_mbytes(),
            tr.stats.data_mbytes()
        );
    }
}
