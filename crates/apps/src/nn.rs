//! NN: back-propagation neural-network training (paper §3.1, §3.4, §5.4).
//!
//! A two-layer sigmoid MLP is trained by full-batch gradient descent on a
//! synthetic regression set. Each epoch every processor computes the
//! gradient over its training-data shard (local buffers, §3.1); the
//! gradients are combined and the weights updated before the next epoch.
//!
//! * **Traditional** (LRC_d): weights and per-processor gradient slots live
//!   in shared memory ("the errors of the weights are gathered from each
//!   processor"); the packed slots share pages (false sharing) and every
//!   barrier carries their consistency.
//! * **VOPP**: weights live in views read under `acquire_Rview` — the §3.4
//!   optimization that lets every processor read them concurrently; each
//!   processor publishes its gradient through its own view.
//! * **MPI**: gradients are `allreduce`d and every rank updates its own
//!   replica — the paper's MPICH baseline for Table 9.

use std::iter::StepBy;
use std::ops::Range;

use vopp_core::prelude::*;
use vopp_mpi::run_mpi;

use crate::workload::{share, unit_f64};
use crate::AppOutcome;

/// NN problem description.
#[derive(Debug, Clone)]
pub struct NnParams {
    /// Input units.
    pub n_in: usize,
    /// Hidden units.
    pub n_hidden: usize,
    /// Output units.
    pub n_out: usize,
    /// Training samples (sharded over processors).
    pub samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Workload seed.
    pub seed: u64,
}

impl NnParams {
    /// Small instance for tests.
    pub fn quick() -> NnParams {
        NnParams {
            n_in: 6,
            n_hidden: 8,
            n_out: 3,
            samples: 64,
            epochs: 4,
            lr: 0.05,
            seed: 0xA7,
        }
    }

    /// The benchmark instance (scaled; the paper trains for 235 epochs).
    pub fn bench() -> NnParams {
        NnParams {
            n_in: 16,
            n_hidden: 64,
            n_out: 8,
            samples: 4096,
            epochs: 100,
            lr: 0.02,
            seed: 0xA7,
        }
    }

    /// Weight count of layer 1 (including biases).
    pub fn w1_len(&self) -> usize {
        (self.n_in + 1) * self.n_hidden
    }

    /// Weight count of layer 2 (including biases).
    pub fn w2_len(&self) -> usize {
        (self.n_hidden + 1) * self.n_out
    }

    /// Total weight count.
    pub fn w_len(&self) -> usize {
        self.w1_len() + self.w2_len()
    }

    /// Initial weights (identical on every node).
    pub fn init_weights(&self) -> Vec<f64> {
        (0..self.w_len())
            .map(|i| (unit_f64(self.seed ^ 0x11, i as u64) - 0.5) * 0.5)
            .collect()
    }

    /// Approximate flops of one sample's forward+backward pass.
    pub fn flops_per_sample(&self) -> u64 {
        (4 * (self.n_in * self.n_hidden + self.n_hidden * self.n_out)) as u64
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Quantization grid for shard gradients: rounding each component to a
/// multiple of 2^-32 makes cross-shard summation *exactly* associative and
/// commutative (sums of < 2^20-magnitude multiples of 2^-32 are exact in
/// f64), so every schedule — sequential, lock order, view order, allreduce
/// tree — produces bit-identical training.
pub const GRAD_QUANTUM: f64 = 4_294_967_296.0; // 2^32

/// Samples per pass of [`Shard::gradient`]: a shard runs its samples in
/// batches of `NB` and its last `samples % NB` one at a time, through the
/// same kernels.
const NB: usize = 4;

/// Output columns per register block: the block's `NC × B` sums stay in
/// registers while each weight (or gradient) row is read once per batch. A
/// layer's last `width % NC` columns are blocks of one.
const NC: usize = 4;

/// The starts of the `W`-wide blocks of `0..n`, then of the leftover
/// one-wide blocks.
fn blocks<const W: usize>(n: usize) -> (StepBy<Range<usize>>, Range<usize>) {
    let full = n - n % W;
    ((0..full).step_by(W), full..n)
}

// The kernels work on batches of `B` samples stored unit-major: the `B`
// values of input, hidden or output unit `u` (one per sample) are
// `buf[u * B..][..B]`. Every sum is the textbook loop's (`tests::backprop`)
// term for term: it starts from the bias or `0.0` and adds its terms in
// ascending `i` or `k`, and a gradient element adds one term per sample in
// sample order. Batching and blocking change which independent sums are in
// flight, never the order inside one, so every `f64` is the textbook's.

/// `out[j][s] = sigmoid(bias[j] + Σ_i w[i][j] * input[i][s])`. `w` is
/// row-major with the biases as its last row.
fn layer<const B: usize>(w: &[f64], input: &[f64], out: &mut [f64]) {
    let (wide, narrow) = blocks::<NC>(out.len() / B);
    layer_cols::<B, NC>(w, input, out, wide);
    layer_cols::<B, 1>(w, input, out, narrow);
}

fn layer_cols<const B: usize, const C: usize>(
    w: &[f64],
    input: &[f64],
    out: &mut [f64],
    cols: impl Iterator<Item = usize>,
) {
    let n = out.len() / B;
    let (rows, bias) = w.split_at(input.len() / B * n);
    let input = input.as_chunks::<B>().0;
    for c0 in cols {
        let mut z: [[f64; B]; C] = std::array::from_fn(|c| [bias[c0 + c]; B]);
        for (row, xi) in rows.chunks_exact(n).zip(input) {
            for (zj, wij) in z.iter_mut().zip(&row[c0..][..C]) {
                for (zjs, xis) in zj.iter_mut().zip(xi) {
                    *zjs += wij * xis;
                }
            }
        }
        let out = &mut out[c0 * B..][..C * B];
        for (oj, zj) in out.iter_mut().zip(z.as_flattened()) {
            *oj = sigmoid(*zj);
        }
    }
}

/// `delta_h[j][s] = (Σ_k w2[j][k] * delta_o[k][s]) * h * (1 - h)` with
/// `h = h[j][s]`.
fn back<const B: usize>(w2: &[f64], delta_o: &[f64], h: &[f64], delta_h: &mut [f64]) {
    let (wide, narrow) = blocks::<NC>(h.len() / B);
    back_rows::<B, NC>(w2, delta_o, h, delta_h, wide);
    back_rows::<B, 1>(w2, delta_o, h, delta_h, narrow);
}

fn back_rows<const B: usize, const C: usize>(
    w2: &[f64],
    delta_o: &[f64],
    h: &[f64],
    delta_h: &mut [f64],
    rows: impl Iterator<Item = usize>,
) {
    let n_out = delta_o.len() / B;
    let delta_o = delta_o.as_chunks::<B>().0;
    for j0 in rows {
        let w: [&[f64]; C] = std::array::from_fn(|c| &w2[(j0 + c) * n_out..][..n_out]);
        let mut sum = [[0.0; B]; C];
        for (k, dk) in delta_o.iter().enumerate() {
            for (sj, wj) in sum.iter_mut().zip(&w) {
                for (sjs, dks) in sj.iter_mut().zip(dk) {
                    *sjs += wj[k] * dks;
                }
            }
        }
        let span = j0 * B..(j0 + C) * B;
        for ((dj, sj), hj) in delta_h[span.clone()]
            .iter_mut()
            .zip(sum.as_flattened())
            .zip(&h[span])
        {
            *dj = sj * hj * (1.0 - hj);
        }
    }
}

/// `g[i][j] += input[i][s] * delta[j][s]` for each sample `s` in order. The
/// last row of `g` belongs to the biases, whose input is the constant 1
/// (`1.0 * d == d` exactly).
fn accumulate<const B: usize>(g: &mut [f64], input: &[f64], delta: &[f64]) {
    let (wide, narrow) = blocks::<NC>(delta.len() / B);
    accumulate_cols::<B, NC>(g, input, delta, wide);
    accumulate_cols::<B, 1>(g, input, delta, narrow);
}

fn accumulate_cols<const B: usize, const C: usize>(
    g: &mut [f64],
    input: &[f64],
    delta: &[f64],
    cols: impl Iterator<Item = usize>,
) {
    let n = delta.len() / B;
    let inputs = input.as_chunks::<B>().0.iter().chain(&[[1.0; B]]);
    for c0 in cols {
        let d = &delta[c0 * B..][..C * B];
        let d: [[f64; C]; B] = std::array::from_fn(|s| std::array::from_fn(|c| d[c * B + s]));
        for (row, xi) in g.chunks_exact_mut(n).zip(inputs.clone()) {
            let gi = &mut row[c0..][..C];
            let mut acc: [f64; C] = std::array::from_fn(|c| gi[c]);
            for (xis, ds) in xi.iter().zip(&d) {
                for (aj, dsj) in acc.iter_mut().zip(ds) {
                    *aj += xis * dsj;
                }
            }
            gi.copy_from_slice(&acc);
        }
    }
}

/// One processor's shard of the training set with the scratch its passes
/// reuse: samples are generated once and an epoch allocates nothing. Shared
/// by every variant so the arithmetic is identical.
pub struct Shard {
    p: NnParams,
    /// Inputs, `n_in` per sample, stored by batch (see [`Shard::batches`])
    /// in the kernels' unit-major order.
    x: Vec<f64>,
    /// Targets, `n_out` per sample, stored like `x`.
    y: Vec<f64>,
    /// One batch's activations and deltas, unit-major, room for [`NB`]
    /// samples.
    h: Vec<f64>,
    o: Vec<f64>,
    delta_h: Vec<f64>,
    delta_o: Vec<f64>,
    grad: Vec<f64>,
}

impl Shard {
    /// Samples `[ss, se)` of `p`'s training set (a [`share`] of it).
    pub fn new(p: &NnParams, (ss, se): (usize, usize)) -> Shard {
        let full = (se - ss) - (se - ss) % NB;
        let gen = |salt: u64, width: usize| -> Vec<f64> {
            (0..(se - ss) * width)
                .map(|q| {
                    // Value `q` is unit `u` of sample `s`: a full batch
                    // keeps its samples' values of each unit together.
                    let b = if q < full * width { NB } else { 1 };
                    let r = q % (b * width);
                    let (s, u) = ((q - r) / width + r % b, r / b);
                    unit_f64(p.seed ^ salt, ((ss + s) * width + u) as u64)
                })
                .collect()
        };
        Shard {
            p: p.clone(),
            x: gen(0x22, p.n_in),
            y: gen(0x33, p.n_out),
            h: vec![0.0; NB * p.n_hidden],
            o: vec![0.0; NB * p.n_out],
            delta_h: vec![0.0; NB * p.n_hidden],
            delta_o: vec![0.0; NB * p.n_out],
            grad: vec![0.0; p.w_len()],
        }
    }

    fn samples(&self) -> usize {
        self.y.len() / self.p.n_out
    }

    /// The first samples of the shard's batches: [`NB`] samples each, then
    /// the leftover samples one at a time.
    fn batches(&self) -> (StepBy<Range<usize>>, Range<usize>) {
        blocks::<NB>(self.samples())
    }

    /// Forward pass of the batch `[s0, s0 + B)` into `h` and `o`.
    fn forward<const B: usize>(&mut self, w: &[f64], s0: usize) {
        let (w1, w2) = w.split_at(self.p.w1_len());
        let h = &mut self.h[..B * self.p.n_hidden];
        layer::<B>(w1, &self.x[s0 * self.p.n_in..][..B * self.p.n_in], h);
        layer::<B>(w2, h, &mut self.o[..B * self.p.n_out]);
    }

    /// Forward + backward for the batch `[s0, s0 + B)`: adds its gradient
    /// into `grad`.
    fn backprop<const B: usize>(&mut self, w: &[f64], s0: usize) {
        self.forward::<B>(w, s0);
        let (ni, nh, no) = (self.p.n_in, self.p.n_hidden, self.p.n_out);
        let y = &self.y[s0 * no..][..B * no];
        let delta_o = &mut self.delta_o[..B * no];
        for ((dk, ok), yk) in delta_o.iter_mut().zip(&self.o).zip(y) {
            *dk = (ok - yk) * ok * (1.0 - ok);
        }
        let (h, delta_h) = (&self.h[..B * nh], &mut self.delta_h[..B * nh]);
        back::<B>(&w[self.p.w1_len()..], delta_o, h, delta_h);
        let (g1, g2) = self.grad.split_at_mut(self.p.w1_len());
        accumulate::<B>(g1, &self.x[s0 * ni..][..B * ni], delta_h);
        accumulate::<B>(g2, h, delta_o);
    }

    /// Unquantized gradient over the shard at weights `w`, into `grad`.
    fn sum_gradient(&mut self, w: &[f64]) {
        self.grad.fill(0.0);
        let (wide, narrow) = self.batches();
        wide.for_each(|s0| self.backprop::<NB>(w, s0));
        narrow.for_each(|s0| self.backprop::<1>(w, s0));
    }

    /// Gradient over the shard at weights `w`, laid out like the weights and
    /// quantized (see [`GRAD_QUANTUM`]).
    pub fn gradient(&mut self, w: &[f64]) -> &[f64] {
        self.sum_gradient(w);
        for g in &mut self.grad {
            *g = (*g * GRAD_QUANTUM).round() / GRAD_QUANTUM;
        }
        &self.grad
    }

    /// Adds the squared-error losses of the batch `[s0, s0 + B)` into
    /// `loss`, one sample at a time.
    fn batch_loss<const B: usize>(&mut self, w: &[f64], s0: usize, loss: &mut f64) {
        self.forward::<B>(w, s0);
        let no = self.p.n_out;
        let y = &self.y[s0 * no..][..B * no];
        for s in 0..B {
            let errs = (0..no).map(|k| self.o[k * B + s] - y[k * B + s]);
            *loss += errs.fold(0.0, |l, err| l + 0.5 * err * err);
        }
    }

    /// Squared-error loss over the shard at weights `w`, forward only.
    pub fn loss(&mut self, w: &[f64]) -> f64 {
        let mut loss = 0.0;
        let (wide, narrow) = self.batches();
        wide.for_each(|s0| self.batch_loss::<NB>(w, s0, &mut loss));
        narrow.for_each(|s0| self.batch_loss::<1>(w, s0, &mut loss));
        loss
    }
}

/// Sequential reference for `np` processors: final training loss after
/// `epochs` full-batch updates, accumulating the same per-shard quantized
/// gradients the parallel versions exchange. Thanks to the quantization the
/// parallel results are **bit-identical** to this reference regardless of
/// accumulation order.
pub fn nn_reference(p: &NnParams, np: usize) -> f64 {
    let mut shards: Vec<Shard> = (0..np)
        .map(|q| Shard::new(p, share(p.samples, q, np)))
        .collect();
    let mut w = p.init_weights();
    let mut total = vec![0.0; p.w_len()];
    for _ in 0..p.epochs {
        total.fill(0.0);
        for shard in &mut shards {
            for (t, g) in total.iter_mut().zip(shard.gradient(&w)) {
                *t += g;
            }
        }
        for (wi, gi) in w.iter_mut().zip(&total) {
            *wi -= p.lr * gi;
        }
    }
    shards.iter_mut().map(|shard| shard.loss(&w)).sum()
}

/// Which program variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NnVariant {
    /// Shared weights + packed per-processor gradient slots (LRC_d).
    Traditional,
    /// Weight read-views + exclusive delta views (VC_d / VC_sd).
    Vopp,
    /// Allreduce baseline.
    Mpi,
}

/// Run NN training; returns the final total loss.
pub fn run_nn(cfg: &ClusterConfig, p: &NnParams, variant: NnVariant) -> AppOutcome<f64> {
    match variant {
        NnVariant::Traditional => {
            assert!(cfg.protocol.is_lrc_family());
            run_nn_traditional(cfg, p)
        }
        NnVariant::Vopp => {
            assert!(cfg.protocol.is_vc());
            run_nn_vopp(cfg, p)
        }
        NnVariant::Mpi => run_nn_mpi(cfg, p),
    }
}

fn run_nn_traditional(cfg: &ClusterConfig, p: &NnParams) -> AppOutcome<f64> {
    let np = cfg.nprocs;
    let mut world = WorldBuilder::new();
    let weights = world.alloc_f64(p.w_len());
    // Per-processor gradient slots, packed: neighbouring slots share pages.
    let slots = world.alloc_f64(np * p.w_len());
    let layout = world.build();
    let p = p.clone();
    let out = run_cluster(cfg, layout, move |ctx| {
        let me = ctx.me();
        let (ss, se) = share(p.samples, me, np);
        let mut shard = Shard::new(&p, (ss, se));
        // Proc 0 publishes the initial weights.
        if me == 0 {
            weights.write_all(ctx, &p.init_weights());
        }
        ctx.barrier();
        let mut w = vec![0.0; p.w_len()];
        for _ in 0..p.epochs {
            weights.read_into(ctx, 0, &mut w);
            let grad = shard.gradient(&w);
            ctx.flops(p.flops_per_sample() * (se - ss) as u64);
            // "The errors of the weights are gathered from each processor":
            // every processor deposits its gradient in its own slot.
            slots.write_at(ctx, me * p.w_len(), grad);
            ctx.barrier();
            if me == 0 {
                let mut total = vec![0.0; p.w_len()];
                let mut g = vec![0.0; p.w_len()];
                for q in 0..np {
                    slots.read_into(ctx, q * p.w_len(), &mut g);
                    for (t, gv) in total.iter_mut().zip(&g) {
                        *t += gv;
                    }
                }
                for (wi, ti) in w.iter_mut().zip(&total) {
                    *wi -= p.lr * ti;
                }
                weights.write_all(ctx, &w);
                ctx.flops((np + 2) as u64 * p.w_len() as u64);
            }
            ctx.barrier();
        }
        weights.read_into(ctx, 0, &mut w);
        let loss = shard.loss(&w);
        ctx.flops(p.flops_per_sample() * (se - ss) as u64);
        loss
    });
    AppOutcome {
        value: out.results.iter().sum(),
        stats: out.stats,
    }
}

fn run_nn_vopp(cfg: &ClusterConfig, p: &NnParams) -> AppOutcome<f64> {
    let np = cfg.nprocs;
    let mut world = WorldBuilder::new();
    // Per-layer weight views, read concurrently under acquire_Rview (§3.4),
    // and one gradient view per processor (no accumulation chain).
    // Homes follow the primary writer: weights at proc 0, each gradient
    // view at its producer.
    let wv1 = world.view_f64_at(p.w1_len(), 0);
    let wv2 = world.view_f64_at(p.w2_len(), 0);
    let dv: Vec<ViewRegion<f64>> = (0..np).map(|q| world.view_f64_at(p.w_len(), q)).collect();
    let layout = world.build();
    let p = p.clone();
    let out = run_cluster(cfg, layout, move |ctx| {
        let me = ctx.me();
        let (ss, se) = share(p.samples, me, np);
        let mut shard = Shard::new(&p, (ss, se));
        if me == 0 {
            let w0 = p.init_weights();
            ctx.with_view(&wv1, |r| r.write_all(ctx, &w0[..p.w1_len()]));
            ctx.with_view(&wv2, |r| r.write_all(ctx, &w0[p.w1_len()..]));
        }
        ctx.barrier();
        let mut w = vec![0.0; p.w_len()];
        for _ in 0..p.epochs {
            // Concurrent weight reads (acquire_Rview, §3.4).
            let (head, tail) = w.split_at_mut(p.w1_len());
            ctx.with_rview(&wv1, |r| r.read_into(ctx, 0, head));
            ctx.with_rview(&wv2, |r| r.read_into(ctx, 0, tail));
            let grad = shard.gradient(&w);
            ctx.flops(p.flops_per_sample() * (se - ss) as u64);
            // Publish my gradient through my own view.
            ctx.with_view(&dv[me], |r| r.write_all(ctx, grad));
            ctx.barrier();
            if me == 0 {
                // Gather the gradients and update the weights.
                let mut total = vec![0.0; p.w_len()];
                let mut g = vec![0.0; p.w_len()];
                for view in dv.iter() {
                    ctx.with_rview(view, |r| r.read_into(ctx, 0, &mut g));
                    for (t, gv) in total.iter_mut().zip(&g) {
                        *t += gv;
                    }
                }
                for (wi, ti) in w.iter_mut().zip(&total) {
                    *wi -= p.lr * ti;
                }
                ctx.with_view(&wv1, |r| r.write_all(ctx, &w[..p.w1_len()]));
                ctx.with_view(&wv2, |r| r.write_all(ctx, &w[p.w1_len()..]));
                ctx.flops((np + 2) as u64 * p.w_len() as u64);
            }
            ctx.barrier();
        }
        let (head, tail) = w.split_at_mut(p.w1_len());
        ctx.with_rview(&wv1, |r| r.read_into(ctx, 0, head));
        ctx.with_rview(&wv2, |r| r.read_into(ctx, 0, tail));
        let loss = shard.loss(&w);
        ctx.flops(p.flops_per_sample() * (se - ss) as u64);
        loss
    });
    AppOutcome {
        value: out.results.iter().sum(),
        stats: out.stats,
    }
}

fn run_nn_mpi(cfg: &ClusterConfig, p: &NnParams) -> AppOutcome<f64> {
    let p = p.clone();
    let np = cfg.nprocs;
    let out = run_mpi(cfg, move |c| {
        let me = c.me();
        let (ss, se) = share(p.samples, me, np);
        let mut shard = Shard::new(&p, (ss, se));
        let mut w = p.init_weights();
        for _ in 0..p.epochs {
            let grad = shard.gradient(&w).to_vec();
            c.flops(p.flops_per_sample() * (se - ss) as u64);
            let total = c.allreduce_sum_f64(grad);
            for (wi, gi) in w.iter_mut().zip(&total) {
                *wi -= p.lr * gi;
            }
            c.flops(p.w_len() as u64);
        }
        let loss = shard.loss(&w);
        c.flops(p.flops_per_sample() * (se - ss) as u64);
        loss
    });
    AppOutcome {
        value: out.results.iter().sum(),
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::bounded;

    fn sample_x(p: &NnParams, s: usize) -> Vec<f64> {
        (0..p.n_in)
            .map(|k| unit_f64(p.seed ^ 0x22, (s * p.n_in + k) as u64))
            .collect()
    }

    fn sample_y(p: &NnParams, s: usize) -> Vec<f64> {
        (0..p.n_out)
            .map(|k| unit_f64(p.seed ^ 0x33, (s * p.n_out + k) as u64))
            .collect()
    }

    /// The definition [`Shard`] must equal bit for bit: textbook forward +
    /// backward for one sample, one unit at a time. Adds the sample's
    /// gradient into `grad` and returns its squared-error loss.
    fn backprop(p: &NnParams, w: &[f64], x: &[f64], y: &[f64], grad: &mut [f64]) -> f64 {
        let (ni, nh, no) = (p.n_in, p.n_hidden, p.n_out);
        let (w1, w2) = w.split_at(p.w1_len());
        // Forward.
        let mut h = vec![0.0; nh];
        for j in 0..nh {
            let mut z = w1[ni * nh + j]; // bias
            for (i, xi) in x.iter().enumerate() {
                z += w1[i * nh + j] * xi;
            }
            h[j] = sigmoid(z);
        }
        let mut o = vec![0.0; no];
        for k in 0..no {
            let mut z = w2[nh * no + k]; // bias
            for (j, hj) in h.iter().enumerate() {
                z += w2[j * no + k] * hj;
            }
            o[k] = sigmoid(z);
        }
        // Backward.
        let mut delta_o = vec![0.0; no];
        let mut loss = 0.0;
        for k in 0..no {
            let err = o[k] - y[k];
            loss += 0.5 * err * err;
            delta_o[k] = err * o[k] * (1.0 - o[k]);
        }
        let (g1, g2) = grad.split_at_mut(p.w1_len());
        let mut delta_h = vec![0.0; nh];
        for j in 0..nh {
            let mut s = 0.0;
            for k in 0..no {
                s += w2[j * no + k] * delta_o[k];
                g2[j * no + k] += h[j] * delta_o[k];
            }
            delta_h[j] = s * h[j] * (1.0 - h[j]);
        }
        for k in 0..no {
            g2[nh * no + k] += delta_o[k];
        }
        for (i, xi) in x.iter().enumerate() {
            for j in 0..nh {
                g1[i * nh + j] += xi * delta_h[j];
            }
        }
        for j in 0..nh {
            g1[ni * nh + j] += delta_h[j];
        }
        loss
    }

    /// Unquantized gradient and loss of samples `[ss, se)` by [`backprop`].
    fn textbook_shard(p: &NnParams, w: &[f64], ss: usize, se: usize) -> (Vec<f64>, f64) {
        let mut grad = vec![0.0; p.w_len()];
        let mut loss = 0.0;
        for s in ss..se {
            loss += backprop(p, w, &sample_x(p, s), &sample_y(p, s), &mut grad);
        }
        (grad, loss)
    }

    /// [`nn_reference`] as it was written over [`backprop`].
    fn textbook_reference(p: &NnParams, np: usize) -> f64 {
        let mut w = p.init_weights();
        for _ in 0..p.epochs {
            let mut total = vec![0.0; p.w_len()];
            for q in 0..np {
                let (ss, se) = share(p.samples, q, np);
                let (grad, _) = textbook_shard(p, &w, ss, se);
                for (t, g) in total.iter_mut().zip(&grad) {
                    *t += (g * GRAD_QUANTUM).round() / GRAD_QUANTUM;
                }
            }
            for (wi, gi) in w.iter_mut().zip(&total) {
                *wi -= p.lr * gi;
            }
        }
        let mut loss = 0.0;
        for q in 0..np {
            let (ss, se) = share(p.samples, q, np);
            loss += textbook_shard(p, &w, ss, se).1;
        }
        loss
    }

    #[test]
    fn shard_equals_textbook_backprop_bit_for_bit() {
        // Fixed awkward shapes (one input; widths that are not multiples of
        // the vector width; `n_hidden` and `n_out` at every remainder mod
        // `NC`), then seeded random ones.
        let mut shapes = vec![
            (1, 1, 1),
            (1, 5, 3),
            (7, 13, 5),
            (16, 64, 8),
            (3, 4, 9),
            (2, 8, 1),
            (3, 9, 2),
            (5, 10, 3),
            (4, 11, 4),
        ];
        for i in 0..12u64 {
            shapes.push((
                1 + bounded(0x5EED, 3 * i, 20),
                1 + bounded(0x5EED, 3 * i + 1, 70),
                1 + bounded(0x5EED, 3 * i + 2, 11),
            ));
        }
        for (case, (n_in, n_hidden, n_out)) in shapes.into_iter().enumerate() {
            let p = NnParams {
                n_in,
                n_hidden,
                n_out,
                samples: 53,
                epochs: 1,
                lr: 0.05,
                seed: 0xA7 + case as u64,
            };
            // Weights well outside the initial range, both signs, and a
            // second set each shard sees first, so scratch left by one pass
            // cannot reach the next.
            let w: Vec<f64> = (0..p.w_len())
                .map(|i| (unit_f64(p.seed ^ 0x77, i as u64) - 0.5) * 6.0)
                .collect();
            let w_first: Vec<f64> = w.iter().rev().map(|wi| -wi).collect();
            // The 53 samples split unevenly over 1, 3, 4 and 16 shards, then
            // shards of every length from 1 to 2·NB + 1: every leftover
            // length after zero, one and two full batches.
            let mut shards: Vec<(usize, usize)> = [1, 3, 4, 16]
                .into_iter()
                .flat_map(|np| (0..np).map(move |q| share(53, q, np)))
                .collect();
            shards.extend((1..=2 * NB + 1).map(|len| (5, 5 + len)));
            for (ss, se) in shards {
                let mut shard = Shard::new(&p, (ss, se));
                assert_eq!(shard.samples(), se - ss);
                for w in [&w_first, &w] {
                    let (grad, loss) = textbook_shard(&p, w, ss, se);
                    shard.sum_gradient(w);
                    for (i, (a, b)) in shard.grad.iter().zip(&grad).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{p:?} [{ss}, {se}) grad[{i}]");
                    }
                    assert_eq!(
                        shard.loss(w).to_bits(),
                        loss.to_bits(),
                        "{p:?} [{ss}, {se})"
                    );
                    // The public pass starts from zero and quantizes.
                    for (a, b) in shard.gradient(w).iter().zip(&grad) {
                        let quantized = (b * GRAD_QUANTUM).round() / GRAD_QUANTUM;
                        assert_eq!(a.to_bits(), quantized.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn reference_equals_textbook_reference() {
        let quick = NnParams::quick();
        // The `paper16` benchmark size.
        let paper16 = NnParams {
            epochs: 16,
            ..NnParams::bench()
        };
        // Known answers, recorded from the per-sample kernels: a change that
        // moved `Shard` and the textbook together would pass the textbook
        // check, and every cell's oracle check, which also runs `Shard`.
        let cases = [
            (&quick, 1, Some(0x401e_dbf7_0952_ecc7)),
            (&quick, 3, None),
            (&quick, 4, Some(0x401e_dbf7_0952_e2dd)),
            (&quick, 16, None),
            (&paper16, 16, Some(0x40b5_863a_37ae_70c3)),
        ];
        for (p, np, known) in cases {
            let bits = nn_reference(p, np).to_bits();
            assert_eq!(bits, textbook_reference(p, np).to_bits(), "{p:?} np={np}");
            if let Some(known) = known {
                assert_eq!(bits, known, "{p:?} np={np}: known answer");
            }
        }
    }

    #[test]
    fn reference_loss_decreases() {
        let p = NnParams::quick();
        let short = NnParams {
            epochs: 1,
            ..p.clone()
        };
        let long = NnParams { epochs: 8, ..p };
        assert!(nn_reference(&long, 1) < nn_reference(&short, 1));
    }

    #[test]
    fn traditional_bit_exact() {
        let p = NnParams::quick();
        let cfg = ClusterConfig::lossless(4, Protocol::LrcD);
        let out = run_nn(&cfg, &p, NnVariant::Traditional);
        assert_eq!(out.value, nn_reference(&p, 4));
    }

    #[test]
    fn vopp_bit_exact() {
        let p = NnParams::quick();
        for proto in [Protocol::VcD, Protocol::VcSd] {
            let cfg = ClusterConfig::lossless(4, proto);
            let out = run_nn(&cfg, &p, NnVariant::Vopp);
            assert_eq!(out.value, nn_reference(&p, 4), "{proto}");
        }
    }

    #[test]
    fn mpi_bit_exact() {
        let p = NnParams::quick();
        let cfg = ClusterConfig::lossless(4, Protocol::VcSd);
        let out = run_nn(&cfg, &p, NnVariant::Mpi);
        assert_eq!(out.value, nn_reference(&p, 4));
    }

    #[test]
    fn single_proc_exact() {
        let p = NnParams::quick();
        let out = run_nn(
            &ClusterConfig::lossless(1, Protocol::VcSd),
            &p,
            NnVariant::Vopp,
        );
        assert_eq!(out.value, nn_reference(&p, 1));
    }

    #[test]
    fn quantized_sums_commute() {
        // The property the quantization buys: shard sums are exact in any
        // order, so schedules cannot diverge.
        let p = NnParams::quick();
        let w = p.init_weights();
        let (mut s1, mut s2) = (Shard::new(&p, (0, 32)), Shard::new(&p, (32, 64)));
        for (a, b) in s1.gradient(&w).iter().zip(s2.gradient(&w)) {
            assert_eq!(a + b, b + a);
            // Exactly representable: adding and subtracting round-trips.
            assert_eq!((a + b) - b, *a);
        }
    }

    #[test]
    fn vcsd_has_no_diff_requests() {
        let p = NnParams::quick();
        let out = run_nn(
            &ClusterConfig::lossless(3, Protocol::VcSd),
            &p,
            NnVariant::Vopp,
        );
        assert_eq!(out.stats.diff_requests(), 0);
    }
}
