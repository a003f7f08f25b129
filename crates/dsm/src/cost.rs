//! CPU cost model, calibrated to the paper's 350 MHz Pentium-class nodes.
//!
//! Application code charges its algorithmic work through a node's
//! [`CpuAccount`] (flops, integer ops, byte copies); the DSM runtime charges
//! protocol overheads (page-fault traps, twin snapshots, diff
//! creation/application). Debt is accumulated locally and flushed into the
//! simulation clock at interaction points (sync operations, faults), so
//! element-wise shared-memory access does not flood the event queue. A
//! flush right before an RPC may be deferred ([`CpuAccount::defer_flush`]):
//! the node then owes the span to the kernel, which ends it when the RPC
//! blocks, so the node wakes once, when its replies are in. The DSM and the
//! MPI baseline charge compute and waits through the same type.

use std::cell::Cell;
use std::sync::Arc;

use vopp_metrics::{Breakdown, Phase};
use vopp_sim::{AppCtx, SimDuration, SimTime};
use vopp_trace::{CausalProfiler, OpKind, OpSpan};

/// Nanosecond costs of primitive operations on the simulated CPU.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// One floating-point operation (350 MHz, no SIMD, cache-imperfect).
    pub ns_per_flop: f64,
    /// One integer/index operation.
    pub ns_per_int: f64,
    /// Copying one byte between buffers (memcpy-style bulk rate).
    pub ns_per_byte_copy: f64,
    /// Entering the page-fault trap and protocol handler (SIGSEGV path).
    pub page_fault: SimDuration,
    /// Snapshotting a 4 KB twin on first write to a page.
    pub twin: SimDuration,
    /// Creating the diff of one dirty page at interval end.
    pub diff_create: SimDuration,
    /// Applying one incoming diff to a page.
    pub diff_apply: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            ns_per_flop: 12.0,
            ns_per_int: 6.0,
            ns_per_byte_copy: 3.0,
            page_fault: SimDuration::from_micros(40),
            twin: SimDuration::from_micros(25),
            diff_create: SimDuration::from_micros(30),
            diff_apply: SimDuration::from_micros(15),
        }
    }
}

/// One node's CPU accounting: the debt it owes the clock, the cost model
/// that prices its work, and the run's causal profiler. The DSM and the MPI
/// contexts charge compute and blocking waits through one, into a
/// [`Breakdown`] they own, and annotate the critical path when profiled.
///
/// `ns` is the total owed and alone drives the clock, so the phase split
/// never perturbs virtual time; `overhead_ns` is its protocol share and
/// `diff_ns` the diff work within that (the "free diffs" what-if).
pub struct CpuAccount {
    ns: Cell<f64>,
    overhead_ns: Cell<f64>,
    diff_ns: Cell<f64>,
    /// The node's cost model.
    pub cost: CostModel,
    /// Cached off the kernel so the hot paths pay one pointer test.
    causal: Option<Arc<CausalProfiler>>,
}

impl CpuAccount {
    /// An empty account for the node running `sim`, priced by `cost`.
    pub fn new(sim: &AppCtx<'_>, cost: CostModel) -> CpuAccount {
        CpuAccount {
            ns: Cell::new(0.0),
            overhead_ns: Cell::new(0.0),
            diff_ns: Cell::new(0.0),
            cost,
            causal: sim.causal_profiler(),
        }
    }

    /// Charge raw nanoseconds of compute.
    #[inline]
    pub fn compute_ns(&self, ns: f64) {
        self.ns.set(self.ns.get() + ns);
    }

    /// Charge `n` floating-point operations of compute.
    pub fn flops(&self, n: u64) {
        self.compute_ns(n as f64 * self.cost.ns_per_flop);
    }

    /// Charge `n` integer/index operations of compute.
    pub fn int_ops(&self, n: u64) {
        self.compute_ns(n as f64 * self.cost.ns_per_int);
    }

    /// Charge a local buffer copy of `n` bytes.
    pub fn copy_cost(&self, n: u64) {
        self.compute_ns(n as f64 * self.cost.ns_per_byte_copy);
    }

    /// Charge protocol overhead: advances the clock like compute, but the
    /// next flush reports it as [`Phase::ProtoCpu`].
    #[inline]
    pub fn add_overhead(&self, d: SimDuration) {
        let ns = d.nanos() as f64;
        self.ns.set(self.ns.get() + ns);
        self.overhead_ns.set(self.overhead_ns.get() + ns);
    }

    /// Charge protocol overhead that is diff creation or application.
    #[inline]
    pub fn add_overhead_diff(&self, d: SimDuration) {
        self.add_overhead(d);
        self.diff_ns.set(self.diff_ns.get() + d.nanos() as f64);
    }

    /// Push all owed time into the clock through `spend`; returns the
    /// whole nanoseconds pushed as `(app, overhead, diff)`, split as above,
    /// `app + overhead` being the advance. Sub-nanosecond residue is
    /// dropped.
    fn drain(&self, spend: impl FnOnce(SimDuration)) -> (u64, u64, u64) {
        let ns = self.ns.replace(0.0);
        let overhead = self.overhead_ns.replace(0.0);
        let diff = self.diff_ns.replace(0.0);
        if ns < 1.0 {
            return (0, 0, 0);
        }
        let total = ns as u64;
        spend(SimDuration::from_nanos(total));
        let overhead_ns = (overhead as u64).min(total);
        (
            total - overhead_ns,
            overhead_ns,
            (diff as u64).min(overhead_ns),
        )
    }

    /// Flush the debt into the clock and attribute the advance in `bd`:
    /// application work to [`Phase::Compute`], protocol charges to
    /// [`Phase::ProtoCpu`].
    pub fn flush(&self, sim: &AppCtx<'_>, bd: &mut Breakdown) {
        self.account(sim, bd, self.drain(|d| sim.compute(d)));
    }

    /// [`CpuAccount::flush`], but the node owes the span to the kernel
    /// ([`AppCtx::defer_compute`]) instead of spending it now; the
    /// accounting is the same. Only for a flush whose code up to the next
    /// RPC reads no state a service handler of this node writes.
    pub fn defer_flush(&self, sim: &AppCtx<'_>, bd: &mut Breakdown) {
        self.account(sim, bd, self.drain(|d| sim.defer_compute(d)));
    }

    /// Attribute a drained advance in `bd` and on the critical path.
    fn account(&self, sim: &AppCtx<'_>, bd: &mut Breakdown, drained: (u64, u64, u64)) {
        let (app_ns, overhead_ns, diff_ns) = drained;
        let total_ns = app_ns + overhead_ns;
        if total_ns == 0 {
            return;
        }
        bd.charge(Phase::Compute, app_ns);
        bd.charge(Phase::ProtoCpu, overhead_ns);
        if let Some(prof) = &self.causal {
            // The flush advanced the clock by exactly total_ns, so the
            // annotation span matches the kernel's compute wake record.
            let hi_ns = sim.now().nanos();
            let span = OpSpan {
                lo_ns: hi_ns - total_ns,
                hi_ns,
                op: OpKind::App,
                obj: 0,
                app_ns,
                overhead_ns,
                diff_ns,
            };
            prof.record_op(sim.me(), span);
        }
    }

    /// Attribute the virtual time elapsed since `since` (a blocking wait,
    /// or idle pacing) to `phase` in `bd` and return it. Every blocking
    /// call of a context is bracketed by exactly one `charge_wait`, which is
    /// what makes its breakdown sum to the node's clock. `obj` is the view,
    /// lock or page waited for (0 when global), used only by the
    /// critical-path blame.
    pub fn charge_wait(
        &self,
        sim: &AppCtx<'_>,
        phase: Phase,
        obj: u64,
        since: SimTime,
        bd: &mut Breakdown,
    ) -> u64 {
        let now = sim.now();
        let waited = (now - since).nanos();
        bd.charge(phase, waited);
        if let Some(prof) = &self.causal {
            let op = match phase {
                Phase::BarrierWait => OpKind::Barrier,
                Phase::AcquireWait => OpKind::Acquire,
                Phase::DataWait => OpKind::Data,
                Phase::SendWait => OpKind::Flush,
                Phase::Idle => OpKind::Idle,
                _ => OpKind::Other,
            };
            let span = OpSpan {
                lo_ns: since.nanos(),
                hi_ns: now.nanos(),
                op,
                obj,
                app_ns: 0,
                overhead_ns: 0,
                diff_ns: 0,
            };
            prof.record_op(sim.me(), span);
        }
        waited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` on a fresh account inside a one-node simulation; returns
    /// the node's final clock.
    fn on_account(f: impl Fn(&AppCtx<'_>, &CpuAccount) + Send + Sync) -> u64 {
        let out = vopp_sim::run_simple(1, SimDuration::from_micros(1), |ctx| {
            f(&ctx, &CpuAccount::new(&ctx, CostModel::default()));
            ctx.now()
        });
        out.results[0].nanos()
    }

    #[test]
    fn debt_accumulates() {
        on_account(|_, d| {
            d.compute_ns(10.5);
            d.flops(1);
            assert!((d.ns.get() - 22.5).abs() < 1e-9);
        });
    }

    #[test]
    fn flush_drains_into_clock() {
        let end = on_account(|ctx, d| {
            d.compute_ns(2_500.0);
            let mut bd = Breakdown::default();
            d.flush(ctx, &mut bd);
            assert_eq!(bd.get(Phase::Compute), 2_500);
            assert_eq!(bd.total_ns(), 2_500);
            assert_eq!(d.ns.get(), 0.0);
            // Sub-nanosecond residue is dropped, not re-queued.
            d.compute_ns(0.4);
            assert_eq!(d.drain(|t| ctx.compute(t)), (0, 0, 0));
        });
        assert_eq!(end, 2_500);
    }

    #[test]
    fn flush_splits_app_and_overhead() {
        let end = on_account(|ctx, d| {
            d.compute_ns(1_000.25);
            d.add_overhead(SimDuration::from_nanos(500));
            let mut bd = Breakdown::default();
            d.flush(ctx, &mut bd);
            // Total is the truncated single accumulator (1500.25 -> 1500ns),
            // overhead is reported out of that total.
            assert_eq!(bd.total_ns(), 1_500);
            assert_eq!(bd.get(Phase::ProtoCpu), 500);
            assert_eq!(bd.get(Phase::Compute), 1_000);
        });
        assert_eq!(end, 1_500);
    }

    #[test]
    fn overhead_alone_advances_clock() {
        let end = on_account(|ctx, d| {
            d.add_overhead(SimDuration::from_micros(40));
            assert_eq!(d.drain(|t| ctx.compute(t)), (0, 40_000, 0));
        });
        assert_eq!(end, 40_000);
    }

    #[test]
    fn diff_overhead_is_reported_within_the_overhead_share() {
        let end = on_account(|ctx, d| {
            d.compute_ns(1_000.0);
            d.add_overhead(SimDuration::from_nanos(200));
            d.add_overhead_diff(SimDuration::from_nanos(300));
            // 1000 ns of compute, 500 of overhead, 300 of it diff work.
            assert_eq!(d.drain(|t| ctx.compute(t)), (1_000, 500, 300));
            // A fresh flush reports nothing.
            assert_eq!(d.drain(|t| ctx.compute(t)), (0, 0, 0));
        });
        assert_eq!(end, 1_500);
    }

    #[test]
    fn a_deferred_flush_accounts_as_the_eager_one() {
        let run = |defer: bool| {
            on_account(move |ctx, d| {
                d.compute_ns(1_000.0);
                d.add_overhead_diff(SimDuration::from_nanos(500));
                let mut bd = Breakdown::default();
                if defer {
                    d.defer_flush(ctx, &mut bd);
                } else {
                    d.flush(ctx, &mut bd);
                }
                assert_eq!(ctx.now(), SimTime(1_500));
                assert_eq!(bd.get(Phase::Compute), 1_000);
                assert_eq!(bd.get(Phase::ProtoCpu), 500);
            })
        };
        // The owed span ends when the body does.
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn default_model_is_era_plausible() {
        let c = CostModel::default();
        // A 4 KB memcpy should be on the order of 10us on a 350 MHz box.
        let memcpy_us = 4096.0 * c.ns_per_byte_copy / 1000.0;
        assert!(memcpy_us > 5.0 && memcpy_us < 50.0);
    }
}
