//! First-class fault plans for dynamic-cluster experiments.
//!
//! A [`FaultPlan`] describes, up front and deterministically, everything
//! that goes wrong during a run: elevated background message loss, nodes
//! with degraded CPUs, and crash windows after which a node restarts with
//! cold volatile state. The plan lives in
//! [`ClusterConfig`](crate::ClusterConfig) and is built in code with the
//! `with_*` builders, so every harness — unit tests, the serve table's
//! fault dimension, the serving workload — expresses faults the same way.
//! A table cell names its plan through its own key (the serve cell's
//! `clean`/`loss`/`slow`/`crash`), so the plan itself needs no text form.
//!
//! Faults never introduce nondeterminism: loss is driven by the seeded
//! network RNG, slowdowns are fixed cost-model scalings, and crash schedules
//! are fixed points in virtual time. Two runs with the same plan are
//! byte-identical.

use vopp_sim::{SimDuration, SimTime};
use vopp_simnet::NetConfig;

use crate::cost::CostModel;

/// Elevated background datagram loss for the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct Loss {
    /// Per-datagram drop probability (replaces the config's base rate).
    pub drop_prob: f64,
    /// Seed for the loss RNG (replaces the config's seed).
    pub seed: u64,
}

/// One node whose CPU runs slower than the rest of the cluster — a failing
/// fan, a background daemon, a half-speed replacement box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    /// The degraded node.
    pub node: usize,
    /// Cost multiplier (`1.5` = every CPU operation takes 1.5x as long).
    pub factor: f64,
}

/// One crash window: the node loses its volatile protocol state at `at`,
/// stays down for `down_for`, then rejoins and reconstructs lazily from the
/// home nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// The crashing node.
    pub node: usize,
    /// Virtual time of the crash.
    pub at: SimTime,
    /// How long the node is down before it rejoins.
    pub down_for: SimDuration,
}

impl Crash {
    /// Virtual time at which the node is back up.
    pub fn up_at(&self) -> SimTime {
        self.at + self.down_for
    }
}

/// A complete, deterministic fault schedule for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Elevated background loss, if any.
    pub loss: Option<Loss>,
    /// Per-node CPU slowdowns.
    pub slowdowns: Vec<Slowdown>,
    /// Crash windows, any order; [`FaultPlan::crashes_for`] sorts per node.
    pub crashes: Vec<Crash>,
}

impl FaultPlan {
    /// The empty plan: nothing goes wrong.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder: set elevated background loss.
    pub fn with_loss(mut self, drop_prob: f64, seed: u64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&drop_prob));
        self.loss = Some(Loss { drop_prob, seed });
        self
    }

    /// Builder: slow `node` down by `factor`.
    pub fn with_slowdown(mut self, node: usize, factor: f64) -> FaultPlan {
        assert!(factor >= 1.0, "a slowdown factor below 1.0 is a speedup");
        self.slowdowns.push(Slowdown { node, factor });
        self
    }

    /// Builder: crash `node` at `at` for `down_for`.
    pub fn with_crash(mut self, node: usize, at: SimTime, down_for: SimDuration) -> FaultPlan {
        self.crashes.push(Crash { node, at, down_for });
        self
    }

    /// The network configuration this plan turns `base` into.
    pub fn apply_net(&self, base: &NetConfig) -> NetConfig {
        match &self.loss {
            None => base.clone(),
            Some(l) => NetConfig {
                base_drop_prob: l.drop_prob,
                seed: l.seed,
                ..base.clone()
            },
        }
    }

    /// The cost model `node` runs under: `base` scaled by the product of the
    /// node's slowdown factors (normally zero or one of them).
    pub fn cost_for(&self, node: usize, base: &CostModel) -> CostModel {
        let factor: f64 = self
            .slowdowns
            .iter()
            .filter(|s| s.node == node)
            .map(|s| s.factor)
            .product();
        if factor == 1.0 {
            return base.clone();
        }
        let scale = |d: SimDuration| SimDuration::from_nanos((d.nanos() as f64 * factor) as u64);
        CostModel {
            ns_per_flop: base.ns_per_flop * factor,
            ns_per_int: base.ns_per_int * factor,
            ns_per_byte_copy: base.ns_per_byte_copy * factor,
            page_fault: scale(base.page_fault),
            twin: scale(base.twin),
            diff_create: scale(base.diff_create),
            diff_apply: scale(base.diff_apply),
        }
    }

    /// `node`'s crash windows, sorted by crash time.
    pub fn crashes_for(&self, node: usize) -> Vec<Crash> {
        let mut out: Vec<Crash> = self
            .crashes
            .iter()
            .copied()
            .filter(|c| c.node == node)
            .collect();
        out.sort_by_key(|c| c.at);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_changes_nothing() {
        let plan = FaultPlan::none();
        let net = NetConfig::default();
        let applied = plan.apply_net(&net);
        assert_eq!(applied.base_drop_prob, net.base_drop_prob);
        assert_eq!(applied.seed, net.seed);
        let cost = CostModel::default();
        assert_eq!(plan.cost_for(3, &cost).ns_per_flop, cost.ns_per_flop);
        assert!(plan.crashes_for(0).is_empty());
    }

    #[test]
    fn loss_overrides_net_probability_and_seed() {
        let plan = FaultPlan::none().with_loss(0.02, 7);
        let net = plan.apply_net(&NetConfig::lossless());
        assert_eq!(net.base_drop_prob, 0.02);
        assert_eq!(net.seed, 7);
        // Everything else is untouched.
        assert_eq!(net.latency, NetConfig::lossless().latency);
    }

    #[test]
    fn slowdown_scales_every_cost_uniformly() {
        let plan = FaultPlan::none().with_slowdown(2, 1.5);
        let base = CostModel::default();
        let slow = plan.cost_for(2, &base);
        assert_eq!(slow.ns_per_flop, base.ns_per_flop * 1.5);
        assert_eq!(slow.ns_per_int, base.ns_per_int * 1.5);
        assert_eq!(slow.ns_per_byte_copy, base.ns_per_byte_copy * 1.5);
        assert_eq!(slow.page_fault.nanos(), 60_000);
        assert_eq!(slow.diff_apply.nanos(), 22_500);
        // Other nodes run at full speed.
        assert_eq!(plan.cost_for(1, &base).ns_per_flop, base.ns_per_flop);
    }

    #[test]
    fn crashes_for_filters_and_sorts() {
        let plan = FaultPlan::none()
            .with_crash(2, SimTime(50_000_000), SimDuration::from_millis(10))
            .with_crash(1, SimTime(10_000_000), SimDuration::from_millis(5))
            .with_crash(2, SimTime(20_000_000), SimDuration::from_millis(1));
        let c2 = plan.crashes_for(2);
        assert_eq!(c2.len(), 2);
        assert_eq!(c2[0].at, SimTime(20_000_000));
        assert_eq!(c2[1].at, SimTime(50_000_000));
        assert_eq!(c2[1].up_at(), SimTime(60_000_000));
        assert_eq!(plan.crashes_for(0).len(), 0);
    }
}
