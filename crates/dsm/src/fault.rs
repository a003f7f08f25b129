//! First-class fault plans for dynamic-cluster experiments.
//!
//! A [`FaultPlan`] describes, up front and deterministically, everything
//! that goes wrong during a run: elevated background message loss, nodes
//! with degraded CPUs, and crash windows after which a node restarts with
//! cold volatile state. The plan lives in
//! [`ClusterConfig`](crate::ClusterConfig), so every harness — unit tests,
//! the `tables` sweep, the serving workload — expresses faults the same way,
//! and the plan's [`label`](FaultPlan::label) feeds both table rows and the
//! sweep cache's context hash.
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

    /// True when the plan changes nothing about a run.
    pub fn is_empty(&self) -> bool {
        self.loss.is_none() && self.slowdowns.is_empty() && self.crashes.is_empty()
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

    /// Compact stable label, e.g. `loss=0.02@7,slow=3x1.5,crash=2@40ms+30ms`;
    /// `none` for the empty plan. Round-trips through [`FaultPlan::parse`]
    /// and is folded into the sweep cache's context hash.
    pub fn label(&self) -> String {
        if self.is_empty() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if let Some(l) = &self.loss {
            parts.push(format!("loss={}@{}", l.drop_prob, l.seed));
        }
        for s in &self.slowdowns {
            parts.push(format!("slow={}x{}", s.node, s.factor));
        }
        for c in &self.crashes {
            parts.push(format!(
                "crash={}@{}+{}",
                c.node,
                fmt_ns(c.at.nanos()),
                fmt_ns(c.down_for.nanos())
            ));
        }
        parts.join(",")
    }

    /// Parse the CLI/label syntax: a comma-separated list of
    /// `loss=P@SEED`, `slow=NODExFACTOR`, and `crash=NODE@AT+DOWN` clauses
    /// (durations take `ns`/`us`/`ms`/`s` suffixes), or `none`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(plan);
        }
        for clause in spec.split(',') {
            let (kind, rest) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause {clause:?} has no '='"))?;
            match kind {
                "loss" => {
                    let (p, seed) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("loss clause {rest:?} wants P@SEED"))?;
                    let drop_prob: f64 = p
                        .parse()
                        .map_err(|_| format!("bad loss probability {p:?}"))?;
                    if !(0.0..=1.0).contains(&drop_prob) {
                        return Err(format!("loss probability {drop_prob} out of [0,1]"));
                    }
                    let seed: u64 = seed
                        .parse()
                        .map_err(|_| format!("bad loss seed {seed:?}"))?;
                    plan.loss = Some(Loss { drop_prob, seed });
                }
                "slow" => {
                    let (node, factor) = rest
                        .split_once('x')
                        .ok_or_else(|| format!("slow clause {rest:?} wants NODExFACTOR"))?;
                    let node: usize = node
                        .parse()
                        .map_err(|_| format!("bad slow node {node:?}"))?;
                    let factor: f64 = factor
                        .parse()
                        .map_err(|_| format!("bad slow factor {factor:?}"))?;
                    if !factor.is_finite() {
                        return Err(format!("slow factor {factor} is not finite"));
                    }
                    if factor < 1.0 {
                        return Err(format!("slow factor {factor} below 1.0"));
                    }
                    plan.slowdowns.push(Slowdown { node, factor });
                }
                "crash" => {
                    let (node, times) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("crash clause {rest:?} wants NODE@AT+DOWN"))?;
                    let (at, down) = times
                        .split_once('+')
                        .ok_or_else(|| format!("crash clause {rest:?} wants NODE@AT+DOWN"))?;
                    let node: usize = node
                        .parse()
                        .map_err(|_| format!("bad crash node {node:?}"))?;
                    plan.crashes.push(Crash {
                        node,
                        at: SimTime(parse_ns(at)?),
                        down_for: SimDuration::from_nanos(parse_ns(down)?),
                    });
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// Render nanoseconds with the largest exact unit suffix.
fn fmt_ns(ns: u64) -> String {
    for (div, unit) in [(1_000_000_000, "s"), (1_000_000, "ms"), (1_000, "us")] {
        if ns > 0 && ns.is_multiple_of(div) {
            return format!("{}{unit}", ns / div);
        }
    }
    format!("{ns}ns")
}

/// Parse a duration like `40ms`, `250us`, `2s`, or `1500ns` to nanoseconds.
fn parse_ns(s: &str) -> Result<u64, String> {
    let (digits, mult) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad duration {s:?} (want e.g. 40ms, 250us, 2s)"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("duration {s:?} overflows 64-bit nanoseconds"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_changes_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.label(), "none");
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

    #[test]
    fn label_round_trips_through_parse() {
        let plan = FaultPlan::none()
            .with_loss(0.02, 7)
            .with_slowdown(3, 1.5)
            .with_crash(2, SimTime(40_000_000), SimDuration::from_millis(30));
        assert_eq!(plan.label(), "loss=0.02@7,slow=3x1.5,crash=2@40ms+30ms");
        assert_eq!(FaultPlan::parse(&plan.label()).unwrap(), plan);
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
    }

    #[test]
    fn parse_accepts_every_duration_unit() {
        let plan = FaultPlan::parse("crash=0@1500ns+250us,crash=1@2s+40ms").unwrap();
        assert_eq!(plan.crashes[0].at, SimTime(1_500));
        assert_eq!(plan.crashes[0].down_for, SimDuration::from_micros(250));
        assert_eq!(plan.crashes[1].at, SimTime(2_000_000_000));
        assert_eq!(plan.crashes[1].down_for, SimDuration::from_millis(40));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "bogus",
            "loss=0.5",
            "loss=2.0@1",
            "slow=1",
            "slow=1x0.5",
            "slow=1xNaN",
            "slow=1xinf",
            "slow=1x1e309",
            "crash=1@10ms",
            "crash=0@20000000000s+1s",
            "crash=x@10ms+1ms",
            "flood=9",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
