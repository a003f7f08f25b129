//! Wiring: build a simulated cluster, run a program on it, collect the
//! paper's statistics. [`run_nodes`] is the wiring the DSM's
//! [`run_cluster`] and the MPI baseline's `run_mpi` share.

use std::sync::Arc;

use vopp_page::PagePool;
use vopp_racecheck::RaceChecker;
use vopp_sim::sync::Mutex;
use vopp_sim::{AppCtx, Handler, ProcId, Sim, SimDuration, Tracer};
use vopp_simnet::{EthernetModel, NetConfig};

use crate::api::DsmCtx;
use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::homes::make_handler;
use crate::layout::Layout;
use crate::node::{interval_log, NodeState};
use crate::protocol::Protocol;
use crate::stats::{NodeStats, RunStats};

/// Everything configurable about a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of processors.
    pub nprocs: usize,
    /// Which DSM implementation to run.
    pub protocol: Protocol,
    /// Network parameters.
    pub net: NetConfig,
    /// CPU cost model.
    pub cost: CostModel,
    /// Structured event tracer shared by every layer of the run (kernel,
    /// network, protocol). `None` (the default) records nothing and adds
    /// no per-event work beyond a pointer test.
    pub tracer: Option<Arc<Tracer>>,
    /// Dynamic correctness checker shared by every node of the run (see
    /// `vopp-racecheck`): happens-before race detection under the LRC
    /// family, view-discipline checking under the VC family. The run sizes
    /// it for [`ClusterConfig::nprocs`] when it starts. `None` (the default)
    /// checks nothing and adds no per-access work beyond a pointer test;
    /// attaching a checker never advances virtual time, so results and
    /// statistics are unchanged.
    pub racecheck: Option<Arc<RaceChecker>>,
    /// Deterministic fault schedule: elevated loss rewrites the network
    /// config, slowdowns scale individual nodes' cost models, and crash
    /// windows are read by crash-aware workloads (the serving benchmark)
    /// via [`ClusterConfig::faults`]. The default empty plan changes
    /// nothing.
    pub faults: FaultPlan,
    /// Causal profiler for critical-path extraction. When set, every kernel
    /// wake records its causal predecessor and [`RunStats::crit`] carries
    /// the extracted path. Recording never advances virtual time: results,
    /// statistics, and trace streams are byte-identical either way.
    ///
    /// [`RunStats::crit`]: crate::RunStats::crit
    pub profiler: Option<Arc<vopp_trace::CausalProfiler>>,
}

impl ClusterConfig {
    /// A cluster of `nprocs` running `protocol` with default calibration.
    pub fn new(nprocs: usize, protocol: Protocol) -> ClusterConfig {
        ClusterConfig {
            nprocs,
            protocol,
            net: NetConfig::default(),
            cost: CostModel::default(),
            tracer: None,
            racecheck: None,
            faults: FaultPlan::none(),
            profiler: None,
        }
    }

    /// Same cluster with a lossless network (tests, calibration).
    pub fn lossless(nprocs: usize, protocol: Protocol) -> ClusterConfig {
        ClusterConfig {
            net: NetConfig::lossless(),
            ..ClusterConfig::new(nprocs, protocol)
        }
    }
}

/// The outcome of a cluster run: per-node results plus statistics.
pub struct ClusterOutcome<R> {
    /// Per-node return values of the program body.
    pub results: Vec<R>,
    /// The paper's statistics for this run.
    pub stats: RunStats,
}

/// Run `body` on every node of a simulated cluster.
///
/// `layout` describes the shared address space (identical on all nodes);
/// `body` is the SPMD program, branching on [`DsmCtx::me`] where needed.
///
/// ```
/// use vopp_dsm::{run_cluster, ClusterConfig, Layout, Protocol};
///
/// let mut layout = Layout::new();
/// let (view, addr) = layout.add_view(4);
/// let cfg = ClusterConfig::lossless(4, Protocol::VcSd);
/// let out = run_cluster(&cfg, layout.freeze(), move |ctx| {
///     ctx.acquire_view(view);
///     ctx.update_u32(addr, |x| x + 1);
///     ctx.release_view(view);
///     ctx.barrier();
///     ctx.acquire_rview(view);
///     let total = ctx.read_u32(addr);
///     ctx.release_rview(view);
///     total
/// });
/// assert_eq!(out.results, vec![4, 4, 4, 4]);
/// assert_eq!(out.stats.diff_requests(), 0); // VC_sd: update protocol
/// ```
pub fn run_cluster<R, F>(cfg: &ClusterConfig, layout: Arc<Layout>, body: F) -> ClusterOutcome<R>
where
    R: Send,
    F: Fn(&DsmCtx<'_>) -> R + Send + Sync,
{
    let n = cfg.nprocs;
    // One page-recycling pool for every node, sized from the layout, and
    // one interval log. Neither touches virtual time.
    let pool = PagePool::shared_for(layout.npages());
    let log = interval_log(n);
    if let Some(rc) = &cfg.racecheck {
        rc.begin_run(n);
    }
    let node = |p, cost| {
        NodeState::new(
            p,
            n,
            cfg.protocol,
            cost,
            layout.clone(),
            pool.clone(),
            log.clone(),
        )
    };
    let rc = &cfg.racecheck;
    run_nodes(
        cfg,
        node,
        make_handler,
        |node| &node.stats,
        |ctx, node, rexmit| {
            let dctx = DsmCtx::new(ctx, node.clone(), rexmit, rc.clone());
            let r = body(&dctx);
            dctx.finish();
            r
        },
    )
}

/// Run one program per node on the cluster `cfg` describes, with its
/// faults, tracer and profiler. Node `p`'s state is `node(p, cost)`, `cost`
/// being its cost model after the fault plan's slowdowns; `handler` answers
/// its messages; `body` runs on it with the effective network's
/// retransmission timeout. `stats` reads each node's statistics after the
/// run: their breakdowns must account for every nanosecond of its clock.
pub fn run_nodes<N, R, F>(
    cfg: &ClusterConfig,
    mut node: impl FnMut(ProcId, CostModel) -> N,
    handler: fn(Arc<Mutex<N>>) -> Handler,
    stats: fn(&N) -> &NodeStats,
    body: F,
) -> ClusterOutcome<R>
where
    N: Send,
    R: Send,
    F: Fn(AppCtx<'_>, &Arc<Mutex<N>>, SimDuration) -> R + Send + Sync,
{
    let n = cfg.nprocs;
    assert!(n > 0);
    let effective_net = cfg.faults.apply_net(&cfg.net);
    // Each node's RPC endpoint retransmits on the effective network's
    // timescale: the historical 1 s on the paper testbed, milliseconds on
    // modern generations.
    let rexmit_timeout = effective_net.rexmit_timeout;
    let mut sim = Sim::new(n, Box::new(EthernetModel::new(n, effective_net)));
    if let Some(tr) = &cfg.tracer {
        sim.set_tracer(tr.clone());
    }
    if let Some(prof) = &cfg.profiler {
        sim.set_profiler(prof.clone());
    }
    let nodes: Vec<Arc<Mutex<N>>> = (0..n)
        .map(|p| Arc::new(Mutex::new(node(p, cfg.faults.cost_for(p, &cfg.cost)))))
        .collect();
    for (p, node) in nodes.iter().enumerate() {
        sim.set_handler(p, handler(node.clone()));
    }

    let out = sim.run(|ctx| body(ctx, &nodes[ctx.me()], rexmit_timeout));

    let mut agg = NodeStats::default();
    let mut node_breakdowns = Vec::with_capacity(n);
    for (p, node) in nodes.iter().enumerate() {
        let node = node.lock();
        let s = stats(&node);
        let bd = s.metrics.breakdown;
        // Phase accounting must classify every nanosecond of the node's
        // virtual time, and must agree with the kernel's independent
        // CPU-vs-blocked split. A mismatch means a blocking call or a debt
        // charge slipped past a context's `CpuAccount`.
        debug_assert_eq!(
            bd.total_ns(),
            out.proc_end[p].nanos(),
            "node {p}: phase breakdown does not sum to run time"
        );
        debug_assert_eq!(
            bd.cpu_ns(),
            out.proc_times[p].compute_ns,
            "node {p}: compute+proto-cpu disagrees with kernel compute time"
        );
        debug_assert_eq!(
            bd.blocked_ns(),
            out.proc_times[p].blocked_ns,
            "node {p}: wait phases disagree with kernel blocked time"
        );
        node_breakdowns.push(bd);
        agg.absorb(s);
    }
    let net = out.net.stats();
    let crit = cfg.profiler.as_ref().map(|prof| {
        let ends: Vec<u64> = out.proc_end.iter().map(|t| t.nanos()).collect();
        Arc::new(vopp_metrics::extract(&prof.take(), &ends))
    });
    ClusterOutcome {
        results: out.results,
        stats: RunStats {
            time: out.end_time,
            nprocs: n,
            nodes: agg,
            net,
            node_breakdowns,
            node_end: out.proc_end,
            crit,
        },
    }
}
