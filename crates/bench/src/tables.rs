//! Regeneration of the paper's nine evaluation tables.
//!
//! Every run validates its application result against the sequential
//! reference before reporting statistics — a table is only produced from
//! verified executions.
//!
//! A table is the cell list [`cells_for`] states for it plus a render of
//! the verified runs, in that order. Every cell, in the sweep workers and
//! in the tables alike, goes through one execute path (`execute_cell`:
//! config, tracer, run, oracle check, trace and critical-path export), and
//! every table consumes its cells through one run path (`Scale::run`: the
//! sweep's result or an inline execute, then the metrics record).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use vopp_apps::gauss::{gauss_reference, run_gauss, GaussParams, GaussVariant};
use vopp_apps::is::{is_reference, run_is, IsParams, IsVariant};
use vopp_apps::nn::{nn_reference, run_nn, NnParams, NnVariant};
use vopp_apps::sor::{run_sor, sor_reference, SorParams, SorVariant};
use vopp_core::{ClusterConfig, FaultPlan, Phase, Protocol, RunStats};
use vopp_serve::{build_schedule, run_serve, serve_reference, ServeParams, ServeVariant};
use vopp_sim::{SimDuration, SimTime};
use vopp_trace::{check, report, write_chrome_json_to, CheckConfig, Tracer};

use crate::metrics::{CellRecord, MetricsSink};
use crate::sweep::{
    cells_for, CellApp, CellSpec, CellVariant, RunCache, ServeCell, ServeFault, ServeLoad,
    ServePayload, OPT_IN, TABLES,
};
use crate::table::Table;

/// Problem scaling: `quick` shrinks every instance for smoke tests; the
/// full scale is the calibrated reproduction reported in EXPERIMENTS.md.
/// When `trace_dir` is set, every cluster run records a structured event
/// trace, exports it (raw JSON, Chrome/Perfetto JSON, text report) into
/// that directory and asserts the protocol conformance invariants.
/// When `metrics` is set, every verified run is recorded as a cell for the
/// `BENCH_<app>.json` artifacts.
/// When `cache` is set (a [`RunCache`] populated by
/// [`crate::sweep::run_sweep`]), the tables consume precomputed results
/// instead of simulating inline — trace artifacts were already written by
/// the sweep workers, while metrics are still recorded here, at
/// consumption time, so cell order matches the sequential run exactly.
#[derive(Debug, Clone, Default)]
pub struct Scale {
    /// Use miniature problem instances and fewer processor counts.
    pub quick: bool,
    /// Where per-run trace artifacts go; `None` disables tracing.
    pub trace_dir: Option<PathBuf>,
    /// Sink for machine-readable per-run metrics; `None` disables.
    pub metrics: Option<Arc<MetricsSink>>,
    /// Precomputed sweep results; `None` simulates every cell inline.
    pub cache: Option<Arc<RunCache>>,
    /// Attach a causal profiler to every cluster run (the `tables
    /// --critpath` flag): tables gain critical-path breakdown rows, the
    /// metrics sink gains the `BENCH_critpath.json` artifact, and (with
    /// `trace_dir`) each run writes a `<stem>.critpath.perfetto.json`
    /// track. Profiling is pure observation — every other artifact stays
    /// byte-identical.
    pub critpath: bool,
    /// `(file stem, events lost)` of every traced run whose ring wrapped, in
    /// completion order. Such a run's exports miss their prefix and its
    /// conformance check is skipped, so whoever drives the runs reports the
    /// list when they are done (`tables --trace` prints it last).
    pub trace_evictions: Arc<Mutex<Vec<(String, u64)>>>,
}

/// Create `path` and stream a document into it through `write`; panics with
/// the path on any I/O error, like every other artifact write of a run.
fn write_file(path: &Path, write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>) {
    File::create(path)
        .map(BufWriter::new)
        .and_then(|mut out| {
            write(&mut out)?;
            out.flush()
        })
        .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
}

impl Scale {
    /// Quick (smoke-test) scale without tracing.
    pub fn quick() -> Scale {
        Scale {
            quick: true,
            ..Scale::default()
        }
    }

    /// Full paper scale without tracing.
    pub fn full() -> Scale {
        Scale::default()
    }

    /// Cluster configuration of one cell: the cell's network generation,
    /// a serve cell's fault scenario, and a fresh profiler under
    /// `--critpath`. No other cell runs a fault plan.
    fn cfg(&self, spec: &CellSpec) -> ClusterConfig {
        let mut config = ClusterConfig::new(spec.np, spec.proto);
        if let Some(gen) = spec.netgen {
            config.net = gen.config();
        }
        if let Some(sc) = spec.serve {
            config.faults = serve_fault_plan(&self.serve(sc.load), sc.fault);
        }
        if self.critpath {
            // One fresh profiler per run: causal logs are per-run state.
            config.profiler = Some(Arc::new(vopp_sim::CausalProfiler::new(spec.np)));
        }
        config
    }

    /// The verified runs of table `table`, in [`cells_for`] order.
    fn runs(&self, table: &'static str) -> Vec<CellRecord> {
        cells_for(table, self)
            .iter()
            .map(|spec| self.run(table, spec))
            .collect()
    }

    /// One cell of `table`: the sweep's precomputed result when there is one
    /// (a serve entry without its payload, impossible outside a corrupted
    /// store, runs inline), else an inline [`execute_cell`]; then the metrics
    /// record.
    fn run(&self, table: &'static str, spec: &CellSpec) -> CellRecord {
        let (stats, serve) = match self
            .cache
            .as_ref()
            .and_then(|c| c.get(&spec.key()))
            .filter(|r| spec.serve.is_none() || r.serve.is_some())
        {
            Some(r) => (r.stats.clone(), r.serve.clone()),
            None => execute_cell(self, spec),
        };
        let record = CellRecord {
            table,
            spec: *spec,
            stats,
            serve,
        };
        if let Some(m) = &self.metrics {
            m.record(&record);
        }
        record
    }

    /// Install a fresh tracer on `config` when tracing is requested.
    fn attach_tracer(&self, config: &mut ClusterConfig) -> Option<Arc<Tracer>> {
        let dir = self.trace_dir.as_ref()?;
        std::fs::create_dir_all(dir).expect("failed to create trace directory");
        let tracer = Arc::new(Tracer::default());
        config.tracer = Some(tracer.clone());
        Some(tracer)
    }

    /// Drain a run's tracer into `trace_dir` under the cell's key: the raw
    /// event stream, the Chrome-trace JSON and the wait report, then the
    /// protocol conformance checker, which panics on any violation (a
    /// complete, non-truncated trace of a correct run must be
    /// violation-free). A profiled run also exports its critical path as
    /// its own Perfetto track (`<stem>.critpath.perfetto.json`); a separate
    /// file keeps `perfetto.json` byte-identical with the profiler on or off.
    fn finish_trace(&self, tracer: Option<Arc<Tracer>>, stats: &RunStats, spec: &CellSpec) {
        let (Some(dir), Some(tr)) = (self.trace_dir.as_ref(), tracer) else {
            return;
        };
        let trace = tr.take();
        let stem = spec.key();
        let path = |suffix: &str| dir.join(format!("{stem}.{suffix}"));
        write_file(&path("events.json"), |out| trace.write_json_to(out));
        write_file(&path("perfetto.json"), |out| {
            write_chrome_json_to(&trace, out)
        });
        write_file(&path("report.txt"), |out| {
            out.write_all(report(&trace, 10).as_bytes())
        });
        if trace.evicted == 0 {
            let violations = check(&trace, &check_config_for(spec.proto));
            assert!(
                violations.is_empty(),
                "{stem}: {} conformance violation(s):\n{}",
                violations.len(),
                violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        } else {
            // A wrapped ring lost its prefix; interval-pairing invariants
            // cannot be judged on a truncated stream.
            eprintln!(
                "[trace] {stem}: ring evicted {} events, checker skipped",
                trace.evicted
            );
            self.trace_evictions
                .lock()
                .expect("trace eviction list lock")
                .push((stem.clone(), trace.evicted));
        }
        if let Some(cp) = stats.crit.as_deref() {
            write_file(&path("critpath.perfetto.json"), |out| {
                vopp_metrics::write_critpath_chrome_json_to(cp, out)
            });
        }
    }

    /// Processor count of the statistics tables (paper: 16).
    pub fn stats_procs(&self) -> usize {
        if self.quick {
            4
        } else {
            16
        }
    }

    /// Processor counts of the speedup tables (paper: 2..32).
    pub fn speedup_procs(&self) -> Vec<usize> {
        if self.quick {
            vec![2, 4]
        } else {
            vec![2, 4, 8, 16, 24, 32]
        }
    }

    /// Node counts of the scale-out family (`tables scaling`): cluster
    /// sizes well past the paper's 32-processor ceiling.
    /// Identical at both scales — `quick` shrinks the instances, not the
    /// cluster.
    pub fn scaling_procs(&self) -> Vec<usize> {
        vec![64, 128]
    }

    /// IS instance for an `np`-node run. The paper tables (np <= 32) use
    /// the calibrated instances; the scale-out cells keep the full bench
    /// instance at full scale and, at quick scale, an instance sized so
    /// every rank still holds keys at 128 nodes.
    fn is_at(&self, np: usize) -> IsParams {
        if !self.quick {
            return IsParams::bench();
        }
        let mut p = IsParams::quick();
        if np >= SCALING_MIN_PROCS {
            p.n_keys = 1 << 15;
            p.reps = 2;
        }
        p
    }

    /// Gauss instance for an `np`-node run (see [`Scale::is_at`]).
    fn gauss_at(&self, np: usize) -> GaussParams {
        if !self.quick {
            return GaussParams::bench();
        }
        let mut p = GaussParams::quick();
        if np >= SCALING_MIN_PROCS {
            // 3 rows per rank at 128 nodes; short sweeps keep it smoke-test
            // sized.
            p.rows = 384;
            p.iters = 3;
        }
        p
    }

    /// SOR instance for an `np`-node run (see [`Scale::is_at`]).
    fn sor_at(&self, np: usize) -> SorParams {
        if !self.quick {
            return SorParams::bench();
        }
        let mut p = SorParams::quick();
        if np >= SCALING_MIN_PROCS {
            // 4 rows per rank at 128 nodes.
            p.rows = 512;
            p.iters = 3;
        }
        p
    }

    fn nn(&self) -> NnParams {
        if self.quick {
            NnParams::quick()
        } else {
            NnParams::bench()
        }
    }

    fn serve(&self, load: ServeLoad) -> ServeParams {
        let mut p = if self.quick {
            ServeParams::quick()
        } else {
            ServeParams::bench()
        };
        if load == ServeLoad::High {
            // Double the offered load: half the mean interarrival gap.
            p.mean_gap_ns /= 2.0;
        }
        p
    }
}

/// Node counts at or above this use the scale-out instances (see
/// [`Scale::is_at`]); below it, the paper instances. The paper's largest
/// cluster is 32 processors, so the two regimes never overlap.
const SCALING_MIN_PROCS: usize = 64;

/// The conformance-invariant set a protocol's traces must satisfy.
///
/// * A protocol whose grants carry integrated diffs
///   ([`Protocol::integrates_diffs`]: `VC_sd` inline, `VC_rdma` by
///   one-sided write) must emit zero diff requests (the paper's headline
///   protocol property).
/// * The VC protocols scope consistency to views, so their barrier
///   releases must carry no write notices (paper §3.2).
///
/// The other invariants (`rexmit-covered` and `non-nested-acquires` among
/// them) hold for every protocol and always run.
pub fn check_config_for(proto: Protocol) -> CheckConfig {
    CheckConfig {
        expect_zero_diff_requests: proto.integrates_diffs(),
        expect_no_barrier_notices: proto.is_vc(),
    }
}

// -------------------------------------------------------------------
// Executing one cell
// -------------------------------------------------------------------

/// The result bits of the sequential oracle named `key` (application,
/// parameters and whatever else the reference depends on), computed once per
/// process: the cells of a sweep share a handful of distinct oracles, and an
/// oracle costs as much as the simulation it checks. Under `--jobs N` a
/// second thread asking for a key in flight waits for the first.
fn oracle(key: String, compute: impl FnOnce() -> u64) -> u64 {
    static ORACLES: Mutex<BTreeMap<String, Arc<OnceLock<u64>>>> = Mutex::new(BTreeMap::new());
    let slot = Arc::clone(
        ORACLES
            .lock()
            .expect("nothing panics while holding the oracle map")
            .entry(key)
            .or_default(),
    );
    *slot.get_or_init(compute)
}

/// The fault plan of a serve cell's fault dimension: the only source of
/// what-if faults in the tables (the network's own loss and retransmissions
/// are part of every cell's `NetConfig`).
fn serve_fault_plan(p: &ServeParams, fault: ServeFault) -> FaultPlan {
    let none = FaultPlan::none();
    match fault {
        ServeFault::Clean => none,
        ServeFault::Loss => none.with_loss(0.02, 7),
        ServeFault::Slow => none.with_slowdown(0, 2.0),
        ServeFault::Crash => {
            // Crash node 1 at a quarter of the schedule horizon, down for
            // another quarter: recovery happens mid-stream with plenty of
            // post-recovery traffic left to measure.
            let horizon = build_schedule(p).last().expect("nonempty schedule").arrival;
            none.with_crash(
                1,
                SimTime(horizon / 4),
                SimDuration::from_nanos(horizon / 4),
            )
        }
    }
}

/// Simulate one cell through the verified path every table and sweep
/// worker uses: run the application, check its result against the
/// memoised sequential oracle, then write the trace artifacts and run the
/// conformance assertions. Returns the statistics, plus the serve payload
/// on serve cells. Does *not* record metrics — that happens at consumption
/// time so cell order stays sequential.
pub(crate) fn execute_cell(scale: &Scale, spec: &CellSpec) -> (RunStats, Option<ServePayload>) {
    let np = spec.np;
    let mut config = scale.cfg(spec);
    let tracer = scale.attach_tracer(&mut config);
    let (stats, serve) = match spec.app {
        CellApp::Is => {
            let p = scale.is_at(np);
            let variant = match spec.variant {
                CellVariant::Traditional => IsVariant::Traditional,
                CellVariant::Vopp => IsVariant::Vopp,
                CellVariant::VoppLb => IsVariant::VoppLb,
                CellVariant::Mpi => panic!("IS has no MPI variant"),
            };
            let out = run_is(&config, &p, variant);
            let lb = variant == IsVariant::VoppLb;
            let want = oracle(format!("is/{p:?}/{np}/{lb}"), || is_reference(&p, np, lb));
            assert_eq!(out.value, want, "IS result mismatch");
            (out.stats, None)
        }
        CellApp::Gauss => {
            let p = scale.gauss_at(np);
            let variant = match spec.variant {
                CellVariant::Traditional => GaussVariant::Traditional,
                CellVariant::Vopp => GaussVariant::Vopp,
                other => panic!("Gauss has no {other:?} variant"),
            };
            let out = run_gauss(&config, &p, variant);
            let want = oracle(format!("gauss/{p:?}/{np}"), || {
                gauss_reference(&p, np).to_bits()
            });
            assert_eq!(out.value, f64::from_bits(want), "Gauss result mismatch");
            (out.stats, None)
        }
        CellApp::Sor => {
            let p = scale.sor_at(np);
            let variant = match spec.variant {
                CellVariant::Traditional => SorVariant::Traditional,
                CellVariant::Vopp => SorVariant::Vopp,
                other => panic!("SOR has no {other:?} variant"),
            };
            let out = run_sor(&config, &p, variant);
            let want = oracle(format!("sor/{p:?}"), || sor_reference(&p).to_bits());
            assert_eq!(out.value, f64::from_bits(want), "SOR result mismatch");
            (out.stats, None)
        }
        CellApp::Nn => {
            let p = scale.nn();
            let variant = match spec.variant {
                CellVariant::Traditional => NnVariant::Traditional,
                CellVariant::Vopp => NnVariant::Vopp,
                CellVariant::Mpi => NnVariant::Mpi,
                CellVariant::VoppLb => panic!("NN has no VoppLb variant"),
            };
            let out = run_nn(&config, &p, variant);
            let want = oracle(format!("nn/{p:?}/{np}"), || nn_reference(&p, np).to_bits());
            assert_eq!(out.value, f64::from_bits(want), "NN result mismatch");
            (out.stats, None)
        }
        CellApp::Serve => {
            let p = scale.serve(spec.serve.expect("serve cells carry load/fault").load);
            // Views on the VC family, a lock-per-shard store on the LRC one.
            let style = match spec.variant {
                CellVariant::Vopp => ServeVariant::Vopp,
                _ => ServeVariant::Traditional,
            };
            let out = run_serve(&config, &p, style);
            assert_eq!(
                out.checksum,
                serve_reference(&p),
                "serve store diverged from the sequential reference"
            );
            let payload = ServePayload {
                latency: out.latency,
                checksum: out.checksum,
                get_digest: out.get_digest,
                served: out.served,
                recovered_pages: out.recovered_pages,
            };
            (out.stats, Some(payload))
        }
    };
    scale.finish_trace(tracer, &stats, spec);
    (stats, serve)
}

// -------------------------------------------------------------------
// Rendering
// -------------------------------------------------------------------

/// The statistics of every run, for the row helpers.
fn stats_of(runs: &[CellRecord]) -> Vec<&RunStats> {
    runs.iter().map(|r| &r.stats).collect()
}

/// Append the row `label` with one `cell` per run.
fn row(
    t: &mut Table,
    label: impl Into<String>,
    runs: &[&RunStats],
    cell: impl Fn(&RunStats) -> String,
) {
    t.row(label, runs.iter().map(|s| cell(s)).collect());
}

/// Display name of an application in table headers.
fn app_title(app: CellApp) -> &'static str {
    match app {
        CellApp::Is => "IS",
        CellApp::Gauss => "Gauss",
        CellApp::Sor => "SOR",
        CellApp::Nn => "NN",
        CellApp::Serve => "Serve",
    }
}

/// The statistics rows shared by Tables 1, 2, 4, 6 and 8.
fn stats_rows(t: &mut Table, runs: &[&RunStats], with_acquire_time: bool) {
    row(t, "Time (Sec.)", runs, |s| Table::f(s.time_secs(), 2));
    row(t, "Barriers", runs, |s| Table::i(s.barriers()));
    row(t, "Acquires", runs, |s| Table::i(s.acquires()));
    row(t, "Data (MByte)", runs, |s| Table::f(s.data_mbytes(), 2));
    row(t, "Num. Msg", runs, |s| Table::i(s.num_msgs()));
    row(t, "Diff Requests", runs, |s| Table::i(s.diff_requests()));
    row(t, "Barrier Time (usec.)", runs, |s| {
        Table::f(s.barrier_time_usec(), 0)
    });
    if with_acquire_time {
        row(t, "Acquire Time (usec.)", runs, |s| {
            Table::f(s.acquire_time_usec(), 0)
        });
    }
    row(t, "Rexmit", runs, |s| Table::i(s.rexmits()));
    // Execution-time breakdown (§5 discussion): where did each protocol's
    // time go? Percentages of summed per-node virtual time; the four phase
    // rows plus send overhead cover every nanosecond except protocol CPU
    // counted inside "Send Overhead".
    for (label, phase) in [
        ("Compute (%)", Phase::Compute),
        ("Barrier Wait (%)", Phase::BarrierWait),
        ("Acquire Wait (%)", Phase::AcquireWait),
        ("Diff Wait (%)", Phase::DataWait),
    ] {
        row(t, label, runs, |s| Table::f(s.phase_pct(phase), 1));
    }
    row(t, "Send Overhead (%)", runs, |s| {
        Table::f(s.send_overhead_pct(), 1)
    });
    critpath_rows(t, runs);
}

/// Critical-path breakdown rows, appended to a statistics table when any
/// of its runs was profiled (`--critpath`). Every percentage is of the
/// *makespan*: unlike the summed-per-node breakdown above, these rows
/// decompose the single chain of events that determined the finish time.
/// Every cell, the NN MPI variant included, runs on the one cluster wiring
/// that installs the profiler, so a column renders `-` only when its run
/// was not profiled.
fn critpath_rows(t: &mut Table, runs: &[&RunStats]) {
    use vopp_metrics::{CritPath, OpKind};
    let crits: Vec<Option<&CritPath>> = runs.iter().map(|s| s.crit.as_deref()).collect();
    if crits.iter().all(Option::is_none) {
        return;
    }
    let ceiling = |x: f64| {
        if x.is_finite() {
            format!("{x:.2}x")
        } else {
            "inf".to_string()
        }
    };
    let mut cp_row = |label: &str, f: &dyn Fn(&CritPath) -> String| {
        t.row(
            label,
            crits
                .iter()
                .map(|c| c.map_or_else(|| "-".to_string(), f))
                .collect(),
        );
    };
    cp_row("CP Compute (%)", &|c| Table::f(c.pct(c.cpu_app_ns()), 1));
    cp_row("CP Overhead (%)", &|c| {
        Table::f(c.pct(c.cpu_overhead_ns()), 1)
    });
    cp_row("CP Diff CPU (%)", &|c| Table::f(c.pct(c.diff_cpu_ns()), 1));
    cp_row("CP Idle (%)", &|c| {
        Table::f(c.pct(c.cpu_op_ns(OpKind::Idle)), 1)
    });
    cp_row("CP Net Barrier (%)", &|c| {
        Table::f(c.pct(c.wait_ns(OpKind::Barrier)), 1)
    });
    cp_row("CP Net Acquire (%)", &|c| {
        Table::f(c.pct(c.wait_ns(OpKind::Acquire)), 1)
    });
    cp_row("CP Net Data (%)", &|c| {
        Table::f(c.pct(c.wait_ns(OpKind::Data)), 1)
    });
    cp_row("CP Net Flush (%)", &|c| {
        Table::f(c.pct(c.wait_ns(OpKind::Flush)), 1)
    });
    cp_row("CP Timeout (%)", &|c| Table::f(c.pct(c.timeout_ns()), 1));
    cp_row("Ceil. net free", &|c| {
        ceiling(c.ceiling(c.whatif_net_free_ns()))
    });
    cp_row("Ceil. diff free", &|c| {
        ceiling(c.ceiling(c.whatif_diff_free_ns()))
    });
    cp_row("Ceil. barrier free", &|c| {
        ceiling(c.ceiling(c.whatif_barrier_free_ns()))
    });
}

/// A statistics table (1, 2, 4, 6, 8): one column per cell, headed by its
/// protocol, on the stats processor count.
fn stats_table(scale: &Scale, name: &'static str, title: &str, with_acquire_time: bool) -> Table {
    let runs = scale.runs(name);
    let mut t = Table::new(
        format!("{title} on {} processors", scale.stats_procs()),
        runs.iter().map(|r| r.spec.proto.label().into()).collect(),
    );
    stats_rows(&mut t, &stats_of(&runs), with_acquire_time);
    t
}

/// A speedup table (3, 5, 7, 9): the traditional program on one processor
/// as the base, then one row per `labels` entry, each a run of the
/// speedup processor counts.
fn speedup_table(scale: &Scale, name: &'static str, title: &str, labels: &[&str]) -> Table {
    let procs = scale.speedup_procs();
    let runs = scale.runs(name);
    let (base, rows) = runs.split_first().expect("a speedup table has a base cell");
    assert_eq!(rows.len(), labels.len() * procs.len(), "{name} cell list");
    let base = base.stats.time.as_secs_f64();
    let mut t = Table::new(title, procs.iter().map(|p| format!("{p}-p")).collect());
    for (label, runs) in labels.iter().zip(rows.chunks(procs.len())) {
        row(&mut t, *label, &stats_of(runs), |s| {
            Table::f(base / s.time_secs(), 2)
        });
    }
    t
}

/// Table 1: Statistics of IS on the stats processor count.
pub fn table1(scale: &Scale) -> Table {
    stats_table(scale, "table1", "Table 1: Statistics of IS", false)
}

/// Table 2: Statistics of IS with fewer barriers (barrier hoisted, §3.2).
pub fn table2(scale: &Scale) -> Table {
    let title = "Table 2: Statistics of IS with fewer barriers";
    stats_table(scale, "table2", title, false)
}

/// Table 3: Speedup of IS on LRC_d and VC_sd (plus the hoisted-barrier
/// VOPP variant, the paper's `VC_sd lb` row).
pub fn table3(scale: &Scale) -> Table {
    let title = "Table 3: Speedup of IS on LRC_d and VC_sd";
    speedup_table(scale, "table3", title, &["LRC_d", "VC_sd", "VC_sd lb"])
}

/// Table 4: Statistics of Gauss.
pub fn table4(scale: &Scale) -> Table {
    stats_table(scale, "table4", "Table 4: Statistics of Gauss", false)
}

/// Table 5: Speedup of Gauss on LRC_d and VC_sd.
pub fn table5(scale: &Scale) -> Table {
    let title = "Table 5: Speedup of Gauss on LRC_d and VC_sd";
    speedup_table(scale, "table5", title, &["LRC_d", "VC_sd"])
}

/// Table 6: Statistics of SOR.
pub fn table6(scale: &Scale) -> Table {
    stats_table(scale, "table6", "Table 6: Statistics of SOR", false)
}

/// Table 7: Speedup of SOR on LRC_d and VC_sd.
pub fn table7(scale: &Scale) -> Table {
    let title = "Table 7: Speedup of SOR on LRC_d and VC_sd";
    speedup_table(scale, "table7", title, &["LRC_d", "VC_sd"])
}

/// Table 8: Statistics of NN (includes the Acquire Time row).
pub fn table8(scale: &Scale) -> Table {
    stats_table(scale, "table8", "Table 8: Statistics of NN", true)
}

/// Table 9: Speedup of NN on LRC_d, VC_sd and MPI.
pub fn table9(scale: &Scale) -> Table {
    let title = "Table 9: Speedup of NN on LRC_d, VC_sd and MPI";
    speedup_table(scale, "table9", title, &["LRC_d", "VC_sd", "MPI"])
}

/// Extension table (not in the paper): the four traditional applications
/// on homeless vs. home-based LRC at the stats processor count — the
/// trade-off studied in the authors' companion work.
pub fn table_ext(scale: &Scale) -> Table {
    let np = scale.stats_procs();
    let runs = scale.runs("ext");
    let runs = stats_of(&runs);
    let columns = [
        "IS LRC_d",
        "IS HLRC",
        "Gauss LRC_d",
        "Gauss HLRC",
        "SOR LRC_d",
        "SOR HLRC",
        "NN LRC_d",
        "NN HLRC",
    ];
    let mut t = Table::new(
        format!("Extension: traditional applications on LRC_d vs HLRC_d, {np} processors"),
        columns.map(String::from).to_vec(),
    );
    row(&mut t, "Time (Sec.)", &runs, |s| Table::f(s.time_secs(), 2));
    row(&mut t, "Data (MByte)", &runs, |s| {
        Table::f(s.data_mbytes(), 2)
    });
    row(&mut t, "Num. Msg", &runs, |s| Table::i(s.num_msgs()));
    row(&mut t, "Diff/Page Requests", &runs, |s| {
        Table::i(s.diff_requests())
    });
    critpath_rows(&mut t, &runs);
    t
}

/// The serving table (not in the paper): the open-loop sharded KV store
/// across the full protocol matrix, at two offered loads and under the
/// fault scenarios of [`ServeFault`]. Latency columns report per-request
/// service time; the `x clean` rows divide each column's tail by the same
/// protocol's fault-free base-load cell, so crash/recovery degradation is
/// visible directly in the table.
pub fn table_serve(scale: &Scale) -> Table {
    let np = scale.stats_procs();
    let runs = scale.runs("serve");
    let columns = [
        "LRC_d",
        "HLRC",
        "ScC_d",
        "VC_d",
        "VC_sd",
        "LRC_d hi",
        "VC_sd hi",
        "LRC_d loss",
        "VC_sd loss",
        "LRC_d slow",
        "VC_sd slow",
        "VC_d crash",
        "VC_sd crash",
    ];
    let payloads: Vec<&ServePayload> = runs
        .iter()
        .map(|r| r.serve.as_ref().expect("serve cells carry a payload"))
        .collect();
    // Fault-free base-load tail per protocol: the degradation denominator.
    let clean = Some(ServeCell {
        load: ServeLoad::Base,
        fault: ServeFault::Clean,
    });
    let clean_of = |proto: Protocol| {
        runs.iter()
            .zip(&payloads)
            .find(|(r, _)| r.spec.proto == proto && r.spec.serve == clean)
            .map(|(_, p)| *p)
            .expect("every protocol has a clean base cell")
    };
    let cells = |f: &dyn Fn(&CellRecord, &ServePayload) -> String| -> Vec<String> {
        runs.iter().zip(&payloads).map(|(r, p)| f(r, p)).collect()
    };
    let usec = |ns: u64| Table::f(ns as f64 / 1000.0, 1);
    let mut t = Table::new(
        format!("Serve: open-loop KV store on {np} processors (protocol x load x faults)"),
        columns.map(String::from).to_vec(),
    );
    t.row(
        "Time (Sec.)",
        cells(&|r, _| Table::f(r.stats.time_secs(), 2)),
    );
    t.row(
        "Latency p50 (usec.)",
        cells(&|_, p| usec(p.latency.quantile(0.5))),
    );
    t.row("Latency p99 (usec.)", cells(&|_, p| usec(p.latency.p99())));
    t.row(
        "Latency p99.9 (usec.)",
        cells(&|_, p| usec(p.latency.p999())),
    );
    t.row(
        "Latency max (usec.)",
        cells(&|_, p| usec(p.latency.max_ns())),
    );
    t.row(
        "p99 x clean",
        cells(&|r, p| {
            let base = clean_of(r.spec.proto).latency.p99().max(1);
            Table::f(p.latency.p99() as f64 / base as f64, 2)
        }),
    );
    t.row(
        "p99.9 x clean",
        cells(&|r, p| {
            let base = clean_of(r.spec.proto).latency.p999().max(1);
            Table::f(p.latency.p999() as f64 / base as f64, 2)
        }),
    );
    t.row("Num. Msg", cells(&|r, _| Table::i(r.stats.num_msgs())));
    t.row("Rexmit", cells(&|r, _| Table::i(r.stats.rexmits())));
    t.row(
        "Recovered Pages",
        cells(&|_, p| Table::i(p.recovered_pages)),
    );
    critpath_rows(&mut t, &stats_of(&runs));
    t
}

/// Scale-out table (not in the paper): IS, Gauss and SOR at 64 and 128
/// nodes on the paper's baseline (LRC_d), home-based LRC and the headline
/// VOPP protocol (VC_sd): the heaviest cells of the quick sweep, and the
/// rig for host-performance work on the kernel's thread hand-offs.
pub fn table_scaling(scale: &Scale) -> Table {
    let runs = scale.runs("scaling");
    // One column per (app, nodes), holding one run per protocol with the
    // headline VOPP protocol last.
    let columns: Vec<&[CellRecord]> = runs
        .chunk_by(|a, b| (a.spec.app, a.spec.np) == (b.spec.app, b.spec.np))
        .collect();
    let mut t = Table::new(
        "Scale-out: IS/Gauss/SOR at 64 and 128 nodes".to_string(),
        columns
            .iter()
            .map(|c| format!("{} {}p", app_title(c[0].spec.app), c[0].spec.np))
            .collect(),
    );
    let by_proto: Vec<(&str, Vec<&RunStats>)> = columns[0]
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let stats = columns.iter().map(|c| &c[i].stats).collect();
            (r.spec.proto.label(), stats)
        })
        .collect();
    for (proto, stats) in &by_proto {
        row(&mut t, format!("{proto} Time (Sec.)"), stats, |s| {
            Table::f(s.time_secs(), 2)
        });
    }
    // The headline protocol's communication profile at scale.
    let (vc, stats) = by_proto.last().expect("scaling has protocols");
    row(&mut t, format!("{vc} Data (MByte)"), stats, |s| {
        Table::f(s.data_mbytes(), 2)
    });
    row(&mut t, format!("{vc} Num. Msg"), stats, |s| {
        Table::i(s.num_msgs())
    });
    critpath_rows(&mut t, stats);
    t
}

/// Network-generation table (not in the paper): the four applications
/// under LRC_d, VC_sd and VC_rdma as the interconnect advances from the
/// paper's 100 Mbps testbed through 10 GbE to an RDMA-class fabric. The
/// phase-accounting rows make the bottleneck shift directly visible: the
/// wait shares that dominate at 100 Mbps collapse with the network, the
/// compute share rises toward 100%, and on the RDMA fabric VC_rdma sheds
/// the residual acquire wait and protocol CPU that VC_sd still pays for
/// inline diff application.
pub fn table_netgen(scale: &Scale) -> Table {
    let np = scale.stats_procs();
    let runs = scale.runs("netgen");
    // One block of rows per application; its runs are the columns,
    // generation-major.
    let apps: Vec<&[CellRecord]> = runs.chunk_by(|a, b| a.spec.app == b.spec.app).collect();
    let mut t = Table::new(
        format!("Netgen: network generations on {np} processors (LRC_d / VC_sd / VC_rdma)"),
        apps[0]
            .iter()
            .map(|r| {
                let gen = r.spec.netgen.expect("netgen cells carry a generation");
                format!("{} {}", gen.label(), r.spec.proto.label())
            })
            .collect(),
    );
    for runs in apps {
        let label = app_title(runs[0].spec.app);
        let runs = stats_of(runs);
        row(&mut t, format!("{label} Time (Sec.)"), &runs, |s| {
            Table::f(s.time_secs(), 2)
        });
        row(&mut t, format!("{label} Data (MByte)"), &runs, |s| {
            Table::f(s.data_mbytes(), 2)
        });
        row(&mut t, format!("{label} Rexmit"), &runs, |s| {
            Table::i(s.rexmits())
        });
        for (phase_label, phase) in [
            ("Compute (%)", Phase::Compute),
            ("Proto CPU (%)", Phase::ProtoCpu),
            ("Barrier Wait (%)", Phase::BarrierWait),
            ("Acquire Wait (%)", Phase::AcquireWait),
            ("Diff Wait (%)", Phase::DataWait),
        ] {
            row(&mut t, format!("{label} {phase_label}"), &runs, |s| {
                Table::f(s.phase_pct(phase), 1)
            });
        }
        row(&mut t, format!("{label} Send Overhead (%)"), &runs, |s| {
            Table::f(s.send_overhead_pct(), 1)
        });
    }
    t
}

/// All tables in paper order: every registered table `all` includes.
pub fn all_tables(scale: &Scale) -> Vec<Table> {
    TABLES
        .iter()
        .filter(|(name, _)| !OPT_IN.contains(name))
        .map(|(_, render)| render(scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vopp_trace::{EventKind, Trace};

    #[test]
    fn an_oracle_is_computed_once_per_key_across_threads() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let calls = AtomicU64::new(0);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (calls, start) = (&calls, &start);
                s.spawn(move || {
                    start.wait();
                    for key in ["test-oracle/a", "test-oracle/bb"] {
                        let got = oracle(key.to_string(), || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            key.len() as u64
                        });
                        assert_eq!(got, key.len() as u64);
                    }
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    /// A run whose ring wrapped still writes its (truncated) artifacts as
    /// re-parsable documents, skips the checker, and lands on the list the
    /// harness reports when the sweep is over.
    #[test]
    fn a_wrapped_ring_is_written_and_reported() {
        let dir = std::env::temp_dir().join(format!("vopp-evicted-{}", std::process::id()));
        let scale = Scale {
            trace_dir: Some(dir.clone()),
            ..Scale::quick()
        };
        std::fs::create_dir_all(&dir).expect("temp trace dir");
        let tracer = Arc::new(Tracer::new(4));
        for i in 0..10 {
            // A release with no acquire: the checker would object, had the
            // trace been complete.
            let kind = EventKind::ReleaseDone {
                view: i,
                write: true,
            };
            tracer.record(1_000 * i, 0, kind);
        }
        let spec = CellSpec {
            app: CellApp::Is,
            variant: CellVariant::Vopp,
            proto: Protocol::VcSd,
            np: 4,
            serve: None,
            netgen: None,
        };
        scale.finish_trace(Some(tracer), &RunStats::default(), &spec);
        let stem = "is_vopp_vc_sd_4p";
        assert_eq!(
            *scale.trace_evictions.lock().unwrap(),
            vec![(stem.to_string(), 6)]
        );
        let text = std::fs::read_to_string(dir.join(format!("{stem}.events.json"))).unwrap();
        let trace = Trace::from_json(&text).expect("re-parsable");
        assert_eq!((trace.events.len(), trace.evicted), (4, 6));
        for suffix in ["perfetto.json", "report.txt"] {
            assert!(dir.join(format!("{stem}.{suffix}")).exists(), "{suffix}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
