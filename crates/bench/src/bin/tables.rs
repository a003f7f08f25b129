//! Regenerate the paper's evaluation tables.
//!
//! ```text
//! cargo run -p vopp-bench --release --bin tables -- all
//! cargo run -p vopp-bench --release --bin tables -- table1 table3
//! cargo run -p vopp-bench --release --bin tables -- all --quick
//! cargo run -p vopp-bench --release --bin tables -- all --json > tables.json
//! cargo run -p vopp-bench --release --bin tables -- table1 --trace /tmp/t
//! cargo run -p vopp-bench --release --bin tables -- all --quick --metrics out/
//! cargo run -p vopp-bench --release --bin tables -- all --jobs 4
//! ```
//!
//! `--trace <dir>` records a structured event trace of every cluster run,
//! writes `<app>_<variant>_<protocol>_<N>p.{events.json,perfetto.json,report.txt}`
//! into `<dir>` (the Perfetto file loads in <https://ui.perfetto.dev>), and
//! asserts the protocol conformance invariants on each trace.
//!
//! `--metrics <dir>` records every verified run and writes one
//! `BENCH_<app>.json` per application into `<dir>` — the machine-readable
//! artifacts consumed by the `metrics_diff` regression gate — plus
//! `BENCH_wallclock.json` (real time per cell; reported, never gated).
//!
//! `--jobs N` (or `VOPP_JOBS=N`; default: available parallelism) sizes the
//! worker pool that precomputes the sweep's cells. Every artifact is
//! byte-identical for any worker count — cells are independent
//! deterministic simulations consumed in sequential order.
//!
//! `--sim-workers N|auto` (or `VOPP_SIM_WORKERS=...`; default: 1)
//! additionally parallelizes *inside* each simulation: the kernel executes
//! conservative-lookahead windows of causally independent events on N
//! threads and merges them in virtual-time order (see `docs/PERFORMANCE.md`
//! §7). `auto` sizes the pool from the host and engages it only while the
//! rolling events-per-window density clears a measured crossover threshold,
//! so sparse paper-scale runs never pay dispatch costs. Composes with
//! `--jobs`; every artifact stays byte-identical for any combination. Runs
//! on networks without a lookahead bound (or below the 1 us floor, e.g. the
//! zero-latency what-if) fall back to sequential with a one-time notice.
//!
//! The `scaling` table (64/128-node scale-out cells, the regime where
//! `--sim-workers` pays) is opt-in like `ext` and `serve`: request it by
//! name (`tables scaling`).
//!
//! The `netgen` table (IS/Gauss/SOR/NN across network generations under
//! LRC_d, VC_sd and VC_rdma, see `docs/NETWORK.md`) is opt-in the same
//! way: request it by name (`tables netgen`).
//!
//! `--cache <dir>` keeps a persistent content-addressed store of finished
//! cells (`sweep-cache.json`) across invocations: a warm rerun simulates
//! nothing and replays the identical tables/metrics from disk. The cache is
//! addressed by a build fingerprint plus a scale/cost-model hash, so any
//! rebuild or configuration change invalidates it wholesale. Ignored when
//! `--trace` is set (trace artifacts require actually running the cells).
//!
//! `--faults <plan>` applies a global fault plan to every cell (e.g.
//! `loss=0.02@7,slow=0x1.5`): message loss and slowdowns reshape the
//! timing of all runs, while crash entries are acted on only by the
//! `serve` table (batch apps ignore them). The plan is folded into the
//! sweep-cache context hash, so cached cells never mix fault regimes.
//!
//! The `serve` table (open-loop service workload, see `docs/SERVING.md`)
//! is opt-in like `ext`: request it by name (`tables serve`), it is not
//! part of `all`.
//!
//! `--critpath` attaches the causal profiler to every run: each table
//! gains `CP ...` rows decomposing the virtual-time critical path (plus
//! what-if speedup ceilings), `--metrics` additionally writes
//! `BENCH_critpath.json`, and `--trace` additionally writes a
//! `<stem>.critpath.perfetto.json` track per run. Profiling is pure
//! observation: every other table, metric and trace stream stays
//! byte-identical. Like `--trace`, it disables `--cache` (a warm replay
//! carries no causal log to walk).
//!
//! `--racecheck` additionally runs the dynamic-checker suite (see
//! `docs/CORRECTNESS.md`): clean applications across all five
//! protocol×style cells must report zero violations, and the seeded-racy
//! variants must report their exact known-answer counts. Exits nonzero on
//! any mismatch. May be used alone (`tables --racecheck`) without
//! generating tables. Checking never perturbs the table sweep: all other
//! artifacts stay byte-identical with or without this flag.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use vopp_bench::hostprof::{peak_rss_bytes, CountingAlloc, StageStats, StageTimer};
use vopp_bench::sweep::{
    cells_for, context_hash, dedup_cells, run_sweep_cached, write_wallclock, DiskCache,
};
use vopp_bench::tables;
use vopp_bench::{MetricsSink, Scale, Table};
use vopp_core::FaultPlan;
use vopp_trace::json::Value;

/// Count every allocation the table run makes; the per-stage deltas land
/// in `BENCH_wallclock.json`. Library users and tests don't pay for this —
/// only this binary installs the counting allocator.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn jobs_from(args: &[String]) -> usize {
    let parse = |s: &str, what: &str| match s.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("{what} must be a positive integer, got {s:?}");
            std::process::exit(2);
        }
    };
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        match args.get(i + 1) {
            Some(n) if !n.starts_with("--") => return parse(n, "--jobs"),
            _ => {
                eprintln!("--jobs requires a positive integer argument");
                std::process::exit(2);
            }
        }
    }
    if let Ok(n) = std::env::var("VOPP_JOBS") {
        return parse(&n, "VOPP_JOBS");
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn sim_workers_from(args: &[String]) -> usize {
    let parse = |s: &str, what: &str| {
        if s == "auto" {
            return vopp_sim::SIM_WORKERS_AUTO;
        }
        match s.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("{what} must be a positive integer or \"auto\", got {s:?}");
                std::process::exit(2);
            }
        }
    };
    if let Some(i) = args.iter().position(|a| a == "--sim-workers") {
        match args.get(i + 1) {
            Some(n) if !n.starts_with("--") => return parse(n, "--sim-workers"),
            _ => {
                eprintln!("--sim-workers requires a positive integer or \"auto\"");
                std::process::exit(2);
            }
        }
    }
    if let Ok(n) = std::env::var("VOPP_SIM_WORKERS") {
        return parse(&n, "VOPP_SIM_WORKERS");
    }
    1
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let racecheck = args.iter().any(|a| a == "--racecheck");
    let critpath = args.iter().any(|a| a == "--critpath");
    let jobs = jobs_from(&args);
    // Intra-run parallel kernel width for every simulation this process
    // runs. Composes freely with --jobs: --jobs parallelizes across cells,
    // --sim-workers inside each one; artifacts are byte-identical for any
    // combination. The race-checker suite always forces its own runs
    // sequential (see `vopp_dsm::ClusterConfig::sim_workers`).
    vopp_sim::set_sim_workers_default(sim_workers_from(&args));
    let dir_flag = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .map(|i| match args.get(i + 1) {
                Some(dir) if !dir.starts_with("--") => PathBuf::from(dir),
                _ => {
                    eprintln!("{flag} requires a directory argument");
                    std::process::exit(2);
                }
            })
    };
    let trace_dir = dir_flag("--trace");
    let metrics_dir = dir_flag("--metrics");
    let mut cache_dir = dir_flag("--cache");
    let faults = match args.iter().position(|a| a == "--faults") {
        None => FaultPlan::default(),
        Some(i) => match args.get(i + 1) {
            Some(spec) if !spec.starts_with("--") => match FaultPlan::parse(spec) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("--faults: {e}");
                    std::process::exit(2);
                }
            },
            _ => {
                eprintln!("--faults requires a fault-plan argument (e.g. loss=0.02@7)");
                std::process::exit(2);
            }
        },
    };
    if cache_dir.is_some() && trace_dir.is_some() {
        eprintln!("[cache: disabled — --trace requires simulating every cell]");
        cache_dir = None;
    }
    if cache_dir.is_some() && critpath {
        eprintln!("[cache: disabled — --critpath requires simulating every cell]");
        cache_dir = None;
    }
    let wanted: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            // Skip flags and the --trace/--metrics/--jobs/--cache/--faults
            // operands.
            !a.starts_with("--")
                && !matches!(args.get(i.wrapping_sub(1)),
                    Some(prev) if prev == "--trace" || prev == "--metrics"
                        || prev == "--jobs" || prev == "--cache"
                        || prev == "--faults" || prev == "--sim-workers")
        })
        .map(|(_, s)| s.as_str())
        .collect();
    if wanted.is_empty() && !racecheck {
        eprintln!(
            "usage: tables [--quick] [--json] [--jobs N] [--sim-workers N|auto] [--trace DIR] \
             [--metrics DIR] [--cache DIR] [--faults PLAN] [--critpath] [--racecheck] \
             (all | table1 .. table9 | ext | serve | scaling | netgen)*"
        );
        std::process::exit(2);
    }
    if racecheck && wanted.is_empty() {
        run_racecheck_suite();
        return;
    }
    let sink = metrics_dir.as_ref().map(|_| Arc::new(MetricsSink::new()));
    let mut scale = Scale {
        quick,
        trace_dir,
        metrics: sink.clone(),
        net_override: None,
        netgen: None,
        cache: None,
        faults,
        critpath,
        trace_evictions: Default::default(),
    };
    type TableFn = fn(&Scale) -> Table;
    let table_fns: Vec<(&str, TableFn)> = vec![
        ("table1", tables::table1),
        ("table2", tables::table2),
        ("table3", tables::table3),
        ("table4", tables::table4),
        ("table5", tables::table5),
        ("table6", tables::table6),
        ("table7", tables::table7),
        ("table8", tables::table8),
        ("table9", tables::table9),
        ("ext", tables::table_ext),
        ("serve", tables::table_serve),
        ("scaling", tables::table_scaling),
        ("netgen", tables::table_netgen),
    ];
    let run_all = wanted.contains(&"all");
    let opt_in = ["ext", "serve", "scaling", "netgen"];
    let selected: Vec<(&str, TableFn)> = table_fns
        .into_iter()
        .filter(|(name, _)| (run_all && !opt_in.contains(name)) || wanted.contains(name))
        .collect();

    // Precompute every selected cell on the worker pool; the table
    // functions below consume the cache in their original sequential
    // order, so all artifacts stay byte-identical for any --jobs value.
    // Each stage's wall-clock and allocation delta lands in
    // `BENCH_wallclock.json`.
    let mut stages: Vec<StageStats> = Vec::new();
    let stage = StageTimer::start("enumerate");
    let specs = dedup_cells(
        &selected
            .iter()
            .flat_map(|(name, _)| cells_for(name, &scale))
            .collect::<Vec<_>>(),
    );
    stages.push(stage.finish());
    let stage = StageTimer::start("simulate");
    let mut disk = cache_dir
        .as_ref()
        .map(|dir| DiskCache::open(dir, context_hash(&scale)));
    let cache = Arc::new(run_sweep_cached(&scale, &specs, jobs, disk.as_mut()));
    stages.push(stage.finish());
    eprintln!(
        "[sweep: {} cells on {} worker(s) in {:.1?}]",
        cache.len(),
        cache.jobs,
        std::time::Duration::from_nanos(cache.total_wall_ns)
    );
    if disk.is_some() {
        eprintln!(
            "[cache: {} warm, {} simulated]",
            cache.warm_cells, cache.simulated_cells
        );
    }
    scale.cache = Some(cache.clone());

    let stage = StageTimer::start("render");
    let mut produced = Vec::new();
    for (name, f) in &selected {
        let t0 = Instant::now();
        let table = f(&scale);
        eprintln!("[{name} generated in {:.1?}]", t0.elapsed());
        if json {
            produced.push(table);
        } else {
            println!("{table}");
        }
    }
    if json {
        let v = Value::Arr(produced.iter().map(Table::to_value).collect());
        println!("{}", v.to_json_pretty());
    }
    if let (Some(sink), Some(dir)) = (&sink, &metrics_dir) {
        match sink.write_all(dir) {
            Ok(files) => eprintln!(
                "[metrics: {} cells -> {} in {}]",
                sink.len(),
                files.join(", "),
                dir.display()
            ),
            Err(e) => {
                eprintln!("failed to write metrics into {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    stages.push(stage.finish());
    // Written last so the artifact covers every stage of the run.
    if let Some(dir) = &metrics_dir {
        if let Err(e) = write_wallclock(&cache, &stages, dir) {
            eprintln!("failed to write BENCH_wallclock.json: {e}");
            std::process::exit(1);
        }
    }
    if let Some(rss) = peak_rss_bytes() {
        eprintln!("[host: peak RSS {:.1} MiB]", rss as f64 / (1024.0 * 1024.0));
    }
    report_trace_evictions(&scale);
    if racecheck {
        run_racecheck_suite();
    }
}

/// The closing line of a traced run: every cell whose trace ring wrapped
/// (truncated exports, conformance check skipped), or that none did. The
/// per-cell notices scroll away in a sweep; this one stays on screen.
fn report_trace_evictions(scale: &Scale) {
    let Some(dir) = &scale.trace_dir else { return };
    let mut evicted = std::mem::take(
        &mut *scale
            .trace_evictions
            .lock()
            .expect("trace eviction list lock"),
    );
    if evicted.is_empty() {
        eprintln!("[trace: every ring complete in {}]", dir.display());
        return;
    }
    // Sweep workers finish in any order.
    evicted.sort();
    let cells: Vec<String> = evicted
        .iter()
        .map(|(stem, lost)| format!("{stem} ({lost} events lost)"))
        .collect();
    eprintln!(
        "[trace: WARNING: {} cell(s) evicted events, exports truncated and unchecked: {}]",
        cells.len(),
        cells.join(", ")
    );
}

/// Run the dynamic-checker suite and exit nonzero on any count mismatch.
fn run_racecheck_suite() {
    let t0 = Instant::now();
    let outcome = vopp_bench::run_racecheck();
    print!("{}", outcome.render());
    eprintln!("[racecheck suite in {:.1?}]", t0.elapsed());
    if !outcome.ok() {
        std::process::exit(1);
    }
}
