//! Regenerate the paper's evaluation tables.
//!
//! ```text
//! cargo run -p vopp-bench --release --bin tables -- all
//! cargo run -p vopp-bench --release --bin tables -- table1 table3
//! cargo run -p vopp-bench --release --bin tables -- all --quick
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
//! artifacts that `make bench` compares byte for byte with the committed
//! baselines. Host cost (wall-clock, RSS, allocations per cell) is
//! measured by `benchmark/`.
//!
//! `--jobs N` (default: available parallelism) sizes the worker pool that
//! precomputes the sweep's cells. Every artifact is byte-identical for any
//! worker count — cells are independent deterministic simulations consumed
//! in sequential order. After the `[sweep: ...]` line, stderr carries one
//! `[cell <key>: <ns> ns]` line per cell, in cell-list order, with the real
//! time the cell took to simulate.
//!
//! The `scaling` table (64/128-node scale-out cells) is opt-in like `ext`
//! and `serve`: request it by name (`tables scaling`).
//!
//! The `netgen` table (IS/Gauss/SOR/NN across network generations under
//! LRC_d, VC_sd and VC_rdma, see `docs/NETWORK.md`) is opt-in the same
//! way: request it by name (`tables netgen`).
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
//! byte-identical.
//!
//! Anything else — a flag or a table name not listed above — is refused
//! with the usage text and exit code 2.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use vopp_bench::hostprof::peak_rss_bytes;
use vopp_bench::sweep::{cells_for, dedup_cells, run_sweep, OPT_IN, TABLES};
use vopp_bench::{MetricsSink, Scale};

const USAGE: &str = "usage: tables [--quick] [--jobs N] [--trace DIR] \
     [--metrics DIR] [--critpath] \
     (all | table1 .. table9 | ext | serve | scaling | netgen)*";

/// The command line, checked: every flag is one the usage text lists and
/// every positional names a table.
#[derive(Default)]
struct Cli {
    quick: bool,
    critpath: bool,
    jobs: Option<usize>,
    trace_dir: Option<PathBuf>,
    metrics_dir: Option<PathBuf>,
    wanted: Vec<String>,
}

fn parse_jobs(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs must be a positive integer, got {s:?}")),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut operand = |what: &str| match it.next() {
            Some(v) if !v.starts_with("--") => Ok(v.as_str()),
            _ => Err(format!("{arg} requires {what}")),
        };
        match arg.as_str() {
            "--quick" => cli.quick = true,
            "--critpath" => cli.critpath = true,
            "--jobs" => cli.jobs = Some(parse_jobs(operand("a positive integer")?)?),
            "--trace" => cli.trace_dir = Some(PathBuf::from(operand("a directory")?)),
            "--metrics" => cli.metrics_dir = Some(PathBuf::from(operand("a directory")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name if name == "all" || TABLES.iter().any(|(t, _)| *t == name) => {
                cli.wanted.push(name.to_string());
            }
            name => return Err(format!("unknown table {name:?}")),
        }
    }
    if cli.wanted.is_empty() {
        return Err("no table named".to_string());
    }
    Ok(cli)
}

/// Refuse the command line: the reason, the usage text, exit code 2.
fn usage_exit(reason: &str) -> ! {
    eprintln!("tables: {reason}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli {
        quick,
        critpath,
        jobs,
        trace_dir,
        metrics_dir,
        wanted,
    } = parse_cli(&args).unwrap_or_else(|e| usage_exit(&e));
    let jobs = jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
    let sink = metrics_dir.as_ref().map(|_| Arc::new(MetricsSink::new()));
    let mut scale = Scale {
        quick,
        trace_dir,
        metrics: sink.clone(),
        cache: None,
        critpath,
        trace_evictions: Default::default(),
    };
    let run_all = wanted.iter().any(|w| w == "all");
    let selected: Vec<_> = TABLES
        .into_iter()
        .filter(|(name, _)| (run_all && !OPT_IN.contains(name)) || wanted.iter().any(|w| w == name))
        .collect();

    // Precompute every selected cell on the worker pool; the table
    // functions below consume the cache in their original sequential
    // order, so all artifacts stay byte-identical for any --jobs value.
    let specs = dedup_cells(
        &selected
            .iter()
            .flat_map(|(name, _)| cells_for(name, &scale))
            .collect::<Vec<_>>(),
    );
    let cache = Arc::new(run_sweep(&scale, &specs, jobs));
    eprintln!(
        "[sweep: {} cells on {} worker(s) in {:.1?}]",
        cache.len(),
        cache.jobs,
        std::time::Duration::from_nanos(cache.total_wall_ns)
    );
    for spec in &specs {
        let key = spec.key();
        let wall_ns = cache.get(&key).expect("sweep ran every cell").wall_ns;
        eprintln!("[cell {key}: {wall_ns} ns]");
    }
    scale.cache = Some(cache);

    for (name, f) in &selected {
        let t0 = Instant::now();
        let table = f(&scale);
        eprintln!("[{name} generated in {:.1?}]", t0.elapsed());
        println!("{table}");
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
    if let Some(rss) = peak_rss_bytes() {
        eprintln!("[host: peak RSS {:.1} MiB]", rss as f64 / (1024.0 * 1024.0));
    }
    report_trace_evictions(&scale);
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
