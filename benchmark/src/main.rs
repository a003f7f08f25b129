//! `vopp-hostbench`: how fast is the simulator itself?
//!
//! Two modes (see README.md):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` measures one workload in
//!   this process and prints, as the last line of stdout, the result object
//!   `BENCHMARK.json` specifies;
//! * without `--workload` it runs the whole suite, each (round, workload) in
//!   a fresh child process, and writes `benchmark/out/results.json`.

mod measure;
mod probes;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use vopp_bench::{peak_rss_bytes, CountingAlloc};
use vopp_trace::json::{num, obj, str, Value};

use measure::{calib_spin_ms, median, summarize, HostCost, Summary, CALIB_REF_MS};
use spans::{self_time_by_layer, Spans};
use workloads::{build, run_plain_twins, run_rep, shape_checks, Rep, Workload, WORKLOADS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Scratch and result files, relative to the repository root (`run.sh`
/// changes into it).
const OUT_DIR: &str = "benchmark/out";

/// Seed-0 stat fingerprint of every cell (see README "Virtual-time drift").
const FINGERPRINTS: &str = include_str!("../fingerprints.json");

/// `(name, unit)` of the end-to-end metrics, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 6] = [
    ("host_wall_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("alloc_count", "allocs/rep"),
    ("alloc_mib", "MiB/rep"),
    ("setup_s", "s"),
];

/// `(name, unit)` of the per-layer metrics, as in `BENCHMARK.json`. A metric
/// the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 65] = [
    ("virt_time_s", "virt_s"),
    ("virt_op_p99_us", "virt_us"),
    ("shape_checks_failed", "count"),
    ("fail_share", "share"),
    ("sim.handoffs", "count"),
    ("sim.via_controller", "count"),
    ("sim.handoff_ns", "ns"),
    ("sim.spawn_us", "us"),
    ("sim.pingpong_ns", "ns"),
    ("simnet.msgs", "count"),
    ("simnet.wire_mb", "MB"),
    ("simnet.rexmits", "count"),
    ("simnet.route_ns", "ns"),
    ("simnet.est_share", "share"),
    ("page.diff_create_sparse_ns", "ns"),
    ("page.diff_create_dense_ns", "ns"),
    ("page.diff_apply_ns", "ns"),
    ("page.diff_merge_ns", "ns"),
    ("page.pool_cycle_ns", "ns"),
    ("dsm.acquires", "count"),
    ("dsm.barriers", "count"),
    ("dsm.diff_requests", "count"),
    ("dsm.view_pingpong_us", "us"),
    ("dsm.barrier_us", "us"),
    ("dsm.fault_fetch_us", "us"),
    ("dsm.virt_drift_cells", "count"),
    ("dsm.residual_share", "share"),
    ("core.accessor_s", "s"),
    ("apps.reference_s", "s"),
    ("apps.compute_share", "share"),
    ("mpi.nn16_s", "s"),
    ("serve.read95_s", "s"),
    ("serve.write50_s", "s"),
    ("serve.crash_s", "s"),
    ("serve.schedule_ms", "ms"),
    ("serve.virt_p50_us", "virt_us"),
    ("serve.virt_p999_us", "virt_us"),
    ("serve.recovered_pages", "count"),
    ("trace.events", "count"),
    ("trace.evicted", "count"),
    ("trace.export_mb", "MB"),
    ("trace.record_overhead_s", "s"),
    ("trace.to_json_s", "s"),
    ("trace.perfetto_s", "s"),
    ("trace.report_s", "s"),
    ("trace.check_s", "s"),
    ("metrics.critpath_export_s", "s"),
    ("metrics.hist_record_ns", "ns"),
    ("bench.sweep_cold_s", "s"),
    ("bench.cache_save_s", "s"),
    ("bench.cache_warm_s", "s"),
    ("bench.render_s", "s"),
    ("bench.cache_kb", "KiB"),
    ("host.user_s", "s"),
    ("host.sys_s", "s"),
    ("host.sys_share", "share"),
    ("host.wall_raw_s", "s"),
    ("host.wall_min_s", "s"),
    ("host.wall_iqr_s", "s"),
    ("host.calib_ms", "ms"),
    ("host.disturbed_share", "share"),
    ("host.pinned", "count"),
    ("host.trace_overhead_share", "share"),
    ("host.build_s", "s"),
    ("host.reps", "count"),
];

/// Metrics that must agree exactly between two runs of one commit at one
/// seed: the simulator is deterministic.
const EXACT: [&str; 6] = [
    "virt_time_s",
    "virt_op_p99_us",
    "shape_checks_failed",
    "fail_share",
    "sim.handoffs",
    "simnet.msgs",
];

const MIB: f64 = 1024.0 * 1024.0;
/// Timed reps per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// No more reps are started past this, so that a run on a stalled host still
/// ends well inside the driver's 180 s limit.
const HARD_STOP_S: f64 = 100.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    rounds: usize,
    selfcheck: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh --workload <{}> --seed N --seconds S --trace 0|1\n       \
         run.sh [--seed N] [--rounds R] [--seconds S] [--trace 0|1] [--selfcheck]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        rounds: 5,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            a.selfcheck = true;
            continue;
        }
        let Some(v) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&v.as_str()) => a.workload = Some(v),
            "--seed" => a.seed = v.parse().unwrap_or_else(|_| usage()),
            "--seconds" => match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 60.0 => a.seconds = Some(s),
                _ => usage(),
            },
            "--trace" if v == "0" || v == "1" => a.trace = v == "1",
            "--rounds" => match v.parse() {
                // Fewer than five rounds leave no quartiles worth the name.
                Ok(r) if r >= 5 => a.rounds = r,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    a
}

fn main() -> ExitCode {
    let args = parse_args();
    if !measure::pinned() {
        eprintln!("warning: not pinned to one CPU (taskset unavailable?); timings will be noisy");
    }
    let ok = match &args.workload {
        Some(w) => {
            let report = run_single(w, args.seed, args.seconds.unwrap_or(12.0), args.trace);
            report.print();
            true
        }
        None if args.selfcheck => selfcheck(&args),
        None => {
            let set = run_suite(&args, args.trace);
            print_suite(&set);
            write_results(&set);
            set.values().all(|w| w.correct)
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// One measured run of one workload (the BENCHMARK.json contract)
// ---------------------------------------------------------------------

struct Report {
    workload: String,
    seed: u64,
    trace: bool,
    correct: bool,
    attempted: usize,
    failed: usize,
    /// Order statistics over the run's reps (set-ups for `setup_s`).
    end_to_end: BTreeMap<&'static str, Summary>,
    per_layer: BTreeMap<&'static str, f64>,
    fingerprints: Vec<(String, u64, bool)>,
    shapes: Vec<(String, bool)>,
    layer_self_s: BTreeMap<&'static str, f64>,
    /// `paper16` only: its IS cells beside EXPERIMENTS.md's Table 1.
    cross_check: Option<String>,
}

/// Build the inputs and run the miniature warm-up pass, which fills the
/// allocator's and the kernel's caches before anything is timed. Returns the
/// workload, whether the warm-up passed its oracles, and the set-up's
/// wall-clock normalised by the calibration spins around it.
fn setup(name: &str, seed: u64) -> (Workload, bool, f64) {
    let before = calib_spin_ms();
    let t0 = Instant::now();
    let out = Path::new(OUT_DIR);
    let full = build(name, seed, false, out);
    let warm = run_rep(&build(name, seed, true, out), &mut Spans::new(false), false);
    let wall_s = t0.elapsed().as_secs_f64();
    let calib_ms = (before + calib_spin_ms()) / 2.0;
    (full, warm.failed() == 0, wall_s * CALIB_REF_MS / calib_ms)
}

/// The wall-clock of one rep at the reference host's quiet speed, from
/// `reps` of it: every part of the rep (a cell, the sweep) is normalised by
/// its own bracketing spins, the median over the reps is taken **per part**,
/// and the parts' medians are added. A burst of noise then spoils one part of
/// one rep, which that part's median discards, and not a whole rep.
fn normalised_wall_s(reps: &[Rep]) -> f64 {
    (0..reps[0].parts.len())
        .map(|k| median(&reps.iter().map(|r| r.parts[k].wall_s()).collect::<Vec<_>>()))
        .sum()
}

/// Simulated events of one rep: kernel wake-ups plus datagrams.
fn events(rep: &Rep) -> f64 {
    let cost = rep.cost();
    (cost.handoffs_direct + cost.handoffs_via_controller + rep.sum(|p| p.stats.net.msgs)) as f64
}

fn end_to_end_metrics(
    reps: &[Rep],
    setups: &[f64],
    peak_rss: u64,
) -> BTreeMap<&'static str, Summary> {
    let series = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    // Order statistics of whole reps, for the spread; the value reported in
    // their middle is the sum of the per-part medians.
    let wall = Summary {
        median: normalised_wall_s(reps),
        ..summarize(&series(&Rep::wall_s))
    };
    let events_per_s = Summary {
        median: events(&reps[0]) / wall.median,
        ..summarize(&series(&|r| events(r) / r.wall_s()))
    };
    BTreeMap::from([
        ("host_wall_s", wall),
        ("events_per_s", events_per_s),
        ("peak_rss_mib", summarize(&[peak_rss as f64 / MIB])),
        (
            "alloc_count",
            summarize(&series(&|r| r.cost().allocs as f64)),
        ),
        (
            "alloc_mib",
            summarize(&series(&|r| r.cost().alloc_bytes as f64 / MIB)),
        ),
        ("setup_s", summarize(setups)),
    ])
}

/// Whether the run's outputs are correct: every cell of every rep against
/// its oracle, every rep simulating exactly the same thing, no drift from the
/// recorded fingerprints, and (at the committed seeds) the paper's shape.
struct Verdict {
    correct: bool,
    failed: usize,
    drift: usize,
    fingerprints: Vec<(String, u64, bool)>,
    shapes: Vec<(String, bool)>,
}

fn judge(name: &str, seed: u64, reps: &[Rep], warm_ok: bool) -> Verdict {
    let last = reps.last().expect("at least MIN_REPS reps");
    let fingerprints = last.fingerprints();
    let deterministic = reps.iter().all(|r| r.fingerprints() == fingerprints);
    if !deterministic {
        eprintln!("[{name}: reps of one process disagree on virtual statistics]");
    }
    let recorded = Value::parse(FINGERPRINTS).expect("fingerprints.json is valid JSON");
    let drift = fingerprints
        .iter()
        .filter(|(key, fp, seed_free)| {
            let want = recorded
                .get(name)
                .and_then(|w| w.get(key))
                .and_then(Value::as_str);
            (seed == 0 || *seed_free) && want != Some(format!("{fp:016x}").as_str())
        })
        .count();
    let shapes = shape_checks(last);
    let shapes_hold = shapes.iter().all(|(_, holds)| *holds);
    let failed = reps.iter().map(Rep::failed).max().unwrap_or(0);
    Verdict {
        correct: warm_ok
            && failed == 0
            && deterministic
            && drift == 0
            && (seed != 0 || shapes_hold),
        failed,
        drift,
        fingerprints,
        shapes,
    }
}

/// The per-layer metrics every run can give: exact counts (identical on
/// every rep) and the host's view of the reps. Probe and span metrics stay 0
/// until a traced pass fills them in.
fn layer_counts(
    name: &str,
    reps: &[Rep],
    verdict: &Verdict,
    wall: &Summary,
) -> BTreeMap<&'static str, f64> {
    let last = reps.last().expect("at least MIN_REPS reps");
    let costs: Vec<HostCost> = reps.iter().map(Rep::cost).collect();
    let series = |f: &dyn Fn(&HostCost) -> f64| costs.iter().map(f).collect::<Vec<f64>>();
    let ops = last.ops();
    let (user, sys) = (
        median(&series(&|c| c.user_s)),
        median(&series(&|c| c.sys_s)),
    );
    let raw_wall = summarize(&series(&|c| c.wall_s));
    let spins: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.parts.iter().map(|p| p.calib_ms))
        .collect();
    let calib = summarize(&spins);
    let shapes_failed = verdict.shapes.iter().filter(|(_, holds)| !holds).count();
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    m.extend([
        (
            "virt_time_s",
            last.sum(|p| p.stats.time.nanos()) as f64 / 1e9,
        ),
        ("virt_op_p99_us", ops.p99() as f64 / 1e3),
        ("shape_checks_failed", shapes_failed as f64),
        (
            "fail_share",
            verdict.failed as f64 / last.attempted() as f64,
        ),
        (
            "sim.handoffs",
            (costs[0].handoffs_direct + costs[0].handoffs_via_controller) as f64,
        ),
        (
            "sim.via_controller",
            costs[0].handoffs_via_controller as f64,
        ),
        ("simnet.msgs", last.sum(|p| p.stats.net.msgs) as f64),
        (
            "simnet.wire_mb",
            last.sum(|p| p.stats.net.bytes) as f64 / 1e6,
        ),
        ("simnet.rexmits", last.sum(|p| p.stats.nodes.rexmits) as f64),
        ("dsm.acquires", last.sum(|p| p.stats.nodes.acquires) as f64),
        ("dsm.barriers", last.sum(|p| p.stats.nodes.barriers) as f64),
        (
            "dsm.diff_requests",
            last.sum(|p| p.stats.nodes.diff_requests) as f64,
        ),
        ("dsm.virt_drift_cells", verdict.drift as f64),
        (
            "serve.recovered_pages",
            last.sum(|p| p.recovered_pages) as f64,
        ),
        ("trace.events", last.sum(|p| p.trace_events) as f64),
        ("trace.evicted", last.sum(|p| p.trace_evicted) as f64),
        ("trace.export_mb", last.sum(|p| p.export_bytes) as f64 / 1e6),
        (
            "bench.cache_kb",
            last.parts.iter().map(|p| p.cache_kb).sum(),
        ),
        ("host.user_s", user),
        ("host.sys_s", sys),
        (
            "host.sys_share",
            if user + sys > 0.0 {
                sys / (user + sys)
            } else {
                0.0
            },
        ),
        ("host.wall_raw_s", raw_wall.median),
        ("host.wall_min_s", raw_wall.min),
        ("host.wall_iqr_s", wall.q3 - wall.q1),
        ("host.calib_ms", calib.median),
        (
            "host.disturbed_share",
            spins.iter().filter(|ms| **ms > 1.10 * calib.min).count() as f64 / spins.len() as f64,
        ),
        ("host.pinned", f64::from(u8::from(measure::pinned()))),
        ("host.reps", reps.len() as f64),
        (
            "host.build_s",
            std::env::var("VOPP_HOSTBENCH_BUILD_S")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.0),
        ),
    ]);
    if name == "serve16" {
        m.insert("serve.virt_p50_us", ops.quantile(0.5) as f64 / 1e3);
        m.insert("serve.virt_p999_us", ops.p999() as f64 / 1e3);
    }
    m
}

fn run_single(name: &str, seed: u64, seconds: f64, trace: bool) -> Report {
    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    let (workload, mut warm_ok, first_setup_s) = setup(name, seed);
    let mut setups = vec![first_setup_s];
    // The traced run reports no `setup_s`, so it sets up once.
    for _ in 1..if trace { 1 } else { SETUPS } {
        let (_, ok, s) = setup(name, seed);
        warm_ok &= ok;
        setups.push(s);
    }

    let mut spans = Spans::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    // The traced run spends half its time on the plain reps that the traced
    // rep and the computed shares are compared with.
    let budget = if trace { seconds / 2.0 } else { seconds };
    let t0 = Instant::now();
    while reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < budget.min(HARD_STOP_S) {
        spans.rep = reps.len() as u32;
        let rep = run_rep(&workload, &mut spans, true);
        let cost = rep.cost();
        eprintln!(
            "[rep {}: wall {:.4} s (normalised {:.4} s), cpu {:.2} s]",
            reps.len(),
            cost.wall_s,
            rep.wall_s(),
            cost.user_s + cost.sys_s
        );
        reps.push(rep);
    }
    let peak_rss = peak_rss_bytes().unwrap_or(0);

    let end_to_end = end_to_end_metrics(&reps, &setups, peak_rss);
    let verdict = judge(name, seed, &reps, warm_ok);
    let mut per_layer = layer_counts(name, &reps, &verdict, &end_to_end["host_wall_s"]);
    let last = reps.last().expect("at least MIN_REPS reps");

    let mut layer_self_s = BTreeMap::new();
    if trace {
        traced_pass(&workload, &mut spans, &mut per_layer, last);
        layer_self_s = self_time_by_layer(&spans.spans);
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        std::fs::write(&path, spans.to_chrome_json()).expect("write the span trace");
        eprintln!("[spans: {} -> {}]", spans.spans.len(), path.display());
    }

    // The full-size instance is in EXPERIMENTS.md; this one is smaller, so
    // only the ordering can agree (it is one of the shape checks).
    let cross_check = (name == "paper16").then(|| {
        let secs: Vec<String> = last.parts[..3]
            .iter()
            .map(|c| format!("{:.2}", c.stats.time_secs()))
            .collect();
        format!(
            "cross-check: IS LRC_d/VC_d/VC_sd = {} virtual s here (2^21 keys, 12 reps); \
             EXPERIMENTS.md Table 1 (2^23 keys, 40 reps): 11.19/4.96/2.75 s",
            secs.join("/")
        )
    });

    Report {
        workload: name.to_string(),
        seed,
        trace,
        correct: verdict.correct,
        cross_check,
        attempted: last.attempted(),
        failed: verdict.failed,
        end_to_end,
        per_layer,
        fingerprints: verdict.fingerprints,
        shapes: verdict.shapes,
        layer_self_s,
    }
}

/// The traced half of a `--trace 1` run: one rep with spans on, the plain
/// twins of `observe`'s cells, the oracles and one-node runs behind
/// `paper16`'s compute share, and the probes; then the computed shares.
fn traced_pass(w: &Workload, spans: &mut Spans, m: &mut BTreeMap<&'static str, f64>, plain: &Rep) {
    let plain_wall_s = m["host.wall_raw_s"];
    spans.set_enabled(true);
    spans.rep += 1;
    let traced = spans.scope("bench", "bench", |spans| {
        let traced = run_rep(w, spans, false);
        if w.name == "observe" {
            let plain_s = run_plain_twins(w, spans);
            let recorded_s = spans.total_s(|n| n.starts_with("cell:"))
                - spans.total_s(|n| n.starts_with("trace.") || n.starts_with("metrics."));
            m.insert("trace.record_overhead_s", recorded_s - plain_s);
        }
        if w.name == "paper16" {
            let (reference_s, one_node_s) = workloads::paper16_floor(spans);
            m.insert("apps.reference_s", reference_s);
            m.insert("core.accessor_s", one_node_s - reference_s);
        }
        for (name, value) in probes::run_all(spans) {
            m.insert(name, value);
        }
        traced
    });
    m.insert(
        "host.trace_overhead_share",
        traced.cost().wall_s / plain_wall_s - 1.0,
    );
    for name in [
        "trace.to_json_s",
        "trace.perfetto_s",
        "trace.report_s",
        "trace.check_s",
        "metrics.critpath_export_s",
        "bench.sweep_cold_s",
        "bench.cache_save_s",
        "bench.cache_warm_s",
        "bench.render_s",
    ] {
        m.insert(name, spans.total_s(|n| n == name));
    }
    let cells = |mix: &str, crash: bool| {
        spans.total_s(|n| {
            n.starts_with(&format!("cell:serve/{mix}/")) && n.ends_with("/crash") == crash
        })
    };
    m.insert("serve.read95_s", cells("read95", false));
    m.insert("serve.write50_s", cells("write50", false));
    m.insert(
        "serve.crash_s",
        cells("read95", true) + cells("write50", true),
    );
    m.insert("mpi.nn16_s", spans.total_s(|n| n == "cell:nn/mpi/MPI/16"));

    // Computed, not measured: each probe's unit cost times the rep's exact
    // operation count, as a share of the plain rep's wall-clock.
    let share = |ns: f64| ns / 1e9 / plain_wall_s;
    let sim = share(m["sim.handoffs"] * m["sim.handoff_ns"]);
    let simnet = share(m["simnet.msgs"] * m["simnet.route_ns"]);
    let page = share(
        plain.sum(|p| p.stats.nodes.diffs_created) as f64 * m["page.diff_create_sparse_ns"]
            + plain.sum(|p| p.stats.nodes.diffs_applied) as f64 * m["page.diff_apply_ns"]
            + plain.sum(|p| p.stats.nodes.twins) as f64 * m["page.pool_cycle_ns"],
    );
    // Each paper16 column of an application computes what its oracle does.
    let apps = if w.name == "paper16" {
        m["apps.reference_s"] * 13.0 / 4.0 / plain_wall_s
    } else {
        0.0
    };
    m.insert("simnet.est_share", simnet);
    m.insert("apps.compute_share", apps);
    m.insert("dsm.residual_share", 1.0 - (apps + sim + simnet + page));
}

fn summary_json(s: &Summary) -> Value {
    obj(vec![
        ("n", num(s.n as u64)),
        ("min", Value::Num(s.min)),
        ("q1", Value::Num(s.q1)),
        ("median", Value::Num(s.median)),
        ("q3", Value::Num(s.q3)),
    ])
}

fn floats_json<K: AsRef<str>>(m: &BTreeMap<K, f64>) -> Value {
    obj(m
        .iter()
        .map(|(k, v)| (k.as_ref(), Value::Num(*v)))
        .collect())
}

impl Report {
    /// The metrics the last line carries: end-to-end ones on a plain run,
    /// per-layer ones on a traced run.
    fn contract_metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        if self.trace {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, self.per_layer[n]))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n, u, self.end_to_end[n].median))
                .collect()
        }
    }

    fn result_line(&self) -> String {
        let metrics = self
            .contract_metrics()
            .into_iter()
            .map(|(n, u, v)| (n, obj(vec![("value", Value::Num(v)), ("unit", str(u))])))
            .collect();
        obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", num(self.attempted as u64)),
            ("failed", num(self.failed as u64)),
            ("metrics", obj(metrics)),
        ])
        .to_json()
    }

    /// Everything the suite aggregates, as one JSON object.
    fn detail(&self) -> Value {
        obj(vec![
            ("workload", str(&self.workload)),
            ("seed", num(self.seed)),
            ("correct", Value::Bool(self.correct)),
            (
                "end_to_end",
                obj(self
                    .end_to_end
                    .iter()
                    .map(|(k, s)| (*k, summary_json(s)))
                    .collect()),
            ),
            ("per_layer", floats_json(&self.per_layer)),
            ("layer_self_s", floats_json(&self.layer_self_s)),
            (
                "fingerprints",
                Value::Obj(
                    self.fingerprints
                        .iter()
                        .map(|(k, fp, _)| (k.clone(), str(&format!("{fp:016x}"))))
                        .collect(),
                ),
            ),
            (
                "shape_checks",
                Value::Arr(
                    self.shapes
                        .iter()
                        .map(|(what, ok)| {
                            obj(vec![("what", str(what)), ("holds", Value::Bool(*ok))])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn print(&self) {
        println!(
            "# {} seed {} ({} cells, {} failed)",
            self.workload, self.seed, self.attempted, self.failed
        );
        for &(name, unit) in &END_TO_END {
            let s = &self.end_to_end[name];
            println!(
                "{name:<28} {:>16.6} {unit:<10} median of {} (min {:.6}, quartiles {:.6} .. {:.6})",
                s.median, s.n, s.min, s.q1, s.q3
            );
        }
        for &(name, unit) in &PER_LAYER {
            // Probe and span metrics exist on a traced run only.
            if self.trace || self.per_layer[name] != 0.0 {
                println!("{name:<28} {:>16.6} {unit}", self.per_layer[name]);
            }
        }
        for (layer, s) in &self.layer_self_s {
            println!("self time {layer:<18} {s:>16.6} s");
        }
        for (what, ok) in &self.shapes {
            println!("shape {} {what}", if *ok { "ok  " } else { "FAIL" });
        }
        if let Some(line) = &self.cross_check {
            println!("{line}");
        }
        println!("detail {}", self.detail().to_json());
        println!("{}", self.result_line());
    }
}

// ---------------------------------------------------------------------
// The suite: every workload, round-robin, one fresh process per run
// ---------------------------------------------------------------------

/// One workload's aggregate over the rounds of a suite run.
struct SuiteRow {
    correct: bool,
    /// Median over rounds of each round's value, with the rounds' spread.
    end_to_end: BTreeMap<String, Summary>,
    /// Per-layer metrics: the counts from the last plain round, overlaid
    /// with everything the traced round measured.
    per_layer: BTreeMap<String, f64>,
    layer_self_s: BTreeMap<String, f64>,
    fingerprints: Value,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Value {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn a benchmark child");
    assert!(
        out.status.success(),
        "{workload}: child exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("child output is UTF-8");
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .expect("child printed its detail line");
    Value::parse(detail).expect("detail line is valid JSON")
}

fn floats_of(v: Option<&Value>) -> BTreeMap<String, f64> {
    match v {
        Some(Value::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

fn run_suite(args: &Args, trace: bool) -> BTreeMap<&'static str, SuiteRow> {
    // Shorter than the contract's 12 s so the whole suite stays near 5 min.
    let seconds = args.seconds.unwrap_or(6.0);
    let mut details: BTreeMap<&'static str, Vec<Value>> = BTreeMap::new();
    for round in 0..args.rounds {
        // Round-robin: slow drift of the host spreads over all workloads.
        for w in WORKLOADS {
            eprintln!("[round {}/{} {w}]", round + 1, args.rounds);
            details
                .entry(w)
                .or_default()
                .push(run_child(w, args.seed, seconds, false));
        }
    }
    let mut set = BTreeMap::new();
    for w in WORKLOADS {
        let rounds = &details[w];
        let mut end_to_end = BTreeMap::new();
        for (name, _) in END_TO_END {
            let medians: Vec<f64> = rounds
                .iter()
                .filter_map(|d| d.get("end_to_end")?.get(name)?.get("median")?.as_f64())
                .collect();
            end_to_end.insert(name.to_string(), summarize(&medians));
        }
        let last = rounds.last().expect("at least five rounds");
        let mut row = SuiteRow {
            correct: rounds
                .iter()
                .all(|d| d.get("correct").and_then(Value::as_bool) == Some(true)),
            end_to_end,
            per_layer: floats_of(last.get("per_layer")),
            layer_self_s: BTreeMap::new(),
            fingerprints: last.get("fingerprints").cloned().unwrap_or(Value::Null),
        };
        if trace {
            eprintln!("[traced {w}]");
            let d = run_child(w, args.seed, seconds, true);
            row.correct &= d.get("correct").and_then(Value::as_bool) == Some(true);
            row.per_layer.extend(floats_of(d.get("per_layer")));
            row.layer_self_s = floats_of(d.get("layer_self_s"));
        }
        set.insert(w, row);
    }
    set
}

fn print_suite(set: &BTreeMap<&'static str, SuiteRow>) {
    for w in WORKLOADS {
        let row = &set[w];
        println!(
            "\n# {w}{}",
            if row.correct {
                ""
            } else {
                "  ** NOT CORRECT **"
            }
        );
        for (name, unit) in END_TO_END {
            let s = &row.end_to_end[name];
            println!(
                "{name:<28} {:>16.6} {unit:<10} median of {} rounds (min {:.6}, quartiles {:.6} .. {:.6}, spread {:.2} %)",
                s.median, s.n, s.min, s.q1, s.q3, 100.0 * s.spread()
            );
        }
        for (name, unit) in PER_LAYER {
            if let Some(v) = row.per_layer.get(name).filter(|v| **v != 0.0) {
                println!("{name:<28} {v:>16.6} {unit}");
            }
        }
        for (layer, s) in &row.layer_self_s {
            println!("self time {layer:<18} {s:>16.6} s");
        }
    }
}

fn write_results(set: &BTreeMap<&'static str, SuiteRow>) {
    let doc = obj(WORKLOADS
        .iter()
        .map(|w| {
            let row = &set[w];
            // `n` counts rounds here: each sample is one round's value.
            let e2e = row
                .end_to_end
                .iter()
                .map(|(k, s)| (k.as_str(), summary_json(s)))
                .collect();
            let v = obj(vec![
                ("correct", Value::Bool(row.correct)),
                ("end_to_end", obj(e2e)),
                ("per_layer", floats_json(&row.per_layer)),
                ("layer_self_s", floats_json(&row.layer_self_s)),
                ("fingerprints", row.fingerprints.clone()),
            ]);
            (*w, v)
        })
        .collect());
    let path = Path::new(OUT_DIR).join("results.json");
    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    std::fs::write(&path, doc.to_json_pretty()).expect("write results.json");
    eprintln!("[results -> {}]", path.display());
}

/// A/A: two full sets of the same code back to back. They must agree within
/// the bounds `BENCHMARK.json` sets for real changes, or those bounds are
/// tighter than this host can resolve.
fn selfcheck(args: &Args) -> bool {
    let text = std::fs::read_to_string("BENCHMARK.json").expect("read BENCHMARK.json");
    let spec = Value::parse(&text).expect("BENCHMARK.json is valid JSON");
    let bounds: BTreeMap<String, f64> = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .expect("end_to_end metrics")
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let (a, b) = (run_suite(args, false), run_suite(args, false));
    let mut ok = true;
    for w in WORKLOADS {
        println!("\n# {w}");
        ok &= a[w].correct && b[w].correct;
        for (name, unit) in END_TO_END {
            let (x, y) = (a[w].end_to_end[name].median, b[w].end_to_end[name].median);
            let (diff, bound) = ((y - x).abs() / x, bounds[name]);
            let verdict = if diff <= bound { "ok" } else { "DISAGREE" };
            println!("{name:<22} {x:>16.6} {y:>16.6} {unit:<10} differ {:>6.2} % (bound {:.1} %) {verdict}", 100.0 * diff, 100.0 * bound);
            ok &= diff <= bound;
        }
        for name in EXACT {
            let (x, y) = (a[w].per_layer.get(name), b[w].per_layer.get(name));
            let verdict = if x == y { "identical" } else { "DISAGREE" };
            println!(
                "{name:<22} {:>16.6} {:>16.6} {verdict}",
                x.copied().unwrap_or(f64::NAN),
                y.copied().unwrap_or(f64::NAN)
            );
            ok &= x == y;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this binary name the same workloads and the same
    /// metrics with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Value::parse(&std::fs::read_to_string(path).expect("read")).expect("parse");
        let names = |key: &str, field: &str| -> Vec<String> {
            let items = spec.get(key).and_then(Value::as_arr).expect(key);
            items
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(Value::as_str)
                        .expect(field)
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let want: Vec<_> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            let got: Vec<_> = names(key, "name")
                .into_iter()
                .zip(names(key, "unit"))
                .collect();
            assert_eq!(got, want, "{key}");
        }
        assert!(EXACT.iter().all(|e| PER_LAYER.iter().any(|(n, _)| n == e)));
    }

    fn report(trace: bool) -> Report {
        Report {
            workload: "is64".to_string(),
            seed: 3,
            trace,
            correct: true,
            attempted: 2,
            failed: 0,
            end_to_end: END_TO_END
                .iter()
                .map(|(n, _)| (*n, summarize(&[1.5, 2.5, 9.0])))
                .collect(),
            per_layer: PER_LAYER.iter().map(|(n, _)| (*n, 0.25)).collect(),
            fingerprints: vec![("is/trad/LRC_d/64".to_string(), 0xabc, false)],
            shapes: vec![("a \"quoted\" shape".to_string(), true)],
            layer_self_s: BTreeMap::new(),
            cross_check: None,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let line = report(trace).result_line();
            assert!(!line.contains('\n'));
            let Value::Obj(top) = Value::parse(&line).expect("valid JSON") else {
                panic!("object")
            };
            let keys: Vec<_> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Value::Obj(metrics)) =
                top.iter().find(|(k, _)| k == "metrics").map(|(_, v)| v)
            else {
                panic!("metrics object")
            };
            assert_eq!(metrics.len(), table.len());
            for ((name, m), (want, unit)) in metrics.iter().zip(table) {
                assert_eq!(name, want);
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
                assert!(m.get("value").and_then(Value::as_f64).is_some());
            }
        }
        // A plain run reports the median of its reps.
        let plain = Value::parse(&report(false).result_line()).expect("valid JSON");
        let wall = plain
            .get("metrics")
            .and_then(|m| m.get("host_wall_s"))
            .and_then(|m| m.get("value"));
        assert_eq!(wall.and_then(Value::as_f64), Some(2.5));
    }

    #[test]
    fn detail_line_round_trips() {
        let d = Value::parse(&report(true).detail().to_json()).expect("valid JSON");
        assert_eq!(floats_of(d.get("per_layer")).len(), PER_LAYER.len());
        let fp = d
            .get("fingerprints")
            .and_then(|f| f.get("is/trad/LRC_d/64"));
        assert_eq!(fp.and_then(Value::as_str), Some("0000000000000abc"));
        let median = d
            .get("end_to_end")
            .and_then(|e| e.get("setup_s"))
            .and_then(|s| s.get("median"));
        assert_eq!(median.and_then(Value::as_f64), Some(2.5));
    }
}
