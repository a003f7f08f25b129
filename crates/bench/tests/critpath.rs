//! Critical-path profiler integration tests: artifact determinism across
//! worker counts, the pure-observation invariant on the gated artifacts,
//! and the zero-latency-network what-if validated against an actual
//! fast-network run.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use vopp_apps::is::{is_reference, run_is, IsParams, IsVariant};
use vopp_bench::metrics::SCHEMA;
use vopp_bench::sweep::{cells_for, dedup_cells, run_sweep};
use vopp_bench::{tables, MetricsSink, Scale};
use vopp_core::{ClusterConfig, NetConfig, Protocol};
use vopp_sim::SimDuration;
use vopp_trace::json::Value;

/// Profile table1 on `jobs` workers and return every critpath artifact:
/// the rendered table (with its CP rows), `BENCH_critpath.json`, and the
/// per-run `.critpath.perfetto.json` tracks.
fn critpath_artifacts(jobs: usize, base: &Path) -> BTreeMap<String, String> {
    let traces = base.join("traces");
    let sink = Arc::new(MetricsSink::new());
    let mut scale = Scale {
        quick: true,
        trace_dir: Some(traces.clone()),
        metrics: Some(sink.clone()),
        critpath: true,
        ..Scale::default()
    };
    let specs = dedup_cells(&cells_for("table1", &scale));
    let cache = run_sweep(&scale, &specs, jobs);
    scale.cache = Some(Arc::new(cache));
    let mut files = BTreeMap::new();
    files.insert("table1.txt".into(), tables::table1(&scale).to_string());
    let docs = sink.to_documents();
    files.insert(
        "BENCH_critpath.json".into(),
        docs["critpath"].to_json_pretty(),
    );
    files.insert("BENCH_is.json".into(), docs["is"].to_json_pretty());
    for entry in std::fs::read_dir(&traces).expect("read trace dir") {
        let entry = entry.expect("trace entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".critpath.perfetto.json") {
            files.insert(
                name,
                std::fs::read_to_string(entry.path()).expect("read track"),
            );
        }
    }
    files
}

#[test]
fn critpath_artifacts_do_not_depend_on_worker_count() {
    let base = std::env::temp_dir().join(format!("vopp-critpath-jobs-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let f1 = critpath_artifacts(1, &base.join("j1"));
    let f4 = critpath_artifacts(4, &base.join("j4"));
    assert_eq!(
        f1.keys().collect::<Vec<_>>(),
        f4.keys().collect::<Vec<_>>(),
        "artifact sets must match"
    );
    assert_eq!(
        f1.keys()
            .filter(|k| k.ends_with(".critpath.perfetto.json"))
            .count(),
        3,
        "one critpath track per table1 cell"
    );
    for (name, body) in &f1 {
        assert_eq!(body, &f4[name], "{name} differs between --jobs 1 and 4");
    }
    // The table carries the CP rows and the artifact its schema.
    assert!(f1["table1.txt"].contains("CP Compute (%)"));
    assert!(f1["table1.txt"].contains("Ceil. net free"));
    assert!(f1["BENCH_critpath.json"].contains(SCHEMA));
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn profiler_is_invisible_in_gated_artifacts() {
    let run = |critpath: bool| {
        let sink = Arc::new(MetricsSink::new());
        let scale = Scale {
            quick: true,
            metrics: Some(sink.clone()),
            critpath,
            ..Scale::default()
        };
        let text = tables::table1(&scale).to_string();
        (text, sink.to_documents())
    };
    let (text_off, off) = run(false);
    let (text_on, on) = run(true);
    // The gated per-app artifact is byte-identical with the profiler on or
    // off — profiling is pure observation.
    assert_eq!(
        off["is"].to_json_pretty(),
        on["is"].to_json_pretty(),
        "BENCH_is.json must not change under --critpath"
    );
    // The profiled run *adds* the critpath document and the CP table rows;
    // nothing is produced without the flag.
    assert!(!off.contains_key("critpath"));
    let doc = &on["critpath"];
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
    assert_eq!(
        doc.get("cells").and_then(Value::as_arr).map(<[_]>::len),
        Some(3)
    );
    assert!(!text_off.contains("CP Compute (%)"));
    assert!(text_on.contains("CP Compute (%)"));
    // Every unprofiled row survives with identical values: the profiled
    // table is the unprofiled table with the CP rows spliced in before the
    // border. Only column padding may shift (the `x.xx x` ceiling cells
    // widen the columns), so rows are compared token-wise.
    let tokens = |l: &str| l.split_whitespace().map(String::from).collect::<Vec<_>>();
    let is_border = |l: &&str| !l.is_empty() && l.chars().all(|c| c == '-');
    let mut on_lines = text_on.lines();
    for want in text_off
        .lines()
        .filter(|l| !is_border(l))
        .map(tokens)
        .filter(|t| !t.is_empty())
    {
        assert!(
            on_lines.any(|l| tokens(l) == want),
            "unprofiled row {want:?} missing (or reordered) in profiled table"
        );
    }
}

/// The zero-latency-network what-if must agree with an actual fast run.
///
/// The estimator removes every network segment from the critical path:
/// `ceiling = T / (T - net_ns)` is the speedup if the baseline path's CPU
/// chain were the only remaining cost. It is validated against a real
/// rerun with 1 ns latencies, 1 Pbit/s bandwidth and zero loss. Documented
/// error bound (see docs/OBSERVABILITY.md): the measured speedup agrees
/// with the ceiling within 10% relative error. The estimate is not an
/// exact bound in either direction — the fast run is a *different
/// schedule* (a barrier's critical arrival chain can change, service CPU
/// interleaves differently, loss-free delivery removes retransmission
/// work), so the baseline path's CPU chain is not conserved — but on a
/// deterministic simulator the discrepancy is stable and small.
#[test]
fn net_free_ceiling_bounds_an_actual_fast_network_run() {
    let cell_of = |doc: &Value| -> Value {
        doc.get("cells")
            .and_then(Value::as_arr)
            .expect("cells")
            .iter()
            .find(|c| {
                c.get("variant").and_then(Value::as_str) == Some("vopp")
                    && c.get("protocol").and_then(Value::as_str) == Some("vc_sd")
            })
            .expect("IS vopp/vc_sd cell")
            .clone()
    };
    // Profiled run on the default network.
    let sink = Arc::new(MetricsSink::new());
    let scale = Scale {
        quick: true,
        metrics: Some(sink.clone()),
        critpath: true,
        ..Scale::default()
    };
    let _ = tables::table1(&scale);
    let crit = cell_of(&sink.to_documents()["critpath"]);
    let makespan = crit
        .get("makespan_ns")
        .and_then(Value::as_u64)
        .expect("makespan");
    let net_free = crit.get("whatif").and_then(|w| w.get("net_free")).unwrap();
    let ceiling = net_free
        .get("speedup_ceiling")
        .and_then(Value::as_f64)
        .expect("finite ceiling: a quick run has nonzero CPU on the path");

    // Actual run of the same cell (quick IS, VOPP on VC_sd) on a near-free
    // network.
    let np = scale.stats_procs();
    let mut fast_cfg = ClusterConfig::new(np, Protocol::VcSd);
    fast_cfg.net = NetConfig {
        bandwidth_bps: 1e15,
        latency: SimDuration::from_nanos(1),
        loopback_latency: SimDuration::from_nanos(1),
        base_drop_prob: 0.0,
        ..NetConfig::default()
    };
    let p = IsParams::quick();
    let fast = run_is(&fast_cfg, &p, IsVariant::Vopp);
    assert_eq!(
        fast.value,
        is_reference(&p, np, false),
        "IS result mismatch"
    );
    let fast_ns = fast.stats.time.nanos();

    let actual = makespan as f64 / fast_ns as f64;
    assert!(
        actual >= 1.0,
        "a faster network must not slow the run (got {actual:.3})"
    );
    assert!(
        ceiling > 1.0,
        "a sync-heavy quick run has network on its path (ceiling {ceiling:.3})"
    );
    let rel_err = (actual - ceiling).abs() / ceiling;
    assert!(
        rel_err <= 0.10,
        "what-if estimate outside the 10% error bound: \
         actual {actual:.3}x vs ceiling {ceiling:.3}x ({:.1}% off)",
        rel_err * 100.0
    );
}
