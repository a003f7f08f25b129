//! The metrics artifacts inherit the simulator's determinism: identical
//! table runs must write byte-identical `BENCH_<app>.json` files.

use std::path::Path;
use std::sync::Arc;

use vopp_bench::{MetricsSink, Scale};

fn run_table1_metered(dir: &Path) {
    let sink = Arc::new(MetricsSink::new());
    let scale = Scale {
        quick: true,
        metrics: Some(sink.clone()),
        ..Scale::default()
    };
    let t = vopp_bench::tables::table1(&scale);
    assert!(t.title.starts_with("Table 1"));
    assert!(!sink.is_empty(), "metered run recorded no cells");
    sink.write_all(dir).expect("write metrics artifacts");
}

#[test]
fn same_seed_bench_artifacts_are_byte_identical() {
    let base = std::env::temp_dir().join(format!("vopp-metrics-det-{}", std::process::id()));
    let (a, b) = (base.join("a"), base.join("b"));
    run_table1_metered(&a);
    run_table1_metered(&b);
    let lhs = std::fs::read(a.join("BENCH_is.json")).expect("first run artifact");
    let rhs = std::fs::read(b.join("BENCH_is.json")).expect("second run artifact");
    assert!(!lhs.is_empty());
    assert_eq!(lhs, rhs, "BENCH_is.json differs between identical runs");
    std::fs::remove_dir_all(&base).ok();
}

/// Tracing and metering compose: one table run can produce both artifact
/// families, and the metrics document carries the breakdown schema.
#[test]
fn traced_and_metered_quick_table_smoke() {
    let base = std::env::temp_dir().join(format!("vopp-metrics-both-{}", std::process::id()));
    let (traces, metrics) = (base.join("traces"), base.join("metrics"));
    let sink = Arc::new(MetricsSink::new());
    let scale = Scale {
        quick: true,
        trace_dir: Some(traces.clone()),
        metrics: Some(sink.clone()),
        ..Scale::default()
    };
    let t = vopp_bench::tables::table1(&scale);
    assert!(t.title.starts_with("Table 1"));
    sink.write_all(&metrics).expect("write metrics artifacts");

    // Both artifact families exist; the metrics JSON parses and each cell
    // carries a breakdown that sums to its time_ns.
    let np = scale.stats_procs();
    assert!(traces
        .join(format!("is_trad_lrc_d_{np}p.events.json"))
        .exists());
    let text = std::fs::read_to_string(metrics.join("BENCH_is.json")).expect("metrics artifact");
    let doc = vopp_trace::json::Value::parse(&text).expect("valid JSON");
    let cells = doc.get("cells").unwrap().as_arr().unwrap();
    assert_eq!(cells.len(), 3, "Table 1 is three runs");
    for c in cells {
        let time_ns = c.get("time_ns").unwrap().as_u64().unwrap();
        let bd = c.get("breakdown").unwrap();
        let total = bd.get("total_ns").unwrap().as_u64().unwrap();
        // Aggregate over nprocs nodes: nprocs x the (identical) end time
        // bounds it; each node ends at the run's end time or earlier.
        assert!(total >= time_ns, "aggregate breakdown covers the run");
        assert!(total <= time_ns * np as u64);
        let summed: u64 = [
            "compute_ns",
            "proto_cpu_ns",
            "barrier_wait_ns",
            "acquire_wait_ns",
            "data_wait_ns",
            "send_wait_ns",
        ]
        .iter()
        .map(|k| bd.get(k).unwrap().as_u64().unwrap())
        .sum();
        assert_eq!(summed, total, "breakdown fields sum to total_ns");
    }
    std::fs::remove_dir_all(&base).ok();
}
