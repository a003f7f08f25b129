//! The `netgen` table (modern network generations × protocol, see
//! docs/NETWORK.md) must obey the same artifact invariants as the paper
//! tables: the sweep-pool worker count and the persistent disk cache are
//! invisible in the rendered table, in `BENCH_netgen.json`, and in the
//! trace files, and `BENCH_netgen.json` equals the committed baseline byte
//! for byte.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use vopp_bench::metrics::SCHEMA;
use vopp_bench::sweep::{
    cells_for, context_hash, dedup_cells, run_sweep, run_sweep_cached, DiskCache,
};
use vopp_bench::{tables, MetricsSink, Scale};

/// Render the quick netgen sweep with `jobs` pool workers, mirroring
/// `tables netgen --quick --trace ... --metrics ...`. Returns the table
/// text plus every metrics/trace artifact, keyed by relative name.
fn netgen_artifacts(jobs: usize, base: &Path) -> (String, BTreeMap<String, String>) {
    let traces = base.join("traces");
    let metrics = base.join("metrics");
    let sink = Arc::new(MetricsSink::new());
    let mut scale = Scale {
        quick: true,
        trace_dir: Some(traces.clone()),
        metrics: Some(sink.clone()),
        ..Scale::default()
    };
    let specs = dedup_cells(&cells_for("netgen", &scale));
    scale.cache = Some(Arc::new(run_sweep(&scale, &specs, jobs)));
    let text = tables::table_netgen(&scale).to_string();
    std::fs::create_dir_all(&metrics).expect("create metrics dir");
    sink.write_all(&metrics).expect("write metrics artifacts");
    let mut files = BTreeMap::new();
    for (dir, tag) in [(&metrics, "metrics"), (&traces, "traces")] {
        for entry in std::fs::read_dir(dir).expect("read artifact dir") {
            let entry = entry.expect("artifact entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            files.insert(
                format!("{tag}/{name}"),
                std::fs::read_to_string(entry.path()).expect("read artifact"),
            );
        }
    }
    (text, files)
}

#[test]
fn netgen_four_jobs_match_one_job_byte_for_byte() {
    let base = std::env::temp_dir().join(format!("vopp-netgen-jobs-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    let (t1, f1) = netgen_artifacts(1, &base.join("j1"));
    let (t4, f4) = netgen_artifacts(4, &base.join("j4"));

    assert_eq!(t1, t4, "netgen table text must not depend on worker count");
    assert_eq!(
        f1.keys().collect::<Vec<_>>(),
        f4.keys().collect::<Vec<_>>(),
        "artifact file sets must match"
    );
    let netgen_json = &f1["metrics/BENCH_netgen.json"];
    assert!(
        netgen_json.contains(SCHEMA),
        "BENCH_netgen.json must carry {SCHEMA}"
    );
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines/BENCH_netgen.json");
    assert!(
        *netgen_json == std::fs::read_to_string(&baseline).expect("read the committed baseline"),
        "BENCH_netgen.json differs from {} \
         (`make bench` shows the diff; after an intentional model change, run `make baseline`)",
        baseline.display()
    );
    // Every generation folds into the trace stems, so rdma / 10g / eth100m
    // runs of the same app+protocol never collide on one file.
    for stem in [
        "traces/is_vopp_rdma_vc_rdma_4p.events.json",
        "traces/is_vopp_10g_vc_sd_4p.events.json",
        "traces/is_trad_eth100m_lrc_d_4p.events.json",
    ] {
        assert!(f1.contains_key(stem), "missing trace artifact {stem}");
    }
    for (name, body) in &f1 {
        assert_eq!(body, &f4[name], "{name} differs between --jobs 1 and 4");
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn netgen_warm_disk_cache_replays_byte_identical_artifacts() {
    let base = std::env::temp_dir().join(format!("vopp-netgen-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let cache_dir = base.join("cache");

    let run = |metrics_dir: &Path| {
        let sink = Arc::new(MetricsSink::new());
        let mut scale = Scale {
            quick: true,
            metrics: Some(sink.clone()),
            ..Scale::default()
        };
        let specs = dedup_cells(&cells_for("netgen", &scale));
        let mut disk = DiskCache::open(&cache_dir, context_hash(&scale));
        let cache = run_sweep_cached(&scale, &specs, 2, Some(&mut disk));
        let simulated = cache.simulated_cells;
        assert_eq!(cache.warm_cells + simulated, specs.len());
        scale.cache = Some(Arc::new(cache));
        let text = tables::table_netgen(&scale).to_string();
        std::fs::create_dir_all(metrics_dir).expect("create metrics dir");
        sink.write_all(metrics_dir)
            .expect("write metrics artifacts");
        let json = std::fs::read_to_string(metrics_dir.join("BENCH_netgen.json"))
            .expect("read BENCH_netgen.json");
        (text, json, simulated)
    };

    // Cold: populates the persistent cache. The netgen generation lives in
    // the cell *key*, so all 36 cells are distinct entries under one
    // context hash.
    let (t_cold, j_cold, sim_cold) = run(&base.join("cold"));
    assert_eq!(sim_cold, 36, "cold run must simulate every netgen cell");

    // Warm: must simulate *nothing* and replay identical bytes — the
    // persisted stats round-trip includes the one-sided datagram counter.
    let (t_warm, j_warm, sim_warm) = run(&base.join("warm"));
    assert_eq!(sim_warm, 0, "warm run simulated cells despite a hot cache");
    assert_eq!(t_cold, t_warm, "table text differs between cold and warm");
    assert_eq!(j_cold, j_warm, "BENCH_netgen.json differs cold vs warm");
    std::fs::remove_dir_all(&base).ok();
}
