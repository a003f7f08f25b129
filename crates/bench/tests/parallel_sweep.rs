//! The parallel sweep runner must be invisible in every artifact: running
//! the full quick sweep with 4 workers produces byte-identical table text,
//! `BENCH_<app>.json` metrics, and trace files to a 1-worker run. Only
//! wall-clock may differ. The metrics must also equal the committed
//! baselines byte for byte.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use vopp_bench::sweep::{
    cells_for, context_hash, dedup_cells, run_sweep, run_sweep_cached, DiskCache, TABLES,
};
use vopp_bench::{all_tables, MetricsSink, Scale};

const ALL_TABLES: [&str; 9] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "table9",
];

/// Render the full quick sweep with `jobs` workers, mirroring the `tables`
/// binary: precompute the de-duplicated cell list on the pool, then let the
/// table functions consume the cache sequentially. Returns the concatenated
/// table text plus every metrics/trace file, keyed by relative name.
fn sweep_artifacts(jobs: usize, base: &Path) -> (String, BTreeMap<String, String>) {
    let traces = base.join("traces");
    let metrics = base.join("metrics");
    let sink = Arc::new(MetricsSink::new());
    let mut scale = Scale {
        quick: true,
        trace_dir: Some(traces.clone()),
        metrics: Some(sink.clone()),
        ..Scale::default()
    };
    let specs = dedup_cells(
        &ALL_TABLES
            .iter()
            .flat_map(|name| cells_for(name, &scale))
            .collect::<Vec<_>>(),
    );
    let cache = run_sweep(&scale, &specs, jobs);
    assert_eq!(cache.jobs, jobs.min(specs.len()));
    scale.cache = Some(Arc::new(cache));
    let text = all_tables(&scale)
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
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
fn four_workers_match_one_worker_byte_for_byte() {
    let base = std::env::temp_dir().join(format!("vopp-parallel-sweep-{}", std::process::id()));
    let (t1, f1) = sweep_artifacts(1, &base.join("j1"));
    let (t4, f4) = sweep_artifacts(4, &base.join("j4"));

    assert_eq!(t1, t4, "table text must not depend on worker count");
    assert_eq!(
        f1.keys().collect::<Vec<_>>(),
        f4.keys().collect::<Vec<_>>(),
        "artifact file sets must match"
    );
    assert!(
        f1.keys().any(|k| k.starts_with("metrics/BENCH_")),
        "sweep produced no metrics artifacts"
    );
    assert!(
        f1.keys().any(|k| k.ends_with(".events.json")),
        "sweep produced no trace artifacts"
    );
    for (name, body) in &f1 {
        assert_eq!(body, &f4[name], "{name} differs between --jobs 1 and 4");
    }
    for app in ["is", "gauss", "sor", "nn"] {
        let name = format!("BENCH_{app}.json");
        assert!(
            f1[&format!("metrics/{name}")] == baseline(&name),
            "{name} differs from crates/bench/baselines/{name} \
             (`make bench` shows the diff; after an intentional model change, run `make baseline`)"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

/// The committed baseline artifact `name`.
fn baseline(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("baselines")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Render the full quick sweep plus the `serve` table (metrics only — the
/// persistent cache is bypassed when tracing) through a [`DiskCache`] in
/// `cache_dir`. Returns the table text, the metrics artifacts, and the
/// number of cells actually simulated.
fn cached_sweep_artifacts(
    jobs: usize,
    cache_dir: &Path,
    metrics: &Path,
) -> (String, BTreeMap<String, String>, usize) {
    let sink = Arc::new(MetricsSink::new());
    let mut scale = Scale {
        quick: true,
        metrics: Some(sink.clone()),
        ..Scale::default()
    };
    let names: Vec<&str> = ALL_TABLES.iter().copied().chain(["serve"]).collect();
    let specs = dedup_cells(
        &names
            .iter()
            .flat_map(|name| cells_for(name, &scale))
            .collect::<Vec<_>>(),
    );
    let mut disk = DiskCache::open(cache_dir, context_hash(&scale));
    let cache = run_sweep_cached(&scale, &specs, jobs, Some(&mut disk));
    let simulated = cache.simulated_cells;
    assert_eq!(cache.warm_cells + simulated, specs.len());
    scale.cache = Some(Arc::new(cache));
    let text = TABLES
        .iter()
        .filter(|(name, _)| names.contains(name))
        .map(|(_, render)| render(&scale).to_string())
        .collect::<Vec<_>>()
        .join("\n");
    sink.write_all(metrics).expect("write metrics artifacts");
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(metrics).expect("read metrics dir") {
        let entry = entry.expect("metrics entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        files.insert(
            name,
            std::fs::read_to_string(entry.path()).expect("read artifact"),
        );
    }
    (text, files, simulated)
}

#[test]
fn warm_disk_cache_replays_byte_identical_artifacts() {
    let base = std::env::temp_dir().join(format!("vopp-warm-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let cache_dir = base.join("cache");

    // Cold, sequential: populates the persistent cache.
    let (t_cold, f_cold, sim_cold) = cached_sweep_artifacts(1, &cache_dir, &base.join("cold"));
    assert!(sim_cold > 0, "cold run must simulate");

    // Warm, parallel: must simulate *nothing* and replay identical bytes.
    let (t_warm, f_warm, sim_warm) = cached_sweep_artifacts(4, &cache_dir, &base.join("warm"));
    assert_eq!(sim_warm, 0, "warm run simulated cells despite a hot cache");

    assert_eq!(t_cold, t_warm, "table text differs between cold and warm");
    assert_eq!(
        f_cold.keys().collect::<Vec<_>>(),
        f_warm.keys().collect::<Vec<_>>()
    );
    assert!(f_cold.keys().any(|k| k.starts_with("BENCH_")));
    assert!(f_cold.contains_key("BENCH_serve.json"));
    for (name, body) in &f_cold {
        assert_eq!(body, &f_warm[name], "{name} differs between cold and warm");
    }
    std::fs::remove_dir_all(&base).ok();
}
