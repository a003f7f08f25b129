//! Machine-readable benchmark artifacts and the perf-regression gate.
//!
//! When table generation runs with a [`MetricsSink`] attached (the `tables`
//! binary's `--metrics DIR` flag), every verified cluster run is recorded as
//! a *cell* and the sink writes one `BENCH_<app>.json` per application.
//! Each cell carries the exact integers the gate compares (virtual
//! `time_ns`, message/byte totals, diff-request and retransmission counts)
//! plus derived values for humans (seconds, MB, speedup, the phase
//! breakdown, and latency summaries). The simulator is fully deterministic,
//! so committed baselines compare exactly across machines.
//!
//! [`compare`]/[`compare_dirs`] implement the gate: a candidate fails on a
//! missing cell, on more than [`TIME_DRIFT_PCT`] percent of virtual-time
//! drift, or on *any* drift of the exact counters.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

use vopp_core::RunStats;
use vopp_metrics::{CritPath, OpKind};
use vopp_trace::json::{num, obj, str, Value};

use crate::sweep::{CellSpec, CellVariant, ServePayload};

/// Schema tag written into every artifact, bumped on breaking changes.
pub const SCHEMA: &str = "vopp-bench-metrics/1";

/// Schema tag of the serving artifact (`BENCH_serve.json`), whose cells
/// additionally carry per-request latency percentiles and the convergence
/// evidence of the sharded store.
pub const SERVE_SCHEMA: &str = "vopp-bench-serve/1";

/// Schema tag of the critical-path artifact (`BENCH_critpath.json`): one
/// cell per profiled run with the path's blame decomposition and the
/// what-if speedup ceilings. Deterministic and byte-stable across `--jobs`
/// values; gated by its own baselines (`baselines-critpath/`).
pub const CRITPATH_SCHEMA: &str = "vopp-bench-critpath/1";

/// Schema tag of the network-generation artifact (`BENCH_netgen.json`):
/// the `tables netgen` family, whose cells carry the generation in the
/// variant label (`is_vopp_rdma`). Structurally identical to [`SCHEMA`]
/// cells but tagged separately so the baseline's sweep dimensions are
/// explicit; gated exactly like every other artifact.
pub const NETGEN_SCHEMA: &str = "vopp-bench-netgen/1";

/// Maximum tolerated relative drift of a cell's `time_ns`, in percent.
pub const TIME_DRIFT_PCT: f64 = 2.0;

/// Counters that must not drift at all between baseline and candidate.
const EXACT_KEYS: [&str; 5] = ["msgs", "bytes", "barriers", "diff_requests", "rexmits"];

/// One finished table cell: the table that ran it, what ran, and what it
/// measured. The tables render from these records and the sink writes its
/// artifacts from them; a profiled run's critical path is `stats.crit`.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Table that ran the cell (`table1` .. `table9`, `ext`, `serve`,
    /// `scaling`, `netgen`).
    pub table: &'static str,
    /// What ran.
    pub spec: CellSpec,
    /// The run's verified statistics.
    pub stats: RunStats,
    /// The serve results; `Some` exactly on serve cells.
    pub serve: Option<ServePayload>,
}

/// How a cell is named in the artifacts, besides its table and `nprocs`.
struct Labels {
    /// The artifact (`BENCH_<app>.json`) the cell lands in.
    app: &'static str,
    variant: String,
    /// Protocol label, lowercased (`lrc_d`, `vc_sd`, ...).
    protocol: String,
}

/// The artifact labels of `r`. Paper tables label a cell by its
/// application, variant and protocol, with the MPI variant as protocol
/// `mpi`; a serve cell's variant carries its load and fault. `scaling` and
/// `netgen` are artifacts of their own, whose variant carries the
/// application (and generation) so cell keys stay unique within them.
fn labels(r: &CellRecord) -> Labels {
    let spec = &r.spec;
    let (app, variant) = (spec.app.label(), spec.variant.label());
    let protocol = spec.proto.label().to_lowercase();
    let (app, variant, protocol) = match (spec.serve, spec.netgen) {
        (Some(sc), _) => (app, format!("{variant}_{}", sc.label()), protocol),
        _ if r.table == "scaling" => ("scaling", format!("{app}_{variant}"), protocol),
        (_, Some(gen)) => (
            "netgen",
            format!("{app}_{variant}_{}", gen.label()),
            protocol,
        ),
        // The MPI variant runs message passing, not a DSM protocol.
        _ if spec.variant == CellVariant::Mpi => (app, variant.to_string(), "mpi".to_string()),
        _ => (app, variant.to_string(), protocol),
    };
    Labels {
        app,
        variant,
        protocol,
    }
}

/// The five fields that name a cell in every artifact, in artifact order.
fn name_fields(r: &CellRecord, l: &Labels) -> [(&'static str, Value); 5] {
    [
        ("table", str(r.table)),
        ("app", str(l.app)),
        ("variant", str(&l.variant)),
        ("protocol", str(&l.protocol)),
        ("nprocs", num(r.spec.np as u64)),
    ]
}

fn cell_key(table: &str, variant: &str, protocol: &str, nprocs: usize) -> String {
    format!("{table}/{variant}/{protocol}/{nprocs}p")
}

/// Collects the records of a table-generation run and writes the
/// `BENCH_<app>.json` artifacts. Shared behind `Arc` by [`crate::Scale`].
#[derive(Debug, Default)]
pub struct MetricsSink {
    records: Mutex<Vec<CellRecord>>,
}

impl MetricsSink {
    /// A fresh, empty sink.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// Record one finished cell.
    pub fn record(&self, record: &CellRecord) {
        self.records.lock().expect("sink lock").push(record.clone());
    }

    /// Number of cells recorded so far.
    pub fn len(&self) -> usize {
        self.records.lock().expect("sink lock").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Group the recorded cells into one JSON document per application,
    /// plus a `critpath` document of the profiled cells, in recording
    /// order, when any run was profiled.
    pub fn to_documents(&self) -> BTreeMap<String, Value> {
        let records = self.records.lock().expect("sink lock");
        let labelled: Vec<(&CellRecord, Labels)> = records.iter().map(|r| (r, labels(r))).collect();
        let crit: Vec<Value> = labelled
            .iter()
            .filter_map(|(r, l)| Some(crit_cell_value(r, l, r.stats.crit.as_deref()?)))
            .collect();
        let mut docs = BTreeMap::new();
        if !crit.is_empty() {
            let doc = obj(vec![
                ("schema", str(CRITPATH_SCHEMA)),
                ("cells", Value::Arr(crit)),
            ]);
            docs.insert("critpath".to_string(), doc);
        }
        let mut by_app: BTreeMap<&str, Vec<&(&CellRecord, Labels)>> = BTreeMap::new();
        for c in &labelled {
            by_app.entry(c.1.app).or_default().push(c);
        }
        docs.extend(by_app.into_iter().map(|(app, cells)| {
            // Speedup base: the application's single-processor run (the
            // speedup tables' sequential baseline). Cells recorded
            // before any 1p run still resolve — the base is looked up
            // across the whole app, not positionally.
            let base_ns = cells
                .iter()
                .find(|(r, _)| r.spec.np == 1)
                .map(|(r, _)| r.stats.time.nanos());
            let schema = match app {
                "serve" => SERVE_SCHEMA,
                "netgen" => NETGEN_SCHEMA,
                _ => SCHEMA,
            };
            let doc = obj(vec![
                ("schema", str(schema)),
                ("app", str(app)),
                (
                    "cells",
                    Value::Arr(
                        cells
                            .iter()
                            .map(|(r, l)| cell_value(r, l, base_ns))
                            .collect(),
                    ),
                ),
            ]);
            (app.to_string(), doc)
        }));
        docs
    }

    /// Write `BENCH_<app>.json` for every recorded application into `dir`
    /// (created if needed). Returns the written file names.
    pub fn write_all(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (app, doc) in self.to_documents() {
            let name = format!("BENCH_{app}.json");
            std::fs::write(dir.join(&name), doc.to_json_pretty())?;
            written.push(name);
        }
        Ok(written)
    }
}

fn cell_value(r: &CellRecord, l: &Labels, base_ns: Option<u64>) -> Value {
    let s = &r.stats;
    let speedup = match base_ns {
        Some(base) if s.time.nanos() > 0 => Value::Num(base as f64 / s.time.nanos() as f64),
        _ => Value::Null,
    };
    let mut fields: Vec<_> = name_fields(r, l)
        .into_iter()
        .chain([
            // Exact integers: the gate's comparison surface.
            ("time_ns", num(s.time.nanos())),
            ("msgs", num(s.num_msgs())),
            ("bytes", num(s.net.bytes)),
            ("barriers", num(s.nodes.barriers)),
            ("acquires", num(s.acquires())),
            ("diff_requests", num(s.diff_requests())),
            ("rexmits", num(s.rexmits())),
            // Derived values for humans.
            ("time_secs", Value::Num(s.time_secs())),
            ("data_mb", Value::Num(s.data_mbytes())),
            ("speedup", speedup),
            ("breakdown", s.breakdown().to_value()),
            (
                "latency",
                obj(vec![
                    ("acquire_rtt", s.acquire_latency().to_value()),
                    ("barrier_rtt", s.barrier_latency().to_value()),
                    ("diff_rtt", s.diff_latency().to_value()),
                    ("rpc_rtt", s.nodes.metrics.rpc_rtt.summary().to_value()),
                ]),
            ),
        ])
        .collect();
    if let Some(p) = &r.serve {
        // Serving extras: the open-loop request-latency summary (p50/p95/
        // p99/p99.9/max) plus the store's convergence evidence.
        fields.extend([
            ("request_latency", p.latency.to_value()),
            ("request_latency_mean_ns", Value::Num(p.latency.mean_ns())),
            ("served", num(p.served)),
            ("checksum", Value::Str(crate::persist::hex16(p.checksum))),
            ("recovered_pages", num(p.recovered_pages)),
        ]);
    }
    obj(fields)
}

fn crit_cell_value(r: &CellRecord, l: &Labels, cp: &CritPath) -> Value {
    let whatif = |removed_ns: u64| {
        obj(vec![
            ("removed_ns", num(removed_ns)),
            ("speedup_ceiling", Value::Num(cp.ceiling(removed_ns))),
        ])
    };
    let fields = name_fields(r, l).into_iter().chain([
        // The gate's comparison surface: segment count exactly, the ns
        // decomposition within the makespan drift budget.
        ("cp_segments", num(cp.segs.len() as u64)),
        ("makespan_ns", num(cp.makespan_ns)),
        ("end_node", num(cp.end_node as u64)),
        ("cpu_ns", num(cp.cpu_ns())),
        ("cpu_app_ns", num(cp.cpu_app_ns())),
        ("cpu_overhead_ns", num(cp.cpu_overhead_ns())),
        ("diff_cpu_ns", num(cp.diff_cpu_ns())),
        ("idle_ns", num(cp.cpu_op_ns(OpKind::Idle))),
        ("net_ns", num(cp.net_ns())),
        ("timeout_ns", num(cp.timeout_ns())),
        ("barrier_wait_ns", num(cp.wait_ns(OpKind::Barrier))),
        ("acquire_wait_ns", num(cp.wait_ns(OpKind::Acquire))),
        ("data_wait_ns", num(cp.wait_ns(OpKind::Data))),
        ("flush_wait_ns", num(cp.wait_ns(OpKind::Flush))),
        (
            "whatif",
            obj(vec![
                ("net_free", whatif(cp.whatif_net_free_ns())),
                ("diff_free", whatif(cp.whatif_diff_free_ns())),
                ("barrier_free", whatif(cp.whatif_barrier_free_ns())),
            ]),
        ),
    ]);
    obj(fields.collect())
}

/// Compare one candidate document against its baseline; returns one message
/// per violation (empty = pass). Candidate cells absent from the baseline
/// are allowed (new tables extend coverage without invalidating old
/// baselines); baseline cells absent from the candidate fail, and so does
/// any cell of either document whose key is unreadable or repeated.
///
/// `BENCH_critpath.json` documents (schema [`CRITPATH_SCHEMA`]) use their
/// own rules: exact `cp_segments`, and every `*_ns` field within
/// [`TIME_DRIFT_PCT`] percent of the baseline *makespan* (so zero-valued
/// components have a well-defined budget too).
pub fn compare(app: &str, baseline: &Value, candidate: &Value) -> Vec<String> {
    gate(app, baseline, candidate).1
}

/// [`compare`], also returning how many baseline cells were compared.
fn gate(app: &str, baseline: &Value, candidate: &Value) -> (usize, Vec<String>) {
    let critpath = baseline.get("schema").and_then(Value::as_str) == Some(CRITPATH_SCHEMA);
    let mut errors = Vec::new();
    let base = cells_by_key(app, "baseline", baseline, critpath, &mut errors);
    let cand = cells_by_key(app, "candidate", candidate, critpath, &mut errors);
    if base.is_empty() {
        errors.push(format!("{app}: baseline has no readable cells"));
    }
    let mut compared = 0;
    for (key, b) in &base {
        let Some(c) = cand.get(key) else {
            errors.push(format!("{app}/{key}: cell missing from candidate"));
            continue;
        };
        compared += 1;
        let at = format!("{app}/{key}");
        match critpath {
            true => compare_critpath_cell(&at, b, c, &mut errors),
            false => compare_cell(&at, b, c, &mut errors),
        }
    }
    (compared, errors)
}

/// The cells of one document by key. A cell whose key fields are
/// unreadable, or whose key repeats an earlier cell's, is reported rather
/// than dropped or overwritten: the gate never loses a cell silently.
fn cells_by_key<'v>(
    app: &str,
    which: &str,
    doc: &'v Value,
    critpath: bool,
    errors: &mut Vec<String>,
) -> BTreeMap<String, &'v Value> {
    // Critpath cells span every application in one document, so their key
    // carries the cell's own `app` field (the document-level `app` is the
    // artifact name, "critpath").
    let key_of = |c: &Value| -> Option<String> {
        let key = cell_key(
            c.get("table")?.as_str()?,
            c.get("variant")?.as_str()?,
            c.get("protocol")?.as_str()?,
            c.get("nprocs")?.as_usize()?,
        );
        match critpath {
            true => Some(format!("{}/{key}", c.get("app")?.as_str()?)),
            false => Some(key),
        }
    };
    let mut cells = BTreeMap::new();
    let all = doc.get("cells").and_then(Value::as_arr).unwrap_or(&[]);
    for (i, c) in all.iter().enumerate() {
        match key_of(c) {
            None => errors.push(format!("{app}: {which} cell {i} has an unreadable key")),
            Some(key) if cells.contains_key(&key) => {
                errors.push(format!("{app}/{key}: duplicate {which} cell {i}"))
            }
            Some(key) => {
                cells.insert(key, c);
            }
        }
    }
    cells
}

fn int_of(v: &Value, field: &str) -> Option<u64> {
    v.get(field).and_then(Value::as_u64)
}

fn compare_cell(at: &str, b: &Value, c: &Value, errors: &mut Vec<String>) {
    match (int_of(b, "time_ns"), int_of(c, "time_ns")) {
        (Some(bt), Some(ct)) if bt > 0 => {
            let drift = (ct as f64 - bt as f64).abs() * 100.0 / bt as f64;
            if drift > TIME_DRIFT_PCT {
                errors.push(format!(
                    "{at}: time_ns drifted {drift:.2}% \
                     (baseline {bt}, candidate {ct}, limit {TIME_DRIFT_PCT}%)"
                ));
            }
        }
        _ => errors.push(format!("{at}: unreadable time_ns")),
    }
    for field in EXACT_KEYS {
        match (int_of(b, field), int_of(c, field)) {
            (Some(bv), Some(cv)) if bv == cv => {}
            (Some(bv), Some(cv)) => errors.push(format!(
                "{at}: {field} changed from {bv} to {cv} (must match exactly)"
            )),
            _ => errors.push(format!("{at}: unreadable {field}")),
        }
    }
}

/// The `*_ns` decomposition fields of a critpath cell. Each is allowed to
/// drift by [`TIME_DRIFT_PCT`] percent *of the baseline makespan* — an
/// absolute budget, so components that are zero in the baseline (say,
/// `timeout_ns` on a lossless run) still have a meaningful tolerance.
const CRITPATH_NS_KEYS: [&str; 12] = [
    "makespan_ns",
    "cpu_ns",
    "cpu_app_ns",
    "cpu_overhead_ns",
    "diff_cpu_ns",
    "idle_ns",
    "net_ns",
    "timeout_ns",
    "barrier_wait_ns",
    "acquire_wait_ns",
    "data_wait_ns",
    "flush_wait_ns",
];

fn compare_critpath_cell(at: &str, b: &Value, c: &Value, errors: &mut Vec<String>) {
    let Some(makespan) = int_of(b, "makespan_ns") else {
        errors.push(format!("{at}: unreadable makespan_ns"));
        return;
    };
    let budget_ns = makespan as f64 * TIME_DRIFT_PCT / 100.0;
    match (int_of(b, "cp_segments"), int_of(c, "cp_segments")) {
        (Some(bv), Some(cv)) if bv == cv => {}
        (Some(bv), Some(cv)) => errors.push(format!(
            "{at}: cp_segments changed from {bv} to {cv} (must match exactly)"
        )),
        _ => errors.push(format!("{at}: unreadable cp_segments")),
    }
    for field in CRITPATH_NS_KEYS {
        match (int_of(b, field), int_of(c, field)) {
            (Some(bv), Some(cv)) => {
                let drift = (cv as f64 - bv as f64).abs();
                if drift > budget_ns {
                    errors.push(format!(
                        "{at}: {field} drifted {drift:.0}ns \
                         (baseline {bv}, candidate {cv}, \
                         budget {budget_ns:.0}ns = {TIME_DRIFT_PCT}% of makespan)"
                    ));
                }
            }
            _ => errors.push(format!("{at}: unreadable {field}")),
        }
    }
}

/// Compare every `BENCH_*.json` in `baseline_dir` against the same-named
/// file in `candidate_dir`. Returns `(cells compared, violations)`: a
/// baseline cell counts only if it was found in its candidate and checked.
pub fn compare_dirs(baseline_dir: &Path, candidate_dir: &Path) -> (usize, Vec<String>) {
    let mut errors = Vec::new();
    let mut compared = 0;
    let mut names: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            return (
                0,
                vec![format!(
                    "cannot read baseline dir {}: {e}",
                    baseline_dir.display()
                )],
            )
        }
    };
    names.sort();
    if names.is_empty() {
        errors.push(format!(
            "no BENCH_*.json baselines in {}",
            baseline_dir.display()
        ));
    }
    for name in names {
        let app = name
            .trim_start_matches("BENCH_")
            .trim_end_matches(".json")
            .to_string();
        let read = |dir: &Path| -> Result<Value, String> {
            let path = dir.join(&name);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{app}: cannot read {}: {e}", path.display()))?;
            Value::parse(&text).map_err(|e| format!("{app}: {} is not JSON: {e}", path.display()))
        };
        match (read(baseline_dir), read(candidate_dir)) {
            (Ok(b), Ok(c)) => {
                let (n, errs) = gate(&app, &b, &c);
                compared += n;
                errors.extend(errs);
            }
            (b, c) => errors.extend([b.err(), c.err()].into_iter().flatten()),
        }
    }
    (compared, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{CellApp, ServeCell, ServeFault, ServeLoad};
    use vopp_core::{NodeStats, Protocol, RunStats};
    use vopp_sim::SimTime;
    use vopp_simnet::NetGen;
    use CellApp::{Gauss, Is, Nn, Serve, Sor};
    use CellVariant::{Mpi, Traditional, Vopp};
    use Protocol::{Hlrc, LrcD, VcD, VcRdma, VcSd};

    fn stats(time_ns: u64, msgs: u64, diff_requests: u64) -> RunStats {
        RunStats {
            time: SimTime(time_ns),
            nprocs: 4,
            nodes: NodeStats {
                diff_requests,
                barriers: 8,
                ..Default::default()
            },
            net: vopp_simnet::NetStats {
                msgs,
                bytes: msgs * 100,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The record of a batch cell of `table`.
    fn rec(
        table: &'static str,
        app: CellApp,
        variant: CellVariant,
        proto: Protocol,
        np: usize,
        stats: RunStats,
    ) -> CellRecord {
        let spec = CellSpec {
            app,
            variant,
            proto,
            np,
            serve: None,
            netgen: None,
        };
        CellRecord {
            table,
            spec,
            stats,
            serve: None,
        }
    }

    /// `r` as a netgen cell on generation `gen`.
    fn on(gen: NetGen, mut r: CellRecord) -> CellRecord {
        r.spec.netgen = Some(gen);
        r
    }

    fn sink_with(records: Vec<CellRecord>) -> MetricsSink {
        let sink = MetricsSink::new();
        for r in &records {
            sink.record(r);
        }
        sink
    }

    /// The five naming fields of a cell, in artifact order.
    fn name_of(c: &Value) -> (String, String, String, String, u64) {
        let s = |k| c.get(k).and_then(Value::as_str).unwrap().to_string();
        let np = c.get("nprocs").and_then(Value::as_u64).unwrap();
        (s("table"), s("app"), s("variant"), s("protocol"), np)
    }

    #[test]
    fn documents_group_by_app_and_compute_speedup() {
        let sink = sink_with(vec![
            rec("table3", Is, Traditional, LrcD, 1, stats(4_000_000, 10, 0)),
            rec("table3", Is, Traditional, LrcD, 2, stats(2_000_000, 30, 5)),
            rec("table6", Sor, Vopp, VcSd, 4, stats(1_000_000, 40, 0)),
        ]);
        let docs = sink.to_documents();
        assert_eq!(
            docs.keys().collect::<Vec<_>>(),
            ["is", "sor"],
            "one document per app"
        );
        let is = &docs["is"];
        assert_eq!(is.get("schema").unwrap().as_str(), Some(SCHEMA));
        let cells = is.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("speedup").unwrap().as_f64(), Some(1.0));
        assert_eq!(cells[1].get("speedup").unwrap().as_f64(), Some(2.0));
        // No 1p run for sor: speedup is null.
        let sor_cells = docs["sor"].get("cells").unwrap().as_arr().unwrap();
        assert_eq!(sor_cells[0].get("speedup"), Some(&Value::Null));
        assert_eq!(
            sor_cells[0].get("time_ns").unwrap().as_u64(),
            Some(1_000_000)
        );
    }

    #[test]
    fn netgen_cells_carry_their_own_schema_and_gate_exactly() {
        let netgen = |msgs| {
            sink_with(vec![
                on(
                    NetGen::Rdma,
                    rec("netgen", Is, Vopp, VcRdma, 4, stats(500_000, msgs, 0)),
                ),
                on(
                    NetGen::Eth100m,
                    rec("netgen", Is, Vopp, VcSd, 4, stats(4_000_000, 20, 0)),
                ),
            ])
        };
        let sink = netgen(20);
        let doc = &sink.to_documents()["netgen"];
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(NETGEN_SCHEMA));
        assert_eq!(compare("netgen", doc, doc), Vec::<String>::new());
        // The generation lives in the variant label, so the same
        // app/protocol/np under another generation is a distinct gated cell.
        let drifted = netgen(21);
        // The fixture derives bytes from msgs, so one msgs bump drifts both
        // exact counters — and only in the rdma cell.
        let errs = compare("netgen", doc, &drifted.to_documents()["netgen"]);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs.iter().all(|e| e.contains("is_vopp_rdma")), "{errs:?}");
    }

    #[test]
    fn identical_documents_pass_the_gate() {
        let sink = sink_with(vec![rec(
            "table1",
            Is,
            Traditional,
            LrcD,
            4,
            stats(1_000_000, 50, 3),
        )]);
        let doc = &sink.to_documents()["is"];
        assert_eq!(compare("is", doc, doc), Vec::<String>::new());
    }

    #[test]
    fn gate_fails_on_time_drift_and_count_drift() {
        let base = sink_with(vec![rec(
            "table1",
            Is,
            Traditional,
            LrcD,
            4,
            stats(1_000_000, 50, 3),
        )]);
        let base_doc = &base.to_documents()["is"];

        // 1% time drift passes; counts identical.
        let near = sink_with(vec![rec(
            "table1",
            Is,
            Traditional,
            LrcD,
            4,
            stats(1_010_000, 50, 3),
        )]);
        assert!(compare("is", base_doc, &near.to_documents()["is"]).is_empty());

        // 5% time drift fails.
        let slow = sink_with(vec![rec(
            "table1",
            Is,
            Traditional,
            LrcD,
            4,
            stats(1_050_000, 50, 3),
        )]);
        let errs = compare("is", base_doc, &slow.to_documents()["is"]);
        assert!(
            errs.iter().any(|e| e.contains("time_ns drifted")),
            "{errs:?}"
        );

        // Any message-count drift fails even with identical time.
        let chatty = sink_with(vec![rec(
            "table1",
            Is,
            Traditional,
            LrcD,
            4,
            stats(1_000_000, 51, 3),
        )]);
        let errs = compare("is", base_doc, &chatty.to_documents()["is"]);
        assert!(errs.iter().any(|e| e.contains("msgs changed")), "{errs:?}");

        // A vanished cell fails.
        let empty = sink_with(vec![rec(
            "table9",
            Is,
            Vopp,
            VcSd,
            2,
            stats(1_000_000, 5, 0),
        )]);
        let errs = compare("is", base_doc, &empty.to_documents()["is"]);
        assert!(
            errs.iter().any(|e| e.contains("missing from candidate")),
            "{errs:?}"
        );
    }

    fn crit_stats(makespan_ns: u64, net_ns: u64) -> RunStats {
        use vopp_metrics::{CritPath, CritSeg, OpKind, SegCat};
        let cpu = makespan_ns - net_ns;
        let mut s = stats(makespan_ns, 10, 0);
        s.crit = Some(std::sync::Arc::new(CritPath {
            makespan_ns,
            end_node: 0,
            segs: vec![
                CritSeg {
                    node: 0,
                    lo_ns: 0,
                    hi_ns: cpu,
                    cat: SegCat::Cpu,
                    op: OpKind::App,
                    obj: 0,
                    app_ns: cpu,
                    overhead_ns: 0,
                    diff_ns: 0,
                },
                CritSeg {
                    node: 0,
                    lo_ns: cpu,
                    hi_ns: makespan_ns,
                    cat: SegCat::Net,
                    op: OpKind::Barrier,
                    obj: 0,
                    app_ns: 0,
                    overhead_ns: 0,
                    diff_ns: 0,
                },
            ],
        }));
        s
    }

    #[test]
    fn profiled_runs_produce_a_critpath_document() {
        // Profiled and unprofiled records interleaved across every labelling
        // rule: a paper table, a serve cell, netgen, scaling and MPI.
        let mut serve = rec(
            "serve",
            Serve,
            Vopp,
            VcSd,
            4,
            crit_stats(2_000_000, 500_000),
        );
        serve.spec.serve = Some(ServeCell {
            load: ServeLoad::Base,
            fault: ServeFault::Crash,
        });
        serve.serve = Some(ServePayload {
            latency: Default::default(),
            checksum: 0xfeed,
            get_digest: 0,
            served: 9,
            recovered_pages: 2,
        });
        let sink = sink_with(vec![
            rec("table3", Is, Vopp, VcSd, 4, crit_stats(1_000_000, 250_000)),
            rec("table3", Is, Traditional, LrcD, 4, stats(900_000, 10, 0)),
            serve,
            on(
                NetGen::Eth10g,
                rec("netgen", Sor, Vopp, VcSd, 4, stats(700_000, 10, 0)),
            ),
            on(
                NetGen::Rdma,
                rec("netgen", Is, Vopp, VcRdma, 4, crit_stats(500_000, 100_000)),
            ),
            rec("table9", Nn, Mpi, VcSd, 2, stats(800_000, 10, 0)),
            rec(
                "scaling",
                Gauss,
                Traditional,
                Hlrc,
                64,
                crit_stats(3_000_000, 0),
            ),
            rec("table9", Nn, Mpi, VcSd, 4, crit_stats(600_000, 200_000)),
        ]);
        let docs = sink.to_documents();
        assert_eq!(
            docs.keys().collect::<Vec<_>>(),
            ["critpath", "is", "netgen", "nn", "scaling", "serve"]
        );
        let doc = &docs["critpath"];
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(CRITPATH_SCHEMA));
        let cells = doc.get("cells").unwrap().as_arr().unwrap();
        // Exactly the profiled records, in recording order.
        let name =
            |t: &str, a: &str, v: &str, p: &str, np| (t.into(), a.into(), v.into(), p.into(), np);
        assert_eq!(
            cells.iter().map(name_of).collect::<Vec<_>>(),
            [
                name("table3", "is", "vopp", "vc_sd", 4),
                name("serve", "serve", "vopp_base_crash", "vc_sd", 4),
                name("netgen", "netgen", "is_vopp_rdma", "vc_rdma", 4),
                name("scaling", "scaling", "gauss_trad", "hlrc_d", 64),
                name("table9", "nn", "mpi", "mpi", 4),
            ]
        );
        // Each names exactly one cell of its app document: its twin, which
        // measured the same run.
        for c in cells {
            let name = name_of(c);
            let app_cells = docs[&name.1].get("cells").unwrap().as_arr().unwrap();
            let twins: Vec<&Value> = app_cells.iter().filter(|t| name_of(t) == name).collect();
            assert_eq!(twins.len(), 1, "{name:?}");
            assert_eq!(twins[0].get("time_ns"), c.get("makespan_ns"), "{name:?}");
        }
        let c = &cells[0];
        assert_eq!(c.get("makespan_ns").unwrap().as_u64(), Some(1_000_000));
        assert_eq!(c.get("cpu_ns").unwrap().as_u64(), Some(750_000));
        assert_eq!(c.get("net_ns").unwrap().as_u64(), Some(250_000));
        assert_eq!(c.get("barrier_wait_ns").unwrap().as_u64(), Some(250_000));
        assert_eq!(c.get("cp_segments").unwrap().as_u64(), Some(2));
        // Ceilings: removing 250k of 1M caps speedup at 4/3.
        let net_free = c.get("whatif").unwrap().get("net_free").unwrap();
        assert_eq!(net_free.get("removed_ns").unwrap().as_u64(), Some(250_000));
        let ceiling = net_free.get("speedup_ceiling").unwrap().as_f64().unwrap();
        assert!((ceiling - 4.0 / 3.0).abs() < 1e-9, "{ceiling}");
    }

    #[test]
    fn critpath_gate_budgets_drift_against_the_makespan() {
        let doc_of = |makespan, net| {
            let sink = sink_with(vec![rec(
                "table3",
                Is,
                Vopp,
                VcSd,
                4,
                crit_stats(makespan, net),
            )]);
            sink.to_documents().remove("critpath").unwrap()
        };
        let base = doc_of(1_000_000, 250_000);
        // Identical passes.
        assert_eq!(compare("critpath", &base, &base), Vec::<String>::new());
        // net_ns moves by 1% of makespan: within the 2% budget even though
        // it is a 4% relative change of the field itself.
        let near = doc_of(1_000_000, 260_000);
        assert_eq!(compare("critpath", &base, &near), Vec::<String>::new());
        // net_ns moves by 5% of makespan: fails.
        let far = doc_of(1_000_000, 300_000);
        let errs = compare("critpath", &base, &far);
        assert!(
            errs.iter().any(|e| e.contains("net_ns drifted")),
            "{errs:?}"
        );
        // A vanished cell fails.
        let other = doc_of(2_000_000, 250_000);
        let sink = sink_with(vec![rec(
            "table9",
            Sor,
            Vopp,
            VcD,
            2,
            crit_stats(500_000, 100_000),
        )]);
        let missing = sink.to_documents().remove("critpath").unwrap();
        let errs = compare("critpath", &other, &missing);
        assert!(
            errs.iter().any(|e| e.contains("missing from candidate")),
            "{errs:?}"
        );
    }

    /// `doc` with `edit` applied to its cell list.
    fn edit_cells(doc: &Value, edit: impl FnOnce(&mut Vec<Value>)) -> Value {
        let Value::Obj(mut fields) = doc.clone() else {
            panic!("a metrics document is an object")
        };
        match fields.iter_mut().find(|(k, _)| k == "cells") {
            Some((_, Value::Arr(cells))) => edit(cells),
            _ => panic!("a metrics document has a cell list"),
        }
        Value::Obj(fields)
    }

    /// `cell` with `field` replaced by `value`, or removed for `None`.
    fn set_field(cell: &mut Value, field: &str, value: Option<Value>) {
        let Value::Obj(fields) = cell else {
            panic!("a cell is an object")
        };
        fields.retain(|(k, _)| k != field);
        fields.extend(value.map(|v| (field.to_string(), v)));
    }

    #[test]
    fn corrupt_baseline_cells_are_reported_not_dropped() {
        let sink = sink_with(vec![
            rec("table1", Is, Traditional, LrcD, 4, stats(1_000_000, 50, 3)),
            rec("table1", Is, Vopp, VcSd, 4, stats(900_000, 40, 0)),
        ]);
        let doc = &sink.to_documents()["is"];
        assert_eq!(gate("is", doc, doc), (2, Vec::new()));

        // A cell without `nprocs` has no key: reported, and not counted.
        let keyless = edit_cells(doc, |cells| set_field(&mut cells[0], "nprocs", None));
        let (compared, errs) = gate("is", &keyless, doc);
        assert_eq!(compared, 1);
        assert_eq!(errs, ["is: baseline cell 0 has an unreadable key"]);

        // A repeated key is reported, not silently overwritten.
        let dup = edit_cells(doc, |cells| cells.push(cells[1].clone()));
        let (compared, errs) = gate("is", &dup, doc);
        assert_eq!(compared, 2);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("duplicate baseline cell 2"), "{errs:?}");

        // A time that is not an integer cannot pass the time gate.
        let text_time = edit_cells(doc, |cells| {
            set_field(&mut cells[0], "time_ns", Some(str("1000000")))
        });
        let errs = compare("is", &text_time, doc);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].ends_with("unreadable time_ns"), "{errs:?}");
    }

    #[test]
    fn a_truncated_baseline_file_is_a_violation() {
        let base = std::env::temp_dir().join(format!("vopp-metrics-trunc-{}", std::process::id()));
        let (a, b) = (base.join("a"), base.join("b"));
        let sink = sink_with(vec![rec(
            "table1",
            Is,
            Traditional,
            LrcD,
            4,
            stats(1_000_000, 50, 3),
        )]);
        sink.write_all(&a).unwrap();
        sink.write_all(&b).unwrap();
        let path = a.join("BENCH_is.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let (compared, errors) = compare_dirs(&a, &b);
        assert_eq!(compared, 0);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("is not JSON"), "{errors:?}");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn compare_dirs_round_trips_written_artifacts() {
        let base = std::env::temp_dir().join(format!("vopp-metrics-cmp-{}", std::process::id()));
        let (a, b) = (base.join("a"), base.join("b"));
        let sink = sink_with(vec![
            rec("table1", Is, Traditional, LrcD, 4, stats(1_000_000, 50, 3)),
            rec("table4", Gauss, Vopp, VcD, 4, stats(2_000_000, 80, 7)),
        ]);
        sink.write_all(&a).unwrap();
        sink.write_all(&b).unwrap();
        let (compared, errors) = compare_dirs(&a, &b);
        assert_eq!((compared, errors), (2, Vec::new()));

        // A missing candidate file is a violation, not a silent pass.
        std::fs::remove_file(b.join("BENCH_gauss.json")).unwrap();
        let (_, errors) = compare_dirs(&a, &b);
        assert!(!errors.is_empty());
        std::fs::remove_dir_all(&base).ok();
    }
}
