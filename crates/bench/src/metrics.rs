//! Machine-readable benchmark artifacts.
//!
//! When table generation runs with a [`MetricsSink`] attached (the `tables`
//! binary's `--metrics DIR` flag), every verified cluster run is recorded as
//! a *cell* and the sink writes one `BENCH_<app>.json` per application.
//! Each cell carries exact integers (virtual `time_ns`, message/byte
//! totals, diff-request and retransmission counts) plus derived values for
//! humans (seconds, MB, speedup, the phase breakdown, and latency
//! summaries). The simulator is fully deterministic, so a run writes the
//! same bytes on every machine, worker count and cache state: the committed
//! baselines (`crates/bench/baselines*/`) are compared with `diff`, byte for
//! byte (`make bench`, `make critpath`).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

use vopp_core::RunStats;
use vopp_metrics::{CritPath, OpKind};
use vopp_trace::json::{num, obj, str, Value};

use crate::sweep::{CellSpec, CellVariant, ServePayload};

/// Schema tag written into every artifact, bumped on breaking changes.
/// One tag serves every family: the file name (`BENCH_serve.json`,
/// `BENCH_critpath.json`, ...) already says which cells a document holds.
pub const SCHEMA: &str = "vopp-bench-metrics/2";

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
            let doc = obj(vec![("schema", str(SCHEMA)), ("cells", Value::Arr(crit))]);
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
            let doc = obj(vec![
                ("schema", str(SCHEMA)),
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
            // Exact integers.
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
        // The path's size and its ns decomposition.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{CellApp, ServeCell, ServeFault, ServeLoad};
    use vopp_core::{NodeStats, Protocol, RunStats};
    use vopp_sim::SimTime;
    use vopp_simnet::NetGen;
    use CellApp::{Gauss, Is, Nn, Serve, Sor};
    use CellVariant::{Mpi, Traditional, Vopp};
    use Protocol::{Hlrc, LrcD, VcRdma, VcSd};

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
    fn netgen_cells_carry_their_generation_and_gate_exactly() {
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
        let doc = &netgen(20).to_documents()["netgen"];
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        // The generation lives in the variant label, so the same
        // app/protocol/np under another generation is a distinct cell, and
        // one msgs bump changes the bytes of the rdma cell alone.
        let drifted = &netgen(21).to_documents()["netgen"];
        let cells = |d: &Value| d.get("cells").unwrap().as_arr().unwrap().to_vec();
        let (a, b) = (cells(doc), cells(drifted));
        assert_eq!(name_of(&a[0]).2, "is_vopp_rdma");
        assert_ne!(a[0].to_json_pretty(), b[0].to_json_pretty());
        assert_eq!(a[1].to_json_pretty(), b[1].to_json_pretty());
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
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
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
}
