//! Tier-1 tripwire for the trace exporters: the event stream, the Perfetto
//! document and the critical-path track are written straight from the
//! records by a hand-rolled streaming JSON writer, so real runs must export
//! byte for byte what the tree builders they replaced would have, parse back
//! exactly (RPC tags above 2^53 included), and do it without allocating per
//! event.

#[path = "../crates/metrics/tests/support/critpath_oracle.rs"]
mod critpath_oracle;
#[path = "../crates/trace/tests/support/mod.rs"]
mod support;

use std::sync::{Arc, Mutex};

use support::oracle;
use vopp_bench::{alloc_totals, CountingAlloc};
use vopp_metrics::{critpath_to_chrome_json, write_critpath_chrome_json_to, CritPath};
use vopp_repro::apps::is::{is_reference, run_is, IsParams, IsVariant};
use vopp_repro::dsm::{run_cluster, ClusterConfig, Protocol};
use vopp_repro::prelude::*;
use vopp_trace::json::Value;
use vopp_trace::{to_chrome_json, CausalProfiler, EventKind, Trace, Tracer};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocation counters are process-wide and `cargo test` runs the tests
/// of one binary on parallel threads: every test here holds this lock.
static SERIAL: Mutex<()> = Mutex::new(());

const NODES: usize = 16;

fn observed(proto: Protocol) -> (ClusterConfig, Arc<Tracer>) {
    let mut cfg = ClusterConfig::new(NODES, proto);
    let tracer = Arc::new(Tracer::default());
    cfg.tracer = Some(tracer.clone());
    cfg.profiler = Some(Arc::new(CausalProfiler::new(NODES)));
    (cfg, tracer)
}

/// 16 nodes bump a shared counter through `with_view` brackets (so the
/// trace carries application spans) while one datagram in fifty is lost.
fn lossy_vc_sd_run() -> (Trace, Arc<CritPath>) {
    const ROUNDS: usize = 48;
    let (mut cfg, tracer) = observed(Protocol::VcSd);
    cfg.net.base_drop_prob = 0.02;
    cfg.net.seed = 11;
    let mut world = WorldBuilder::new();
    let v = world.view_u32(64);
    let out = run_cluster(&cfg, world.build(), move |ctx| {
        for round in 0..ROUNDS {
            ctx.with_view(&v, |r| {
                r.update(ctx, 0, |x| x + 1);
                r.update(ctx, 1 + (7 * ctx.me() + round) % 63, |x| x + 1);
            });
            ctx.compute_ns((1_000 * (ctx.me() + 1)) as f64);
        }
        ctx.barrier();
        ctx.with_rview(&v, |r| r.get(ctx, 0))
    });
    assert!(out.results.iter().all(|&n| n == (NODES * ROUNDS) as u32));
    assert!(out.stats.rexmits() > 0, "2 % loss must retransmit");
    (tracer.take(), out.stats.crit.expect("profiler attached"))
}

/// Quick IS, the traditional barrier-phased program: page faults, diff
/// requests and write notices, none of which the VC_sd run produces.
fn lrc_d_run() -> (Trace, Arc<CritPath>) {
    let (cfg, tracer) = observed(Protocol::LrcD);
    let p = IsParams::quick();
    let out = run_is(&cfg, &p, IsVariant::Traditional);
    assert_eq!(out.value, is_reference(&p, NODES, false));
    (tracer.take(), out.stats.crit.expect("profiler attached"))
}

fn exports_match_the_oracle(what: &str, trace: &Trace, crit: &CritPath) {
    assert_eq!(trace.evicted, 0, "{what}: the ring must not wrap");
    let tagged =
        trace.count_kind(|k| matches!(k, EventKind::NetSend { tag, .. } if *tag > 1 << 53));
    assert!(tagged > 0, "{what}: no RPC tag above 2^53 in the trace");

    let json = trace.to_json();
    assert!(json == oracle::trace_to_json(trace), "{what}: event stream");
    let back = Trace::from_json(&json).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(back == *trace, "{what}: events (tags included) round-trip");

    let chrome = to_chrome_json(trace);
    assert!(chrome == oracle::to_chrome_json(trace), "{what}: Perfetto");
    Value::parse(&chrome).unwrap_or_else(|e| panic!("{what}: Perfetto: {e}"));

    let track = critpath_to_chrome_json(crit);
    let tree = critpath_oracle::critpath_to_chrome_value(crit);
    assert!(track == oracle::print_pretty(&tree), "{what}: critpath");
    assert!(
        Value::parse(&track).as_ref() == Ok(&tree),
        "{what}: critpath"
    );
    let mut bytes = Vec::new();
    write_critpath_chrome_json_to(crit, &mut bytes).expect("Vec write");
    assert!(
        bytes == track.as_bytes(),
        "{what}: critpath through io::Write"
    );
}

#[test]
fn real_runs_export_what_the_tree_builders_did() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (trace, crit) = lossy_vc_sd_run();
    assert!(trace.count_kind(|k| matches!(k, EventKind::SpanBegin { .. })) > 0);
    exports_match_the_oracle("VC_sd", &trace, &crit);
    let (trace, crit) = lrc_d_run();
    assert!(trace.count_kind(|k| matches!(k, EventKind::DiffRequest { .. })) > 0);
    exports_match_the_oracle("LRC_d", &trace, &crit);
}

/// Random critical paths export what the tree builder did, from every
/// start time the trace generator uses: on both sides of 2^50, where the
/// microsecond text stops being made from integers, and past 2^53.
#[test]
fn random_critical_paths_export_what_the_tree_builder_did() {
    use support::gen::{start_time, Rng};
    use vopp_metrics::{CritSeg, SegCat};
    use vopp_trace::OpKind;
    const CATS: [SegCat; 3] = [SegCat::Cpu, SegCat::Net, SegCat::Timeout];
    const OPS: [OpKind; 7] = [
        OpKind::App,
        OpKind::Idle,
        OpKind::Barrier,
        OpKind::Acquire,
        OpKind::Data,
        OpKind::Flush,
        OpKind::Other,
    ];
    for seed in 0..40 {
        let mut rng = Rng(seed);
        let mut t = start_time(seed);
        let mut cp = CritPath::default();
        for _ in 0..300 {
            let lo_ns = t;
            t += rng.below(3000);
            cp.segs.push(CritSeg {
                node: rng.below(6) as usize,
                lo_ns,
                hi_ns: t,
                cat: CATS[rng.below(3) as usize],
                op: OPS[rng.below(7) as usize],
                obj: rng.id(),
                app_ns: rng.below(3000),
                overhead_ns: rng.below(3000),
                diff_ns: rng.below(3000),
            });
        }
        let tree = critpath_oracle::critpath_to_chrome_value(&cp);
        let track = critpath_to_chrome_json(&cp);
        assert!(track == oracle::print_pretty(&tree), "seed {seed}");
    }
}

/// The tree builder allocated about ten times per event (a `Vec` of pairs,
/// a `String` per key); the streaming writer allocates for nothing but the
/// output, so into a buffer that is already big enough the count does not
/// depend on the number of events at all.
#[test]
fn the_event_stream_exports_without_allocating_per_event() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (trace, _) = lossy_vc_sd_run();
    assert!(trace.events.len() >= 10_000);
    let mut out = Vec::with_capacity(trace.to_json().len());
    let (before, _) = alloc_totals();
    trace.write_json_to(&mut out).expect("Vec write");
    let (after, _) = alloc_totals();
    assert!(
        after - before < 64,
        "{} allocations for {} events",
        after - before,
        trace.events.len()
    );
    // And the `String` form sizes its buffer up front instead of doubling
    // its way there.
    let (before, _) = alloc_totals();
    let json = trace.to_json();
    let (after, _) = alloc_totals();
    assert!(after - before < 64, "{} allocations", after - before);
    assert!(json.as_bytes() == out);
}
