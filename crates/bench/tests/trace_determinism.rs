//! Determinism guards: the simulator is seeded and virtual-time ordered, so
//! two identical table runs must record byte-identical traces, and every
//! protocol must reproduce the event stream it was recorded with. Any
//! divergence means wall-clock state leaked into the simulation or the
//! kernel reordered events.

use std::path::Path;
use std::sync::Arc;

use vopp_bench::persist::fnv1a;
use vopp_bench::Scale;
use vopp_core::prelude::*;
use vopp_core::VoppExt;
use vopp_trace::Tracer;

fn run_table1_traced(dir: &Path) {
    let scale = Scale {
        quick: true,
        trace_dir: Some(dir.to_path_buf()),
        ..Scale::default()
    };
    let t = vopp_bench::tables::table1(&scale);
    assert!(t.title.starts_with("Table 1"));
}

#[test]
fn same_seed_table1_traces_are_byte_identical() {
    let base = std::env::temp_dir().join(format!("vopp-trace-det-{}", std::process::id()));
    let (a, b) = (base.join("a"), base.join("b"));
    run_table1_traced(&a);
    run_table1_traced(&b);

    let mut compared = 0;
    for entry in std::fs::read_dir(&a).expect("first run produced no trace dir") {
        let name = entry.unwrap().file_name();
        let lhs = std::fs::read(a.join(&name)).unwrap();
        let rhs = std::fs::read(b.join(&name))
            .unwrap_or_else(|e| panic!("second run missing {}: {e}", name.to_string_lossy()));
        assert_eq!(
            lhs,
            rhs,
            "trace artifact {} differs between identical runs",
            name.to_string_lossy()
        );
        compared += 1;
    }
    // Table 1 is three runs x three artifacts.
    assert_eq!(compared, 9, "expected 9 artifacts to compare");
    std::fs::remove_dir_all(&base).ok();
}

const NPROCS: usize = 8;
const ROUNDS: u32 = 4;

/// Run a protocol-appropriate workload under `proto` with a tracer
/// attached; return the serialized trace. Uses the default (lossy)
/// network so timer events and retransmissions are exercised too.
fn traced_trace(proto: Protocol) -> String {
    let mut cfg = ClusterConfig::new(NPROCS, proto);
    let tracer = Arc::new(Tracer::default());
    cfg.tracer = Some(tracer.clone());
    match proto {
        // Lock + barrier workload on the traditional API.
        Protocol::LrcD | Protocol::Hlrc | Protocol::ScC => {
            let mut w = WorldBuilder::new();
            let arr = w.alloc_u32(1024);
            run_cluster(&cfg, w.build(), move |ctx| {
                for round in 0..ROUNDS {
                    ctx.lock_acquire(0);
                    arr.update(ctx, round as usize, |x| x + 1);
                    ctx.lock_release(0);
                    ctx.barrier();
                    let _ = arr.get(ctx, round as usize);
                    ctx.barrier();
                }
            });
        }
        // View bracket + barrier workload on the VOPP API.
        Protocol::VcD | Protocol::VcSd | Protocol::VcRdma => {
            let mut w = WorldBuilder::new();
            let v = w.view_u32(64);
            run_cluster(&cfg, w.build(), move |ctx| {
                for round in 0..ROUNDS {
                    ctx.with_view(&v, |r| r.update(ctx, (round as usize) % 64, |x| x + 1));
                    ctx.barrier();
                    let first = ctx.with_rview(&v, |r| r.get(ctx, (round as usize) % 64));
                    assert!(first > 0);
                    ctx.barrier();
                }
            });
        }
    }
    let trace = tracer.take();
    assert_eq!(trace.evicted, 0, "{proto}: ring must not wrap at this size");
    assert!(!trace.events.is_empty(), "{proto}: empty trace");
    trace.to_json()
}

/// The event stream every protocol produces: the trace records every
/// scheduling-visible action (process starts, network sends and receives,
/// protocol operations) in commit order, so this is the strongest
/// determinism statement the simulator can make. Each FNV-1a digest of the
/// trace JSON was recorded when the kernel could still route every wake-up
/// through a controller thread and both schedules produced it.
#[test]
fn every_protocol_reproduces_its_recorded_event_stream() {
    for (proto, digest) in [
        (Protocol::LrcD, 0x5fd4_8211_ec77_05c6),
        (Protocol::VcD, 0xba78_e363_008b_0cd9),
        (Protocol::VcSd, 0x58d7_9abf_505d_5a64),
        (Protocol::VcRdma, 0x160f_aef5_662f_2f65),
        (Protocol::Hlrc, 0x193d_d5f4_2cc8_cf51),
        (Protocol::ScC, 0xa373_5608_5d8a_e959),
    ] {
        let trace = traced_trace(proto);
        assert_eq!(
            fnv1a(trace.as_bytes()),
            digest,
            "{proto}: the event stream moved"
        );
    }
}
