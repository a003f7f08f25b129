//! Per-layer probes: small drivers that call one layer's public API and
//! nothing else, timed from outside. A probe isolates what an operation of
//! that layer costs on this host; multiplied by the operation counts of a
//! workload it predicts how much of `host_wall_s` the layer accounts for.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use vopp_core::prelude::*;
use vopp_metrics::Histogram;
use vopp_page::{Diff, PageBuf, PagePool, PAGE_WORDS};
use vopp_serve::build_schedule;
use vopp_sim::{DeliveryClass, NetModel, PerfectNet, RouteRequest, Sim, SimDuration, SimTime};
use vopp_simnet::EthernetModel;

use crate::measure::median;
use crate::spans::Spans;
use crate::workloads::{serve_params, SERVE16_REQUESTS};

/// Batches per probe; the reported value is the median batch.
const BATCHES: usize = 7;
/// Wall-clock one batch is sized to fill.
const BATCH_S: f64 = 0.015;

/// Wall-clock of one `f()` in nanoseconds: the median over the batches, each
/// batch as many calls as fill `BATCH_S` (sized from a first, untimed batch
/// that also warms the caches).
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let mut batch = |iters: u32| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_secs_f64() / f64::from(iters)
    };
    let iters = (BATCH_S / batch(4)).clamp(1.0, 1e6) as u32;
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch(iters) * 1e9).collect();
    median(&samples)
}

/// 8 processes advancing their clocks in identical 10 us slices: every
/// wake-up is a same-instant resume of the next process, the shape of a
/// barrier release. Wall-clock per wake-up.
fn sim_handoff_ns() -> f64 {
    let mut wakes = 0;
    let run_ns = per_call_ns(|| {
        let sim = Sim::new(8, Box::new(EthernetModel::new(8, NetConfig::lossless())));
        let out = sim.run(|ctx| {
            for _ in 0..64 {
                ctx.compute(SimDuration::from_micros(10));
            }
        });
        wakes = out.handoff.total();
    });
    run_ns / wakes as f64
}

/// 128 processes whose bodies return at once: thread spawn, first wake and
/// join, per process.
fn sim_spawn_us() -> f64 {
    per_call_ns(|| {
        black_box(
            Sim::new(128, Box::new(PerfectNet::default()))
                .run(|_| ())
                .end_time,
        );
    }) / 128.0
        / 1e3
}

/// Two processes bouncing one datagram back and forth over a perfect
/// network: the kernel's send, deliver and blocking-receive path, per
/// message.
fn sim_pingpong_ns() -> f64 {
    const ROUND_TRIPS: u64 = 2_000;
    per_call_ns(|| {
        let out = Sim::new(2, Box::new(PerfectNet::default())).run(|ctx| {
            let peer = 1 - ctx.me();
            for _ in 0..ROUND_TRIPS {
                if ctx.me() == 0 {
                    ctx.send(peer, 64, DeliveryClass::App, 0, Arc::new(0u8));
                    let _ = ctx.recv();
                } else {
                    let _ = ctx.recv();
                    ctx.send(peer, 64, DeliveryClass::App, 0, Arc::new(0u8));
                }
            }
        });
        black_box(out.end_time);
    }) / (2 * ROUND_TRIPS) as f64
}

/// The switched-Ethernet timing model alone: one 512-byte datagram routed
/// between two of 32 nodes.
fn simnet_route_ns() -> f64 {
    let mut model = EthernetModel::new(32, NetConfig::default());
    let mut t = 0u64;
    per_call_ns(|| {
        t += 1000;
        black_box(model.route(RouteRequest {
            now: SimTime(t),
            src: (t % 31) as usize,
            dst: ((t + 7) % 32) as usize,
            wire_bytes: 512,
            pending_bytes_at_dst: 1024,
            reliable: false,
        }));
    })
}

fn page_with_every(step: usize) -> Box<PageBuf> {
    let mut page = PageBuf::zeroed();
    for w in (0..PAGE_WORDS).step_by(step) {
        page.set_word(w, w as u32 + 1);
    }
    page
}

/// Diff kernels per 4 KiB page: create on a sparse page (one 8-word write,
/// the common case) and on a dense one (every 8th word), apply and merge of
/// the dense diff, and a pooled twin (acquire-copy then release).
fn page_probes(out: &mut Vec<(&'static str, f64)>, spans: &mut Spans) {
    let twin = PageBuf::zeroed();
    let mut sparse = PageBuf::zeroed();
    for w in 256..264 {
        sparse.set_word(w, w as u32 + 1);
    }
    let dense = page_with_every(8);
    let scattered = Diff::create(&twin, &page_with_every(128));
    let dense_diff = Diff::create(&twin, &dense);
    let mut target = PageBuf::zeroed();
    let mut pool = PagePool::default();
    let mut probe = |name: &'static str, f: &mut dyn FnMut()| {
        let ns = spans.scope(&format!("probe:{name}"), "page", |_| per_call_ns(&mut *f));
        out.push((name, ns));
    };
    probe("page.diff_create_sparse_ns", &mut || {
        black_box(Diff::create(black_box(&twin), black_box(&sparse)));
    });
    probe("page.diff_create_dense_ns", &mut || {
        black_box(Diff::create(black_box(&twin), black_box(&dense)));
    });
    probe("page.diff_apply_ns", &mut || {
        black_box(&dense_diff).apply(black_box(&mut target));
    });
    probe("page.diff_merge_ns", &mut || {
        black_box(black_box(&dense_diff).merge(black_box(&scattered)));
    });
    probe("page.pool_cycle_ns", &mut || {
        let twin = pool.acquire_copy(black_box(&dense));
        pool.release(black_box(twin));
    });
}

/// Two lossless nodes each updating one view 50 times, under VC_d and
/// VC_sd: per `with_view` update.
fn dsm_view_pingpong_us() -> f64 {
    per_call_ns(|| {
        for proto in [Protocol::VcD, Protocol::VcSd] {
            let mut world = WorldBuilder::new();
            let v = world.view_u32(64);
            let cfg = ClusterConfig::lossless(2, proto);
            run_cluster(&cfg, world.build(), move |ctx| {
                for _ in 0..50 {
                    ctx.with_view(&v, |r| r.update(ctx, 0, |x| x + 1));
                }
                ctx.barrier();
            });
        }
    }) / 200.0
        / 1e3
}

/// 8 nodes crossing 100 barriers, under LRC_d and VC_sd: per barrier.
fn dsm_barrier_us() -> f64 {
    per_call_ns(|| {
        for proto in [Protocol::LrcD, Protocol::VcSd] {
            let cfg = ClusterConfig::lossless(8, proto);
            run_cluster(&cfg, WorldBuilder::new().build(), |ctx| {
                for _ in 0..100 {
                    ctx.barrier();
                }
            });
        }
    }) / 200.0
        / 1e3
}

/// LRC_d producer/consumer over 64 pages: twin, diff, fault and fetch, per
/// page.
fn dsm_fault_fetch_us() -> f64 {
    const PAGES: usize = 64;
    per_call_ns(|| {
        let mut world = WorldBuilder::new();
        let arr = world.alloc_u32(PAGES * PAGE_WORDS);
        let cfg = ClusterConfig::lossless(2, Protocol::LrcD);
        run_cluster(&cfg, world.build(), move |ctx| {
            if ctx.me() == 0 {
                arr.write_all(ctx, &vec![7u32; PAGES * PAGE_WORDS]);
            }
            ctx.barrier();
            if ctx.me() == 1 {
                let mut buf = vec![0u32; PAGES * PAGE_WORDS];
                arr.read_into(ctx, 0, &mut buf);
                black_box(buf);
            }
            ctx.barrier();
        });
    }) / PAGES as f64
        / 1e3
}

fn metrics_hist_record_ns() -> f64 {
    let mut h = Histogram::default();
    let mut ns = 1u64;
    let v = per_call_ns(|| {
        ns = ns
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        h.record(black_box(ns >> 34));
    });
    black_box(h.count());
    v
}

fn serve_schedule_ms() -> f64 {
    // serve16's read-mostly mix.
    let p = serve_params(0, false, SERVE16_REQUESTS, 0.95);
    per_call_ns(|| {
        black_box(build_schedule(black_box(&p)));
    }) / 1e6
}

/// `(metric, layer, driver)`.
type Probe = (&'static str, &'static str, fn() -> f64);

/// Run every probe; `(metric name, value)` in the metric's unit.
pub fn run_all(spans: &mut Spans) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let singles: [Probe; 9] = [
        ("sim.handoff_ns", "sim", sim_handoff_ns),
        ("sim.spawn_us", "sim", sim_spawn_us),
        ("sim.pingpong_ns", "sim", sim_pingpong_ns),
        ("simnet.route_ns", "simnet", simnet_route_ns),
        ("dsm.view_pingpong_us", "dsm", dsm_view_pingpong_us),
        ("dsm.barrier_us", "dsm", dsm_barrier_us),
        ("dsm.fault_fetch_us", "dsm", dsm_fault_fetch_us),
        ("metrics.hist_record_ns", "metrics", metrics_hist_record_ns),
        ("serve.schedule_ms", "serve", serve_schedule_ms),
    ];
    for (name, layer, probe) in singles {
        let v = spans.scope(&format!("probe:{name}"), layer, |_| probe());
        out.push((name, v));
    }
    page_probes(&mut out, spans);
    out
}
