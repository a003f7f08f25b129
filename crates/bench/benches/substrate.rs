//! Micro-benchmarks of the memory and network substrates.

use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[path = "../../metrics/tests/support/critpath_oracle.rs"]
mod critpath_oracle;
#[path = "../../trace/tests/support/mod.rs"]
mod trace_support;

use trace_support::{gen, oracle};
use vopp_bench::harness::{black_box, Runner};
use vopp_metrics::{critpath_to_chrome_json, CritPath, CritSeg, SegCat};
use vopp_page::{Diff, IntegratedPage, PageBuf, PagePool, SharedHeap, VTime, PAGE_WORDS};
use vopp_sim::{DeliveryClass, NetModel, Payload, RouteRequest, Sim, SimDuration, SimTime};
use vopp_simnet::{EthernetModel, NetConfig};
use vopp_trace::{to_chrome_json, OpKind};

/// The pre-chunking `Diff::create`, replicated from the seed: a
/// word-by-word scan growing each run's vector by push, one `(word_off,
/// words)` pair per run. Kept as the measured reference the chunked kernel
/// is compared against (run-for-run equivalence itself is asserted by the
/// randomized suite in `vopp-page`).
fn scalar_create_runs(twin: &PageBuf, current: &PageBuf) -> Vec<(u32, Vec<u32>)> {
    let mut runs = Vec::new();
    let mut w = 0;
    while w < PAGE_WORDS {
        if twin.word(w) != current.word(w) {
            let start = w;
            let mut words = Vec::new();
            while w < PAGE_WORDS && twin.word(w) != current.word(w) {
                words.push(current.word(w));
                w += 1;
            }
            runs.push((start as u32, words));
        } else {
            w += 1;
        }
    }
    runs
}

/// Diff kernels on the canonical dirtiness patterns: sparse (one small
/// contiguous write — the common DSM case of a node touching a few adjacent
/// array elements in a page), scattered (eight isolated stores across the
/// page), dense (every 8th word), and full-page (every word modified).
fn bench_diff(r: &mut Runner) {
    let twin = PageBuf::zeroed();
    let mut pages = Vec::new();
    let mut sparse = PageBuf::zeroed();
    for w in 256..264 {
        sparse.set_word(w, w as u32 + 1);
    }
    pages.push(("sparse", sparse));
    for (label, step) in [("scattered", 128), ("dense", 8), ("full", 1)] {
        let mut cur = PageBuf::zeroed();
        for w in (0..PAGE_WORDS).step_by(step) {
            cur.set_word(w, w as u32 + 1);
        }
        pages.push((label, cur));
    }
    for (label, cur) in &pages {
        let chunked = r.bench(&format!("diff_create_{label}"), || {
            Diff::create(black_box(&twin), black_box(cur))
        });
        let scalar = r.bench(&format!("diff_create_{label}_scalar_ref"), || {
            scalar_create_runs(black_box(&twin), black_box(cur))
        });
        if let (Some(c), Some(s)) = (chunked, scalar) {
            println!(
                "    -> chunked create is {:.1}x the scalar reference ({label})",
                s.as_nanos() as f64 / c.as_nanos().max(1) as f64
            );
        }
    }
    for (label, cur) in &pages {
        let d = Diff::create(&twin, cur);
        let mut page = PageBuf::zeroed();
        r.bench(&format!("diff_apply_{label}"), || {
            d.apply(black_box(&mut page))
        });
    }
    // Merge (diff integration): newer overlapping runs shadow older ones.
    let d_sparse = Diff::create(&twin, &pages[1].1); // scattered
    let d_dense = Diff::create(&twin, &pages[2].1);
    let d_full = Diff::create(&twin, &pages[3].1);
    r.bench("diff_merge_sparse_into_dense", || {
        black_box(&d_dense).merge(black_box(&d_sparse))
    });
    r.bench("diff_merge_integration", || {
        black_box(&d_sparse).merge(black_box(&d_dense))
    });
    r.bench("diff_merge_full_page", || {
        black_box(&d_dense).merge(black_box(&d_full))
    });
}

/// Grant-time diff integration at a view home: the integrated diff for a
/// requester that missed 1 / 8 / 63 releases, read off the incremental
/// [`IntegratedPage`] state vs folded with `Diff::merge` over the missed
/// releases (what the home did per grant before it kept that state). Each
/// release rewrites a 64-word window overlapping its neighbours'.
fn bench_integration(r: &mut Runner) {
    const RELEASES: u32 = 63;
    let releases: Vec<Diff> = (0..RELEASES)
        .map(|i| {
            let words: Vec<u32> = (0..64).map(|k| i * 64 + k).collect();
            Diff::from_runs([(i * 16 % 960, &words[..])])
        })
        .collect();
    let mut page = IntegratedPage::default();
    for (i, d) in releases.iter().enumerate() {
        page.absorb(i as u32 + 1, d.clone());
    }
    for missed in [1u32, 8, 63] {
        let have = RELEASES - missed;
        let inc = r.bench(&format!("grant_integrate_{missed}_missed"), || {
            black_box(&page).newer_than(black_box(have))
        });
        let fold = r.bench(
            &format!("grant_integrate_{missed}_missed_merge_fold"),
            || {
                let missed = &black_box(&releases)[have as usize..];
                missed[1..]
                    .iter()
                    .fold(Diff::clone(&missed[0]), |acc, d| acc.merge(d))
            },
        );
        if let (Some(i), Some(f)) = (inc, fold) {
            println!(
                "    -> incremental state is {:.1}x the merge fold ({missed} missed)",
                f.as_nanos() as f64 / i.as_nanos().max(1) as f64
            );
        }
    }
}

/// Page recycling vs. fresh heap allocation per twin.
fn bench_pool(r: &mut Runner) {
    let src = {
        let mut p = PageBuf::zeroed();
        for w in (0..PAGE_WORDS).step_by(8) {
            p.set_word(w, w as u32 + 1);
        }
        p
    };
    let mut pool = PagePool::default();
    r.bench("pool_acquire_release_zeroed", || {
        let b = pool.acquire_zeroed();
        pool.release(black_box(b));
    });
    r.bench("pool_acquire_release_copy", || {
        let b = pool.acquire_copy(black_box(&src));
        pool.release(black_box(b));
    });
    r.bench("pool_miss_fresh_alloc", || {
        // The un-pooled baseline: allocate and drop a page per twin.
        black_box(Box::new(src.clone()))
    });
}

fn bench_vtime(r: &mut Runner) {
    let mut a = VTime::zero(32);
    let mut bvt = VTime::zero(32);
    for i in 0..32 {
        a.set(i, (i * 7 % 13) as u32);
        bvt.set(i, (i * 5 % 11) as u32);
    }
    r.bench("vtime_join_32", || black_box(&a).join(black_box(&bvt)));
    r.bench("vtime_dominates_32", || {
        black_box(&a).dominates(black_box(&bvt))
    });
}

fn bench_heap(r: &mut Runner) {
    r.bench("heap_alloc_1000", || {
        let mut h = SharedHeap::new();
        for i in 0..1000 {
            black_box(h.alloc(64 + (i % 100), 8));
        }
        h.pages_needed()
    });
}

fn bench_net(r: &mut Runner) {
    let mut m = EthernetModel::new(32, NetConfig::default());
    let mut t = 0u64;
    r.bench("ethernet_route", || {
        t += 1000;
        m.route(RouteRequest {
            now: SimTime(t),
            src: (t % 31) as usize,
            dst: ((t + 7) % 32) as usize,
            wire_bytes: 512,
            pending_bytes_at_dst: 1024,
            reliable: false,
        })
    });
}

/// One process advancing its clock in `slices` compute slices: every
/// resume is popped by the process that scheduled it, so after the start-up
/// wake the run never leaves its thread. Returns the wake-up count.
fn selfwake_run(slices: u32) -> u64 {
    let sim = Sim::new(1, Box::new(EthernetModel::new(1, NetConfig::lossless())));
    let out = sim.run(move |ctx| {
        for _ in 0..slices {
            ctx.compute(SimDuration::from_micros(10));
        }
    });
    assert_eq!(out.handoff.self_wakes, u64::from(slices));
    out.handoff.total()
}

/// Two processes bouncing one datagram `trips` times: every wake-up is a
/// real hand-off between two OS threads. Returns the wake-up count.
fn pingpong_run(trips: u32) -> u64 {
    let sim = Sim::new(2, Box::new(EthernetModel::new(2, NetConfig::lossless())));
    let out = sim.run(move |ctx| {
        let peer = 1 - ctx.me();
        for _ in 0..trips {
            if ctx.me() == 0 {
                ctx.send(peer, 64, DeliveryClass::App, 0, Arc::new(0u8));
                let _ = ctx.recv();
            } else {
                let _ = ctx.recv();
                ctx.send(peer, 64, DeliveryClass::App, 0, Arc::new(0u8));
            }
        }
    });
    out.handoff.total()
}

/// The OS floor under every kernel hand-off: two threads passing an atomic
/// token back and forth with `park`/`unpark`, nothing else. One trip is two
/// hand-offs.
fn bare_park_pingpong(trips: u32) {
    let tokens = [AtomicBool::new(false), AtomicBool::new(false)];
    let take = |t: &AtomicBool| {
        while !t.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    };
    let main = std::thread::current();
    std::thread::scope(|s| {
        let peer = s.spawn(|| {
            for _ in 0..trips {
                take(&tokens[1]);
                tokens[0].store(true, Ordering::Release);
                main.unpark();
            }
        });
        for _ in 0..trips {
            tokens[1].store(true, Ordering::Release);
            peer.thread().unpark();
            take(&tokens[0]);
        }
    });
}

/// Kernel wake-up path: the cost of one wake-up on the two shapes a run is
/// made of (self-wake, two-thread ping-pong), each as a ratio to a bare
/// `park`/`unpark` ping-pong timed in this same binary — the floor the baton
/// hand-off sits on, and the number a user-level scheduler (ROADMAP item 8)
/// has to beat. Run lengths include the thread spawns; they are chosen long
/// enough to drown them.
fn bench_kernel(r: &mut Runner) {
    const SELF_SLICES: u32 = 10_000;
    const TRIPS: u32 = 2_000;
    let selfwake = r.bench("kernel_selfwake", || black_box(selfwake_run(SELF_SLICES)));
    let pingpong = r.bench("kernel_pingpong", || black_box(pingpong_run(TRIPS)));
    let floor = r
        .bench("kernel_floor_park_unpark", || bare_park_pingpong(TRIPS))
        .map(|d| d.as_nanos() as f64 / f64::from(2 * TRIPS));
    if let Some(floor) = floor {
        println!("    -> bare park/unpark floor: {floor:.0} ns per hand-off");
    }
    // The wake-up counts are deterministic; one extra run of each shape
    // that was benched reads them off the kernel's own counters.
    for (name, ran) in [
        (
            "self-wake",
            selfwake.map(|d| (d, selfwake_run(SELF_SLICES))),
        ),
        ("ping-pong", pingpong.map(|d| (d, pingpong_run(TRIPS)))),
    ] {
        let Some((run, wakes)) = ran else { continue };
        let per_wake = run.as_nanos() as f64 / wakes as f64;
        match floor {
            Some(floor) => println!(
                "    -> {name}: {per_wake:.0} ns per wake-up, {:.2}x the bare floor",
                per_wake / floor
            ),
            None => println!("    -> {name}: {per_wake:.0} ns per wake-up"),
        }
    }
}

/// Payload fan-out: sharing one `Arc` allocation across 32 destinations
/// (what the transport does for broadcasts and retransmissions) vs the
/// seed's per-destination deep clone of a 4 KiB message.
fn bench_payload(r: &mut Runner) {
    let msg = vec![0xABu8; 4096];
    let arc: Payload = Arc::new(msg.clone());
    let shared = r.bench("payload_fanout32_arc_share", || {
        let mut v: Vec<Payload> = Vec::with_capacity(32);
        for _ in 0..32 {
            v.push(black_box(&arc).clone());
        }
        v
    });
    let cloned = r.bench("payload_fanout32_deep_clone_ref", || {
        let mut v: Vec<Box<dyn Any + Send + Sync>> = Vec::with_capacity(32);
        for _ in 0..32 {
            v.push(Box::new(black_box(&msg).clone()));
        }
        v
    });
    if let (Some(s), Some(c)) = (shared, cloned) {
        println!(
            "    -> Arc sharing is {:.1}x the deep-clone reference (32-way fan-out, 4 KiB)",
            c.as_nanos() as f64 / s.as_nanos().max(1) as f64
        );
    }
}

/// Report one exporter row: nanoseconds per record and output rate.
fn export_row(r: &mut Runner, name: &str, records: usize, mut export: impl FnMut() -> String) {
    let bytes = export().len();
    if let Some(d) = r.bench(name, &mut export) {
        println!(
            "    -> {:.0} ns per record, {:.0} MB/s ({:.1} MB)",
            d.as_nanos() as f64 / records as f64,
            bytes as f64 / 1e6 / d.as_secs_f64(),
            bytes as f64 / 1e6
        );
    }
}

/// The three trace exporters on a fixed seeded input, each beside the tree
/// builder it replaced (`*_tree_ref`: one `Value` per record, the document
/// assembled, printed, dropped — what every export cost before).
fn bench_trace_export(r: &mut Runner) {
    const RECORDS: usize = 100_000;
    let trace = gen::trace(14, RECORDS);
    export_row(r, "trace_export_events", RECORDS, || trace.to_json());
    export_row(r, "trace_export_events_tree_ref", RECORDS, || {
        oracle::trace_to_json(&trace)
    });
    export_row(r, "trace_export_perfetto", RECORDS, || {
        to_chrome_json(&trace)
    });
    export_row(r, "trace_export_perfetto_tree_ref", RECORDS, || {
        oracle::to_chrome_json(&trace)
    });

    let mut rng = gen::Rng(14);
    let mut t = 0;
    let segs: Vec<CritSeg> = (0..RECORDS)
        .map(|_| {
            let len = 1 + rng.below(40_000);
            let cat = [SegCat::Cpu, SegCat::Net, SegCat::Timeout][rng.below(3) as usize];
            let seg = CritSeg {
                node: rng.below(16) as usize,
                lo_ns: t,
                hi_ns: t + len,
                cat,
                op: [OpKind::Other, OpKind::Barrier, OpKind::Data][rng.below(3) as usize],
                obj: rng.below(64),
                app_ns: len / 2,
                overhead_ns: len - len / 2,
                diff_ns: len / 8,
            };
            t += len;
            seg
        })
        .collect();
    let path = CritPath {
        makespan_ns: t,
        end_node: 0,
        segs,
    };
    export_row(r, "critpath_export", RECORDS, || {
        critpath_to_chrome_json(&path)
    });
    export_row(r, "critpath_export_tree_ref", RECORDS, || {
        oracle::print_pretty(&critpath_oracle::critpath_to_chrome_value(&path))
    });
}

fn main() {
    let mut r = Runner::from_args();
    bench_diff(&mut r);
    bench_integration(&mut r);
    bench_pool(&mut r);
    bench_vtime(&mut r);
    bench_heap(&mut r);
    bench_net(&mut r);
    bench_kernel(&mut r);
    bench_payload(&mut r);
    bench_trace_export(&mut r);
}
