//! View-partitioning tuning: the paper's §3.6 rule of thumb, measured.
//!
//! > "the more views are acquired, the more messages there are in the
//! > system; and the larger a view is, the more data traffic is caused in
//! > the system when the view is acquired."
//!
//! A fixed histogram-accumulation workload is run with the histogram split
//! into 2, 4, 8, 16 and 32 views. Few large views mean fewer messages but
//! more data per acquisition (and more contention); many small views mean
//! the opposite. The per-view breakdown, derived from a trace of the 8-view
//! run, exposes where the waiting happens.
//!
//! ```text
//! cargo run --release --example view_tuning
//! ```

use std::sync::Arc;

use vopp_repro::apps::workload::share;
use vopp_repro::prelude::*;
use vopp_trace::report::hot_views;
use vopp_trace::Tracer;

const BUCKETS: usize = 8192;
const REPS: usize = 10;
const NPROCS: usize = 8;

fn run_with_chunks(chunks: usize, tracer: Option<Arc<Tracer>>) -> RunStats {
    let mut world = WorldBuilder::new();
    let views: Vec<_> = (0..chunks)
        .map(|c| {
            let (bs, be) = share(BUCKETS, c, chunks);
            world.view_u32(be - bs)
        })
        .collect();
    let mut cfg = ClusterConfig::new(NPROCS, Protocol::VcSd);
    cfg.tracer = tracer;
    let out = run_cluster(&cfg, world.build(), |ctx| {
        let me = ctx.me();
        for rep in 0..REPS {
            for k in 0..chunks {
                let c = (me + rep + k) % chunks;
                ctx.with_view(&views[c], |r| {
                    let mut buf = vec![0u32; r.len()];
                    r.read_into(ctx, 0, &mut buf);
                    for v in buf.iter_mut() {
                        *v += 1;
                    }
                    r.write_all(ctx, &buf);
                });
                ctx.int_ops(views[c].len() as u64);
            }
            ctx.compute_ns(2e6); // per-rep local work
        }
        ctx.barrier();
    });
    out.stats
}

fn main() {
    println!(
        "{:>7} {:>10} {:>10} {:>12} {:>14} {:>16}",
        "views", "acquires", "messages", "data (KB)", "time (ms)", "avg wait (us)"
    );
    for chunks in [2, 4, 8, 16, 32] {
        let s = run_with_chunks(chunks, None);
        println!(
            "{:>7} {:>10} {:>10} {:>12.0} {:>14.2} {:>16.0}",
            chunks,
            s.acquires(),
            s.num_msgs(),
            s.net.bytes as f64 / 1e3,
            s.time_secs() * 1e3,
            s.acquire_time_usec(),
        );
    }
    let tracer = Arc::new(Tracer::default());
    run_with_chunks(8, Some(tracer.clone()));
    println!("\nper-view breakdown at 8 views, hottest first (paper §3.6 diagnostics):");
    println!(
        "{:>6} {:>10} {:>14} {:>14}",
        "view", "acquires", "wait (ms)", "grants (KB)"
    );
    for hv in hot_views(&tracer.take(), usize::MAX) {
        println!(
            "{:>6} {:>10} {:>14.2} {:>14.1}",
            hv.view,
            hv.acquires,
            hv.wait_ns as f64 / 1e6,
            hv.grant_bytes as f64 / 1e3
        );
    }
}
