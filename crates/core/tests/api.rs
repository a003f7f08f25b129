//! Tests of the vopp-core public API layer: regions, guards, world builder.

use std::sync::Arc;

use vopp_core::prelude::*;
use vopp_core::{check_views, ViewId, PAGE_SIZE};
use vopp_trace::report::hot_views;
use vopp_trace::Tracer;

#[test]
fn guards_release_on_drop() {
    let mut world = WorldBuilder::new();
    let v = world.view_u32(4);
    let out = run_cluster(
        &ClusterConfig::lossless(2, Protocol::VcSd),
        world.build(),
        move |ctx| {
            {
                let _g = ctx.view(v.view);
                v.region.set(ctx, 0, ctx.me() as u32 + 1);
                // _g drops here: release_view.
            }
            ctx.barrier();
            let _r = ctx.rview(v.view);
            v.region.get(ctx, 0)
        },
    );
    // One of the two writers was last.
    assert!(out.results.iter().all(|&r| r == 1 || r == 2));
    // Acquires: 2 writes + 2 reads.
    assert_eq!(out.stats.acquires(), 4);
}

#[test]
fn region_slice_io_roundtrip() {
    let mut world = WorldBuilder::new();
    let vf = world.view_f64(100);
    let vu = world.view_u32(100);
    let out = run_cluster(
        &ClusterConfig::lossless(2, Protocol::VcSd),
        world.build(),
        move |ctx| {
            if ctx.me() == 0 {
                let fs: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
                let us: Vec<u32> = (0..100).map(|i| i * 3).collect();
                ctx.with_view(&vf, |r| r.write_all(ctx, &fs));
                ctx.with_view(&vu, |r| r.write_all(ctx, &us));
            }
            ctx.barrier();
            let f = ctx.with_rview(&vf, |r| r.read_vec(ctx));
            let u = ctx.with_rview(&vu, |r| r.read_vec(ctx));
            (f[99], u[99])
        },
    );
    for (f, u) in &out.results {
        assert_eq!(*f, 49.5);
        assert_eq!(*u, 297);
    }
}

#[test]
fn region_partial_io() {
    let mut world = WorldBuilder::new();
    let v = world.view_f64(64);
    let out = run_cluster(
        &ClusterConfig::lossless(1, Protocol::VcSd),
        world.build(),
        move |ctx| {
            ctx.with_view(&v, |r| {
                r.write_at(ctx, 10, &[1.0, 2.0, 3.0]);
                let mut buf = [0.0; 2];
                r.read_into(ctx, 11, &mut buf);
                buf
            })
        },
    );
    assert_eq!(out.results[0], [2.0, 3.0]);
}

#[test]
fn world_builder_layout_sanity() {
    let mut world = WorldBuilder::new();
    let plain = world.alloc_u32(3);
    let a = world.view_f64(1);
    let b = world.view_u32_at(2, 1);
    let layout = world.build();
    assert_eq!(plain.addr, 0);
    assert_eq!(a.region.addr % PAGE_SIZE, 0);
    assert_ne!(
        a.region.addr / PAGE_SIZE,
        b.region.addr / PAGE_SIZE,
        "views never share a page"
    );
    assert_eq!(layout.nviews(), 2);
    assert_eq!(layout.view(b.view).home, Some(1));
    check_views(&layout).unwrap();
}

#[test]
fn mixed_protocol_families_reuse_program_shape() {
    // The same computation expressed twice (traditional vs VOPP) agrees.
    let traditional = {
        let mut world = WorldBuilder::new();
        let arr = world.alloc_u32(8);
        run_cluster(
            &ClusterConfig::lossless(4, Protocol::LrcD),
            world.build(),
            move |ctx| {
                arr.set(ctx, ctx.me(), (ctx.me() as u32 + 1) * 10);
                ctx.barrier();
                (0..4).map(|i| arr.get(ctx, i)).sum::<u32>()
            },
        )
    };
    let vopp = {
        let mut world = WorldBuilder::new();
        let views: Vec<_> = (0..4).map(|q| world.view_u32_at(1, q)).collect();
        run_cluster(
            &ClusterConfig::lossless(4, Protocol::VcSd),
            world.build(),
            move |ctx| {
                ctx.with_view(&views[ctx.me()], |r| {
                    r.set(ctx, 0, (ctx.me() as u32 + 1) * 10)
                });
                ctx.barrier();
                views
                    .iter()
                    .map(|v| ctx.with_rview(v, |r| r.get(ctx, 0)))
                    .sum::<u32>()
            },
        )
    };
    assert_eq!(traditional.results, vopp.results);
    assert_eq!(traditional.results[0], 100);
}

/// The §3.6 per-view numbers of a real run, derived from its trace.
#[test]
fn per_view_stats_surface_in_outcome() {
    let mut world = WorldBuilder::new();
    let hot = world.view_u32(1);
    let cold = world.view_u32(1);
    let tracer = Arc::new(Tracer::default());
    let mut cfg = ClusterConfig::lossless(3, Protocol::VcSd);
    cfg.tracer = Some(tracer.clone());
    run_cluster(&cfg, world.build(), move |ctx| {
        for _ in 0..5 {
            ctx.with_view(&hot, |r| r.update(ctx, 0, |x| x + 1));
        }
        if ctx.me() == 0 {
            ctx.with_view(&cold, |r| r.set(ctx, 0, 1));
        }
        ctx.barrier();
    });
    let views = hot_views(&tracer.take(), usize::MAX);
    let of = |v: ViewId| {
        views
            .iter()
            .find(|h| h.view == v as u64)
            .expect("view acquired")
    };
    assert_eq!(of(hot.view).acquires, 15);
    assert_eq!(of(cold.view).acquires, 1);
    assert!(of(hot.view).wait_ns > 0);
}

/// Zero-length sub-ranges are legal anywhere in `0..=len`, including at the
/// region's end and on an empty region (a node whose row share is empty).
#[test]
fn region_empty_ranges_at_the_end_and_on_empty_regions() {
    let mut world = WorldBuilder::new();
    let f = world.alloc_f64(16);
    let u = world.alloc_u32(16);
    // The heap allocates no empty regions, but descriptors are plain data.
    let (mut ef, mut eu) = (f, u);
    (ef.len, eu.len) = (0, 0);
    let out = run_cluster(
        &ClusterConfig::lossless(1, Protocol::LrcD),
        world.build(),
        move |ctx| {
            f.write_at(ctx, f.len(), &[]);
            f.read_into(ctx, f.len(), &mut []);
            u.write_at(ctx, u.len(), &[]);
            u.read_into(ctx, u.len(), &mut []);
            ef.write_at(ctx, 0, &[]);
            ef.read_into(ctx, 0, &mut []);
            eu.write_at(ctx, 0, &[]);
            eu.read_into(ctx, 0, &mut []);
            ef.write_all(ctx, &[]);
            eu.write_all(ctx, &[]);
            (ef.read_vec(ctx).len(), eu.read_vec(ctx).len())
        },
    );
    assert_eq!(out.results[0], (0, 0));
    assert_eq!(out.stats.nodes.page_faults, 0);
}
