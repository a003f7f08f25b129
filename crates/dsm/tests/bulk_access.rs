//! The bulk accessors (`read_f64s` / `write_f64s` / `read_u32s` /
//! `write_u32s`) copy per page run. They must move exactly the bytes the
//! per-element accessors move, and cost exactly what they always cost: the
//! virtual statistics of the runs below are constants recorded before the
//! per-page copy replaced the per-element one, and before the scalar
//! accessors, round trips and interval closes were folded into one path
//! each. Every protocol has a row; two lossy rows pin retransmission.

use vopp_dsm::{run_cluster, ClusterConfig, FaultPlan, Layout, Protocol, RunStats};
use vopp_page::PAGE_SIZE;

const NP: usize = 4;
/// Pages of each element type in each area.
const PAGES: usize = 6;
const F64S: usize = PAGES * PAGE_SIZE / 8;
const U32S: usize = PAGES * PAGE_SIZE / 4;

/// `(first element, length)` as multiples of a page plus a remainder, for an
/// element type with `per_page` elements in a page: starts one element
/// before and after a page boundary, nothing at all, exactly one page, and
/// runs through five pages from mid-page to mid-page.
fn cases(per_page: usize) -> Vec<(usize, usize)> {
    vec![
        (per_page - 1, 2),
        (per_page + 1, 3),
        (2 * per_page - 1, 0),
        (2 * per_page, 0),
        (3 * per_page, per_page),
        (per_page - 1, 3 * per_page + 2),
        (per_page / 2, 4 * per_page),
        (0, PAGES * per_page),
    ]
}

fn f64_of(case: usize, i: usize) -> f64 {
    (case * 100_000 + i) as f64 + 0.5
}

fn u32_of(case: usize, i: usize) -> u32 {
    ((case as u32 + 1) << 20) | i as u32
}

/// [`run_on`] on a lossless network, with no locks.
fn run(proto: Protocol) -> RunStats {
    run_on(ClusterConfig::lossless(NP, proto), false)
}

/// [`run`] with every traditional-API writer holding lock 0 around its
/// writes, so the lock round trips and their interval closes are pinned.
fn run_locked(proto: Protocol) -> RunStats {
    run_on(ClusterConfig::lossless(NP, proto), true)
}

/// [`run_locked`] with 2 % of datagrams dropped.
fn run_lossy(proto: Protocol) -> RunStats {
    let cfg = ClusterConfig {
        faults: FaultPlan::none().with_loss(0.02, 7),
        ..ClusterConfig::lossless(NP, proto)
    };
    run_on(cfg, !proto.is_vc())
}

/// Two areas of `PAGES` pages of `f64` followed by `PAGES` pages of `u32`.
/// Area A is written in bulk, area B element by element, with the same
/// values; every node then reads both areas both ways.
fn run_on(cfg: ClusterConfig, locked: bool) -> RunStats {
    let proto = cfg.protocol;
    let area = 2 * PAGES * PAGE_SIZE;
    let mut l = Layout::new();
    let vc = proto.is_vc();
    let (va, a, vb, b) = if vc {
        let (va, a) = l.add_view(area);
        let (vb, b) = l.add_view(area);
        (va, a, vb, b)
    } else {
        (0, l.alloc(area, PAGE_SIZE), 0, l.alloc(area, PAGE_SIZE))
    };
    let (a64, a32) = (a, a + PAGES * PAGE_SIZE);
    let (b64, b32) = (b, b + PAGES * PAGE_SIZE);
    let out = run_cluster(&cfg, l.freeze(), move |ctx| {
        let write = |v, f: &dyn Fn()| {
            if vc {
                ctx.acquire_view(v);
            } else if locked {
                ctx.lock_acquire(0);
            }
            f();
            if vc {
                ctx.release_view(v);
            } else if locked {
                ctx.lock_release(0);
            }
        };
        let read = |v, f: &mut dyn FnMut()| {
            if vc {
                ctx.acquire_rview(v);
            }
            f();
            if vc {
                ctx.release_rview(v);
            }
        };
        // What both areas must hold.
        let mut want64 = vec![0.0f64; F64S];
        let mut want32 = vec![0u32; U32S];
        let (cases64, cases32) = (cases(PAGE_SIZE / 8), cases(PAGE_SIZE / 4));
        for (case, (&(s64, n64), &(s32, n32))) in cases64.iter().zip(&cases32).enumerate() {
            for (i, w) in want64[s64..s64 + n64].iter_mut().enumerate() {
                *w = f64_of(case, i);
            }
            for (i, w) in want32[s32..s32 + n32].iter_mut().enumerate() {
                *w = u32_of(case, i);
            }
            if ctx.me() == case % NP {
                write(va, &|| {
                    ctx.write_f64s(a64 + 8 * s64, &want64[s64..s64 + n64]);
                    ctx.write_u32s(a32 + 4 * s32, &want32[s32..s32 + n32]);
                });
                write(vb, &|| {
                    for (i, v) in want64[s64..s64 + n64].iter().enumerate() {
                        ctx.write_f64(b64 + 8 * (s64 + i), *v);
                    }
                    for (i, v) in want32[s32..s32 + n32].iter().enumerate() {
                        ctx.write_u32(b32 + 4 * (s32 + i), *v);
                    }
                });
            }
            ctx.barrier();
            // Read the case's range back, each area both ways.
            let mut got64 = vec![0.0f64; n64];
            let mut got32 = vec![0u32; n32];
            for (v, base64, base32) in [(va, a64, a32), (vb, b64, b32)] {
                read(v, &mut || {
                    ctx.read_f64s(base64 + 8 * s64, &mut got64);
                    ctx.read_u32s(base32 + 4 * s32, &mut got32);
                    for (i, bulk) in got64.iter().enumerate() {
                        let one = ctx.read_f64(base64 + 8 * (s64 + i));
                        assert_eq!(one.to_bits(), bulk.to_bits(), "case {case} f64 {i}");
                    }
                    for (i, bulk) in got32.iter().enumerate() {
                        let one = ctx.read_u32(base32 + 4 * (s32 + i));
                        assert_eq!(one, *bulk, "case {case} u32 {i}");
                    }
                });
                assert_eq!(got64, want64[s64..s64 + n64], "case {case}");
                assert_eq!(got32, want32[s32..s32 + n32], "case {case}");
            }
            ctx.barrier();
        }
        // Nothing outside the written ranges moved: whole areas, in bulk.
        let mut all64 = vec![0.0f64; F64S];
        let mut all32 = vec![0u32; U32S];
        for (v, base64, base32) in [(va, a64, a32), (vb, b64, b32)] {
            read(v, &mut || {
                ctx.read_f64s(base64, &mut all64);
                ctx.read_u32s(base32, &mut all32);
            });
            assert_eq!(all64, want64);
            assert_eq!(all32, want32);
        }
    });
    out.stats
}

/// The statistics a host-only change to the accessors must not move.
fn virtual_cost(s: &RunStats) -> [u64; 7] {
    [
        s.time.nanos(),
        s.nodes.page_faults,
        s.nodes.twins,
        s.nodes.diffs_applied,
        s.net.msgs,
        s.net.bytes,
        s.nodes.rexmits,
    ]
}

#[test]
fn bulk_equals_per_element_on_lrc_d_at_the_recorded_cost() {
    assert_eq!(
        virtual_cost(&run(Protocol::LrcD)),
        [70_651_432, 240, 80, 240, 576, 734_928, 0]
    );
}

#[test]
fn bulk_equals_per_element_on_vc_sd_at_the_recorded_cost() {
    assert_eq!(
        virtual_cost(&run(Protocol::VcSd)),
        [104_279_408, 0, 80, 240, 360, 715_748, 0]
    );
}

#[test]
fn bulk_equals_per_element_on_vc_d_at_the_recorded_cost() {
    assert_eq!(
        virtual_cost(&run(Protocol::VcD)),
        [79_622_368, 240, 80, 240, 840, 751_580, 0]
    );
}

#[test]
fn bulk_equals_per_element_on_vc_rdma_at_the_recorded_cost() {
    assert_eq!(
        virtual_cost(&run(Protocol::VcRdma)),
        [103_771_568, 0, 80, 240, 396, 718_796, 0]
    );
}

#[test]
fn bulk_equals_per_element_on_hlrc_at_the_recorded_cost() {
    assert_eq!(
        virtual_cost(&run_locked(Protocol::Hlrc)),
        [110_705_024, 180, 80, 240, 564, 949_256, 0]
    );
}

#[test]
fn bulk_equals_per_element_on_scc_at_the_recorded_cost() {
    assert_eq!(
        virtual_cost(&run_locked(Protocol::ScC)),
        [111_115_272, 292, 80, 348, 816, 968_536, 0]
    );
}

#[test]
fn bulk_equals_per_element_on_lrc_d_under_loss_at_the_recorded_cost() {
    assert_eq!(
        virtual_cost(&run_lossy(Protocol::LrcD)),
        [8_064_846_088, 240, 80, 240, 642, 750_512, 13]
    );
}

#[test]
fn bulk_equals_per_element_on_vc_sd_under_loss_at_the_recorded_cost() {
    assert_eq!(
        virtual_cost(&run_lossy(Protocol::VcSd)),
        [8_101_260_392, 0, 80, 240, 373, 749_528, 9]
    );
}
