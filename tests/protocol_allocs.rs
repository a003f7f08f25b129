//! Allocation regression tests for the protocol's per-event state: a diff is
//! one immutable buffer (one allocation to create, none to share, apply,
//! measure or integrate), and a node's pending-invalidation lists keep their
//! capacity, so a steady-state grant-and-fault cycle allocates nothing.
//!
//! The counts are exact, so this binary holds a single `#[test]`: the
//! counters are process-wide, and libtest's main thread allocates whenever a
//! sibling test finishes, which would land in another test's window.

use std::sync::Arc;

use vopp_bench::{alloc_totals, CountingAlloc};
use vopp_repro::dsm::{CostModel, Layout, NodeState, Protocol};
use vopp_repro::page::{
    Diff, IntegratedPage, IntervalId, IntervalRecord, PageBuf, PagePool, VTime, PAGE_SIZE,
    PAGE_WORDS,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by `f`.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = alloc_totals().0;
    let out = f();
    (out, alloc_totals().0 - before)
}

/// A page with `runs` separated one-word runs.
fn page_with_runs(runs: usize) -> Box<PageBuf> {
    let mut p = PageBuf::zeroed();
    for i in 0..runs {
        p.set_word(i * (PAGE_WORDS / runs), i as u32 + 1);
    }
    p
}

#[test]
fn flat_protocol_state_allocates_only_fresh_buffers() {
    a_diff_is_one_allocation_and_sharing_it_is_free();
    a_steady_grant_and_drain_round_allocates_nothing();
}

fn a_diff_is_one_allocation_and_sharing_it_is_free() {
    let twin = PageBuf::zeroed();
    let cur = page_with_runs(64);
    let mut target = PageBuf::zeroed();
    let mut home = IntegratedPage::default();

    let (d, n) = allocs(|| Diff::create(&twin, &cur));
    assert_eq!(d.runs().len(), 64);
    assert_eq!(n, 1, "Diff::create of 64 runs");
    let (c, n) = allocs(|| d.clone());
    assert_eq!(n, 0, "clone");
    let ((), n) = allocs(|| d.apply(&mut target));
    assert_eq!(n, 0, "apply");
    assert_eq!(&*target, &*cur);
    let (bytes, n) = allocs(|| d.wire_bytes() + d.word_count());
    assert_eq!(n, 0, "wire_bytes and word_count");
    assert!(bytes > 0);
    let (sum, n) = allocs(|| {
        d.runs()
            .map(|(off, w)| off as usize + w.len())
            .sum::<usize>()
    });
    assert_eq!(n, 0, "iterating runs()");
    assert!(sum > 0);
    let ((), n) = allocs(|| home.absorb(1, c));
    assert_eq!(n, 0, "IntegratedPage::absorb");
    let (e, n) = allocs(Diff::empty);
    assert_eq!(n, 0, "Diff::empty");
    let (none, n) = allocs(|| Diff::create(&twin, &twin));
    assert_eq!(n, 0, "an unchanged page");
    assert!(e.is_empty() && none.is_empty());

    // Integration: one allocation per fresh diff, none to share one.
    let newer = Diff::create(&twin, &page_with_runs(32));
    let (m, n) = allocs(|| d.merge(&newer));
    assert_eq!(n, 1, "merge");
    let ((), n) = allocs(|| home.absorb(2, newer.clone()));
    assert_eq!(n, 0, "absorbing a second release");
    let (one, n) = allocs(|| home.newer_than(1));
    assert_eq!(n, 0, "newer_than of one missed release");
    assert!(one.is_some_and(|o| o.shares_buffer(&newer)));
    let (both, n) = allocs(|| home.newer_than(0));
    assert_eq!(n, 1, "newer_than of two missed releases");
    assert_eq!(both, Some(m));
}

fn a_steady_grant_and_drain_round_allocates_nothing() {
    const PAGES: usize = 16;
    let mut layout = Layout::new();
    let _ = layout.alloc(PAGES * PAGE_SIZE, 1);
    let mut node = NodeState::new(
        0,
        2,
        Protocol::LrcD,
        CostModel::default(),
        layout.freeze(),
        PagePool::shared_for(PAGES),
    );
    let mut drained = Vec::new();
    // One grant from node 1 whose interval `seq` wrote every page, then a
    // fault-time drain of each page, built outside the measured region.
    let grant = |seq: u32| {
        let mut vt = VTime::zero(2);
        vt.set(1, seq);
        let rec = Arc::new(IntervalRecord {
            id: IntervalId { owner: 1, seq },
            vt: vt.clone(),
            lamport: seq as u64,
            pages: (0..PAGES).collect(),
        });
        (vec![rec], vt)
    };
    let mut round = |node: &mut NodeState, (records, vt): (Vec<Arc<IntervalRecord>>, VTime)| {
        allocs(|| {
            node.absorb_lrc_grant(&records, &vt, 0);
            for p in 0..PAGES {
                node.take_pending(p, &mut drained);
                assert_eq!(drained.len(), 1, "page {p}");
                node.mem.validate(p);
            }
        })
        .1
    };
    let first = round(&mut node, grant(1));
    assert!(first > 0, "the first round sizes the lists");
    let second = round(&mut node, grant(2));
    assert_eq!(second, 0, "a second, identical round");
}
