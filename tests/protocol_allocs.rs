//! Allocation regression tests for the protocol's per-event state: a diff is
//! one immutable buffer (one allocation to create, none to share, apply,
//! measure or integrate); a node's pending-invalidation lists keep their
//! capacity and its interval knowledge is a prefix of the cluster's one log,
//! so a steady-state grant-and-fault cycle allocates nothing; and an RPC
//! burst allocates only its request and reply payloads.
//!
//! The counts are exact, so this binary holds a single `#[test]`: the
//! counters are process-wide, and libtest's main thread allocates whenever a
//! sibling test finishes, which would land in another test's window.

use std::sync::Arc;

use vopp_bench::{alloc_totals, CountingAlloc};
use vopp_repro::dsm::{interval_log, CostModel, Layout, NodeState, Protocol};
use vopp_repro::page::{
    Diff, IntegratedPage, IntervalRecord, PageBuf, PagePool, VTime, PAGE_SIZE, PAGE_WORDS,
};
use vopp_repro::sim::{PerfectNet, Sim, SimDuration};
use vopp_repro::simnet::{reply, NetConfig, RpcClient};

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
    learning_logged_records_allocates_nothing();
    an_rpc_burst_allocates_only_its_messages();
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

/// Two LRC_d nodes of one cluster over `pages` pages, sharing its interval
/// log and page pool.
fn lrc_pair(pages: usize) -> (NodeState, NodeState) {
    let mut layout = Layout::new();
    let _ = layout.alloc(pages * PAGE_SIZE, 1);
    let layout = layout.freeze();
    let (pool, log) = (PagePool::shared_for(pages), interval_log(2));
    let node = |me| {
        NodeState::new(
            me,
            2,
            Protocol::LrcD,
            CostModel::default(),
            layout.clone(),
            pool.clone(),
            log.clone(),
        )
    };
    (node(0), node(1))
}

/// Seal one interval of `writer` that writes every page, and return the
/// grant that sends it: its record and the writer's vector time.
fn grant_of_every_page(writer: &mut NodeState, pages: usize) -> (Vec<Arc<IntervalRecord>>, VTime) {
    for p in 0..pages {
        writer.mem.note_write(p);
        let w = writer.mem.page(p).word(0);
        writer.mem.page_mut(p).set_word(0, w + 1);
    }
    let (id, _) = writer.seal_interval().expect("every page was written");
    let rec = Arc::clone(&writer.log.lock()[id.owner][id.seq as usize - 1]);
    (vec![rec], writer.logged_vt.clone())
}

fn a_steady_grant_and_drain_round_allocates_nothing() {
    const PAGES: usize = 16;
    let (mut node, mut writer) = lrc_pair(PAGES);
    let mut drained = Vec::new();
    // One grant from node 1 whose interval wrote every page, then a
    // fault-time drain of each page; the grant is built outside the
    // measured region.
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
    let first = round(&mut node, grant_of_every_page(&mut writer, PAGES));
    assert!(first > 0, "the first round sizes the lists");
    let second = round(&mut node, grant_of_every_page(&mut writer, PAGES));
    assert_eq!(second, 0, "a second, identical round");
}

fn learning_logged_records_allocates_nothing() {
    const PAGES: usize = 4;
    let (mut node, mut writer) = lrc_pair(PAGES);
    let records: Vec<_> = (0..8)
        .flat_map(|_| grant_of_every_page(&mut writer, PAGES).0)
        .collect();
    let ((), n) = allocs(|| node.merge_logged(&records));
    assert_eq!(n, 0, "merge_logged of records in the cluster log");
    assert_eq!(node.logged_vt.get(1), 8);
    let ((), n) = allocs(|| node.merge_logged(&records));
    assert_eq!(n, 0, "merge_logged of records already known");
}

fn an_rpc_burst_allocates_only_its_messages() {
    const K: u64 = 6;
    let mut sim = Sim::new(3, Box::new(PerfectNet::new(SimDuration::from_micros(10))));
    for p in 1..3 {
        sim.set_handler(
            p,
            Box::new(|svc, pkt| {
                let (tag, src) = (pkt.tag, pkt.src);
                let v = *pkt.expect_arc::<u64>();
                reply(svc, src, 64, tag, Arc::new(v + 1));
            }),
        );
    }
    let out = sim.run(|ctx| {
        if ctx.me() != 0 {
            return 0;
        }
        let mut rpc = RpcClient::with_timeout(NetConfig::default().rexmit_timeout);
        let burst = |rpc: &mut RpcClient| {
            let calls = (0..K).map(|i| (1 + i as usize % 2, 64, i));
            let mut got = 0;
            rpc.call_all(&ctx, calls, None, |p| got += *p.peek::<u64>().unwrap());
            assert_eq!(got, (1..=K).sum::<u64>());
        };
        burst(&mut rpc);
        allocs(|| burst(&mut rpc)).1
    });
    assert_eq!(
        out.results[0],
        2 * K,
        "a second identical burst of {K}: {K} requests plus {K} replies"
    );
}
