//! Tier-1 tripwire for diff integration at the view home (`VC_sd`,
//! `VC_rdma`): the grant a requester receives must be the last-writer-wins
//! overlay of every release it missed — however many — at a host cost that
//! does not grow with that number, and at exactly the virtual cost the
//! protocol had before the home kept its integration state incrementally.

use std::sync::Mutex;

use vopp_bench::{alloc_totals, CountingAlloc};
use vopp_repro::dsm::{run_cluster, ClusterConfig, Layout, Protocol};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocation counters are process-wide and `cargo test` runs the tests
/// of one binary on parallel threads: every test here holds this lock.
static SERIAL: Mutex<()> = Mutex::new(());

const NODES: usize = 16;
const ROUNDS: usize = 6;
/// View A spans two pages; view B sits inside one.
const A_WORDS: usize = 1536;
const B_WORDS: usize = 64;
const CRASHED: usize = 5;
const CRASH_AFTER_ROUND: usize = 2;

/// One node's writes to view A in one round, as `(word, addend)`: a counter
/// every node bumps, a five-word window overlapping both neighbours', one
/// scattered word on the second page, and — for one node per round — a sweep
/// of the whole first page. Addition commutes, so the final content does not
/// depend on the order the home grants the view in; a grant that dropped or
/// misordered a missed release would still corrupt the sums, because every
/// update reads the value the grant delivered.
fn writes_a(me: usize, round: usize) -> Vec<(usize, u32)> {
    let mut w = vec![(0, 1)];
    w.extend((0..5).map(|k| (1 + 3 * me + k, (100 * round + me + k) as u32)));
    w.push((
        1024 + (37 * me + 11 * round) % 512,
        (7 * me + round + 1) as u32,
    ));
    if me == (round * 5) % NODES {
        w.extend((0..1024).map(|k| (k, (round + 1) as u32)));
    }
    w
}

/// View B has one writer per round, rotating.
fn writes_b(me: usize, round: usize) -> Vec<(usize, u32)> {
    if me != round % NODES {
        return Vec::new();
    }
    (0..8)
        .map(|k| ((5 * round + k) % B_WORDS, (round * 8 + k + 1) as u32))
        .collect()
}

fn sequential_reference() -> (Vec<u32>, Vec<u32>) {
    let mut a = vec![0u32; A_WORDS];
    let mut b = vec![0u32; B_WORDS];
    for round in 0..ROUNDS {
        for me in 0..NODES {
            for (w, add) in writes_a(me, round) {
                a[w] = a[w].wrapping_add(add);
            }
            for (w, add) in writes_b(me, round) {
                b[w] = b[w].wrapping_add(add);
            }
        }
    }
    (a, b)
}

#[test]
fn rotating_writers_with_a_crash_match_the_reference_at_the_parents_virtual_cost() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (ref_a, ref_b) = sequential_reference();
    // (protocol, time_ns, msgs, bytes) measured at the commit before the
    // home's integration state became incremental. One datagram in fifty is
    // lost, so duplicate acquires and releases are part of it.
    for (proto, time_ns, msgs, bytes) in [
        (Protocol::VcSd, 4_040_599_348u64, 724u64, 368_728u64),
        (Protocol::VcRdma, 4_039_433_508, 974, 384_896),
    ] {
        let mut l = Layout::new();
        let (va, addr_a) = l.add_view(4 * A_WORDS);
        let (vb, addr_b) = l.add_view(4 * B_WORDS);
        let mut cfg = ClusterConfig::new(NODES, proto);
        cfg.net.base_drop_prob = 0.02;
        cfg.net.seed = 7;
        let out = run_cluster(&cfg, l.freeze(), move |ctx| {
            let me = ctx.me();
            for round in 0..ROUNDS {
                ctx.acquire_view(va);
                for (w, add) in writes_a(me, round) {
                    ctx.update_u32(addr_a + 4 * w, |x| x.wrapping_add(add));
                }
                ctx.release_view(va);
                let wb = writes_b(me, round);
                if !wb.is_empty() {
                    ctx.acquire_view(vb);
                    for (w, add) in wb {
                        ctx.update_u32(addr_b + 4 * w, |x| x.wrapping_add(add));
                    }
                    ctx.release_view(vb);
                } else if (me + round) % 2 == 0 {
                    // Readers that come every other round have missed one
                    // or two releases of B: both grant paths are taken.
                    ctx.acquire_rview(vb);
                    ctx.read_u32(addr_b);
                    ctx.release_rview(vb);
                }
                if me == CRASHED && round == CRASH_AFTER_ROUND {
                    assert!(ctx.crash_recover() > 0, "the crash must shed pages");
                }
            }
            ctx.barrier();
            let mut a = vec![0u32; A_WORDS];
            let mut b = vec![0u32; B_WORDS];
            ctx.acquire_rview(va);
            ctx.read_u32s(addr_a, &mut a);
            ctx.release_rview(va);
            ctx.acquire_rview(vb);
            ctx.read_u32s(addr_b, &mut b);
            ctx.release_rview(vb);
            (a, b)
        });
        for (node, (a, b)) in out.results.iter().enumerate() {
            assert!(a == &ref_a, "{proto} node {node}: view A differs");
            assert!(b == &ref_b, "{proto} node {node}: view B differs");
        }
        assert_eq!(out.stats.diff_requests(), 0, "{proto}: update protocol");
        assert!(out.stats.rexmits() > 0, "{proto}: 2 % loss must retransmit");
        assert_eq!(
            (
                out.stats.time.nanos(),
                out.stats.net.msgs,
                out.stats.net.bytes
            ),
            (time_ns, msgs, bytes),
            "{proto}: virtual time, datagrams or wire bytes moved"
        );
    }
}

/// Serving a requester costs the home O(page), not O(releases missed):
/// node 1's acquire after 63 missed releases may allocate no more than its
/// acquire after 2. Every release rewrites the same eight words, so the two
/// integrated diffs have the same shape and only the integration work can
/// differ. Nothing else runs during a measured acquire: the other nodes
/// compute well past its end before they reach the next barrier.
#[test]
fn a_grant_after_63_missed_releases_allocates_no_more_than_after_2() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for proto in [Protocol::VcSd, Protocol::VcRdma] {
        let mut l = Layout::new();
        let (v, addr) = l.add_view(4096);
        let out = run_cluster(&ClusterConfig::lossless(4, proto), l.freeze(), move |ctx| {
            let mut next = 1u32;
            let mut allocs = Vec::new();
            // The first phase warms the requester (page frame, map nodes).
            for missed in [1, 2, 63] {
                if ctx.me() == 0 {
                    for _ in 0..missed {
                        ctx.acquire_view(v);
                        for k in 0..8 {
                            ctx.write_u32(addr + 4 * (16 + k), next);
                        }
                        next += 1;
                        ctx.release_view(v);
                    }
                }
                ctx.barrier();
                if ctx.me() == 1 {
                    let before = alloc_totals().0;
                    ctx.acquire_rview(v);
                    allocs.push(alloc_totals().0 - before);
                    ctx.release_rview(v);
                } else {
                    ctx.compute_ns(50e6);
                }
                ctx.barrier();
            }
            allocs
        });
        let allocs = &out.results[1];
        assert!(
            allocs[1] > 0,
            "{proto}: the counting allocator is installed"
        );
        assert!(
            allocs[2] <= allocs[1],
            "{proto}: a grant after 63 missed releases allocated {} times, after 2 only {}",
            allocs[2],
            allocs[1]
        );
    }
}
