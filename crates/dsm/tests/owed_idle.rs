//! An idle wait (`DsmCtx::idle_until`) is open-loop pacing: the node owes
//! the span to the kernel instead of sleeping through it. Whatever follows
//! must see exactly what it saw when the wait slept: the service handlers
//! that ran inside the span have run before the node reads their state.
//! Each case idles, then runs one operation that reads handler-written
//! state (a lock grant's knowledge, a barrier, a crash, a page an HLRC home
//! flush updated) or one that reads none before its RPC (a view acquire).
//! Virtual time, the statistics, the trace and the wake-ups each case would
//! take if every span were spent eagerly are constants recorded before idle
//! waits owed their spans. Only an idle wait that ends in a view acquire
//! may move a wake-up into `HandoffStats::absorbed`: the kernel sends the
//! request at the end of the span and wakes the node once, at the grant.

use std::sync::Arc;

use vopp_dsm::{run_cluster, ClusterConfig, DsmCtx, FaultPlan, Layout, Protocol, RaceChecker};
use vopp_page::PAGE_SIZE;
use vopp_sim::{handoff_totals, SimDuration, SimTime};
use vopp_trace::{CausalProfiler, Tracer};

const NP: usize = 4;
const ROUNDS: u64 = 6;

/// What one case is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    time_ns: u64,
    /// FNV-1a of the results and the `RunStats` (critical path included).
    stats: u64,
    /// FNV-1a of the trace's JSON document.
    trace: u64,
    /// `total() + absorbed`: the wake-ups of a run that spends every span.
    wakes: u64,
    /// The wake-ups the kernel finished without a hand-off.
    absorbed: u64,
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Node `me`'s arrival instant in round `r`: staggered, so each node's idle
/// span holds the other nodes' requests and replies.
fn arrival(me: usize, r: u64) -> SimTime {
    SimTime::default() + SimDuration::from_micros(2_000 * r + 410 * me as u64 + 30)
}

/// A lossless cluster of `NP` nodes under `proto`, traced and profiled.
fn cfg(proto: Protocol) -> ClusterConfig {
    ClusterConfig {
        tracer: Some(Arc::new(Tracer::new(1 << 18))),
        profiler: Some(Arc::new(CausalProfiler::new(NP))),
        ..ClusterConfig::lossless(NP, proto)
    }
}

/// Run `body` on `cfg`. Returns the results and what the case is pinned to,
/// with how many of its idle waits ended in a view acquire the kernel can
/// start, which `body` returns per node with its result.
fn run<R: std::fmt::Debug + Send>(
    cfg: ClusterConfig,
    layout: Arc<Layout>,
    body: impl Fn(&DsmCtx<'_>) -> (R, u64) + Send + Sync,
) -> (Vec<R>, Pinned, u64) {
    let before = handoff_totals();
    let out = run_cluster(&cfg, layout, body);
    let after = handoff_totals();
    let trace = cfg.tracer.expect("traced").take();
    assert_eq!(trace.evicted, 0, "{}: the trace ring wrapped", cfg.protocol);
    let absorbed = after.absorbed - before.absorbed;
    let (results, moved): (Vec<R>, Vec<u64>) = out.results.into_iter().unzip();
    let pinned = Pinned {
        time_ns: out.stats.time.nanos(),
        stats: fnv1a(format!("{results:?} {:?}", out.stats).as_bytes()),
        trace: fnv1a(trace.to_json().as_bytes()),
        wakes: after.total() - before.total() + absorbed,
        absorbed,
    };
    (results, pinned, moved.iter().sum())
}

/// Every node's word after `ROUNDS` rounds that each add `1 + r`.
const WORD: u32 = (ROUNDS * (ROUNDS + 1) / 2) as u32;

/// Idle, then take lock 0 and bump this node's word under it.
fn lock_case(proto: Protocol) -> (Pinned, u64) {
    let mut l = Layout::new();
    let addr = l.alloc(4 * NP, 4);
    let (results, pinned, moved) = run(cfg(proto), l.freeze(), move |ctx| {
        let me = ctx.me();
        for r in 0..ROUNDS {
            ctx.idle_until(arrival(me, r));
            ctx.lock_acquire(0);
            ctx.update_u32(addr + 4 * me, |x| x + 1 + r as u32);
            ctx.lock_release(0);
        }
        ctx.barrier();
        let mut words = [0; NP];
        ctx.read_u32s(addr, &mut words);
        (words, 0)
    });
    assert!(results.iter().all(|w| *w == [WORD; NP]), "{proto}");
    (pinned, moved)
}

/// Idle, write this node's word, then enter the barrier, with a race
/// checker attached (its barrier hook runs before the arrive message).
fn barrier_case() -> (Pinned, u64) {
    let mut l = Layout::new();
    let addr = l.alloc(4 * NP, 4);
    let checked = ClusterConfig {
        racecheck: Some(Arc::new(RaceChecker::new())),
        ..cfg(Protocol::LrcD)
    };
    let (results, pinned, moved) = run(checked, l.freeze(), move |ctx| {
        let me = ctx.me();
        for r in 0..ROUNDS {
            ctx.idle_until(arrival(me, r));
            ctx.update_u32(addr + 4 * me, |x| x + 1 + r as u32);
            ctx.barrier();
        }
        let mut words = [0; NP];
        ctx.read_u32s(addr, &mut words);
        (words, 0)
    });
    assert!(results.iter().all(|w| *w == [WORD; NP]));
    (pinned, moved)
}

/// Write-view rounds under VC_sd; in round 2 node 2 idles to a crash
/// instant and crashes before its request. Returns, per node, the idle
/// waits that ended in an acquire.
fn crash_case() -> (Pinned, u64) {
    let mut l = Layout::new();
    let (v, addr) = l.add_view(4 * NP);
    let (results, pinned, moved) = run(cfg(Protocol::VcSd), l.freeze(), move |ctx| {
        let me = ctx.me();
        let (mut recovered, mut idled) = (0, 0);
        for r in 0..ROUNDS {
            if r == 2 && me == 2 {
                ctx.idle_until(arrival(me, 1) + SimDuration::from_micros(1_700));
                recovered = ctx.crash_recover();
            }
            idled += u64::from(ctx.idle_until(arrival(me, r)) > 0);
            ctx.acquire_view(v);
            ctx.update_u32(addr + 4 * me, |x| x + 1 + r as u32);
            ctx.release_view(v);
        }
        ctx.barrier();
        ctx.acquire_rview(v);
        let mut words = [0; NP];
        ctx.read_u32s(addr, &mut words);
        ctx.release_rview(v);
        ((words, recovered), idled)
    });
    assert!(results.iter().all(|(w, _)| *w == [WORD; NP]));
    assert!(results[2].1 > 0, "the crash must drop pages");
    (pinned, moved)
}

/// HLRC: node 0 writes a page homed on node 1 under a lock; the release
/// flushes the diff home while node 1 idles. Node 1 then reads the page
/// without synchronizing: its home copy must already hold the flush.
fn home_read_case() -> (Pinned, u64) {
    let mut l = Layout::new();
    let base = l.alloc(NP * PAGE_SIZE, PAGE_SIZE);
    // The first page of the area homed on node 1 (pages are homed
    // round-robin by page id).
    let page = (base / PAGE_SIZE..).find(|p| p % NP == 1).unwrap();
    let addr = page * PAGE_SIZE;
    let (results, pinned, moved) = run(cfg(Protocol::Hlrc), l.freeze(), move |ctx| {
        let mut seen = Vec::new();
        for r in 0..ROUNDS {
            match ctx.me() {
                0 => {
                    ctx.idle_until(arrival(0, r));
                    ctx.lock_acquire(0);
                    ctx.write_u32(addr, 1 + r as u32);
                    ctx.lock_release(0);
                }
                1 => {
                    ctx.idle_until(arrival(0, r) + SimDuration::from_micros(1_500));
                    seen.push(ctx.read_u32(addr));
                }
                _ => {}
            }
        }
        ctx.barrier();
        (seen, 0)
    });
    assert_eq!(results[1], (1..=ROUNDS as u32).collect::<Vec<_>>());
    (pinned, moved)
}

/// Idle, then bracket an access with a view: a write view in even rounds,
/// a read view in odd ones. Returns how many idle waits idled into an
/// acquire whose request the kernel can send at the span's end: VC_rdma
/// purges its one-sided grant buffer first, which spends the span. With
/// `lossy`, 2 % of datagrams are lost.
fn view_case(proto: Protocol, lossy: bool) -> (Pinned, u64) {
    let mut l = Layout::new();
    let (v, addr) = l.add_view(4 * NP);
    let mut cfg = cfg(proto);
    if lossy {
        cfg.faults = FaultPlan::none().with_loss(0.02, 5);
    }
    let (_, pinned, moved) = run(cfg, l.freeze(), move |ctx| {
        let me = ctx.me();
        let mut idled = 0;
        let mut seen = 0u32;
        for r in 0..ROUNDS {
            idled += u64::from(ctx.idle_until(arrival(me, r)) > 0);
            if r % 2 == 0 {
                ctx.acquire_view(v);
                ctx.update_u32(addr + 4 * me, |x| x + 1 + r as u32);
                ctx.release_view(v);
            } else {
                ctx.acquire_rview(v);
                seen = seen.wrapping_mul(31).wrapping_add(ctx.read_u32(addr));
                ctx.release_rview(v);
            }
        }
        let absorbable = if proto == Protocol::VcRdma { 0 } else { idled };
        (seen, absorbable)
    });
    (pinned, moved)
}

/// `(time_ns, stats, trace, wakes, absorbed)` of each case as recorded
/// before idle waits owed their spans, then the wake-ups of the case the
/// kernel now finishes: one per idle wait that ends in a VC_d or VC_sd
/// view acquire (all 24 on a lossless network, 22 of 24 when a lost
/// datagram's retransmission timeout has run past the next arrivals).
#[rustfmt::skip]
const PINNED: [(&str, [u64; 5], u64); 10] = [
    ("lock_acquire LRC_d", [12_094_632, 15_985_894_392_311_384_932, 8_678_337_002_755_608_396, 230, 72], 0),
    ("lock_acquire HLRC", [22_279_960, 5_037_248_142_512_334_681, 5_791_153_946_128_531_515, 174, 20], 0),
    ("lock_acquire ScC", [12_229_072, 18_150_188_957_073_362_932, 14_532_443_829_595_505_317, 230, 72], 0),
    ("barrier LRC_d", [11_910_272, 11_232_495_369_098_089_879, 1_829_713_417_764_475_775, 200, 72], 0),
    ("crash_recover VC_sd", [11_923_272, 15_428_198_820_472_406_409, 13_778_335_400_346_168_272, 141, 24], 24),
    ("home read HLRC", [11_720_812, 6_098_332_737_867_204_221, 12_722_664_097_225_348_489, 56, 0], 0),
    ("views VC_d", [11_498_128, 10_951_314_831_697_039_470, 5_938_976_822_585_803_324, 154, 36], 24),
    ("views VC_sd", [11_483_852, 9_173_361_321_099_124_096, 14_105_671_802_594_908_194, 112, 12], 24),
    ("views VC_rdma", [11_483_852, 12_641_233_513_599_860_061, 14_753_624_803_845_259_274, 112, 12], 0),
    ("views VC_sd lossy", [2_011_483_852, 18_089_005_064_849_159_820, 8_475_277_225_908_456_973, 113, 12], 22),
];

/// The only test in this binary: `handoff_totals` is process-wide, and a
/// simulation running on a parallel test thread would be counted in.
#[test]
fn an_idle_wait_is_owed_and_what_follows_sees_the_eager_state() {
    let cases: [fn() -> (Pinned, u64); 10] = [
        || lock_case(Protocol::LrcD),
        || lock_case(Protocol::Hlrc),
        || lock_case(Protocol::ScC),
        barrier_case,
        crash_case,
        home_read_case,
        || view_case(Protocol::VcD, false),
        || view_case(Protocol::VcSd, false),
        || view_case(Protocol::VcRdma, false),
        || view_case(Protocol::VcSd, true),
    ];
    for (case, (name, [time_ns, stats, trace, wakes, absorbed], finished)) in
        cases.into_iter().zip(PINNED)
    {
        let (got, moved) = case();
        assert_eq!(
            moved, finished,
            "{name}: idle waits that end in a view acquire"
        );
        let want = Pinned {
            time_ns,
            stats,
            trace,
            wakes,
            absorbed: absorbed + finished,
        };
        assert_eq!(got, want, "{name}");
    }
}
