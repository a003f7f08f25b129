//! The per-node programming interface.
//!
//! [`DsmCtx`] is what application code sees: shared-memory accessors, the
//! barrier, the traditional lock API (LRC programs) and the VOPP view
//! primitives (`acquire_view` / `release_view` / `acquire_rview` /
//! `release_rview` / `merge_views`, paper §2).
//!
//! This file holds what every protocol shares: the wait brackets, the one
//! round trip, the one interval close, the one fault path and the one
//! memory-access path, and the racecheck hooks. The lock API and the view
//! primitives are implemented per family, in `protocol/lrc.rs` and
//! `protocol/vc.rs`.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::Arc;

use vopp_metrics::{Breakdown, Phase};
use vopp_page::{
    offset_in_page, page_of, pages_spanned, Addr, Diff, IntervalId, NodeMemory, PageId, PageState,
    VTime, PAGE_SIZE,
};
use vopp_racecheck::{RaceChecker, Violation};
use vopp_sim::sync::{Mutex, MutexGuard};
use vopp_sim::{AppCtx, EventKind, ProcId, SimDuration, SimTime};
use vopp_simnet::RpcClient;

use crate::cost::CpuAccount;
use crate::layout::Layout;
use crate::msg::{Req, Resp};
use crate::node::{AppState, NodeState, PageDiffs, PendingFetch};
use crate::protocol::{Family, PageSource, Protocol};

/// Retransmission timeout of a barrier arrival: longer than the transport's
/// RPC timeout, because the manager legitimately defers the release until
/// every node has arrived.
pub const BARRIER_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// How an access through [`DsmCtx::bulk`] touches shared memory.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Access {
    Read,
    Write,
    /// A read-modify-write: a write that copies its bytes twice.
    Update,
}

/// The definition of [`DsmCtx`] and the methods that reach its `node`
/// field. The field is private to this module, so the application side
/// locks the node's protocol state only through [`DsmCtx::node`], which
/// first spends any span the node owes (see [`DsmCtx::defer_flush`]).
/// A `.node.lock()` anywhere else does not compile.
mod ctx {
    use super::*;

    /// The application-side handle to one DSM node.
    pub struct DsmCtx<'a> {
        pub(crate) sim: AppCtx<'a>,
        /// Reached only through [`DsmCtx::node`].
        node: Arc<Mutex<NodeState>>,
        /// What only this thread touches, readable while the node owes a span.
        pub(crate) app: RefCell<AppState>,
        /// Whether the node may owe the kernel a span ([`DsmCtx::defer_flush`],
        /// [`DsmCtx::idle_until`]); cleared once it is surely spent.
        pub(super) owes: Cell<bool>,
        pub(super) rpc: RefCell<RpcClient>,
        pub(crate) cpu: CpuAccount,
        /// This node's phase accounting, folded into its statistics by
        /// [`DsmCtx::finish`].
        pub(super) breakdown: RefCell<Breakdown>,
        pub(crate) layout: Arc<Layout>,
        pub(crate) protocol: Protocol,
        pub(super) next_barrier: Cell<u32>,
        pub(crate) auto_views: Cell<bool>,
        pub(crate) rc: Option<Arc<RaceChecker>>,
        /// Buffers the fault path reuses from fault to fault.
        pub(super) fault_scratch: RefCell<FaultScratch>,
    }

    impl<'a> DsmCtx<'a> {
        pub(crate) fn new(
            sim: AppCtx<'a>,
            node: Arc<Mutex<NodeState>>,
            rexmit_timeout: SimDuration,
            rc: Option<Arc<RaceChecker>>,
        ) -> DsmCtx<'a> {
            let (cost, layout, protocol) = {
                let n = node.lock();
                (n.cost.clone(), n.layout.clone(), n.protocol)
            };
            DsmCtx {
                cpu: CpuAccount::new(&sim, cost),
                sim,
                node,
                app: RefCell::new(AppState {
                    view_applied: vec![0; layout.nviews()],
                    ..AppState::default()
                }),
                owes: Cell::new(false),
                rpc: RefCell::new(RpcClient::with_timeout(rexmit_timeout)),
                breakdown: RefCell::default(),
                layout,
                protocol,
                next_barrier: Cell::new(0),
                auto_views: Cell::new(false),
                rc,
                fault_scratch: RefCell::default(),
            }
        }

        /// Spend the span the node may owe now.
        pub(super) fn settle(&self) {
            if self.owes.replace(false) {
                self.sim.compute(SimDuration::ZERO);
            }
        }

        /// This node's protocol state, locked: the application side's only way
        /// to it. A span the node owes is spent first, so every service handler
        /// that lands inside it has run.
        pub(crate) fn node(&self) -> MutexGuard<'_, NodeState> {
            self.settle();
            self.node.lock()
        }
    }
}

pub use ctx::DsmCtx;

/// The fault path's reused buffers (see [`DsmCtx::fault`]).
#[derive(Default)]
struct FaultScratch {
    /// The faulted page's pending fetches, in application order.
    fetches: Vec<PendingFetch>,
    /// Their writers, in order of first fetch.
    owners: Vec<ProcId>,
    /// The fetched diffs with their application-order keys.
    items: Vec<(IntervalId, u64, Diff)>,
}

impl<'a> DsmCtx<'a> {
    /// This processor's id.
    pub fn me(&self) -> ProcId {
        self.sim.me()
    }

    /// Cluster size.
    pub fn nprocs(&self) -> usize {
        self.sim.nprocs()
    }

    /// Which DSM implementation this run uses.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The shared-memory layout (views, allocations).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Current virtual time (flushes accumulated CPU debt first).
    pub fn now(&self) -> SimTime {
        self.flush();
        self.sim.now()
    }

    /// Whether a tracer is installed on this run. Gate any work done purely
    /// to build an event (string formatting, collection) on this so
    /// untraced runs pay nothing.
    pub fn tracing(&self) -> bool {
        self.sim.tracing()
    }

    /// Record a structured trace event at this node's current virtual time.
    /// A no-op (one pointer test) unless a tracer is installed.
    pub fn trace(&self, kind: EventKind) {
        self.sim.trace(kind);
    }

    /// Park this node until `until`; a no-op when that time has passed.
    /// This is open-loop pacing (interarrival gaps, crash downtime), not
    /// protocol waiting: the span is charged to [`Phase::Idle`], which the
    /// kernel counts as CPU time — the node is runnable, just pacing
    /// itself — so the accounting invariants still close. Returns the
    /// nanoseconds idled.
    ///
    /// The node owes the span to the kernel ([`AppCtx::defer_compute`])
    /// rather than sleeping through it: a view acquire that follows sends
    /// its request at `until` and wakes the node once, at the grant.
    /// Any other operation spends the span first, before it reads state a
    /// service handler writes, so its results are those of a sleep.
    pub fn idle_until(&self, until: SimTime) -> u64 {
        self.flush();
        let now = self.sim.now();
        if until <= now {
            return 0;
        }
        self.sim.defer_compute(until - now);
        self.owes.set(true);
        let mut bd = self.breakdown.borrow_mut();
        self.cpu
            .charge_wait(&self.sim, Phase::Idle, 0, now, &mut bd)
    }

    /// Charge `n` floating-point operations of compute.
    pub fn flops(&self, n: u64) {
        self.cpu.flops(n);
    }

    /// Charge `n` integer/index operations of compute.
    pub fn int_ops(&self, n: u64) {
        self.cpu.int_ops(n);
    }

    /// Charge a local buffer copy of `n` bytes.
    pub fn copy_cost(&self, n: u64) {
        self.cpu.copy_cost(n);
    }

    /// Charge raw nanoseconds of compute.
    pub fn compute_ns(&self, ns: f64) {
        self.cpu.compute_ns(ns);
    }

    /// Spend any span the node owes, then flush accumulated CPU debt into
    /// the clock (see [`CpuAccount::flush`]).
    pub(crate) fn flush(&self) {
        self.settle();
        self.cpu.flush(&self.sim, &mut self.breakdown.borrow_mut());
    }

    /// [`DsmCtx::flush`] owed to the kernel until the next RPC blocks (see
    /// [`CpuAccount::defer_flush`]), with any span already owed. A service
    /// handler landing in the span runs only at its end, so the state it
    /// writes is reached only through [`DsmCtx::node`], which spends the
    /// span first: a call site keeps the saving only if nothing before its
    /// RPC locks the node.
    pub(crate) fn defer_flush(&self) {
        self.cpu
            .defer_flush(&self.sim, &mut self.breakdown.borrow_mut());
        self.owes.set(true);
    }

    /// Charge the wait since `since` (see [`CpuAccount::charge_wait`]) and
    /// record it in the matching latency histogram.
    fn charge_wait(&self, phase: Phase, obj: u64, since: SimTime) {
        let mut bd = self.breakdown.borrow_mut();
        let waited = self.cpu.charge_wait(&self.sim, phase, obj, since, &mut bd);
        let m = &mut self.node().stats.metrics;
        match phase {
            Phase::AcquireWait => m.acquire_rtt.record(waited),
            Phase::BarrierWait => m.barrier_rtt.record(waited),
            Phase::DataWait => m.diff_rtt.record(waited),
            _ => {}
        }
    }

    /// One blocking round trip: [`DsmCtx::call_all`] with one request and
    /// the transport's timeout, returning its reply.
    pub(crate) fn call(&self, to: ProcId, req: Req, wait: Phase, obj: u64) -> Resp {
        let mut resp = None;
        let once = std::iter::once((to, req));
        self.call_all(once, wait, obj, None, |r| resp = Some(r));
        resp.expect("a call ends with its reply")
    }

    /// Send every request before the first reply is awaited, wait for all
    /// the replies and charge the whole wait once to `wait` (`obj` names
    /// what was waited for, as in [`DsmCtx::charge_wait`]). `timeout`
    /// replaces the transport's retransmission timeout for this burst.
    /// The requests move straight into the transport; once all replies
    /// are in, each is passed to `each`, in request order.
    pub(crate) fn call_all(
        &self,
        reqs: impl Iterator<Item = (ProcId, Req)>,
        wait: Phase,
        obj: u64,
        timeout: Option<SimDuration>,
        mut each: impl FnMut(Resp),
    ) {
        let since = self.sim.now();
        let calls = reqs.map(|(to, req)| (to, req.wire_bytes(), req));
        self.rpc
            .borrow_mut()
            .call_all(&self.sim, calls, timeout, |pkt| each(pkt.expect()));
        // The reply wait spent any owed span.
        self.owes.set(false);
        self.charge_wait(wait, obj, since);
    }

    /// Close the current write interval: seal it (logging its record under
    /// the traditional protocols), then charge diff creation and flush it
    /// (under VC, owed until the release RPC). Under HLRC the diffs are
    /// then flushed to their pages' homes before any synchronization
    /// message is sent ([`DsmCtx::flush_to_homes`]).
    /// Returns the interval's id, lamport time and diffs, or `None` if
    /// nothing was written.
    pub(crate) fn close_interval(&self) -> Option<(IntervalId, u64, PageDiffs)> {
        let (id, lamport, diffs) = {
            let mut n = self.node();
            let (id, diffs) = n.seal_interval()?;
            (id, n.lamport, diffs)
        };
        self.cpu
            .add_overhead_diff(self.cpu.cost.diff_create * diffs.len() as u64);
        match self.protocol.family() {
            // A VC interval closes only in `release_view`, whose next kernel
            // call is the release RPC; until then it reads only the sealed
            // interval returned here.
            Family::Vc => self.defer_flush(),
            Family::Lrc => self.flush(),
        }
        if self.protocol.page_source() == PageSource::Home {
            self.flush_to_homes(&diffs);
        }
        Some((id, lamport, diffs))
    }

    /// Global barrier. Under LRC this also performs (centralized)
    /// consistency maintenance; under VC it only synchronizes (paper §3.2).
    pub fn barrier(&self) {
        self.flush();
        let t0 = self.sim.now();
        let episode = self.next_barrier.get();
        self.next_barrier.set(episode + 1);
        let (records, vt) = match self.protocol.family() {
            Family::Lrc => {
                if let Some(rc) = &self.rc {
                    // Contribute this node's clock before the arrive
                    // message: the home releases everyone only after all
                    // arrives, so every node's enter is ordered before any
                    // node's exit.
                    rc.barrier_enter(self.me(), episode);
                }
                self.close_interval();
                let mut n = self.node();
                (n.delta_for_home(0), n.logged_vt.clone())
            }
            Family::Vc => {
                // Undisciplined writes (already reported by the checker) are
                // reverted here so they can never leak past a barrier.
                self.rc_discard_undisciplined();
                let n = self.node();
                assert!(
                    n.mem.dirty_pages().is_empty(),
                    "proc {}: barrier with unreleased view modifications",
                    n.me
                );
                (Vec::new(), VTime::zero(0))
            }
        };
        self.trace(EventKind::BarrierEnter {
            id: 0,
            epoch: episode as u64,
        });
        let req = Req::BarrierArrive {
            episode,
            records,
            vt,
        };
        let (once, timeout) = (std::iter::once((0, req)), Some(BARRIER_TIMEOUT));
        let mut release = None;
        self.call_all(once, Phase::BarrierWait, 0, timeout, |r| release = Some(r));
        let Some(Resp::BarrierRelease {
            records,
            vt,
            lamport,
        }) = release
        else {
            panic!("barrier got an unexpected reply")
        };
        let notices = records.len() as u64;
        let fresh = self.fresh_lrc_notices(&records);
        {
            // A VC release carries no records and an empty `vt`, so
            // absorbing it only syncs the lamport clock.
            let mut n = self.node();
            n.absorb_lrc_grant(&records, &vt, lamport);
            n.note_home_knows(0, &vt);
            n.stats.barriers += 1;
            n.stats.barrier_wait_ns += (self.sim.now() - t0).nanos();
        }
        self.emit_notices(fresh, 0);
        self.trace(EventKind::BarrierExit {
            id: 0,
            epoch: episode as u64,
            notices,
        });
        if let (Family::Lrc, Some(rc)) = (self.protocol.family(), &self.rc) {
            rc.barrier_exit(self.me(), episode);
        }
    }

    /// Emit one [`EventKind::WriteNoticeApply`] per freshly absorbed record.
    pub(crate) fn emit_notices(&self, fresh: Vec<(ProcId, u64, u64)>, scope: u64) {
        for (owner, seq, pages) in fresh {
            self.trace(EventKind::WriteNoticeApply {
                owner,
                seq,
                scope,
                pages,
            });
        }
    }

    /// Under the LRC family, record one shared access with the attached
    /// checker (a single pointer test when none is attached) and emit a
    /// trace event per fresh data race. Pure observation: never advances
    /// virtual time, so runs with the checker off are byte-identical to runs
    /// without it. (The VC family's discipline check runs in `ensure`.)
    fn rc_access(&self, addr: Addr, len: usize, write: bool) {
        let Some(rc) = &self.rc else { return };
        if len == 0 || !self.protocol.is_lrc_family() {
            return;
        }
        let me = self.me();
        for v in rc.access(me, addr, len, write) {
            if let Violation::DataRace {
                page,
                first,
                second,
            } = v
            {
                let (mine, other) = if second.node == me {
                    (second, first)
                } else {
                    (first, second)
                };
                self.trace(EventKind::RaceDetected {
                    page: page as u64,
                    other: other.node,
                    start: mine.start as u64,
                    end: mine.end as u64,
                    write: mine.write,
                });
            }
        }
    }

    /// With a checker attached, undisciplined VC writes are reported rather
    /// than rejected; revert any dirty page that does not belong to the
    /// currently-held write view so the protocol machinery (interval
    /// closing, grant invalidation) never observes them.
    pub(crate) fn rc_discard_undisciplined(&self) {
        if self.rc.is_none() {
            return;
        }
        let held = self.app.borrow().held_write;
        let keep = held.map(|v| self.layout.view(v).pages.clone());
        let mut n = self.node();
        for p in n.mem.dirty_pages() {
            let legit = keep.as_ref().is_some_and(|pages| pages.contains(&p));
            if !legit {
                n.mem.discard_writes(p);
            }
        }
    }

    /// Resolve a fault on `p`: fetch the missing diffs from their writers
    /// (in parallel, grouped per writer) and apply them in happens-before
    /// order. The invalidate-protocol hot path of LRC_d and VC_d.
    fn fault(&self, p: PageId, write: bool) {
        self.cpu.add_overhead(self.cpu.cost.page_fault);
        let mut scratch = self.fault_scratch.borrow_mut();
        let FaultScratch {
            fetches,
            owners,
            items,
        } = &mut *scratch;
        {
            // Taken before the flush: only this thread writes `pending`.
            let mut n = self.node();
            n.stats.page_faults += 1;
            n.take_pending(p, fetches);
        }
        // The writers, in order of first fetch.
        owners.clear();
        for f in fetches.iter() {
            if !owners.contains(&f.id.owner) {
                owners.push(f.id.owner);
            }
        }
        let distinct_owners = owners.len();
        let source = self.protocol.page_source();
        // The most recent writer can be this node itself after a crash (its
        // own releases come back in the `have == 0` recovery grant); a
        // node's post-crash copy is exactly what was lost, so the escape
        // hatch must fetch from a peer — fall through to diff fetches,
        // which loopback to the durable local diff store where needed.
        let last_owner_is_me = fetches.last().is_some_and(|f| f.id.owner == self.me());
        // Whether the LRC_d hatch below asks `page_writers`, which the
        // lock-release and barrier-arrive handlers write
        // (`NodeState::learn`).
        let asks_writers = source == PageSource::SoleWriter
            && !last_owner_is_me
            && distinct_owners == 1
            && fetches.len() >= 4;
        let eager = fetches.is_empty() || asks_writers;
        if eager {
            self.flush();
        }
        // Whole-page fetch (TreadMarks' "get whole page" escape hatch, see
        // `PageSource`): when the accumulated diffs would exceed one page
        // transfer, ask a node whose copy is known complete instead. An LRC
        // page's one pending writer is not enough: on a false-shared page
        // its copy can miss other writers' updates this node already
        // applied, so the hatch needs the page's whole write history.
        let whole_page = !last_owner_is_me
            && match source {
                PageSource::LastWriter => {
                    self.layout.view_of_page(p).is_some() && distinct_owners >= 3
                }
                PageSource::SoleWriter => {
                    asks_writers && self.node().page_sole_writer(p, fetches[0].id.owner)
                }
                PageSource::Diffs | PageSource::Home => false,
            };
        if !fetches.is_empty() {
            // One whole-page request, or one diff request per writer.
            let single = source == PageSource::Home || whole_page;
            self.node().stats.diff_requests += if single { 1 } else { owners.len() as u64 };
        }
        if !eager {
            // Until the fetch RPC this path reads only this thread's
            // `fetches` and the layout.
            self.defer_flush();
        }
        self.trace(EventKind::PageFault {
            page: p as u64,
            write,
        });
        if fetches.is_empty() {
            // Invalid page with no recorded writer: nothing to fetch.
            self.node().mem.validate(p);
            return;
        }
        // HLRC always fetches the current page from its home (one round
        // trip; the home is kept current by eager flushes).
        if source == PageSource::Home {
            let home = self.layout.page_home(p, self.nprocs());
            assert!(self.fetch_page(p, home), "HLRC home {home} lost page {p}");
            return;
        }
        if whole_page {
            if self.fetch_page(p, fetches.last().unwrap().id.owner) {
                return;
            }
            self.node().stats.diff_requests += owners.len() as u64;
        }
        // One request per writer, its intervals in application order.
        if self.tracing() {
            for &owner in owners.iter() {
                self.trace(EventKind::DiffRequest {
                    page: p as u64,
                    to: owner,
                });
            }
        }
        let reqs = owners.iter().map(|&owner| {
            let intervals = fetches
                .iter()
                .filter(|f| f.id.owner == owner)
                .map(|f| f.id)
                .collect();
            (owner, Req::DiffReq { page: p, intervals })
        });
        items.clear();
        self.call_all(reqs, Phase::DataWait, p as u64, None, |resp| match resp {
            Resp::DiffResp { items: it } => items.extend(it),
            other => panic!("DiffReq got unexpected reply {other:?}"),
        });
        // Each interval is fetched once, so the keys are unique.
        items.sort_unstable_by_key(|(id, lam, _)| (*lam, id.owner, id.seq));
        let mut n = self.node();
        for (_, _, diff) in items.iter() {
            n.mem.apply_diff(p, diff);
            n.stats.diffs_applied += 1;
        }
        n.mem.validate(p);
        drop(n);
        if self.tracing() {
            for (_, _, diff) in items.iter() {
                self.trace(EventKind::DiffApply {
                    page: p as u64,
                    bytes: diff.wire_bytes() as u64,
                });
            }
        }
        self.cpu
            .add_overhead_diff(self.cpu.cost.diff_apply * items.len() as u64);
    }

    /// Fetch page `p` whole from `from` — the HLRC home, or a node whose
    /// copy the escape hatch proved complete — and install it. Returns false
    /// if `from` holds no valid copy: LRC nodes drop copies under memory
    /// pressure, and under crash faults even a view page's last writer may
    /// have lost its copy. Diffs live in the durable store, so the caller
    /// falls back to per-interval diff fetches. The caller counts the
    /// request.
    fn fetch_page(&self, p: PageId, from: ProcId) -> bool {
        self.trace(EventKind::DiffRequest {
            page: p as u64,
            to: from,
        });
        let req = Req::PageReq { page: p };
        match self.call(from, req, Phase::DataWait, p as u64) {
            Resp::PageResp {
                content: Some(content),
            } => {
                let mut n = self.node();
                n.mem.install_page(p, &content);
                n.mem.release_page(content);
                n.mem.validate(p);
                n.stats.diffs_applied += 1;
                self.cpu.add_overhead_diff(self.cpu.cost.diff_apply);
                drop(n);
                self.trace(EventKind::DiffApply {
                    page: p as u64,
                    bytes: PAGE_SIZE as u64,
                });
                true
            }
            Resp::PageResp { content: None } => false,
            other => panic!("PageReq got unexpected reply {other:?}"),
        }
    }

    /// Make page `p` readable, or writable (twinning it on its first
    /// write of the interval), faulting it in first if it is invalid. Under
    /// the VC family the access (`span`, the whole access `p` is part of)
    /// is first checked against the VOPP discipline.
    fn ensure(&self, p: PageId, write: bool, span: Range<Addr>) {
        let mut n = self.node();
        if self.protocol.is_vc() {
            self.check_discipline(p, span, write);
        }
        loop {
            match n.mem.state(p) {
                PageState::Invalid => {
                    drop(n);
                    self.fault(p, write);
                    n = self.node();
                }
                PageState::Valid if write => {
                    n.mem.note_write(p);
                    let me = n.me;
                    n.note_page_writer(p, me);
                    n.stats.twins += 1;
                    self.cpu.add_overhead(self.cpu.cost.twin);
                    return;
                }
                PageState::Valid | PageState::Dirty => return,
            }
        }
    }

    /// Read one `u32` (4-aligned).
    pub fn read_u32(&self, addr: Addr) -> u32 {
        let mut v = [0];
        self.read_u32s(addr, &mut v);
        v[0]
    }

    /// Write one `u32` (4-aligned).
    pub fn write_u32(&self, addr: Addr, v: u32) {
        self.write_u32s(addr, &[v]);
    }

    /// Read-modify-write one `u32` in place, under one lock.
    pub fn update_u32(&self, addr: Addr, f: impl FnOnce(u32) -> u32) {
        let mut f = Some(f);
        self.bulk::<4>(addr, 1, Access::Update, |mem, p, bytes, _| {
            let w = bytes.start / 4;
            let new = f.take().expect("a one-element run")(mem.page(p).word(w));
            mem.page_mut(p).set_word(w, new);
        });
    }

    /// Read one `f64` (8-aligned).
    pub fn read_f64(&self, addr: Addr) -> f64 {
        let mut v = [0.0];
        self.read_f64s(addr, &mut v);
        v[0]
    }

    /// Write one `f64` (8-aligned).
    pub fn write_f64(&self, addr: Addr, v: f64) {
        self.write_f64s(addr, &[v]);
    }

    /// The one path every accessor takes, for `count` `W`-byte elements at
    /// `addr`: bracket, check and charge the whole access, make every page
    /// accessible, then under one lock hand `copy` each page with the bytes
    /// and the elements of the run inside it.
    fn bulk<const W: usize>(
        &self,
        addr: Addr,
        count: usize,
        access: Access,
        mut copy: impl FnMut(&mut NodeMemory, PageId, Range<usize>, Range<usize>),
    ) {
        let (len, write) = (count * W, access != Access::Read);
        let auto = self.auto_acquire(addr, len, write);
        // The checker orders this access among the other nodes' by when it
        // runs, so an owed span is spent first.
        self.settle();
        self.rc_access(addr, len, write);
        debug_assert_eq!(addr % W, 0);
        // A read-modify-write copies its bytes out and back.
        let copied = if access == Access::Update {
            2 * len
        } else {
            len
        };
        self.copy_cost(copied as u64);
        for p in pages_spanned(addr, len) {
            self.ensure(p, write, addr..addr + len);
        }
        let mut n = self.node();
        let mut done = 0;
        while done < count {
            let a = addr + done * W;
            let off = offset_in_page(a);
            // Rounded up: an element straddling the page end (a misaligned
            // base) fails `copy`'s slice bound instead of stalling here.
            let run = (PAGE_SIZE - off).div_ceil(W).min(count - done);
            copy(&mut n.mem, page_of(a), off..off + run * W, done..done + run);
            done += run;
        }
        drop(n);
        self.auto_release(auto);
    }

    /// Bulk read of `f64`s (8-aligned base).
    pub fn read_f64s(&self, addr: Addr, out: &mut [f64]) {
        self.bulk::<8>(addr, out.len(), Access::Read, |mem, p, bytes, elems| {
            let src = mem.page(p)[bytes].chunks_exact(8);
            for (o, b) in out[elems].iter_mut().zip(src) {
                *o = f64::from_le_bytes(b.try_into().unwrap());
            }
        });
    }

    /// Bulk write of `f64`s (8-aligned base).
    pub fn write_f64s(&self, addr: Addr, data: &[f64]) {
        self.bulk::<8>(addr, data.len(), Access::Write, |mem, p, bytes, elems| {
            for (b, v) in mem.page_mut(p)[bytes].chunks_exact_mut(8).zip(&data[elems]) {
                b.copy_from_slice(&v.to_le_bytes());
            }
        });
    }

    /// Bulk read of `u32`s (4-aligned base).
    pub fn read_u32s(&self, addr: Addr, out: &mut [u32]) {
        self.bulk::<4>(addr, out.len(), Access::Read, |mem, p, bytes, elems| {
            let src = mem.page(p)[bytes].chunks_exact(4);
            for (o, b) in out[elems].iter_mut().zip(src) {
                *o = u32::from_le_bytes(b.try_into().unwrap());
            }
        });
    }

    /// Bulk write of `u32`s (4-aligned base).
    pub fn write_u32s(&self, addr: Addr, data: &[u32]) {
        self.bulk::<4>(addr, data.len(), Access::Write, |mem, p, bytes, elems| {
            mem.page_mut(p).set_words(bytes.start / 4, &data[elems]);
        });
    }

    /// Flush remaining CPU debt, then fold the phase accounting, the
    /// transport's retransmission count and its round-trip histogram into
    /// the node statistics. Called by the runtime after the body.
    pub(crate) fn finish(&self) {
        self.flush();
        let rpc = self.rpc.borrow();
        let mut n = self.node();
        n.stats.metrics.breakdown = *self.breakdown.borrow();
        n.stats.rexmits += rpc.rexmits;
        n.stats.metrics.rpc_rtt.absorb(&rpc.rtt);
    }
}
