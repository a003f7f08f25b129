//! The per-node programming interface.
//!
//! [`DsmCtx`] is what application code sees: shared-memory accessors, the
//! barrier, the traditional lock API (LRC programs) and the VOPP view
//! primitives (`acquire_view` / `release_view` / `acquire_rview` /
//! `release_rview` / `merge_views`, paper §2).
//!
//! This file holds what every protocol shares: CPU accounting, the one
//! round trip, the one interval close, the one fault path and the one
//! memory-access path, and the racecheck hooks. The lock API and the view
//! primitives are implemented per family, in `protocol/lrc.rs` and
//! `protocol/vc.rs`.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::Arc;

use vopp_metrics::Phase;
use vopp_page::{
    offset_in_page, page_of, pages_spanned, Addr, Diff, IntervalId, NodeMemory, PageId, PageState,
    VTime, PAGE_SIZE,
};
use vopp_racecheck::{DisciplineRule, Mode as RcMode, RaceChecker, Violation};
use vopp_sim::sync::Mutex;
use vopp_sim::{AppCtx, EventKind, Packet, ProcId, SimDuration, SimTime};
use vopp_simnet::RpcClient;
use vopp_trace::{CausalProfiler, OpKind, OpSpan};

use crate::cost::{CostModel, CpuDebt};
use crate::layout::{Layout, ViewId};
use crate::msg::{Req, Resp};
use crate::node::{NodeState, PageDiffs, PendingFetch};
use crate::protocol::{Family, PageSource, Protocol};

/// How an access through [`DsmCtx::bulk`] touches shared memory.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Access {
    Read,
    Write,
    /// A read-modify-write: a write that copies its bytes twice.
    Update,
}

/// The application-side handle to one DSM node.
pub struct DsmCtx<'a> {
    pub(crate) sim: AppCtx<'a>,
    pub(crate) node: Arc<Mutex<NodeState>>,
    rpc: RefCell<RpcClient>,
    pub(crate) debt: CpuDebt,
    pub(crate) cost: CostModel,
    pub(crate) layout: Arc<Layout>,
    pub(crate) protocol: Protocol,
    next_barrier: Cell<u32>,
    barrier_timeout: SimDuration,
    pub(crate) auto_views: Cell<bool>,
    rc: Option<Arc<RaceChecker>>,
    /// Causal profiler of this run, cached off the kernel so the hot paths
    /// pay one pointer test. When set, every flush and blocking wait also
    /// records an [`OpSpan`] annotation for critical-path blame.
    causal: Option<Arc<CausalProfiler>>,
    /// Buffers the fault path reuses from fault to fault.
    fault_scratch: RefCell<FaultScratch>,
    /// The replies of the last [`DsmCtx::call_all`] burst, drained by it;
    /// kept for its capacity.
    replies: RefCell<Vec<Packet>>,
}

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
    pub(crate) fn new(
        sim: AppCtx<'a>,
        node: Arc<Mutex<NodeState>>,
        barrier_timeout: SimDuration,
        rexmit_timeout: SimDuration,
        rc: Option<Arc<RaceChecker>>,
    ) -> DsmCtx<'a> {
        let (cost, layout, protocol) = {
            let n = node.lock();
            (n.cost.clone(), n.layout.clone(), n.protocol)
        };
        let causal = sim.causal_profiler();
        DsmCtx {
            sim,
            node,
            rpc: RefCell::new(RpcClient::with_timeout(rexmit_timeout)),
            debt: CpuDebt::new(),
            cost,
            layout,
            protocol,
            next_barrier: Cell::new(0),
            barrier_timeout,
            auto_views: Cell::new(false),
            rc,
            causal,
            fault_scratch: RefCell::default(),
            replies: RefCell::default(),
        }
    }

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

    /// Whether an enabled tracer is installed on this run. Gate any work
    /// done purely to build an event (string formatting, collection) on
    /// this so disabled runs pay nothing.
    pub fn tracing(&self) -> bool {
        self.sim.tracing()
    }

    /// Record a structured trace event at this node's current virtual time.
    /// A no-op (one pointer test) unless a tracer is installed and enabled.
    pub fn trace(&self, kind: EventKind) {
        self.sim.trace(kind);
    }

    /// Park this node until `until`; a no-op when that time has passed.
    /// This is open-loop pacing (interarrival gaps, crash downtime), not
    /// protocol waiting: the span is charged to [`Phase::Idle`], which the
    /// kernel counts as CPU time — the node is runnable, just pacing
    /// itself — so the accounting invariants still close. Returns the
    /// nanoseconds idled.
    pub fn idle_until(&self, until: SimTime) -> u64 {
        self.flush();
        let now = self.sim.now();
        if until <= now {
            return 0;
        }
        let d = until - now;
        self.sim.sleep(d);
        let ns = d.nanos();
        let mut n = self.node.lock();
        n.stats.metrics.breakdown.charge(Phase::Idle, ns);
        drop(n);
        self.annotate(now, until, OpKind::Idle, 0);
        ns
    }

    /// Charge `n` floating-point operations of compute.
    pub fn flops(&self, n: u64) {
        self.debt.add_ns(n as f64 * self.cost.ns_per_flop);
    }

    /// Charge `n` integer/index operations of compute.
    pub fn int_ops(&self, n: u64) {
        self.debt.add_ns(n as f64 * self.cost.ns_per_int);
    }

    /// Charge a local buffer copy of `n` bytes.
    pub fn copy_cost(&self, n: u64) {
        self.debt.add_ns(n as f64 * self.cost.ns_per_byte_copy);
    }

    /// Charge raw nanoseconds of compute.
    pub fn compute_ns(&self, ns: f64) {
        self.debt.add_ns(ns);
    }

    /// Flush accumulated CPU debt into the clock and attribute the advance:
    /// application work to [`Phase::Compute`], protocol charges to
    /// [`Phase::ProtoCpu`].
    pub(crate) fn flush(&self) {
        let f = self.debt.flush(&self.sim);
        if f.total_ns() != 0 {
            let bd = &mut self.node.lock().stats.metrics.breakdown;
            bd.charge(Phase::Compute, f.app_ns);
            bd.charge(Phase::ProtoCpu, f.overhead_ns);
            if let Some(prof) = &self.causal {
                // The flush advanced the clock by exactly total_ns, so the
                // annotation span matches the kernel's compute wake record.
                let hi_ns = self.sim.now().nanos();
                prof.record_op(
                    self.me(),
                    OpSpan {
                        lo_ns: hi_ns - f.total_ns(),
                        hi_ns,
                        op: OpKind::App,
                        obj: 0,
                        app_ns: f.app_ns,
                        overhead_ns: f.overhead_ns,
                        diff_ns: f.diff_ns,
                    },
                );
            }
        }
    }

    /// Attribute the virtual time elapsed since `since` (a blocked RPC wait)
    /// to `phase`, recording it in the matching latency histogram. Every
    /// blocking call in this file is bracketed by exactly one `charge_wait`,
    /// which is what makes the per-node breakdown sum to the node's clock.
    /// `obj` is the view/lock/page the wait was for (0 when global), used
    /// only by the critical-path blame annotation.
    fn charge_wait(&self, phase: Phase, obj: u64, since: SimTime) -> u64 {
        let now = self.sim.now();
        let waited = (now - since).nanos();
        let mut n = self.node.lock();
        let m = &mut n.stats.metrics;
        m.breakdown.charge(phase, waited);
        match phase {
            Phase::AcquireWait => m.acquire_rtt.record(waited),
            Phase::BarrierWait => m.barrier_rtt.record(waited),
            Phase::DataWait => m.diff_rtt.record(waited),
            _ => {}
        }
        drop(n);
        let op = match phase {
            Phase::BarrierWait => OpKind::Barrier,
            Phase::AcquireWait => OpKind::Acquire,
            Phase::DataWait => OpKind::Data,
            Phase::SendWait => OpKind::Flush,
            _ => OpKind::Other,
        };
        self.annotate(since, now, op, obj);
        waited
    }

    /// Record a span of protocol waiting or idling for critical-path blame,
    /// when profiling.
    fn annotate(&self, lo: SimTime, hi: SimTime, op: OpKind, obj: u64) {
        if let Some(prof) = &self.causal {
            let span = OpSpan {
                lo_ns: lo.nanos(),
                hi_ns: hi.nanos(),
                op,
                obj,
                app_ns: 0,
                overhead_ns: 0,
                diff_ns: 0,
            };
            prof.record_op(self.me(), span);
        }
    }

    /// One blocking round trip: send `req` to `to`, wait for the reply and
    /// charge the wait to `wait` (`obj` names what was waited for, as in
    /// [`DsmCtx::charge_wait`]). `timeout` replaces the transport's
    /// retransmission timeout for this call.
    pub(crate) fn call(
        &self,
        to: ProcId,
        req: Req,
        wait: Phase,
        obj: u64,
        timeout: Option<SimDuration>,
    ) -> Resp {
        let bytes = req.wire_bytes();
        let since = self.sim.now();
        let pkt = match timeout {
            None => self.rpc.borrow_mut().call(&self.sim, to, bytes, req),
            Some(t) => self
                .rpc
                .borrow_mut()
                .call_with_timeout(&self.sim, to, bytes, req, t),
        };
        self.charge_wait(wait, obj, since);
        pkt.expect::<Resp>()
    }

    /// [`DsmCtx::call`] to several nodes at once: every request is sent
    /// before the first reply is awaited, and the whole wait is charged once.
    /// The requests move straight into the transport; each reply is passed
    /// to `each`, in request order.
    pub(crate) fn call_all(
        &self,
        reqs: impl Iterator<Item = (ProcId, Req)>,
        wait: Phase,
        obj: u64,
        mut each: impl FnMut(Resp),
    ) {
        let since = self.sim.now();
        let mut replies = self.replies.borrow_mut();
        let calls = reqs.map(|(to, req)| (to, req.wire_bytes(), req));
        self.rpc
            .borrow_mut()
            .call_all(&self.sim, calls, &mut replies);
        self.charge_wait(wait, obj, since);
        for pkt in replies.drain(..) {
            each(pkt.expect::<Resp>());
        }
    }

    /// Close the current write interval: seal it (logging its record under
    /// the traditional protocols), then charge diff creation and flush.
    /// Under HLRC the diffs are then flushed to their pages' homes before
    /// any synchronization message is sent ([`DsmCtx::flush_to_homes`]).
    /// Returns the interval's id, lamport time and diffs, or `None` if
    /// nothing was written.
    pub(crate) fn close_interval(&self) -> Option<(IntervalId, u64, PageDiffs)> {
        let (id, lamport, diffs) = {
            let mut n = self.node.lock();
            let (id, diffs) = n.seal_interval()?;
            (id, n.lamport, diffs)
        };
        self.debt
            .add_overhead_diff(self.cost.diff_create * diffs.len() as u64);
        self.flush();
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
        if let Some(rc) = self.rc_hb() {
            // Contribute this node's clock before the arrive message: the
            // home releases everyone only after all arrives, so every
            // node's enter is ordered before any node's exit.
            rc.barrier_enter(self.me(), episode);
        }
        let (records, vt) = match self.protocol.family() {
            Family::Lrc => {
                self.close_interval();
                let mut n = self.node.lock();
                (n.delta_for_home(0), n.logged_vt.clone())
            }
            Family::Vc => {
                // Undisciplined writes (already reported by the checker) are
                // reverted here so they can never leak past a barrier.
                self.rc_discard_undisciplined();
                let n = self.node.lock();
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
        let timeout = Some(self.barrier_timeout);
        let Resp::BarrierRelease {
            records,
            vt,
            lamport,
        } = self.call(0, req, Phase::BarrierWait, 0, timeout)
        else {
            panic!("barrier got an unexpected reply")
        };
        let notices = records.len() as u64;
        let fresh = self.fresh_lrc_notices(&records);
        {
            // A VC release carries no records and an empty `vt`, so
            // absorbing it only syncs the lamport clock.
            let mut n = self.node.lock();
            n.absorb_lrc_grant(&records, &vt, lamport);
            let lv = vt.clone();
            n.note_home_knows(0, &lv);
            n.stats.barriers += 1;
            n.stats.barrier_wait_ns += (self.sim.now() - t0).nanos();
        }
        self.emit_notices(fresh, 0);
        self.trace(EventKind::BarrierExit {
            id: 0,
            epoch: episode as u64,
            notices,
        });
        if let Some(rc) = self.rc_hb() {
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

    /// The attached happens-before checker, if any.
    pub(crate) fn rc_hb(&self) -> Option<&RaceChecker> {
        self.rc
            .as_deref()
            .filter(|rc| rc.mode() == RcMode::HappensBefore)
    }

    /// The attached view-discipline checker, if any. While one is attached,
    /// VOPP discipline violations are reported instead of panicking.
    pub(crate) fn rc_discipline(&self) -> Option<&RaceChecker> {
        self.rc
            .as_deref()
            .filter(|rc| rc.mode() == RcMode::ViewDiscipline)
    }

    /// Record one shared access with the attached checker (a single pointer
    /// test when none is attached) and emit a trace event per fresh
    /// violation. Pure observation: never advances virtual time, so runs
    /// with the checker off are byte-identical to runs without it.
    fn rc_access(&self, addr: Addr, len: usize, write: bool) {
        let Some(rc) = &self.rc else { return };
        if len == 0 {
            return;
        }
        match rc.mode() {
            RcMode::HappensBefore => {
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
            RcMode::ViewDiscipline => self.rc_check_discipline(rc, addr, len, write),
        }
    }

    /// Classify one access against the VOPP discipline and report every
    /// violated page range — the relaxed, reporting replacement for the
    /// panicking [`DsmCtx::vopp_check`].
    fn rc_check_discipline(&self, rc: &RaceChecker, addr: Addr, len: usize, write: bool) {
        let me = self.me();
        let (held_w, held_r): (Option<ViewId>, Vec<ViewId>) = {
            let n = self.node.lock();
            (n.held_write, n.held_read.keys().copied().collect())
        };
        for p in pages_spanned(addr, len) {
            let ps = p * PAGE_SIZE;
            let start = addr.max(ps);
            let end = (addr + len).min(ps + PAGE_SIZE);
            let (rule, view) = match self.layout.view_of_page(p) {
                None => (DisciplineRule::OutsideViews, None),
                Some(v) => {
                    if held_w == Some(v) || (!write && held_r.contains(&v)) {
                        continue; // disciplined access
                    }
                    let rule = if write && held_r.contains(&v) {
                        DisciplineRule::ReadOnlyWrite
                    } else if held_w.is_none() && held_r.is_empty() {
                        DisciplineRule::Unbracketed
                    } else {
                        DisciplineRule::ForeignView
                    };
                    (rule, Some(v))
                }
            };
            if rc.record_discipline(rule, me, view, p, start, end, write) && self.tracing() {
                self.trace(EventKind::DisciplineViolation {
                    rule: rule.label().to_string(),
                    page: p as u64,
                    start: start as u64,
                    end: end as u64,
                    write,
                });
            }
        }
    }

    /// With a discipline checker attached, undisciplined writes are reported
    /// rather than rejected; revert any dirty page that does not belong to
    /// the currently-held write view so the protocol machinery (interval
    /// closing, grant invalidation) never observes them.
    pub(crate) fn rc_discard_undisciplined(&self) {
        if self.rc_discipline().is_none() {
            return;
        }
        let mut n = self.node.lock();
        let keep = n.held_write.map(|v| self.layout.view(v).pages.clone());
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
        self.debt.add_overhead(self.cost.page_fault);
        self.flush();
        self.trace(EventKind::PageFault {
            page: p as u64,
            write,
        });
        let mut scratch = self.fault_scratch.borrow_mut();
        let FaultScratch {
            fetches,
            owners,
            items,
        } = &mut *scratch;
        {
            let mut n = self.node.lock();
            n.stats.page_faults += 1;
            n.take_pending(p, fetches);
        }
        if fetches.is_empty() {
            // Invalid page with no recorded writer: nothing to fetch.
            self.node.lock().mem.validate(p);
            return;
        }
        // HLRC always fetches the current page from its home (one round
        // trip; the home is kept current by eager flushes).
        let source = self.protocol.page_source();
        if source == PageSource::Home {
            let home = self.node.lock().page_home(p);
            assert!(self.fetch_page(p, home), "HLRC home {home} lost page {p}");
            return;
        }
        // Whole-page fetch (TreadMarks' "get whole page" escape hatch, see
        // `PageSource`): when the accumulated diffs would exceed one page
        // transfer, ask a node whose copy is known complete instead. An LRC
        // page's one pending writer is not enough: on a false-shared page
        // its copy can miss other writers' updates this node already
        // applied, so the hatch needs the page's whole write history.
        // The writers, in order of first fetch.
        owners.clear();
        for f in fetches.iter() {
            if !owners.contains(&f.id.owner) {
                owners.push(f.id.owner);
            }
        }
        let distinct_owners = owners.len();
        // The most recent writer can be this node itself after a crash (its
        // own releases come back in the `have == 0` recovery grant); a
        // node's post-crash copy is exactly what was lost, so the escape
        // hatch must fetch from a peer — fall through to diff fetches,
        // which loopback to the durable local diff store where needed.
        let last_owner_is_me = fetches.last().is_some_and(|f| f.id.owner == self.me());
        let whole_page = !last_owner_is_me
            && match source {
                PageSource::LastWriter => {
                    self.layout.view_of_page(p).is_some() && distinct_owners >= 3
                }
                PageSource::SoleWriter => {
                    distinct_owners == 1
                        && fetches.len() >= 4
                        && self.node.lock().page_sole_writer(p, fetches[0].id.owner)
                }
                PageSource::Diffs | PageSource::Home => false,
            };
        if whole_page && self.fetch_page(p, fetches.last().unwrap().id.owner) {
            return;
        }
        // One request per writer, its intervals in application order.
        self.node.lock().stats.diff_requests += owners.len() as u64;
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
        self.call_all(reqs, Phase::DataWait, p as u64, |resp| match resp {
            Resp::DiffResp { items: it } => items.extend(it),
            other => panic!("DiffReq got unexpected reply {other:?}"),
        });
        // Each interval is fetched once, so the keys are unique.
        items.sort_unstable_by_key(|(id, lam, _)| (*lam, id.owner, id.seq));
        let mut n = self.node.lock();
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
        self.debt
            .add_overhead_diff(self.cost.diff_apply * items.len() as u64);
    }

    /// Fetch page `p` whole from `from` — the HLRC home, or a node whose
    /// copy the escape hatch proved complete — and install it. Returns false
    /// if `from` holds no valid copy: LRC nodes drop copies under memory
    /// pressure, and under crash faults even a view page's last writer may
    /// have lost its copy. Diffs live in the durable store, so the caller
    /// falls back to per-interval diff fetches.
    fn fetch_page(&self, p: PageId, from: ProcId) -> bool {
        self.node.lock().stats.diff_requests += 1;
        self.trace(EventKind::DiffRequest {
            page: p as u64,
            to: from,
        });
        let req = Req::PageReq { page: p };
        match self.call(from, req, Phase::DataWait, p as u64, None) {
            Resp::PageResp {
                content: Some(content),
            } => {
                let mut n = self.node.lock();
                n.mem.install_page(p, &content);
                n.mem.release_page(content);
                n.mem.validate(p);
                n.stats.diffs_applied += 1;
                self.debt.add_overhead_diff(self.cost.diff_apply);
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
    /// write of the interval), faulting it in first if it is invalid.
    fn ensure(&self, p: PageId, write: bool) {
        loop {
            let mut n = self.node.lock();
            self.vopp_check(&n, p, write);
            match n.mem.state(p) {
                PageState::Invalid => {
                    drop(n);
                    self.fault(p, write);
                }
                PageState::Valid if write => {
                    n.mem.note_write(p);
                    let me = n.me;
                    n.note_page_writer(p, me);
                    n.stats.twins += 1;
                    self.debt.add_overhead(self.cost.twin);
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
            self.ensure(p, write);
        }
        let mut n = self.node.lock();
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

    /// Fold the transport's retransmission count and round-trip histogram
    /// into the node statistics and flush remaining CPU debt. Called by the
    /// runtime after the body.
    pub(crate) fn finish(&self) {
        self.flush();
        let rpc = self.rpc.borrow();
        let mut n = self.node.lock();
        n.stats.rexmits += rpc.rexmits;
        n.stats.metrics.rpc_rtt.absorb(&rpc.rtt);
    }
}
