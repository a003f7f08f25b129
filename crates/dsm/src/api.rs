//! The per-node programming interface.
//!
//! [`DsmCtx`] is what application code sees: shared-memory accessors, the
//! traditional lock/barrier API (LRC programs) and the VOPP view primitives
//! (`acquire_view` / `release_view` / `acquire_rview` / `release_rview` /
//! `merge_views`, paper §2).
//!
//! Under the VC protocols the context *enforces* the VOPP discipline at run
//! time: shared memory may only be read inside a held (read or write) view
//! and written inside the held write view, write views do not nest, and a
//! release must only have dirtied pages of the released view. Violations
//! panic with a diagnostic — programming errors, not recoverable states.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use vopp_metrics::Phase;
use vopp_page::{
    offset_in_page, page_of, pages_spanned, Addr, Diff, IntervalId, NodeMemory, PageId, PageState,
    VTime, PAGE_SIZE,
};
use vopp_racecheck::{DisciplineRule, Mode as RcMode, RaceChecker, Violation};
use vopp_sim::sync::Mutex;
use vopp_sim::{AppCtx, EventKind, ProcId, SimDuration, SimTime};
use vopp_simnet::RpcClient;
use vopp_trace::{CausalProfiler, OpKind, OpSpan};

use crate::cost::{CostModel, CpuDebt};
use crate::layout::{Layout, ViewId};
use crate::msg::{AccessMode, Req, Resp};
use crate::node::{NodeState, PageDiffs, Protocol};

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
    sim: AppCtx<'a>,
    node: Arc<Mutex<NodeState>>,
    rpc: RefCell<RpcClient>,
    debt: CpuDebt,
    cost: CostModel,
    layout: Arc<Layout>,
    protocol: Protocol,
    next_barrier: Cell<u32>,
    barrier_timeout: SimDuration,
    auto_views: Cell<bool>,
    rc: Option<Arc<RaceChecker>>,
    /// Causal profiler of this run, cached off the kernel so the hot paths
    /// pay one pointer test. When set, every flush and blocking wait also
    /// records an [`OpSpan`] annotation for critical-path blame.
    causal: Option<Arc<CausalProfiler>>,
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
        self.node
            .lock()
            .stats
            .metrics
            .breakdown
            .charge(Phase::Idle, ns);
        if let Some(prof) = &self.causal {
            prof.record_op(
                self.me(),
                OpSpan {
                    lo_ns: now.nanos(),
                    hi_ns: until.nanos(),
                    op: OpKind::Idle,
                    obj: 0,
                    app_ns: 0,
                    overhead_ns: 0,
                    diff_ns: 0,
                },
            );
        }
        ns
    }

    /// Simulate a crash and restart of this node's DSM engine: volatile
    /// state — page copies, pending invalidations, view-version knowledge —
    /// is lost; durable state — the node's interval log and diff store (its
    /// write-ahead log), the lamport clock, and any home/manager roles on
    /// this node — survives. Recovery is lazy: the next `acquire_view`
    /// reports version 0 and the home streams the full view history back,
    /// reconstructing shard contents page by page.
    ///
    /// Only legal between requests (no held views, no unextracted writes)
    /// and only modelled for the view protocols, whose homes keep the
    /// per-view history recovery replays. Returns the number of page
    /// buffers lost.
    pub fn crash_recover(&self) -> u64 {
        assert!(
            self.protocol.is_vc(),
            "crash/recovery is modelled for the view protocols only"
        );
        self.flush();
        let dropped = self.node.lock().crash_volatile();
        self.trace(EventKind::NodeCrash { pages: dropped });
        dropped
    }

    // ---------------------------------------------------------------
    // CPU accounting
    // ---------------------------------------------------------------

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
    fn flush(&self) {
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
        if let Some(prof) = &self.causal {
            let op = match phase {
                Phase::BarrierWait => OpKind::Barrier,
                Phase::AcquireWait => OpKind::Acquire,
                Phase::DataWait => OpKind::Data,
                Phase::SendWait => OpKind::Flush,
                _ => OpKind::Other,
            };
            prof.record_op(
                self.me(),
                OpSpan {
                    lo_ns: since.nanos(),
                    hi_ns: now.nanos(),
                    op,
                    obj,
                    app_ns: 0,
                    overhead_ns: 0,
                    diff_ns: 0,
                },
            );
        }
        waited
    }

    /// One blocking round trip: send `req` to `to`, wait for the reply and
    /// charge the wait to `wait` (`obj` names what was waited for, as in
    /// [`DsmCtx::charge_wait`]). `timeout` replaces the transport's
    /// retransmission timeout for this call.
    fn call(
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
    fn call_all(
        &self,
        reqs: impl Iterator<Item = (ProcId, Req)>,
        wait: Phase,
        obj: u64,
    ) -> impl Iterator<Item = Resp> {
        let calls: Vec<(ProcId, usize, Req)> = reqs
            .map(|(to, req)| {
                let bytes = req.wire_bytes();
                (to, bytes, req)
            })
            .collect();
        let since = self.sim.now();
        let replies = self.rpc.borrow_mut().call_all(&self.sim, &calls);
        self.charge_wait(wait, obj, since);
        replies.into_iter().map(|pkt| pkt.expect::<Resp>())
    }

    /// Close the current write interval: seal it (logging its record under
    /// the traditional protocols), then charge diff creation and flush.
    /// Under HLRC the diffs are then flushed eagerly to their pages' home
    /// nodes (and acknowledged) *before* any synchronization message is
    /// sent — the flush-before-sync invariant that keeps home copies current
    /// when invalidated readers fetch them. Returns the interval's id,
    /// lamport time and diffs, or `None` if nothing was written.
    fn close_interval(&self) -> Option<(IntervalId, u64, PageDiffs)> {
        let (id, lamport, diffs) = {
            let mut n = self.node.lock();
            let (id, diffs) = n.seal_interval()?;
            (id, n.lamport, diffs)
        };
        self.debt
            .add_overhead_diff(self.cost.diff_create * diffs.len() as u64);
        self.flush();
        if self.protocol == Protocol::Hlrc {
            let (np, me) = (self.nprocs(), self.me());
            let mut groups: BTreeMap<ProcId, Vec<_>> = BTreeMap::new();
            // The home's own pages are already current locally.
            for (p, d) in diffs.iter().filter(|(p, _)| p % np != me) {
                groups.entry(p % np).or_default().push((*p, Arc::clone(d)));
            }
            if !groups.is_empty() {
                let flushes = groups
                    .into_iter()
                    .map(|(home, items)| (home, Req::HomeFlush { items }));
                for resp in self.call_all(flushes, Phase::SendWait, 0) {
                    assert!(matches!(resp, Resp::Ack));
                }
            }
        }
        Some((id, lamport, diffs))
    }

    // ---------------------------------------------------------------
    // Synchronization: barrier
    // ---------------------------------------------------------------

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
        let (records, vt) = if self.protocol.is_lrc_family() {
            self.close_interval();
            let mut n = self.node.lock();
            (n.delta_for_home(0), n.logged_vt.clone())
        } else {
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
        match self.call(0, req, Phase::BarrierWait, 0, timeout) {
            Resp::BarrierRelease {
                records,
                vt,
                lamport,
            } => {
                let notices = records.len() as u64;
                let fresh = self.fresh_lrc_notices(&records);
                {
                    let mut n = self.node.lock();
                    if self.protocol.is_lrc_family() {
                        n.absorb_lrc_grant(&records, &vt, lamport);
                        let lv = vt.clone();
                        n.note_home_knows(0, &lv);
                    } else {
                        n.lamport_sync(lamport);
                    }
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
            other => panic!("barrier got unexpected reply {other:?}"),
        }
    }

    /// The subset of grant `records` this node has not yet logged, as
    /// `(owner, seq, pages)` triples for [`EventKind::WriteNoticeApply`]
    /// events. Empty when tracing is off. Filtering against the pre-merge
    /// log keeps each `(scope, owner)` notice series strictly increasing
    /// even when a duplicate grant re-sends known records.
    fn fresh_lrc_notices(
        &self,
        records: &[Arc<vopp_page::IntervalRecord>],
    ) -> Vec<(ProcId, u64, u64)> {
        if !self.tracing() || records.is_empty() {
            return Vec::new();
        }
        let n = self.node.lock();
        records
            .iter()
            .filter(|r| r.id.seq > n.logged_vt.get(r.id.owner))
            .map(|r| (r.id.owner, r.id.seq as u64, r.pages.len() as u64))
            .collect()
    }

    /// Emit one [`EventKind::WriteNoticeApply`] per freshly absorbed record.
    fn emit_notices(&self, fresh: Vec<(ProcId, u64, u64)>, scope: u64) {
        for (owner, seq, pages) in fresh {
            self.trace(EventKind::WriteNoticeApply {
                owner,
                seq,
                scope,
                pages,
            });
        }
    }

    // ---------------------------------------------------------------
    // Synchronization: traditional locks (LRC programs)
    // ---------------------------------------------------------------

    /// Acquire lock `lock` (traditional API; LRC/HLRC/ScC).
    ///
    /// Under Scope Consistency the grant enforces only the updates made
    /// under this lock's scope (paper §4); under the LRC family it enforces
    /// everything the grantor knows.
    pub fn lock_acquire(&self, lock: u32) {
        assert!(
            self.protocol.is_lrc_family(),
            "locks belong to the traditional API; VOPP programs use views"
        );
        if self.protocol == Protocol::ScC {
            return self.scc_lock_acquire(lock);
        }
        self.flush();
        let t0 = self.sim.now();
        self.trace(EventKind::LockAcquireStart { lock: lock as u64 });
        self.close_interval();
        let (home, vt) = {
            let n = self.node.lock();
            (n.lock_home(lock), n.logged_vt.clone())
        };
        let req = Req::LockAcquire { lock, vt };
        match self.call(home, req, Phase::AcquireWait, lock as u64, None) {
            Resp::LockGrant {
                records,
                vt,
                lamport,
            } => {
                let fresh = self.fresh_lrc_notices(&records);
                {
                    let mut n = self.node.lock();
                    n.absorb_lrc_grant(&records, &vt, lamport);
                    let lv = vt.clone();
                    n.note_home_knows(home, &lv);
                    n.stats.acquires += 1;
                    n.stats.acquire_wait_ns += (self.sim.now() - t0).nanos();
                }
                self.emit_notices(fresh, 0);
                self.trace(EventKind::LockAcquireEnd { lock: lock as u64 });
                if let Some(rc) = self.rc_hb() {
                    rc.lock_acquired(self.me(), lock);
                }
            }
            other => panic!("lock_acquire got unexpected reply {other:?}"),
        }
    }

    /// Release lock `lock`, pushing this node's new interval records to the
    /// lock home (LRC family) or publishing this scope's release record
    /// (ScC).
    pub fn lock_release(&self, lock: u32) {
        assert!(self.protocol.is_lrc_family());
        if self.protocol == Protocol::ScC {
            return self.scc_lock_release(lock);
        }
        self.flush();
        self.close_interval();
        if let Some(rc) = self.rc_hb() {
            // Publish this node's ordering before the release message: the
            // home may grant the lock to a remote acquirer while this
            // thread is still blocked on the Ack.
            rc.lock_released(self.me(), lock);
        }
        let (home, records) = {
            let mut n = self.node.lock();
            let home = n.lock_home(lock);
            (home, n.delta_for_home(home))
        };
        let req = Req::LockRelease { lock, records };
        let resp = self.call(home, req, Phase::SendWait, lock as u64, None);
        assert!(matches!(resp, Resp::Ack), "lock_release expects Ack");
        self.trace(EventKind::LockRelease { lock: lock as u64 });
    }

    // ---------------------------------------------------------------
    // Synchronization: Scope Consistency locks (related work, paper §4)
    // ---------------------------------------------------------------

    /// ScC acquire: the lock home sends the release records of *this scope*
    /// newer than what this node has enforced; their pages are invalidated
    /// and fetched on fault, exactly like a `VC_d` view grant — but the
    /// scope's page set is dynamic (whatever its releases dirtied).
    fn scc_lock_acquire(&self, lock: u32) {
        self.flush();
        let t0 = self.sim.now();
        self.trace(EventKind::LockAcquireStart { lock: lock as u64 });
        self.close_interval();
        let (home, have) = {
            let n = self.node.lock();
            (
                n.lock_home(lock),
                n.lock_applied.get(&lock).copied().unwrap_or(0),
            )
        };
        let req = Req::ViewAcquire {
            view: lock,
            mode: AccessMode::Write,
            have,
        };
        match self.call(home, req, Phase::AcquireWait, lock as u64, None) {
            Resp::ViewGrant {
                records,
                version,
                lamport,
                ..
            } => {
                let fresh: Vec<(ProcId, u64, u64)> = if self.tracing() {
                    let n = self.node.lock();
                    records
                        .iter()
                        .filter(|r| r.id.owner != n.me && !n.scoped_applied.contains(&r.id))
                        .map(|r| (r.id.owner, r.id.seq as u64, r.pages.len() as u64))
                        .collect()
                } else {
                    Vec::new()
                };
                {
                    let mut n = self.node.lock();
                    n.scc_absorb(&records, lamport);
                    let la = n.lock_applied.entry(lock).or_insert(0);
                    *la = (*la).max(version);
                    n.stats.acquires += 1;
                    n.stats.acquire_wait_ns += (self.sim.now() - t0).nanos();
                }
                self.emit_notices(fresh, lock as u64 + 1);
                self.trace(EventKind::LockAcquireEnd { lock: lock as u64 });
                if let Some(rc) = self.rc_hb() {
                    rc.lock_acquired(self.me(), lock);
                }
            }
            other => panic!("scc lock_acquire got unexpected reply {other:?}"),
        }
    }

    /// ScC release: close the interval (also logging it for the global
    /// barrier merge) and publish its record under this lock's scope.
    fn scc_lock_release(&self, lock: u32) {
        self.flush();
        if let Some(rc) = self.rc_hb() {
            // As in `lock_release`: publish ordering before the message.
            rc.lock_released(self.me(), lock);
        }
        let sealed = self.close_interval();
        let (home, interval, lamport, pages) = {
            let mut n = self.node.lock();
            let home = n.lock_home(lock);
            match sealed {
                Some((id, lamport, diffs)) => {
                    // This node's own release is already enforced locally.
                    n.scoped_applied.insert(id);
                    let pages = diffs.iter().map(|(p, _)| *p).collect();
                    (home, Some(id), lamport, pages)
                }
                None => (home, None, n.lamport, Vec::new()),
            }
        };
        let req = Req::ViewRelease {
            view: lock,
            mode: AccessMode::Write,
            interval,
            lamport,
            pages,
            diffs: Vec::new(),
        };
        match self.call(home, req, Phase::SendWait, lock as u64, None) {
            Resp::ReleaseAck { version } => {
                let mut n = self.node.lock();
                let la = n.lock_applied.entry(lock).or_insert(0);
                *la = (*la).max(version);
            }
            other => panic!("scc lock_release got unexpected reply {other:?}"),
        }
        self.trace(EventKind::LockRelease { lock: lock as u64 });
    }

    // ---------------------------------------------------------------
    // Synchronization: VOPP view primitives
    // ---------------------------------------------------------------

    /// `acquire_view` (paper §2): gain exclusive access to view `v` and make
    /// its content consistent. Not nestable.
    pub fn acquire_view(&self, v: ViewId) {
        self.acquire_view_mode(v, AccessMode::Write);
    }

    /// `acquire_Rview` (paper §2, §3.4): gain shared read access. Nestable;
    /// concurrent readers are granted simultaneously.
    pub fn acquire_rview(&self, v: ViewId) {
        // Nested re-acquisition of an already-held read view is local.
        {
            let mut n = self.node.lock();
            if let Some(c) = n.held_read.get_mut(&v) {
                *c += 1;
                return;
            }
        }
        self.acquire_view_mode(v, AccessMode::Read);
    }

    fn acquire_view_mode(&self, v: ViewId, mode: AccessMode) {
        assert!(
            self.protocol.is_vc(),
            "views require a VC protocol; traditional programs use locks/barriers"
        );
        self.flush();
        let t0 = self.sim.now();
        self.trace(EventKind::AcquireStart {
            view: v as u64,
            write: mode == AccessMode::Write,
        });
        let (home, have) = {
            let n = self.node.lock();
            if mode == AccessMode::Write {
                assert!(
                    n.held_write.is_none(),
                    "proc {}: acquire_view({v}) while holding view {:?} — \
                     acquire_view cannot be nested (paper §2)",
                    n.me,
                    n.held_write
                );
            }
            assert!(
                !(mode == AccessMode::Write && n.held_read.contains_key(&v)),
                "proc {}: acquire_view({v}) while holding it as a read view",
                n.me
            );
            (n.view_home(v), n.view_applied[v as usize])
        };
        if self.protocol == Protocol::VcRdma {
            // Drop stale one-sided grant data left from a previous tenure
            // of this view (a duplicate grant whose data landed after we
            // moved on). Link FIFO guarantees any such straggler has landed
            // by now: the release ack that ended the previous tenure
            // travelled the same home→here link behind it.
            let stale = crate::msg::rdma_grant_tag(v);
            self.sim.purge_filter(|p| {
                p.class == vopp_sim::DeliveryClass::OneSided && p.src == home && p.tag == stale
            });
        }
        let req = Req::ViewAcquire {
            view: v,
            mode,
            have,
        };
        // `call` times the wait from now, which is still `t0`.
        match self.call(home, req, Phase::AcquireWait, v as u64, None) {
            Resp::ViewGrant {
                records,
                diffs,
                version,
                lamport,
            } => {
                let diffs = if self.protocol == Protocol::VcRdma {
                    debug_assert!(diffs.is_empty(), "VC_rdma grants carry no inline diffs");
                    let tag = crate::msg::rdma_grant_tag(v);
                    // The home wrote the view data one-sided ahead of this
                    // reply, so FIFO has landed it already; an empty poll
                    // therefore means the home had nothing to send, not
                    // that the data is still in flight.
                    let polled = match self.sim.poll_one_sided(home, tag) {
                        Some(pkt) => pkt.expect::<Vec<(PageId, Arc<Diff>)>>(),
                        None => Vec::new(),
                    };
                    // A retransmitted acquire can leave a byte-identical
                    // duplicate deposit behind the one we just consumed.
                    self.sim.purge_filter(|p| {
                        p.class == vopp_sim::DeliveryClass::OneSided
                            && p.src == home
                            && p.tag == tag
                    });
                    polled
                } else {
                    diffs
                };
                let napplied = diffs.len();
                let grant_bytes: u64 = diffs
                    .iter()
                    .map(|(_, d)| d.wire_bytes() as u64)
                    .sum::<u64>()
                    + records.iter().map(|r| r.wire_bytes() as u64).sum::<u64>();
                let fresh: Vec<(ProcId, u64, u64)> = if self.tracing() {
                    records
                        .iter()
                        .map(|r| (r.id.owner, r.id.seq as u64, r.pages.len() as u64))
                        .collect()
                } else {
                    Vec::new()
                };
                let mut n = self.node.lock();
                n.vc_absorb_grant(v, &records, &diffs, version, lamport);
                match mode {
                    AccessMode::Write => n.held_write = Some(v),
                    AccessMode::Read => {
                        n.held_read.insert(v, 1);
                    }
                }
                n.stats.acquires += 1;
                let waited = (self.sim.now() - t0).nanos();
                n.stats.acquire_wait_ns += waited;
                let vs = n.stats.views.entry(v).or_default();
                vs.acquires += 1;
                vs.wait_ns += waited;
                vs.grant_bytes += grant_bytes;
                drop(n);
                // VC_rdma: the data arrived by one-sided write into the
                // preposted buffer — nothing for the acquirer's CPU to
                // apply, so no diff-apply charge. The other VC protocols
                // pay software diff application per stale page.
                if napplied > 0 && self.protocol != Protocol::VcRdma {
                    self.debt
                        .add_overhead_diff(self.cost.diff_apply * napplied as u64);
                }
                self.emit_notices(fresh, v as u64 + 1);
                if self.tracing() {
                    for (p, d) in &diffs {
                        self.trace(EventKind::DiffApply {
                            page: *p as u64,
                            bytes: d.wire_bytes() as u64,
                        });
                    }
                }
                self.trace(EventKind::AcquireEnd {
                    view: v as u64,
                    write: mode == AccessMode::Write,
                    version: version as u64,
                    bytes: grant_bytes,
                });
            }
            other => panic!("acquire_view got unexpected reply {other:?}"),
        }
    }

    /// `release_view` (paper §2): publish this view's modifications and give
    /// up exclusive access.
    pub fn release_view(&self, v: ViewId) {
        assert!(self.protocol.is_vc());
        self.flush();
        let home = {
            let mut n = self.node.lock();
            assert_eq!(
                n.held_write,
                Some(v),
                "proc {}: release_view({v}) without holding it",
                n.me
            );
            // VOPP discipline: everything dirtied belongs to the view. With
            // a checker attached the violation was already reported at
            // access time; revert foreign writes instead of panicking so
            // only the view's own modifications are published.
            let view_pages = self.layout.view(v).pages.clone();
            if self.rc_discipline().is_some() {
                for p in n.mem.dirty_pages() {
                    if !view_pages.contains(&p) {
                        n.mem.discard_writes(p);
                    }
                }
            } else {
                for p in n.mem.dirty_pages() {
                    assert!(
                        view_pages.contains(&p),
                        "proc {}: modified page {p} (view {:?}) while holding view {v} — \
                         VOPP programs modify only the acquired view (paper §2)",
                        n.me,
                        self.layout.view_of_page(p)
                    );
                }
            }
            n.held_write = None;
            n.view_home(v)
        };
        let (interval, lamport, pages, diffs) = match self.close_interval() {
            Some((id, lamport, diffs)) => {
                let pages = diffs.iter().map(|(p, _)| *p).collect();
                // VC_sd ships the diffs inline with the release; VC_rdma
                // deposits them at the home by one-sided write below.
                let sd = if matches!(self.protocol, Protocol::VcSd | Protocol::VcRdma) {
                    diffs
                } else {
                    Vec::new()
                };
                (Some(id), lamport, pages, sd)
            }
            None => (None, self.node.lock().lamport, Vec::new(), Vec::new()),
        };
        let diffs = if self.protocol == Protocol::VcRdma {
            if !diffs.is_empty() {
                // One-sided deposit ahead of the (slim) release request:
                // link FIFO lands the data before the control message, and
                // only the control message is ever retransmitted, so the
                // home's take on first processing cannot miss.
                let wire = crate::msg::one_sided_diffs_wire_bytes(&diffs);
                self.sim.send(
                    home,
                    wire,
                    vopp_sim::DeliveryClass::OneSided,
                    crate::msg::rdma_release_tag(v),
                    Arc::new(diffs),
                );
            }
            Vec::new()
        } else {
            diffs
        };
        let req = Req::ViewRelease {
            view: v,
            mode: AccessMode::Write,
            interval,
            lamport,
            pages,
            diffs,
        };
        match self.call(home, req, Phase::SendWait, v as u64, None) {
            Resp::ReleaseAck { version } => {
                let mut n = self.node.lock();
                let bumped = version > n.view_applied[v as usize];
                let va = &mut n.view_applied[v as usize];
                *va = (*va).max(version);
                if bumped {
                    n.stats.views.entry(v).or_default().versions += 1;
                }
            }
            other => panic!("release_view got unexpected reply {other:?}"),
        }
        self.trace(EventKind::ReleaseDone {
            view: v as u64,
            write: true,
        });
    }

    /// `release_Rview` (paper §2).
    pub fn release_rview(&self, v: ViewId) {
        assert!(self.protocol.is_vc());
        {
            let mut n = self.node.lock();
            let c = n
                .held_read
                .get_mut(&v)
                .unwrap_or_else(|| panic!("release_rview({v}) without holding it"));
            *c -= 1;
            if *c > 0 {
                return; // nested release: local
            }
            n.held_read.remove(&v);
        }
        // Writes made while only this read view was held were reported as
        // violations; revert them before the protocol closes any interval.
        self.rc_discard_undisciplined();
        self.flush();
        let (home, lamport) = {
            let n = self.node.lock();
            (n.view_home(v), n.lamport)
        };
        let req = Req::ViewRelease {
            view: v,
            mode: AccessMode::Read,
            interval: None,
            lamport,
            pages: Vec::new(),
            diffs: Vec::new(),
        };
        let resp = self.call(home, req, Phase::SendWait, v as u64, None);
        assert!(matches!(resp, Resp::Ack));
        self.trace(EventKind::ReleaseDone {
            view: v as u64,
            write: false,
        });
    }

    /// `merge_views` (paper §3.5): bring every view up to date on this node.
    /// Expensive but convenient; implemented as a read acquisition of each
    /// view not currently held.
    pub fn merge_views(&self) {
        assert!(self.protocol.is_vc());
        for v in 0..self.layout.nviews() as ViewId {
            let held = {
                let n = self.node.lock();
                n.held_write == Some(v) || n.held_read.contains_key(&v)
            };
            if !held {
                self.acquire_rview(v);
                self.release_rview(v);
            }
        }
    }

    // ---------------------------------------------------------------
    // Automated view insertion (paper §6 future work)
    // ---------------------------------------------------------------

    /// Enable or disable *automated view-primitive insertion*: the paper's
    /// §6 future work ("the insertion of view primitives can be automated
    /// by compiling techniques"), realized at run time. While enabled, a
    /// shared-memory access whose view is not currently held automatically
    /// acquires it (read view for reads, exclusive view for writes) for
    /// exactly that access and releases it afterwards.
    ///
    /// This is correct but naive: each unbracketed access pays a full
    /// acquire/release round trip, which is exactly why the paper argues
    /// for programmer-placed (or cleverly compiler-batched) primitives —
    /// see the `ablation_auto_views` benchmark.
    pub fn set_auto_views(&self, on: bool) {
        assert!(
            self.protocol.is_vc() || !on,
            "auto views require a VC protocol"
        );
        self.auto_views.set(on);
    }

    /// If auto mode is on and the span's view is not held, acquire it;
    /// returns what must be released after the access. The span must lie
    /// within one view (a compiler would split larger statements).
    fn auto_acquire(&self, addr: Addr, len: usize, write: bool) -> Option<(ViewId, AccessMode)> {
        if !self.auto_views.get() || !self.protocol.is_vc() || len == 0 {
            return None;
        }
        let mut views = pages_spanned(addr, len).map(|p| self.layout.view_of_page(p));
        let v = views
            .next()
            .flatten()
            .expect("auto views: access outside any view");
        assert!(
            views.all(|o| o == Some(v)),
            "auto views: one access must stay within one view"
        );
        let (held_w, held_r) = {
            let n = self.node.lock();
            (n.held_write == Some(v), n.held_read.contains_key(&v))
        };
        if write {
            if held_w {
                None
            } else {
                assert!(
                    !held_r,
                    "auto views: write access to view {v} held read-only"
                );
                self.acquire_view(v);
                Some((v, AccessMode::Write))
            }
        } else if held_w || held_r {
            None
        } else {
            self.acquire_rview(v);
            Some((v, AccessMode::Read))
        }
    }

    fn auto_release(&self, held: Option<(ViewId, AccessMode)>) {
        match held {
            Some((v, AccessMode::Write)) => self.release_view(v),
            Some((v, AccessMode::Read)) => self.release_rview(v),
            None => {}
        }
    }

    // ---------------------------------------------------------------
    // Dynamic correctness checking (vopp-racecheck)
    // ---------------------------------------------------------------

    /// The attached happens-before checker, if any.
    fn rc_hb(&self) -> Option<&RaceChecker> {
        match &self.rc {
            Some(rc) if rc.mode() == RcMode::HappensBefore => Some(rc),
            _ => None,
        }
    }

    /// The attached view-discipline checker, if any. While one is attached,
    /// VOPP discipline violations are reported instead of panicking.
    fn rc_discipline(&self) -> Option<&RaceChecker> {
        match &self.rc {
            Some(rc) if rc.mode() == RcMode::ViewDiscipline => Some(rc),
            _ => None,
        }
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
    fn rc_discard_undisciplined(&self) {
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

    // ---------------------------------------------------------------
    // Shared memory access
    // ---------------------------------------------------------------

    fn vopp_check(&self, n: &NodeState, p: PageId, write: bool) {
        if !self.protocol.is_vc() || self.rc_discipline().is_some() {
            return;
        }
        let v = self.layout.view_of_page(p).unwrap_or_else(|| {
            panic!(
                "proc {}: access to shared page {p} outside any view — \
                 VOPP programs put all shared data in views",
                n.me
            )
        });
        let ok = if write {
            n.held_write == Some(v)
        } else {
            n.held_write == Some(v) || n.held_read.contains_key(&v)
        };
        assert!(
            ok,
            "proc {}: {} page {p} of view {v} without {} it (held_write={:?}) — \
             view primitives must bracket every access (paper §2)",
            n.me,
            if write { "write to" } else { "read of" },
            if write {
                "acquire_view-ing"
            } else {
                "acquiring"
            },
            n.held_write
        );
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
        let fetches = {
            let mut n = self.node.lock();
            n.stats.page_faults += 1;
            n.take_pending(p)
        };
        if fetches.is_empty() {
            // Invalid page with no recorded writer: nothing to fetch.
            self.node.lock().mem.validate(p);
            return;
        }
        // HLRC always fetches the current page from its home (one round
        // trip; the home is kept current by eager flushes).
        if self.protocol == Protocol::Hlrc {
            let home = p % self.nprocs();
            assert!(self.fetch_page(p, home), "HLRC home {home} lost page {p}");
            return;
        }
        // Whole-page fetch (TreadMarks' "get whole page" escape hatch):
        // when the accumulated per-interval diffs would exceed one page
        // transfer, ask a node whose copy is known complete instead.
        //   * View pages (VC): writes are serialized, so the most recent
        //     writer's copy is provably complete while we hold the view.
        //   * LRC pages whose *entire write history* has a single owner:
        //     that owner's current copy equals the diff-reconstructed
        //     content. The pending list alone is not enough — on a
        //     false-shared page the one pending writer's copy can miss
        //     other writers' updates this node already applied, silently
        //     regressing their words — so the hatch additionally consults
        //     the page's full writer-history bitmask.
        let distinct_owners = {
            let mut o: Vec<_> = fetches.iter().map(|f| f.id.owner).collect();
            o.sort_unstable();
            o.dedup();
            o.len()
        };
        let is_view_page = self.layout.view_of_page(p).is_some();
        // The most recent writer can be this node itself after a crash (its
        // own releases come back in the `have == 0` recovery grant); a
        // node's post-crash copy is exactly what was lost, so the escape
        // hatch must fetch from a peer — fall through to diff fetches,
        // which loopback to the durable local diff store where needed.
        let last_owner_is_me = fetches.last().is_some_and(|f| f.id.owner == self.me());
        let whole_page = !last_owner_is_me
            && ((self.protocol.is_vc() && is_view_page && distinct_owners >= 3)
                || (self.protocol == Protocol::LrcD
                    && distinct_owners == 1
                    && fetches.len() >= 4
                    && self.node.lock().page_sole_writer(p, fetches[0].id.owner)));
        if whole_page && self.fetch_page(p, fetches.last().unwrap().id.owner) {
            return;
        }
        // Group per writer, preserving order.
        let mut per_owner: Vec<(ProcId, Vec<IntervalId>)> = Vec::new();
        for f in &fetches {
            match per_owner.iter_mut().find(|(o, _)| *o == f.id.owner) {
                Some((_, ids)) => ids.push(f.id),
                None => per_owner.push((f.id.owner, vec![f.id])),
            }
        }
        self.node.lock().stats.diff_requests += per_owner.len() as u64;
        if self.tracing() {
            for (owner, _) in &per_owner {
                self.trace(EventKind::DiffRequest {
                    page: p as u64,
                    to: *owner,
                });
            }
        }
        let reqs = per_owner
            .into_iter()
            .map(|(owner, intervals)| (owner, Req::DiffReq { page: p, intervals }));
        let mut items = Vec::new();
        for resp in self.call_all(reqs, Phase::DataWait, p as u64) {
            match resp {
                Resp::DiffResp { items: it } => items.extend(it),
                other => panic!("DiffReq got unexpected reply {other:?}"),
            }
        }
        items.sort_by_key(|(id, lam, _)| (*lam, id.owner, id.seq));
        let mut n = self.node.lock();
        for (_, _, diff) in &items {
            n.mem.apply_diff(p, diff.as_ref());
            n.stats.diffs_applied += 1;
        }
        n.mem.validate(p);
        drop(n);
        if self.tracing() {
            for (_, _, diff) in &items {
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

    fn ensure_readable(&self, p: PageId) {
        loop {
            let n = self.node.lock();
            self.vopp_check(&n, p, false);
            match n.mem.state(p) {
                PageState::Valid | PageState::Dirty => return,
                PageState::Invalid => {
                    drop(n);
                    self.fault(p, false);
                }
            }
        }
    }

    fn ensure_writable(&self, p: PageId) {
        loop {
            let mut n = self.node.lock();
            self.vopp_check(&n, p, true);
            match n.mem.state(p) {
                PageState::Dirty => return,
                PageState::Valid => {
                    n.mem.note_write(p);
                    let me = n.me;
                    n.note_page_writer(p, me);
                    n.stats.twins += 1;
                    self.debt.add_overhead(self.cost.twin);
                    return;
                }
                PageState::Invalid => {
                    drop(n);
                    self.fault(p, true);
                }
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
            match write {
                true => self.ensure_writable(p),
                false => self.ensure_readable(p),
            }
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
