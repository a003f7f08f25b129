//! The VC family: VC_d, VC_sd and VC_rdma (docs/PROTOCOLS.md), plus the
//! view round trip that ScC's scoped locks also use. Consistency is per
//! view, at `acquire_view`; barriers only synchronize (paper §3.2). The
//! members differ only in how view data travels ([`ViewData`]): notices,
//! integrated diffs inline, or the same diffs by one-sided write.
//!
//! Under a VC protocol the context *enforces* the VOPP discipline: shared
//! memory is read only inside a held view and written only inside the held
//! write view, write views do not nest, and a release has dirtied only its
//! view's pages. Violations panic: they are programming errors. With a
//! race checker attached, access violations are recorded instead (one
//! classifier, `NodeState::discipline`, serves both) and the offending
//! writes are reverted before the protocol sees them.

use std::cell::RefMut;
use std::ops::Range;
use std::sync::Arc;

use vopp_metrics::Phase;
use vopp_page::{pages_spanned, Addr, Diff, IntervalId, PageId, PageState, PAGE_SIZE};
use vopp_racecheck::DisciplineRule;
use vopp_sim::{DeliveryClass, EventKind, Packet, Payload, ProcId};
use vopp_simnet::HEADER_BYTES;

use super::ViewData;
use crate::api::DsmCtx;
use crate::layout::{Layout, ViewId};
use crate::msg::{AccessMode, Req, Resp, ViewRecord};
use crate::node::{AppState, NodeState, PageDiffs};

/// One of VC_rdma's preposted one-sided buffers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Buffer {
    /// An acquirer's buffer for the grant data of a view.
    Grant(ViewId),
    /// A view home's buffer for the release diffs of a view.
    Release(ViewId),
}

impl Buffer {
    /// The buffer's mailbox tag. Bit 62 keeps the RDMA tag space disjoint
    /// from RPC reply tags (bit 63); bit 40 separates release data from
    /// grant data.
    fn tag(self) -> u64 {
        match self {
            Buffer::Grant(v) => (1 << 62) | v as u64,
            Buffer::Release(v) => (1 << 62) | (1 << 40) | v as u64,
        }
    }
}

/// The send half of VC_rdma's transport: deposit `diffs` in the peer's
/// `buf` with one RDMA write through `send` (an application's or a
/// handler's), issued ahead of the control message that announces it so
/// link FIFO lands the data first. Sends nothing for no diffs. Returns the
/// bytes written: each page's id and diff, plus the transport header.
pub(crate) fn rdma_write(
    buf: Buffer,
    diffs: Vec<(PageId, Diff)>,
    send: impl FnOnce(usize, DeliveryClass, u64, Payload),
) -> u64 {
    if diffs.is_empty() {
        return 0;
    }
    let wire = HEADER_BYTES + diffs.iter().map(|(_, d)| 4 + d.wire_bytes()).sum::<usize>();
    send(wire, DeliveryClass::OneSided, buf.tag(), Arc::new(diffs));
    wire as u64
}

/// The receive half: take the deposit in `buf` through `take` (an
/// application's poll or a handler's take, of the peer's one-sided
/// writes). Called after the control message that followed the write, so
/// `None` means nothing was sent, never that the data is still in flight.
pub(crate) fn rdma_read(
    buf: Buffer,
    take: impl FnOnce(u64) -> Option<Packet>,
) -> Option<Vec<(PageId, Diff)>> {
    take(buf.tag()).map(Packet::expect)
}

/// A view home's grant, with any one-sided data already collected.
pub(crate) struct Grant {
    /// Release records the requester missed: notices to fault on.
    pub(crate) records: Vec<Arc<ViewRecord>>,
    /// One integrated diff per stale page.
    pub(crate) diffs: Vec<(PageId, Diff)>,
    /// The view's (or scope's) current version.
    pub(crate) version: u32,
    /// The home's happens-before scalar.
    pub(crate) lamport: u64,
}

impl NodeState {
    /// Absorb a view grant: invalidate the pages of its notices (diffs are
    /// fetched on fault) and apply its integrated diffs now.
    fn absorb_view_grant(&mut self, g: &Grant) {
        self.lamport_sync(g.lamport);
        for r in &g.records {
            // In steady state the home never echoes this node's own
            // releases (it filters on `have`). After a crash this node
            // re-acquires with `have == 0` and the full history — its own
            // records included — comes back; the diffs for those records
            // are then served out of this node's own durable diff store
            // like anyone else's.
            self.invalidate(r.id, r.lamport, &r.pages);
        }
        for (page, diff) in &g.diffs {
            debug_assert_ne!(self.mem.state(*page), PageState::Dirty);
            self.mem.apply_diff(*page, diff);
            self.mem.validate(*page);
            self.stats.diffs_applied += 1;
        }
    }

    /// Crash this node's volatile protocol state, leaving its durable state
    /// intact. Lost: every local page copy of every view (content restarts
    /// from the zero page) and all pending invalidations; the application
    /// side forgets its view versions ([`DsmCtx::crash_recover`]). Kept:
    /// the node's own interval log and diff store — the write-ahead log its
    /// released intervals were persisted to, which peers (and this node
    /// itself, on re-fetch) read diffs from — plus the lamport clock and
    /// any manager roles homed here, which the model treats as replicated
    /// directory state.
    ///
    /// Only legal between requests: no dirty pages, no held views. Returns
    /// the number of materialized page buffers lost.
    pub fn crash_volatile(&mut self) -> u64 {
        let mut dropped = 0u64;
        let layout = self.layout.clone();
        for def in layout.views() {
            for page in def.pages.clone() {
                // Invalidations queued for these pages refer to content the
                // crash just destroyed; the `have == 0` re-acquire restores
                // everything, so stale fetch plans must not survive.
                self.pending[page].clear();
                if self.mem.crash_page(page) {
                    dropped += 1;
                }
            }
        }
        dropped
    }
}

impl AppState {
    /// Whether this node holds view `v` for writing, and for reading.
    fn holds(&self, v: ViewId) -> (bool, bool) {
        (self.held_write == Some(v), self.held_read.contains_key(&v))
    }

    /// The VOPP-discipline classifier: the rule an access to page `p` of
    /// `layout` breaks, with the view owning the page, or `None` when a
    /// held view brackets it (the write view, or for a read, a read view).
    fn discipline(
        &self,
        layout: &Layout,
        p: PageId,
        write: bool,
    ) -> Option<(DisciplineRule, Option<ViewId>)> {
        let Some(v) = layout.view_of_page(p) else {
            return Some((DisciplineRule::OutsideViews, None));
        };
        let (held_w, held_r) = self.holds(v);
        if held_w || (held_r && !write) {
            return None;
        }
        let rule = if held_r {
            DisciplineRule::ReadOnlyWrite
        } else if self.held_write.is_none() && self.held_read.is_empty() {
            DisciplineRule::Unbracketed
        } else {
            DisciplineRule::ForeignView
        };
        Some((rule, Some(v)))
    }
}

impl DsmCtx<'_> {
    /// The version of `obj` — a view, or under ScC a lock's scope — whose
    /// content this node reflects.
    fn applied_version(&self, obj: u32) -> RefMut<'_, u32> {
        RefMut::map(self.app.borrow_mut(), |app| {
            match self.protocol.scoped_locks() {
                true => app.lock_applied.entry(obj).or_insert(0),
                false => &mut app.view_applied[obj as usize],
            }
        })
    }

    /// Note that this node reflects `version` of `obj`.
    fn note_version(&self, obj: u32, version: u32) {
        let mut have = self.applied_version(obj);
        *have = (*have).max(version);
    }

    /// The acquire half of the view round trip, for a view or a ScC lock's
    /// scope: ask `obj`'s home for what changed since the version this node
    /// reflects, collect any one-sided data the home wrote ahead of its
    /// grant, and note the grant's version.
    pub(crate) fn view_grant(&self, home: ProcId, obj: u32, mode: AccessMode) -> Grant {
        let have = *self.applied_version(obj);
        let one_sided = self.protocol.view_data() == ViewData::OneSided;
        if one_sided {
            // Drop stale one-sided grant data left from a previous tenure
            // of this view (a duplicate grant whose data landed after we
            // moved on). Link FIFO guarantees any such straggler has landed
            // by now: the release ack that ended the previous tenure
            // travelled the same home→here link behind it.
            self.purge_grant_data(home, obj);
        }
        let req = Req::ViewAcquire {
            view: obj,
            mode,
            have,
        };
        let Resp::ViewGrant {
            records,
            mut diffs,
            version,
            lamport,
        } = self.call(home, req, Phase::AcquireWait, obj as u64)
        else {
            panic!("view acquire got an unexpected reply")
        };
        if one_sided {
            debug_assert!(diffs.is_empty(), "VC_rdma grants carry no inline diffs");
            let poll = |tag| self.sim.poll_one_sided(home, tag);
            diffs = rdma_read(Buffer::Grant(obj), poll).unwrap_or_default();
            // A retransmitted acquire can leave a byte-identical duplicate
            // deposit behind the one just consumed.
            self.purge_grant_data(home, obj);
        }
        self.note_version(obj, version);
        Grant {
            records,
            diffs,
            version,
            lamport,
        }
    }

    /// Discard every one-sided grant deposit of view `v` from `home`.
    fn purge_grant_data(&self, home: ProcId, v: ViewId) {
        self.sim.purge_one_sided(home, Buffer::Grant(v).tag());
    }

    /// The release half of the view round trip. A write release publishes
    /// the interval `sealed` (if anything was written) as the next release
    /// of `obj` at its home and notes the version the home assigned. The
    /// diffs travel as this protocol's view data does; notices leave them in
    /// the releaser's diff store.
    pub(crate) fn release_to_view_home(
        &self,
        home: ProcId,
        obj: u32,
        mode: AccessMode,
        sealed: Option<(IntervalId, u64, PageDiffs)>,
    ) {
        let (interval, lamport, pages, diffs): (_, _, Vec<PageId>, _) = match sealed {
            Some((id, lamport, diffs)) => {
                let pages = diffs.iter().map(|(p, _)| *p).collect();
                (Some(id), lamport, pages, diffs)
            }
            // The read-release handler ignores the scalar, so a read
            // release does not lock the node to read one.
            None if mode == AccessMode::Read => (None, 0, Vec::new(), Vec::new()),
            None => (None, self.node().lamport, Vec::new(), Vec::new()),
        };
        let diffs = match self.protocol.view_data() {
            ViewData::Notices => Vec::new(),
            ViewData::Inline => diffs,
            ViewData::OneSided => {
                // Only the control message is ever retransmitted, so the
                // home's take on first processing cannot miss the deposit.
                let send = |w, c, t, p| self.sim.send(home, w, c, t, p);
                rdma_write(Buffer::Release(obj), diffs, send);
                Vec::new()
            }
        };
        let req = Req::ViewRelease {
            view: obj,
            mode,
            interval,
            lamport,
            pages,
            diffs,
        };
        match self.call(home, req, Phase::SendWait, obj as u64) {
            Resp::ReleaseAck { version } => self.note_version(obj, version),
            Resp::Ack if mode == AccessMode::Read => {}
            other => panic!("view release got unexpected reply {other:?}"),
        }
    }

    /// `acquire_view` (paper §2): gain exclusive access to view `v` and make
    /// its content consistent. Not nestable.
    pub fn acquire_view(&self, v: ViewId) {
        self.acquire_view_mode(v, AccessMode::Write);
    }

    /// `acquire_Rview` (paper §2, §3.4): gain shared read access. Nestable;
    /// concurrent readers are granted simultaneously.
    pub fn acquire_rview(&self, v: ViewId) {
        // Nested re-acquisition of an already-held read view is local.
        if let Some(c) = self.app.borrow_mut().held_read.get_mut(&v) {
            *c += 1;
            return;
        }
        self.acquire_view_mode(v, AccessMode::Read);
    }

    fn acquire_view_mode(&self, v: ViewId, mode: AccessMode) {
        assert!(
            self.protocol.is_vc(),
            "views require a VC protocol; traditional programs use locks/barriers"
        );
        {
            let app = self.app.borrow();
            if mode == AccessMode::Write {
                assert!(
                    app.held_write.is_none(),
                    "proc {}: acquire_view({v}) while holding view {:?} — \
                     acquire_view cannot be nested (paper §2)",
                    self.me(),
                    app.held_write
                );
            }
            assert!(
                !(mode == AccessMode::Write && app.held_read.contains_key(&v)),
                "proc {}: acquire_view({v}) while holding it as a read view",
                self.me()
            );
        }
        // Until the acquire RPC this reads only `AppState` and the layout,
        // so the span (and an idle wait's before it) ends when the kernel
        // sends the request, and the node wakes once, at the grant.
        self.defer_flush();
        let t0 = self.sim.now();
        self.trace(EventKind::AcquireStart {
            view: v as u64,
            write: mode == AccessMode::Write,
        });
        let home = self.layout.view_home(v, self.nprocs());
        // `view_grant` times the wait from now, which is still `t0`.
        let g = self.view_grant(home, v, mode);
        let grant_bytes: u64 = g
            .diffs
            .iter()
            .map(|(_, d)| d.wire_bytes() as u64)
            .sum::<u64>()
            + g.records.iter().map(|r| r.wire_bytes() as u64).sum::<u64>();
        let fresh: Vec<(ProcId, u64, u64)> = if self.tracing() {
            g.records
                .iter()
                .map(|r| (r.id.owner, r.id.seq as u64, r.pages.len() as u64))
                .collect()
        } else {
            Vec::new()
        };
        match mode {
            AccessMode::Write => self.app.borrow_mut().held_write = Some(v),
            AccessMode::Read => {
                self.app.borrow_mut().held_read.insert(v, 1);
            }
        }
        let mut n = self.node();
        n.absorb_view_grant(&g);
        n.stats.acquires += 1;
        n.stats.acquire_wait_ns += (self.sim.now() - t0).nanos();
        drop(n);
        // One-sided data arrived by RDMA write into the preposted buffer —
        // nothing for the acquirer's CPU to apply, so no diff-apply charge.
        // The other VC protocols pay software diff application per stale
        // page.
        let napplied = g.diffs.len() as u64;
        if napplied > 0 && self.protocol.view_data() != ViewData::OneSided {
            self.cpu
                .add_overhead_diff(self.cpu.cost.diff_apply * napplied);
        }
        self.emit_notices(fresh, v as u64 + 1);
        if self.tracing() {
            for (p, d) in &g.diffs {
                self.trace(EventKind::DiffApply {
                    page: *p as u64,
                    bytes: d.wire_bytes() as u64,
                });
            }
        }
        self.trace(EventKind::AcquireEnd {
            view: v as u64,
            write: mode == AccessMode::Write,
            version: g.version as u64,
            bytes: grant_bytes,
        });
    }

    /// `release_view` (paper §2): publish this view's modifications and give
    /// up exclusive access.
    pub fn release_view(&self, v: ViewId) {
        assert!(self.protocol.is_vc());
        self.flush();
        assert_eq!(
            self.app.borrow().held_write,
            Some(v),
            "proc {}: release_view({v}) without holding it",
            self.me()
        );
        // VOPP discipline: everything dirtied belongs to the view. With a
        // checker attached the violation was already reported at access
        // time; foreign writes are reverted instead, so only the view's own
        // modifications are published.
        self.rc_discard_undisciplined();
        if self.rc.is_none() {
            for p in self.node().mem.dirty_pages() {
                assert!(
                    self.layout.view(v).pages.contains(&p),
                    "proc {}: modified page {p} (view {:?}) while holding view {v} — \
                     VOPP programs modify only the acquired view (paper §2)",
                    self.me(),
                    self.layout.view_of_page(p)
                );
            }
        }
        self.app.borrow_mut().held_write = None;
        let home = self.layout.view_home(v, self.nprocs());
        let sealed = self.close_interval();
        self.release_to_view_home(home, v, AccessMode::Write, sealed);
        self.trace(EventKind::ReleaseDone {
            view: v as u64,
            write: true,
        });
    }

    /// `release_Rview` (paper §2).
    pub fn release_rview(&self, v: ViewId) {
        assert!(self.protocol.is_vc());
        {
            let mut app = self.app.borrow_mut();
            let c = app
                .held_read
                .get_mut(&v)
                .unwrap_or_else(|| panic!("release_rview({v}) without holding it"));
            *c -= 1;
            if *c > 0 {
                return; // nested release: local
            }
            app.held_read.remove(&v);
        }
        // Writes made while only this read view was held were reported as
        // violations; revert them before the protocol closes any interval.
        self.rc_discard_undisciplined();
        self.flush();
        let home = self.layout.view_home(v, self.nprocs());
        self.release_to_view_home(home, v, AccessMode::Read, None);
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
            let (held_w, held_r) = self.app.borrow().holds(v);
            if !(held_w || held_r) {
                self.acquire_rview(v);
                self.release_rview(v);
            }
        }
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
        {
            let mut app = self.app.borrow_mut();
            assert!(
                app.held_write.is_none() && app.held_read.is_empty(),
                "node {} crashed while holding a view",
                self.me()
            );
            // The next acquire of every view pulls its full history.
            app.view_applied.fill(0);
        }
        let dropped = self.node().crash_volatile();
        self.trace(EventKind::NodeCrash { pages: dropped });
        dropped
    }

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
    /// `crates/dsm/tests/auto_views.rs` asserts the extra acquires,
    /// messages and virtual time.
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
    pub(crate) fn auto_acquire(
        &self,
        addr: Addr,
        len: usize,
        write: bool,
    ) -> Option<(ViewId, AccessMode)> {
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
        let (held_w, held_r) = self.app.borrow().holds(v);
        if held_w || (held_r && !write) {
            return None;
        }
        assert!(
            !held_r,
            "auto views: write access to view {v} held read-only"
        );
        let mode = if write {
            AccessMode::Write
        } else {
            AccessMode::Read
        };
        self.acquire_view_mode(v, mode);
        Some((v, mode))
    }

    pub(crate) fn auto_release(&self, held: Option<(ViewId, AccessMode)>) {
        match held {
            Some((v, AccessMode::Write)) => self.release_view(v),
            Some((v, AccessMode::Read)) => self.release_rview(v),
            None => {}
        }
    }

    /// Check an access to page `p` (part of the access `span`) against the
    /// VOPP discipline. A broken rule is recorded with the attached
    /// checker, and traced the first time; with no checker attached it is a
    /// programming error.
    pub(crate) fn check_discipline(&self, p: PageId, span: Range<Addr>, write: bool) {
        let Some((rule, view)) = self.app.borrow().discipline(&self.layout, p, write) else {
            return;
        };
        let me = self.me();
        let Some(rc) = &self.rc else {
            match view {
                None => panic!(
                    "proc {}: access to shared page {p} outside any view — \
                     VOPP programs put all shared data in views",
                    me
                ),
                Some(v) => panic!(
                    "proc {}: {} page {p} of view {v} without {} it (held_write={:?}) — \
                     view primitives must bracket every access (paper §2)",
                    me,
                    if write { "write to" } else { "read of" },
                    if write {
                        "acquire_view-ing"
                    } else {
                        "acquiring"
                    },
                    self.app.borrow().held_write
                ),
            }
        };
        let ps = p * PAGE_SIZE;
        let (start, end) = (span.start.max(ps), span.end.min(ps + PAGE_SIZE));
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
