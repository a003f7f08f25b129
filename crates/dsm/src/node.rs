//! Per-node DSM protocol state.
//!
//! One [`NodeState`] exists per simulated processor, shared (via
//! `Arc<Mutex<..>>`) between the node's application thread and its service
//! handler. It holds the node's memory copy, its consistency knowledge
//! (interval records, vector times, pending invalidations, diff store) and
//! any manager roles homed on this node.

use std::collections::BTreeMap;
use std::sync::Arc;

use vopp_page::{Diff, IntervalId, IntervalRecord, NodeMemory, PageId, PageState, VTime};
use vopp_sim::ProcId;

use crate::cost::CostModel;
use crate::homes::{BarrierHome, LockHome, ViewHome};
use crate::layout::{Layout, ViewId};
use crate::stats::NodeStats;

/// Which DSM implementation a run uses: the paper's three systems plus
/// three extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Diff-based Lazy Release Consistency: the TreadMarks protocol.
    /// Traditional lock/barrier programs; barriers maintain consistency.
    LrcD,
    /// Diff-based View-based Consistency: same implementation techniques
    /// (twins, diffs, invalidate, fault-time diff requests) but consistency
    /// is view-scoped; barriers only synchronize.
    VcD,
    /// View-based Consistency with the integrated-diff update protocol:
    /// a single merged diff per page, piggy-backed on the view grant.
    VcSd,
    /// `VC_sd` retargeted at an RDMA-capable fabric: view data moves by
    /// one-sided writes into preposted per-node buffers (no request/reply
    /// round trip, no remote CPU on the data path), and release diffs are
    /// written to the home and applied there asynchronously — off the
    /// acquirer's critical path. Identical consistency semantics to
    /// [`Protocol::VcSd`]; only the transport and the CPU accounting of
    /// diff application differ.
    VcRdma,
    /// Home-based Lazy Release Consistency (extension; the authors'
    /// companion work on homeless vs. home-based protocols): every page has
    /// a home node to which diffs are flushed eagerly at interval end;
    /// faults fetch the whole up-to-date page from the home with a single
    /// round trip.
    Hlrc,
    /// Scope Consistency (related work, paper §4): lock acquires receive
    /// only the updates made under that lock's *scope* (dynamically — the
    /// pages dirtied in intervals closed by its releases); barriers merge
    /// all scopes globally, exactly like an LRC barrier. Weaker than LRC:
    /// updates made under a different lock are not visible until a barrier.
    ScC,
}

impl Protocol {
    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::LrcD => "LRC_d",
            Protocol::VcD => "VC_d",
            Protocol::VcSd => "VC_sd",
            Protocol::VcRdma => "VC_rdma",
            Protocol::Hlrc => "HLRC_d",
            Protocol::ScC => "ScC_d",
        }
    }

    /// True for the VOPP protocols.
    pub fn is_vc(self) -> bool {
        matches!(self, Protocol::VcD | Protocol::VcSd | Protocol::VcRdma)
    }

    /// True for the traditional lock/barrier protocols (homeless or
    /// home-based LRC, and Scope Consistency).
    pub fn is_lrc_family(self) -> bool {
        matches!(self, Protocol::LrcD | Protocol::Hlrc | Protocol::ScC)
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The diffs of one sealed interval in page order, shared by `Arc` with the
/// creator's diff store.
pub(crate) type PageDiffs = Vec<(PageId, Arc<Diff>)>;

/// A diff retained by its creator, served on [`crate::msg::Req::DiffReq`].
/// The diff is immutable once stored and shared by `Arc` with every reply
/// that serves it, instead of deep-copied per request.
#[derive(Debug, Clone)]
pub struct StoredDiff {
    /// Interval the diff belongs to.
    pub id: IntervalId,
    /// Happens-before scalar for application ordering.
    pub lamport: u64,
    /// The modifications themselves.
    pub diff: Arc<Diff>,
}

/// An invalidation waiting to be resolved by a fault-time diff fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingFetch {
    /// Interval whose diff must be fetched from its owner.
    pub id: IntervalId,
    /// Happens-before scalar for application ordering.
    pub lamport: u64,
}

/// All protocol state of one node.
pub struct NodeState {
    /// This node's processor id.
    pub me: ProcId,
    /// Cluster size.
    pub n: usize,
    /// The DSM implementation in use.
    pub protocol: Protocol,
    /// CPU cost model.
    pub cost: CostModel,
    /// The shared-memory layout (identical on all nodes).
    pub layout: Arc<Layout>,
    /// The node's copy of shared memory.
    pub mem: NodeMemory,

    // ---- interval / knowledge tracking (LRC, also ids for VC) ----
    /// Every interval record this node possesses, keyed `(owner, seq)`.
    /// Per-owner prefix-closed. Records are immutable once logged and shared
    /// by `Arc` across the log, grants and releases.
    pub logged: BTreeMap<(ProcId, u32), Arc<IntervalRecord>>,
    /// Per-owner count of records possessed.
    pub logged_vt: VTime,
    /// Per-owner count of intervals whose effects are enforced on `mem`
    /// (invalidations issued). Always dominated by `logged_vt`.
    pub applied_vt: VTime,
    /// Scalar happens-before clock, orders diff application.
    pub lamport: u64,
    /// Lower bound of each home's `logged_vt`, to size release deltas.
    pub home_sent_vt: BTreeMap<ProcId, VTime>,
    /// Per-page invalidations awaiting a fault-time fetch.
    pub pending: BTreeMap<PageId, Vec<PendingFetch>>,
    /// Per-page bitmask of every writer this node has ever learned of
    /// (logged interval records plus its own writes). Monotone knowledge:
    /// gates the whole-page fetch escape hatch, which is only sound when
    /// the page's entire write history has a single owner — the pending
    /// list alone can miss concurrent writers on false-shared pages.
    pub page_writers: Vec<u64>,
    /// Diffs created locally, served to faulting peers.
    pub diff_store: BTreeMap<PageId, Vec<StoredDiff>>,

    // ---- VOPP state ----
    /// Per view: latest version whose content is reflected locally.
    pub view_applied: Vec<u32>,
    /// The exclusively-held view, if any (non-nestable, paper §2).
    pub held_write: Option<ViewId>,
    /// Read-held views with nesting counts (nestable, paper §2).
    pub held_read: BTreeMap<ViewId, u32>,

    // ---- Scope Consistency state ----
    /// Per lock: the latest scope version whose updates are enforced.
    pub lock_applied: BTreeMap<u32, u32>,
    /// Intervals already enforced through a scoped grant (so the global
    /// merge at barriers does not re-invalidate their pages).
    pub scoped_applied: std::collections::BTreeSet<IntervalId>,

    // ---- statistics ----
    /// Counters for the paper's table rows.
    pub stats: NodeStats,

    // ---- manager roles homed here ----
    /// Locks managed by this node.
    pub locks: BTreeMap<u32, LockHome>,
    /// Barrier-manager state (active on node 0).
    pub barrier: BarrierHome,
    /// Views managed by this node.
    pub views: BTreeMap<ViewId, ViewHome>,
}

impl NodeState {
    /// Fresh state for processor `me` of `n`. `pool_cap` bounds the node's
    /// page-recycling free list (see [`ClusterConfig::page_pool_cap`]).
    ///
    /// [`ClusterConfig::page_pool_cap`]: crate::runtime::ClusterConfig::page_pool_cap
    pub fn new(
        me: ProcId,
        n: usize,
        protocol: Protocol,
        cost: CostModel,
        layout: Arc<Layout>,
        pool_cap: usize,
    ) -> NodeState {
        NodeState {
            me,
            n,
            protocol,
            cost,
            mem: NodeMemory::with_pool_capacity(layout.npages(), pool_cap),
            logged: BTreeMap::new(),
            logged_vt: VTime::zero(n),
            applied_vt: VTime::zero(n),
            lamport: 0,
            home_sent_vt: BTreeMap::new(),
            pending: BTreeMap::new(),
            page_writers: vec![0; layout.npages()],
            diff_store: BTreeMap::new(),
            view_applied: vec![0; layout.nviews()],
            held_write: None,
            held_read: BTreeMap::new(),
            lock_applied: BTreeMap::new(),
            scoped_applied: std::collections::BTreeSet::new(),
            stats: NodeStats::default(),
            locks: BTreeMap::new(),
            barrier: BarrierHome::default(),
            views: BTreeMap::new(),
            layout,
        }
    }

    /// The node managing view `v`: its declared home (normally the primary
    /// writer) or round-robin — either way consistency maintenance is
    /// distributed across nodes, which the paper credits for VC's barrier
    /// advantage.
    pub fn view_home(&self, v: ViewId) -> ProcId {
        match self.layout.view(v).home {
            Some(h) => h % self.n,
            None => v as usize % self.n,
        }
    }

    /// The node managing lock `l`.
    pub fn lock_home(&self, l: u32) -> ProcId {
        l as usize % self.n
    }

    /// The home of page `p` under HLRC (round-robin assignment).
    pub fn page_home(&self, p: PageId) -> ProcId {
        p % self.n
    }

    /// Seal the current write interval: extract the diff of every dirty
    /// page, stamp the interval with this node's next sequence number and
    /// lamport time, and retain the diffs for serving. Under the traditional
    /// protocols the interval's record also enters the LRC log; a view
    /// release keeps its history at the view home instead, so it builds no
    /// record. Returns the interval id and its diffs in page order (shared
    /// with the diff store, not copied), or `None` if nothing was written.
    pub(crate) fn seal_interval(&mut self) -> Option<(IntervalId, PageDiffs)> {
        let diffs: PageDiffs = self
            .mem
            .end_interval()
            .into_iter()
            .map(|(p, d)| (p, Arc::new(d)))
            .collect();
        if diffs.is_empty() {
            return None;
        }
        let seq = self.logged_vt.bump(self.me);
        self.applied_vt.set(self.me, seq);
        self.lamport += 1;
        let id = IntervalId {
            owner: self.me,
            seq,
        };
        for (p, diff) in &diffs {
            self.diff_store.entry(*p).or_default().push(StoredDiff {
                id,
                lamport: self.lamport,
                diff: Arc::clone(diff),
            });
        }
        self.stats.diffs_created += diffs.len() as u64;
        if self.protocol.is_lrc_family() {
            let rec = IntervalRecord {
                id,
                vt: self.logged_vt.clone(),
                lamport: self.lamport,
                pages: diffs.iter().map(|(p, _)| *p).collect(),
            };
            self.logged.insert((self.me, seq), Arc::new(rec));
        }
        Some((id, diffs))
    }

    /// Records this node possesses that `vt` does not cover. The returned
    /// records are `Arc`-shared with the log (no deep copies).
    pub fn delta_since(&self, vt: &VTime) -> Vec<Arc<IntervalRecord>> {
        let mut out = Vec::new();
        for owner in 0..self.n {
            let have = if vt.is_empty() { 0 } else { vt.get(owner) };
            let lo = (owner, have + 1);
            let hi = (owner, u32::MAX);
            for rec in self.logged.range(lo..=hi).map(|(_, r)| r) {
                out.push(Arc::clone(rec));
            }
        }
        out
    }

    /// Records of this node's own intervals (and anything else new) that the
    /// given home has not yet been sent. Advances the sent-estimate.
    pub fn delta_for_home(&mut self, home: ProcId) -> Vec<Arc<IntervalRecord>> {
        let sent = self
            .home_sent_vt
            .entry(home)
            .or_insert_with(|| VTime::zero(self.n))
            .clone();
        let delta = self.delta_since(&sent);
        let lv = self.logged_vt.clone();
        self.home_sent_vt.insert(home, lv);
        delta
    }

    /// Note that `home` proved knowledge of everything under `vt` (it sent a
    /// grant with that vector time).
    pub fn note_home_knows(&mut self, home: ProcId, vt: &VTime) {
        if vt.is_empty() {
            return;
        }
        self.home_sent_vt
            .entry(home)
            .or_insert_with(|| VTime::zero(self.n))
            .join_from(vt);
    }

    /// Merge received interval records into the passive log (no effect on
    /// memory until this node's own next acquire applies them).
    pub fn merge_logged(&mut self, records: &[Arc<IntervalRecord>]) {
        for r in records {
            let key = (r.id.owner, r.id.seq);
            let seq = r.id.seq;
            self.logged.entry(key).or_insert_with(|| Arc::clone(r));
            if self.logged_vt.get(r.id.owner) < seq {
                self.logged_vt.set(r.id.owner, seq);
            }
            for &page in &r.pages {
                self.note_page_writer(page, r.id.owner);
            }
        }
    }

    /// Record that `owner` has written `page` at some point.
    pub fn note_page_writer(&mut self, page: PageId, owner: ProcId) {
        self.page_writers[page] |= match u32::try_from(owner) {
            Ok(o) if o < 64 => 1 << o,
            // Beyond the bitmask width: pessimize to "many writers", which
            // only disables an optimization.
            _ => u64::MAX,
        };
    }

    /// Whether `owner` is the only writer ever known for `page` — the
    /// soundness condition of the LRC whole-page fetch escape hatch.
    pub fn page_sole_writer(&self, page: PageId, owner: ProcId) -> bool {
        matches!(u32::try_from(owner), Ok(o) if o < 64 && self.page_writers[page] == 1 << o)
    }

    /// Lamport receive rule.
    pub fn lamport_sync(&mut self, l: u64) {
        self.lamport = self.lamport.max(l) + 1;
    }

    /// LRC: absorb a lock grant / barrier release — log the records, then
    /// enforce consistency up to `vt` by invalidating every page written in
    /// intervals this node has not yet applied.
    pub fn absorb_lrc_grant(&mut self, records: &[Arc<IntervalRecord>], vt: &VTime, lamport: u64) {
        self.merge_logged(records);
        self.lamport_sync(lamport);
        if vt.is_empty() {
            return;
        }
        for owner in 0..self.n {
            if owner == self.me {
                continue;
            }
            let from = self.applied_vt.get(owner) + 1;
            let to = vt.get(owner);
            for seq in from..=to {
                let rec = self
                    .logged
                    .get(&(owner, seq))
                    .map(Arc::clone)
                    .unwrap_or_else(|| panic!("node {} missing record ({owner},{seq})", self.me));
                for &page in &rec.pages {
                    debug_assert_ne!(
                        self.mem.state(page),
                        PageState::Dirty,
                        "invalidation hit a live twin: interval not closed before sync"
                    );
                    if self.protocol == Protocol::Hlrc && self.page_home(page) == self.me {
                        // The home's copy is kept current by eager flushes;
                        // it is never invalidated on its own node.
                        continue;
                    }
                    if self.protocol == Protocol::ScC && self.scoped_applied.contains(&rec.id) {
                        // Already enforced through a scoped lock grant.
                        continue;
                    }
                    self.mem.invalidate(page);
                    self.pending.entry(page).or_default().push(PendingFetch {
                        id: rec.id,
                        lamport: rec.lamport,
                    });
                }
            }
        }
        self.applied_vt.join_from(vt);
    }

    /// VC: absorb a view grant.
    /// * `VC_d`: log view history records and invalidate their pages; diffs
    ///   are fetched on fault.
    /// * `VC_sd`: apply the piggy-backed integrated diffs immediately.
    pub fn vc_absorb_grant(
        &mut self,
        view: ViewId,
        records: &[Arc<crate::msg::ViewRecord>],
        diffs: &[(PageId, Arc<Diff>)],
        version: u32,
        lamport: u64,
    ) {
        self.lamport_sync(lamport);
        for r in records {
            // In steady state the home never echoes this node's own
            // releases (it filters on `have`). After a crash this node
            // re-acquires with `have == 0` and the full history — its own
            // records included — comes back; the diffs for those records
            // are then served out of this node's own durable diff store
            // like anyone else's.
            for &page in &r.pages {
                debug_assert_ne!(self.mem.state(page), PageState::Dirty);
                self.mem.invalidate(page);
                self.pending.entry(page).or_default().push(PendingFetch {
                    id: r.id,
                    lamport: r.lamport,
                });
            }
        }
        for (page, diff) in diffs {
            debug_assert_ne!(self.mem.state(*page), PageState::Dirty);
            self.mem.apply_diff(*page, diff);
            self.mem.validate(*page);
            self.stats.diffs_applied += 1;
        }
        let va = &mut self.view_applied[view as usize];
        *va = (*va).max(version);
    }

    /// Crash this node's volatile protocol state, leaving its durable state
    /// intact. Lost: every local page copy of every view (content restarts
    /// from the zero page), all pending invalidations, and all knowledge of
    /// view versions (`view_applied` back to 0, so the next acquire pulls
    /// the full history from the home). Kept: the node's own interval log
    /// and diff store — the write-ahead log its released intervals were
    /// persisted to, which peers (and this node itself, on re-fetch) read
    /// diffs from — plus the lamport clock and any manager roles homed
    /// here, which the model treats as replicated directory state.
    ///
    /// Only legal between requests: no dirty pages, no held views. Returns
    /// the number of materialized page buffers lost.
    pub fn crash_volatile(&mut self) -> u64 {
        assert!(
            self.held_write.is_none() && self.held_read.is_empty(),
            "node {} crashed while holding a view",
            self.me
        );
        let mut dropped = 0u64;
        let layout = self.layout.clone();
        for def in layout.views() {
            for page in def.pages.clone() {
                // Invalidations queued for these pages refer to content the
                // crash just destroyed; the `have == 0` re-acquire restores
                // everything, so stale fetch plans must not survive.
                self.pending.remove(&page);
                if self.mem.crash_page(page) {
                    dropped += 1;
                }
            }
            self.view_applied[def.id as usize] = 0;
        }
        dropped
    }

    /// Scope Consistency: absorb a scoped lock grant — invalidate the pages
    /// of each release record not yet enforced on this node.
    pub fn scc_absorb(&mut self, records: &[Arc<crate::msg::ViewRecord>], lamport: u64) {
        self.lamport_sync(lamport);
        for r in records {
            if r.id.owner == self.me || !self.scoped_applied.insert(r.id) {
                continue;
            }
            for &page in &r.pages {
                debug_assert_ne!(self.mem.state(page), PageState::Dirty);
                self.mem.invalidate(page);
                self.pending.entry(page).or_default().push(PendingFetch {
                    id: r.id,
                    lamport: r.lamport,
                });
            }
        }
    }

    /// Serve a diff request: look up the stored diffs of `page` for the
    /// requested intervals. Idempotent (pure read); the reply shares the
    /// stored diffs by `Arc` instead of copying them.
    pub fn serve_diffs(
        &self,
        page: PageId,
        intervals: &[IntervalId],
    ) -> Vec<(IntervalId, u64, Arc<Diff>)> {
        let Some(store) = self.diff_store.get(&page) else {
            panic!("node {} has no diffs for page {page}", self.me)
        };
        intervals
            .iter()
            .map(|id| {
                let sd = store
                    .iter()
                    .find(|sd| sd.id == *id)
                    .unwrap_or_else(|| panic!("node {} missing diff {id:?} page {page}", self.me));
                (sd.id, sd.lamport, Arc::clone(&sd.diff))
            })
            .collect()
    }

    /// Take (and clear) the pending fetches of a faulted page, deduplicated
    /// and in application order.
    pub fn take_pending(&mut self, page: PageId) -> Vec<PendingFetch> {
        let mut v = self.pending.remove(&page).unwrap_or_default();
        v.sort_by_key(|f| (f.lamport, f.id.owner, f.id.seq));
        v.dedup_by_key(|f| f.id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_as(me: ProcId, n: usize, protocol: Protocol) -> NodeState {
        let mut l = Layout::new();
        let _ = l.alloc(4 * vopp_page::PAGE_SIZE, 1);
        NodeState::new(me, n, protocol, CostModel::default(), l.freeze(), 128)
    }

    fn mk(me: ProcId, n: usize) -> NodeState {
        mk_as(me, n, Protocol::LrcD)
    }

    /// Seal `n`'s write interval and return the record it logged.
    fn seal(n: &mut NodeState) -> Arc<IntervalRecord> {
        let (id, _) = n.seal_interval().expect("a dirty page");
        Arc::clone(&n.logged[&(id.owner, id.seq)])
    }

    #[test]
    fn end_interval_logs_and_stores() {
        let mut a = mk(0, 2);
        a.mem.note_write(1);
        a.mem.page_mut(1).set_word(0, 5);
        let (id, diffs) = a.seal_interval().unwrap();
        assert_eq!(diffs.len(), 1);
        assert_eq!(id, IntervalId { owner: 0, seq: 1 });
        assert_eq!(a.logged[&(0, 1)].pages, vec![1]);
        assert_eq!(a.logged_vt.get(0), 1);
        assert_eq!(a.applied_vt.get(0), 1);
        assert!(a.diff_store.contains_key(&1));
        // Empty interval produces nothing.
        assert!(a.seal_interval().is_none());
        assert_eq!(a.logged_vt.get(0), 1);
    }

    #[test]
    fn view_release_seal_stores_diffs_but_logs_no_record() {
        let mut a = mk_as(0, 2, Protocol::VcSd);
        a.mem.note_write(2);
        a.mem.page_mut(2).set_word(0, 5);
        let (id, diffs) = a.seal_interval().unwrap();
        assert_eq!(id, IntervalId { owner: 0, seq: 1 });
        assert_eq!(diffs.iter().map(|(p, _)| *p).collect::<Vec<_>>(), [2]);
        assert!(a.logged.is_empty());
        assert_eq!(a.lamport, 1);
        assert!(a.diff_store.contains_key(&2));
    }

    #[test]
    fn grant_absorption_invalidates_and_pends() {
        let mut a = mk(0, 2);
        let mut b = mk(1, 2);
        b.mem.note_write(2);
        b.mem.page_mut(2).set_word(3, 9);
        let rec = seal(&mut b);

        a.absorb_lrc_grant(std::slice::from_ref(&rec), &rec.vt, rec.lamport);
        assert_eq!(a.mem.state(2), PageState::Invalid);
        assert_eq!(a.applied_vt.get(1), 1);
        let pend = a.take_pending(2);
        assert_eq!(pend.len(), 1);
        assert_eq!(pend[0].id, rec.id);
        // Fetch from b and apply.
        let items = b.serve_diffs(2, &[rec.id]);
        a.mem.apply_diff(2, items[0].2.as_ref());
        a.mem.validate(2);
        assert_eq!(a.mem.page(2).word(3), 9);
    }

    #[test]
    fn delta_for_home_is_incremental() {
        let mut a = mk(0, 2);
        a.mem.note_write(0);
        a.mem.page_mut(0).set_word(0, 1);
        seal(&mut a);
        let d1 = a.delta_for_home(1);
        assert_eq!(d1.len(), 1);
        let d2 = a.delta_for_home(1);
        assert!(d2.is_empty(), "same records must not be re-sent");
        a.mem.note_write(0);
        a.mem.page_mut(0).set_word(0, 2);
        seal(&mut a);
        let d3 = a.delta_for_home(1);
        assert_eq!(d3.len(), 1);
        assert_eq!(d3[0].id.seq, 2);
    }

    #[test]
    fn absorb_is_idempotent_per_interval() {
        let mut a = mk(0, 2);
        let mut b = mk(1, 2);
        b.mem.note_write(2);
        b.mem.page_mut(2).set_word(0, 1);
        let rec = seal(&mut b);
        a.absorb_lrc_grant(std::slice::from_ref(&rec), &rec.vt, rec.lamport);
        let first = a.take_pending(2);
        assert_eq!(first.len(), 1);
        // Duplicate grant: already-applied intervals add no pending work.
        a.absorb_lrc_grant(std::slice::from_ref(&rec), &rec.vt, rec.lamport);
        assert!(a.take_pending(2).is_empty());
    }

    #[test]
    fn pending_sorted_and_deduped() {
        let mut a = mk(0, 4);
        let f = |owner, seq, lam| PendingFetch {
            id: IntervalId { owner, seq },
            lamport: lam,
        };
        a.pending
            .entry(7)
            .or_default()
            .extend([f(2, 1, 10), f(1, 1, 3), f(2, 1, 10), f(3, 2, 7)]);
        let got = a.take_pending(7);
        assert_eq!(got, vec![f(1, 1, 3), f(3, 2, 7), f(2, 1, 10)]);
        assert!(a.take_pending(7).is_empty());
    }

    #[test]
    fn merge_logged_prefix_extends_vt() {
        let mut a = mk(0, 2);
        let rec = Arc::new(IntervalRecord {
            id: IntervalId { owner: 1, seq: 1 },
            vt: VTime::zero(2),
            lamport: 5,
            pages: vec![0],
        });
        a.merge_logged(std::slice::from_ref(&rec));
        assert_eq!(a.logged_vt.get(1), 1);
        a.merge_logged(&[rec]);
        assert_eq!(a.logged_vt.get(1), 1);
    }

    #[test]
    fn homes_assignment() {
        let mut l = Layout::new();
        let _ = l.add_view(8); // view 0: round-robin home
        let _ = l.add_view_homed(8, Some(3)); // view 1: explicit home
        let _ = l.add_view(8); // view 2
        let a = NodeState::new(0, 4, Protocol::VcSd, CostModel::default(), l.freeze(), 128);
        assert_eq!(a.view_home(0), 0);
        assert_eq!(a.view_home(1), 3);
        assert_eq!(a.view_home(2), 2);
        assert_eq!(a.lock_home(7), 3);
    }
}
