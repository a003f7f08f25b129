//! Per-node DSM protocol state.
//!
//! One [`NodeState`] exists per simulated processor, shared (via
//! `Arc<Mutex<..>>`) between the node's application thread and its service
//! handler. It holds the node's memory copy, its consistency knowledge
//! (interval records, vector times, pending invalidations, diff store) and
//! any manager roles homed on this node.

use std::collections::BTreeMap;
use std::sync::Arc;

use vopp_page::{
    Diff, IntervalId, IntervalRecord, NodeMemory, PageId, PageState, SharedPagePool, VTime,
};
use vopp_sim::sync::Mutex;
use vopp_sim::ProcId;

use crate::cost::CostModel;
use crate::homes::{BarrierHome, LockHome, ViewHome};
use crate::layout::{Layout, ViewId};
use crate::protocol::PageSource;
pub use crate::protocol::Protocol;
use crate::stats::NodeStats;

/// The diffs of one sealed interval in page order, sharing their buffers
/// with the creator's diff store.
pub(crate) type PageDiffs = Vec<(PageId, Diff)>;

/// A diff retained by its creator, served on [`crate::msg::Req::DiffReq`].
/// The diff is immutable once stored and shares its buffer with every reply
/// that serves it, instead of being deep-copied per request.
#[derive(Debug, Clone)]
pub struct StoredDiff {
    /// Interval the diff belongs to.
    pub id: IntervalId,
    /// Happens-before scalar for application ordering.
    pub lamport: u64,
    /// The modifications themselves.
    pub diff: Diff,
}

/// An invalidation waiting to be resolved by a fault-time diff fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingFetch {
    /// Interval whose diff must be fetched from its owner.
    pub id: IntervalId,
    /// Happens-before scalar for application ordering.
    pub lamport: u64,
}

/// Every LRC interval record of one cluster: `[owner][seq - 1]`. Each
/// owner appends its own records, in [`NodeState::seal_interval`]; a node
/// knows the prefix of each owner's log that its `logged_vt` covers — the
/// records it has been sent — and reads no further. Records are immutable
/// once logged and shared by `Arc` with every message that carries them.
pub type IntervalLog = Arc<Mutex<Vec<Vec<Arc<IntervalRecord>>>>>;

/// An empty [`IntervalLog`] for a cluster of `n` nodes.
pub fn interval_log(n: usize) -> IntervalLog {
    Arc::new(Mutex::new(vec![Vec::new(); n]))
}

/// [`NodeState::page_writers`] entry of a page nobody has written.
pub const NO_WRITER: u32 = u32::MAX;
/// [`NodeState::page_writers`] entry of a page with two or more writers.
pub const MANY_WRITERS: u32 = u32::MAX - 1;

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
    /// The cluster's interval log, shared by every node. It can hold
    /// records this node has not been sent; `logged_vt` bounds what the
    /// node may read of it.
    pub log: IntervalLog,
    /// Per-owner count of records possessed: this node knows
    /// `log[owner][..logged_vt[owner]]`. Per-owner prefix-closed — a node
    /// only ever receives the records above what the sender knows it has.
    pub logged_vt: VTime,
    /// Per-owner count of intervals whose effects are enforced on `mem`
    /// (invalidations issued). Always dominated by `logged_vt`.
    pub applied_vt: VTime,
    /// Scalar happens-before clock, orders diff application.
    pub lamport: u64,
    /// Lower bound of each home's `logged_vt`, to size release deltas.
    pub home_sent_vt: BTreeMap<ProcId, VTime>,
    /// Per page, the invalidations awaiting a fault-time fetch. Each list
    /// keeps its capacity when drained, so steady-state invalidation
    /// allocates nothing.
    pub pending: Vec<Vec<PendingFetch>>,
    /// Per page, every writer this node has ever learned of (logged
    /// interval records plus its own writes), exact at any cluster size:
    /// [`NO_WRITER`], one owner's id, or [`MANY_WRITERS`]. Monotone
    /// knowledge: gates the whole-page fetch escape hatch, which is only
    /// sound when the page's entire write history has a single owner — the
    /// pending list alone can miss concurrent writers on false-shared pages.
    pub page_writers: Vec<u32>,
    /// Diffs created locally, served to faulting peers: per page in
    /// ascending `seq` order, because they are pushed as intervals seal.
    /// Left empty on a one-node LRC-family cluster, where no peer can ever
    /// request one.
    pub diff_store: BTreeMap<PageId, Vec<StoredDiff>>,

    // ---- Scope Consistency state ----
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

/// The protocol state only the application thread touches: the views it
/// holds and the versions it reflects. It lives in [`crate::DsmCtx`], out
/// of every service handler's reach, so code that reads only this and the
/// layout may run while the node owes a span.
#[derive(Default)]
pub(crate) struct AppState {
    /// Per view: latest version whose content is reflected locally.
    pub(crate) view_applied: Vec<u32>,
    /// The exclusively-held view, if any (non-nestable, paper §2).
    pub(crate) held_write: Option<ViewId>,
    /// Read-held views with nesting counts (nestable, paper §2).
    pub(crate) held_read: BTreeMap<ViewId, u32>,
    /// ScC, per lock: the latest scope version whose updates are enforced.
    pub(crate) lock_applied: BTreeMap<u32, u32>,
}

impl NodeState {
    /// Fresh state for processor `me` of `n`, recycling page buffers
    /// through `pool` and logging intervals in `log` (both shared by every
    /// node of the cluster).
    pub fn new(
        me: ProcId,
        n: usize,
        protocol: Protocol,
        cost: CostModel,
        layout: Arc<Layout>,
        pool: SharedPagePool,
        log: IntervalLog,
    ) -> NodeState {
        assert!(
            n < MANY_WRITERS as usize,
            "{n} nodes overflow page-writer ids"
        );
        NodeState {
            me,
            n,
            protocol,
            cost,
            mem: NodeMemory::with_pool(layout.npages(), pool),
            log,
            logged_vt: VTime::zero(n),
            applied_vt: VTime::zero(n),
            lamport: 0,
            home_sent_vt: BTreeMap::new(),
            pending: vec![Vec::new(); layout.npages()],
            page_writers: vec![NO_WRITER; layout.npages()],
            diff_store: BTreeMap::new(),
            scoped_applied: std::collections::BTreeSet::new(),
            stats: NodeStats::default(),
            locks: BTreeMap::new(),
            barrier: BarrierHome::default(),
            views: BTreeMap::new(),
            layout,
        }
    }

    /// The node managing lock `l`.
    pub fn lock_home(&self, l: u32) -> ProcId {
        l as usize % self.n
    }

    /// Seal the current write interval: extract the diff of every dirty
    /// page, stamp the interval with this node's next sequence number and
    /// lamport time, and retain the diffs for serving. Under the traditional
    /// protocols the interval's record also enters the LRC log; a view
    /// release keeps its history at the view home instead, so it builds no
    /// record. Returns the interval id and its diffs in page order (shared
    /// with the diff store, not copied), or `None` if nothing was written.
    pub fn seal_interval(&mut self) -> Option<(IntervalId, PageDiffs)> {
        let diffs: PageDiffs = self.mem.end_interval();
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
        // A lone LRC-family node has no peer to serve. VC protocols keep
        // theirs: a crashed node re-fetches its own diffs from it.
        if self.n > 1 || !self.protocol.is_lrc_family() {
            for (p, diff) in &diffs {
                self.diff_store.entry(*p).or_default().push(StoredDiff {
                    id,
                    lamport: self.lamport,
                    diff: diff.clone(),
                });
            }
        }
        self.stats.diffs_created += diffs.len() as u64;
        if self.protocol.is_lrc_family() {
            let rec = IntervalRecord {
                id,
                vt: self.logged_vt.clone(),
                lamport: self.lamport,
                pages: diffs.iter().map(|(p, _)| *p).collect(),
            };
            let mut log = self.log.lock();
            debug_assert_eq!(log[self.me].len() + 1, seq as usize, "own log skipped");
            log[self.me].push(Arc::new(rec));
        }
        Some((id, diffs))
    }

    /// The records of `owner` this node knows, from the cluster log.
    pub(crate) fn known<'l>(
        &self,
        log: &'l [Vec<Arc<IntervalRecord>>],
        owner: ProcId,
    ) -> &'l [Arc<IntervalRecord>] {
        &log[owner][..self.logged_vt.get(owner) as usize]
    }

    /// Records this node possesses that `vt` does not cover. The returned
    /// records are `Arc`-shared with the log (no deep copies).
    pub fn delta_since(&self, vt: &VTime) -> Vec<Arc<IntervalRecord>> {
        let log = self.log.lock();
        let missing = |owner: ProcId| {
            let have = if vt.is_empty() { 0 } else { vt.get(owner) };
            self.known(&log, owner)
                .get(have as usize..)
                .unwrap_or_default()
        };
        let len = (0..self.n).map(|o| missing(o).len()).sum();
        let mut out = Vec::with_capacity(len);
        for owner in 0..self.n {
            out.extend(missing(owner).iter().cloned());
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

    /// Learn received interval records (no effect on memory until this
    /// node's own next acquire applies them): each is already in the
    /// cluster log, so learning one only extends `logged_vt` and notes its
    /// page writers. Records already known are skipped; a new record must
    /// extend its owner's known prefix by exactly one.
    pub fn merge_logged(&mut self, records: &[Arc<IntervalRecord>]) {
        let log = Arc::clone(&self.log);
        let log = log.lock();
        for r in records {
            let (owner, seq) = (r.id.owner, r.id.seq);
            let have = self.logged_vt.get(owner);
            if seq <= have {
                continue;
            }
            assert_eq!(
                seq,
                have + 1,
                "node {} log of {owner} is not prefix-closed",
                self.me
            );
            let logged = log[owner].get(seq as usize - 1);
            assert!(
                logged.is_some_and(|l| Arc::ptr_eq(l, r)),
                "node {} learned record ({owner},{seq}) that is not in the cluster log",
                self.me
            );
            self.logged_vt.set(owner, seq);
            for &page in &r.pages {
                self.note_page_writer(page, owner);
            }
        }
    }

    /// A manager learns the records a release or barrier arrival pushed.
    pub fn learn(&mut self, records: &[Arc<IntervalRecord>]) {
        if let Some(maxl) = records.iter().map(|r| r.lamport).max() {
            self.lamport_sync(maxl);
        }
        self.merge_logged(records);
    }

    /// Record that `owner` has written `page` at some point.
    pub fn note_page_writer(&mut self, page: PageId, owner: ProcId) {
        let w = &mut self.page_writers[page];
        let owner = owner as u32;
        if *w == NO_WRITER {
            *w = owner;
        } else if *w != owner {
            *w = MANY_WRITERS;
        }
    }

    /// Whether `owner` is the only writer ever known for `page` — the
    /// soundness condition of the LRC whole-page fetch escape hatch.
    pub fn page_sole_writer(&self, page: PageId, owner: ProcId) -> bool {
        self.page_writers[page] == owner as u32
    }

    /// Lamport receive rule.
    pub fn lamport_sync(&mut self, l: u64) {
        self.lamport = self.lamport.max(l) + 1;
    }

    /// The one invalidation loop, shared by every grant that carries write
    /// notices: invalidate each page written in interval `id` and queue its
    /// fault-time fetch. An HLRC home keeps its own pages, which eager
    /// flushes keep current.
    pub fn invalidate(&mut self, id: IntervalId, lamport: u64, pages: &[PageId]) {
        let home_kept = self.protocol.page_source() == PageSource::Home;
        for &page in pages {
            debug_assert_ne!(
                self.mem.state(page),
                PageState::Dirty,
                "invalidation hit a live twin: interval not closed before sync"
            );
            if home_kept && self.layout.page_home(page, self.n) == self.me {
                continue;
            }
            self.mem.invalidate(page);
            self.pending[page].push(PendingFetch { id, lamport });
        }
    }

    /// Serve a diff request: look up the stored diffs of `page` for the
    /// requested intervals, by binary search on `seq`. Idempotent (pure
    /// read); the reply shares the stored diffs' buffers instead of copying
    /// them.
    pub fn serve_diffs(
        &self,
        page: PageId,
        intervals: &[IntervalId],
    ) -> Vec<(IntervalId, u64, Diff)> {
        let Some(store) = self.diff_store.get(&page) else {
            panic!("node {} has no diffs for page {page}", self.me)
        };
        intervals
            .iter()
            .map(|id| {
                let sd = store
                    .binary_search_by_key(&id.seq, |sd| sd.id.seq)
                    .ok()
                    .map(|i| &store[i])
                    .filter(|sd| sd.id == *id)
                    .unwrap_or_else(|| panic!("node {} missing diff {id:?} page {page}", self.me));
                (sd.id, sd.lamport, sd.diff.clone())
            })
            .collect()
    }

    /// Move the pending fetches of a faulted page into `out` (replacing its
    /// contents), deduplicated and in application order. Both lists keep
    /// their capacity.
    pub fn take_pending(&mut self, page: PageId, out: &mut Vec<PendingFetch>) {
        out.clear();
        out.append(&mut self.pending[page]);
        // Keys are unique up to duplicate entries of one interval, which
        // are identical, so an unstable sort orders exactly as a stable one.
        out.sort_unstable_by_key(|f| (f.lamport, f.id.owner, f.id.seq));
        out.dedup_by_key(|f| f.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pages in every test layout.
    const PAGES: usize = 8;

    /// Node `me` of a cluster of `n` whose interval log is `log`.
    fn mk_in(me: ProcId, n: usize, protocol: Protocol, log: &IntervalLog) -> NodeState {
        let mut l = Layout::new();
        let _ = l.alloc(PAGES * vopp_page::PAGE_SIZE, 1);
        NodeState::new(
            me,
            n,
            protocol,
            CostModel::default(),
            l.freeze(),
            pool(),
            log.clone(),
        )
    }

    fn mk_as(me: ProcId, n: usize, protocol: Protocol) -> NodeState {
        mk_in(me, n, protocol, &interval_log(n))
    }

    fn pool() -> SharedPagePool {
        vopp_page::PagePool::shared_for(PAGES)
    }

    fn mk(me: ProcId, n: usize) -> NodeState {
        mk_as(me, n, Protocol::LrcD)
    }

    /// An LRC_d cluster of `n` nodes sharing one interval log.
    fn cluster(n: usize) -> Vec<NodeState> {
        let log = interval_log(n);
        (0..n)
            .map(|me| mk_in(me, n, Protocol::LrcD, &log))
            .collect()
    }

    /// Write one word of `page` on `n`, seal the interval and return the
    /// record it logged.
    fn write_seal(n: &mut NodeState, page: PageId) -> Arc<IntervalRecord> {
        n.mem.note_write(page);
        let w = n.mem.page(page).word(0);
        n.mem.page_mut(page).set_word(0, w + 1);
        seal(n)
    }

    /// Seal `n`'s write interval and return the record it logged.
    fn seal(n: &mut NodeState) -> Arc<IntervalRecord> {
        let (id, _) = n.seal_interval().expect("a dirty page");
        Arc::clone(&n.log.lock()[id.owner][id.seq as usize - 1])
    }

    /// The pending fetches of `page`, drained.
    fn take(n: &mut NodeState, page: PageId) -> Vec<PendingFetch> {
        let mut out = Vec::new();
        n.take_pending(page, &mut out);
        out
    }

    #[test]
    fn end_interval_logs_and_stores() {
        let mut a = mk(0, 2);
        a.mem.note_write(1);
        a.mem.page_mut(1).set_word(0, 5);
        let (id, diffs) = a.seal_interval().unwrap();
        assert_eq!(diffs.len(), 1);
        assert_eq!(id, IntervalId { owner: 0, seq: 1 });
        assert_eq!(a.log.lock()[0][0].pages, vec![1]);
        assert_eq!(a.logged_vt.get(0), 1);
        assert_eq!(a.applied_vt.get(0), 1);
        assert!(a.diff_store.contains_key(&1));
        // Empty interval produces nothing.
        assert!(a.seal_interval().is_none());
        assert_eq!(a.logged_vt.get(0), 1);
        assert_eq!(a.log.lock()[0].len(), 1);
    }

    #[test]
    fn sole_writer_is_exact_past_64_nodes() {
        let mut a = mk(0, 128);
        assert!(!a.page_sole_writer(1, 100), "no writer yet");
        a.note_page_writer(1, 100);
        a.note_page_writer(1, 100);
        assert!(a.page_sole_writer(1, 100));
        assert!(!a.page_sole_writer(1, 36));
        a.note_page_writer(1, 127);
        assert!(!a.page_sole_writer(1, 100));
        assert!(!a.page_sole_writer(1, 127));
        // Node 0 is an owner like any other, not the empty set.
        a.note_page_writer(2, 0);
        assert!(a.page_sole_writer(2, 0));
    }

    #[test]
    fn lone_lrc_node_keeps_no_diff_store() {
        for protocol in [Protocol::LrcD, Protocol::Hlrc, Protocol::ScC] {
            let mut a = mk_as(0, 1, protocol);
            a.mem.note_write(1);
            a.mem.page_mut(1).set_word(0, 5);
            let (_, diffs) = a.seal_interval().unwrap();
            assert_eq!(diffs.len(), 1, "{protocol}: the diff is still created");
            assert_eq!(a.stats.diffs_created, 1);
            assert!(a.diff_store.is_empty(), "{protocol}: no peer to serve");
        }
        // A lone VC node keeps its store: crash recovery reads it.
        let mut v = mk_as(0, 1, Protocol::VcD);
        v.mem.note_write(1);
        v.mem.page_mut(1).set_word(0, 5);
        v.seal_interval().unwrap();
        assert!(v.diff_store.contains_key(&1));
    }

    #[test]
    fn view_release_seal_stores_diffs_but_logs_no_record() {
        let mut a = mk_as(0, 2, Protocol::VcSd);
        a.mem.note_write(2);
        a.mem.page_mut(2).set_word(0, 5);
        let (id, diffs) = a.seal_interval().unwrap();
        assert_eq!(id, IntervalId { owner: 0, seq: 1 });
        assert_eq!(diffs.iter().map(|(p, _)| *p).collect::<Vec<_>>(), [2]);
        assert!(a.log.lock().iter().all(Vec::is_empty));
        assert_eq!(a.lamport, 1);
        assert!(a.diff_store.contains_key(&2));
    }

    #[test]
    fn grant_absorption_invalidates_and_pends() {
        let mut c = cluster(2);
        c[1].mem.note_write(2);
        c[1].mem.page_mut(2).set_word(3, 9);
        let rec = seal(&mut c[1]);

        let a = &mut c[0];
        a.absorb_lrc_grant(std::slice::from_ref(&rec), &rec.vt, rec.lamport);
        assert_eq!(a.mem.state(2), PageState::Invalid);
        assert_eq!(a.applied_vt.get(1), 1);
        let pend = take(a, 2);
        assert_eq!(pend.len(), 1);
        assert_eq!(pend[0].id, rec.id);
        // Fetch from b and apply.
        let items = c[1].serve_diffs(2, &[rec.id]);
        let a = &mut c[0];
        a.mem.apply_diff(2, &items[0].2);
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
        let mut c = cluster(2);
        let rec = write_seal(&mut c[1], 2);
        let a = &mut c[0];
        a.absorb_lrc_grant(std::slice::from_ref(&rec), &rec.vt, rec.lamport);
        let first = take(a, 2);
        assert_eq!(first.len(), 1);
        // Duplicate grant: already-applied intervals add no pending work.
        a.absorb_lrc_grant(std::slice::from_ref(&rec), &rec.vt, rec.lamport);
        assert!(take(a, 2).is_empty());
    }

    #[test]
    fn pending_sorted_and_deduped() {
        let mut a = mk(0, 4);
        let f = |owner, seq, lam| PendingFetch {
            id: IntervalId { owner, seq },
            lamport: lam,
        };
        a.pending[3].extend([f(2, 1, 10), f(1, 1, 3), f(2, 1, 10), f(3, 2, 7)]);
        let got = take(&mut a, 3);
        assert_eq!(got, vec![f(1, 1, 3), f(3, 2, 7), f(2, 1, 10)]);
        assert!(take(&mut a, 3).is_empty());
    }

    #[test]
    fn merge_logged_prefix_extends_vt() {
        let mut c = cluster(2);
        let rec = write_seal(&mut c[1], 0);
        let a = &mut c[0];
        a.merge_logged(std::slice::from_ref(&rec));
        assert_eq!(a.logged_vt.get(1), 1);
        assert!(a.page_sole_writer(0, 1));
        a.merge_logged(&[rec]);
        assert_eq!(a.logged_vt.get(1), 1);
        assert_eq!(a.log.lock()[1].len(), 1, "learning a record copies nothing");
    }

    #[test]
    fn knowledge_is_bounded_by_logged_vt_not_the_log() {
        // Owner 1 seals five intervals on pages 1..=5; node 0 is sent only
        // the first two. The cluster log holds all five.
        let mut c = cluster(2);
        let recs: Vec<_> = (1..=5).map(|page| write_seal(&mut c[1], page)).collect();
        assert_eq!(c[0].log.lock()[1].len(), 5);
        let a = &mut c[0];
        a.absorb_lrc_grant(&recs[..2], &recs[1].vt, recs[1].lamport);
        assert_eq!(a.logged_vt.get(1), 2);
        let ids: Vec<_> = a
            .delta_since(&VTime::zero(0))
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(
            ids,
            [
                IntervalId { owner: 1, seq: 1 },
                IntervalId { owner: 1, seq: 2 }
            ]
        );
        let invalid: Vec<_> = (0..PAGES)
            .filter(|&p| a.mem.state(p) == PageState::Invalid)
            .collect();
        assert_eq!(invalid, [1, 2]);
        for p in 3..=5 {
            assert!(take(a, p).is_empty(), "page {p} was never sent");
        }
    }

    #[test]
    #[should_panic(expected = "not in the cluster log")]
    fn merge_logged_rejects_a_record_outside_the_cluster_log() {
        let mut a = mk(0, 2);
        a.merge_logged(&[Arc::new(IntervalRecord {
            id: IntervalId { owner: 1, seq: 1 },
            vt: VTime::zero(2),
            lamport: 5,
            pages: vec![0],
        })]);
    }

    #[test]
    fn serve_diffs_finds_any_subset_of_a_long_history() {
        let mut a = mk(0, 2);
        for i in 0..1000 {
            a.mem.note_write(1);
            a.mem.page_mut(1).set_word(i % 7, i as u32 + 1);
            a.seal_interval().unwrap();
        }
        // Every third interval, requested out of order.
        let ids: Vec<IntervalId> = (0..1000)
            .map(|k| k * 617 % 1000 + 1)
            .filter(|seq| seq % 3 == 0)
            .map(|seq| IntervalId { owner: 0, seq })
            .collect();
        let store = &a.diff_store[&1];
        let linear: Vec<_> = ids
            .iter()
            .map(|id| {
                let sd = store.iter().find(|sd| sd.id == *id).unwrap();
                (sd.id, sd.lamport, sd.diff.clone())
            })
            .collect();
        assert_eq!(a.serve_diffs(1, &ids), linear);
        assert_eq!(linear.len(), 333);
    }

    #[test]
    #[should_panic(expected = "node 0 missing diff")]
    fn serve_diffs_panics_on_an_unknown_interval() {
        let mut a = mk(0, 2);
        a.mem.note_write(1);
        a.mem.page_mut(1).set_word(0, 1);
        a.seal_interval().unwrap();
        a.serve_diffs(1, &[IntervalId { owner: 0, seq: 2 }]);
    }

    #[test]
    #[should_panic(expected = "not prefix-closed")]
    fn merge_logged_rejects_a_gap_in_an_owners_log() {
        let mut c = cluster(2);
        let recs: Vec<_> = (0..3).map(|_| write_seal(&mut c[1], 0)).collect();
        c[0].merge_logged(&recs[..1]);
        c[0].merge_logged(&recs[2..]);
    }

    #[test]
    fn delta_since_slices_each_owners_log() {
        let mut c = cluster(3);
        let mut recs: Vec<_> = (0..3).map(|_| write_seal(&mut c[1], 0)).collect();
        recs.push(write_seal(&mut c[2], 0));
        let a = &mut c[0];
        a.merge_logged(&recs);
        let mut vt = VTime::zero(3);
        vt.set(1, 1);
        // A peer that knows more of owner 2 than this node gets nothing.
        vt.set(2, 5);
        let ids: Vec<_> = a.delta_since(&vt).iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            [
                IntervalId { owner: 1, seq: 2 },
                IntervalId { owner: 1, seq: 3 }
            ]
        );
        assert_eq!(a.delta_since(&VTime::zero(0)).len(), 4);
    }

    #[test]
    fn homes_assignment() {
        let mut l = Layout::new();
        let _ = l.add_view(8); // view 0: round-robin home
        let _ = l.add_view_homed(8, Some(3)); // view 1: explicit home
        let _ = l.add_view(8); // view 2
        let a = NodeState::new(
            0,
            4,
            Protocol::VcSd,
            CostModel::default(),
            l.freeze(),
            pool(),
            interval_log(4),
        );
        assert_eq!(a.layout.view_home(0, 4), 0);
        assert_eq!(a.layout.view_home(1, 4), 3);
        assert_eq!(a.layout.view_home(2, 4), 2);
        assert_eq!(a.lock_home(7), 3);
        assert_eq!(a.layout.page_home(6, 4), 2);
    }
}
