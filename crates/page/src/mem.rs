//! Per-node view of the shared paged memory.
//!
//! Every node keeps its own copy of each page it has touched, together with
//! an access-state machine per page. The DSM protocol layer drives the state
//! transitions; this module only provides the mechanics that a real system
//! would get from `mprotect`/SIGSEGV: valid/invalid pages, twin creation on
//! first write, and diff extraction at interval boundaries.
//!
//! All pages are logically zero-initialized on every node, so a node that
//! applies every missing diff to its (possibly never-written) local copy
//! reconstructs the current content exactly.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::diff::Diff;
use crate::page::{PageBuf, PageId};

/// Access state of one page on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Stale: must be updated (diffs applied) before any access.
    Invalid,
    /// Up to date for reading; first write must create a twin.
    Valid,
    /// Up to date and already twinned: freely writable this interval.
    Dirty,
}

/// Free-list of `Box<PageBuf>` buffers so hot paths — twin creation,
/// whole-page replies, barrier-time page rebuilds — recycle allocations
/// instead of hitting the allocator per page.
///
/// The list is bounded: releases beyond the pool's capacity (default
/// [`PagePool::CAP`], configurable per pool) simply drop the page.
/// [`PagePool::shared_for`] builds the one pool every node of a cluster
/// shares.
pub struct PagePool {
    free: Vec<Box<PageBuf>>,
    cap: usize,
    hits: u64,
    misses: u64,
}

impl Default for PagePool {
    fn default() -> Self {
        PagePool::with_capacity(PagePool::CAP)
    }
}

impl PagePool {
    /// Default maximum number of buffers retained on the free list.
    pub const CAP: usize = 128;

    /// An empty pool with the default capacity.
    pub fn new() -> PagePool {
        PagePool::default()
    }

    /// An empty pool retaining at most `cap` free buffers. Small address
    /// spaces can bound their worst-case footprint (`cap * 4 KiB`) below
    /// the default; page-heavy runs can raise it.
    pub fn with_capacity(cap: usize) -> PagePool {
        PagePool {
            free: Vec::new(),
            cap,
            hits: 0,
            misses: 0,
        }
    }

    /// A pool for every memory of an address space of `npages` pages to
    /// share, retaining at most `max(npages, CAP)` free buffers. Sharing is
    /// what bounds a cluster's idle buffers: one free list per cluster
    /// instead of one per node, and large enough that a barrier's burst of
    /// twins across the whole address space recycles instead of reaching
    /// the allocator.
    pub fn shared_for(npages: usize) -> SharedPagePool {
        Arc::new(Mutex::new(PagePool::with_capacity(
            npages.max(PagePool::CAP),
        )))
    }

    /// Maximum number of buffers this pool retains.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// A zero-filled page, recycled from the free list when possible.
    pub fn acquire_zeroed(&mut self) -> Box<PageBuf> {
        match self.free.pop() {
            Some(mut b) => {
                self.hits += 1;
                b.fill(0);
                b
            }
            None => {
                self.misses += 1;
                PageBuf::zeroed()
            }
        }
    }

    /// A copy of `src`, recycled from the free list when possible.
    pub fn acquire_copy(&mut self, src: &PageBuf) -> Box<PageBuf> {
        match self.free.pop() {
            Some(mut b) => {
                self.hits += 1;
                b.copy_from_slice(&src[..]);
                b
            }
            None => {
                self.misses += 1;
                Box::new(src.clone())
            }
        }
    }

    /// Return a buffer to the free list (dropped if the pool is full).
    pub fn release(&mut self, page: Box<PageBuf>) {
        if self.free.len() < self.cap {
            self.free.push(page);
        }
    }

    /// Buffers currently on the free list.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True if the free list is empty.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Acquires served from the free list / from fresh allocations.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// A [`PagePool`] shared by several [`NodeMemory`]s: a buffer one node
/// releases serves another node's next twin.
pub type SharedPagePool = Arc<Mutex<PagePool>>;

/// One node's copy of the shared memory.
pub struct NodeMemory {
    pages: Vec<Option<Box<PageBuf>>>,
    state: Vec<PageState>,
    twins: BTreeMap<PageId, Box<PageBuf>>,
    pool: SharedPagePool,
    diff_scratch: Vec<u32>,
}

impl NodeMemory {
    /// Memory of `npages` pages, all valid and zero-filled (pages are
    /// materialized lazily on first touch), with a pool of its own.
    pub fn new(npages: usize) -> NodeMemory {
        NodeMemory::with_pool(npages, PagePool::shared_for(npages))
    }

    /// [`NodeMemory::new`] recycling buffers through `pool`, which other
    /// memories may share.
    pub fn with_pool(npages: usize, pool: SharedPagePool) -> NodeMemory {
        NodeMemory {
            pages: (0..npages).map(|_| None).collect(),
            state: vec![PageState::Valid; npages],
            twins: BTreeMap::new(),
            pool,
            diff_scratch: Vec::new(),
        }
    }

    /// Number of pages in the address space.
    pub fn npages(&self) -> usize {
        self.pages.len()
    }

    /// Current access state of `p`.
    #[inline]
    pub fn state(&self, p: PageId) -> PageState {
        self.state[p]
    }

    /// Mark `p` stale. Content is retained: missing diffs will be applied to
    /// it. Any twin is discarded (an invalidation always happens at a sync
    /// point, after diffs were extracted).
    pub fn invalidate(&mut self, p: PageId) {
        debug_assert!(
            !self.twins.contains_key(&p),
            "invalidating page {p} with a live twin (diffs not yet extracted)"
        );
        self.state[p] = PageState::Invalid;
    }

    /// Mark `p` up to date after the protocol applied all missing diffs.
    pub fn validate(&mut self, p: PageId) {
        if self.state[p] == PageState::Invalid {
            self.state[p] = PageState::Valid;
        }
    }

    /// Simulate a crash's effect on `p`: the buffer is lost (the next
    /// materialization starts from the zero page) and the page goes
    /// `Invalid`, so the protocol must reconstruct its content before any
    /// access. Illegal on a `Dirty` page — a crash model that loses
    /// unextracted writes would break the write-ahead-log narrative.
    /// Returns true when a materialized buffer was actually dropped.
    pub fn crash_page(&mut self, p: PageId) -> bool {
        assert_ne!(
            self.state[p],
            PageState::Dirty,
            "crash_page({p}) with unextracted writes"
        );
        debug_assert!(!self.twins.contains_key(&p));
        let had = match self.pages[p].take() {
            Some(buf) => {
                lock(&self.pool).release(buf);
                true
            }
            None => false,
        };
        self.state[p] = PageState::Invalid;
        had
    }

    /// Read-only page content (zero page if never touched).
    pub fn page(&self, p: PageId) -> &PageBuf {
        match &self.pages[p] {
            Some(b) => b,
            None => zero_page(),
        }
    }

    /// Writable page content, materializing it if needed. Does **not** touch
    /// the state machine — callers go through [`NodeMemory::note_write`].
    pub fn page_mut(&mut self, p: PageId) -> &mut PageBuf {
        self.pages[p].get_or_insert_with(PageBuf::zeroed)
    }

    /// Record the first write of an interval to `p`: snapshot a twin and mark
    /// the page dirty. Must only be called on a `Valid` page; `Dirty` pages
    /// are already twinned and `Invalid` pages must be updated first.
    pub fn note_write(&mut self, p: PageId) {
        match self.state[p] {
            PageState::Dirty => {}
            PageState::Valid => {
                let mut pool = lock(&self.pool);
                let twin = match &self.pages[p] {
                    Some(b) => pool.acquire_copy(b),
                    None => pool.acquire_zeroed(),
                };
                self.twins.insert(p, twin);
                self.state[p] = PageState::Dirty;
            }
            PageState::Invalid => panic!("write to invalid page {p} without update"),
        }
    }

    /// Pages dirtied in the current interval, ascending.
    pub fn dirty_pages(&self) -> Vec<PageId> {
        self.twins.keys().copied().collect()
    }

    /// End the current interval: extract a diff for every dirty page (twin
    /// vs. current), drop the twins, and downgrade the pages to `Valid`.
    /// Diffs may be empty if a page was rewritten with identical values.
    pub fn end_interval(&mut self) -> Vec<(PageId, Diff)> {
        let twins = std::mem::take(&mut self.twins);
        let mut pool = lock(&self.pool);
        let mut out = Vec::with_capacity(twins.len());
        for (p, twin) in twins {
            let cur = match &self.pages[p] {
                Some(b) => b,
                None => zero_page(),
            };
            out.push((
                p,
                Diff::create_with_scratch(&twin, cur, &mut self.diff_scratch),
            ));
            self.state[p] = PageState::Valid;
            pool.release(twin);
        }
        out
    }

    /// Revert every write of the current interval to `p`: restore the page
    /// content from its twin, drop the twin, and downgrade the page to
    /// `Valid`. No-op unless `p` is dirty. Used by the correctness checker
    /// to neutralize undisciplined writes so the protocol state machine
    /// never observes them (they are reported, not published).
    pub fn discard_writes(&mut self, p: PageId) {
        if let Some(twin) = self.twins.remove(&p) {
            if let Some(cur) = &mut self.pages[p] {
                cur.copy_from_slice(&twin[..]);
            }
            self.state[p] = PageState::Valid;
            lock(&self.pool).release(twin);
        }
    }

    /// Apply a diff from another node onto the local copy of `p`.
    pub fn apply_diff(&mut self, p: PageId, d: &Diff) {
        d.apply(self.page_mut(p));
    }

    /// Apply a remote diff onto the local copy *and* onto any live twin of
    /// `p`, so the remote words do not later show up in this node's own
    /// diff (home-based protocols apply flushes mid-interval).
    pub fn apply_diff_with_twin(&mut self, p: PageId, d: &Diff) {
        d.apply(self.page_mut(p));
        if let Some(twin) = self.twins.get_mut(&p) {
            d.apply(twin);
        }
    }

    /// Pool-backed copy of the current content of `p` (whole-page replies
    /// and barrier-time rebuilds go through here to recycle buffers).
    pub fn clone_page(&mut self, p: PageId) -> Box<PageBuf> {
        let mut pool = lock(&self.pool);
        match &self.pages[p] {
            Some(b) => pool.acquire_copy(b),
            None => pool.acquire_zeroed(),
        }
    }

    /// Overwrite the local copy of `p` with `content` in place, without
    /// allocating a fresh page.
    pub fn install_page(&mut self, p: PageId, content: &PageBuf) {
        self.page_mut(p).copy_from_slice(&content[..]);
    }

    /// Return a no-longer-needed page buffer to the pool.
    pub fn release_page(&mut self, page: Box<PageBuf>) {
        lock(&self.pool).release(page);
    }

    /// The page pool this memory recycles through, locked (for diagnostics
    /// and benchmarks; other memories may share it).
    pub fn pool(&self) -> MutexGuard<'_, PagePool> {
        lock(&self.pool)
    }

    /// Bytes resident in materialized pages and twins (for diagnostics).
    pub fn resident_bytes(&self) -> usize {
        let pages = self.pages.iter().filter(|p| p.is_some()).count();
        (pages + self.twins.len()) * crate::page::PAGE_SIZE
    }
}

/// Lock a shared pool. A pool holds no invariant a panic can break, so a
/// poisoned lock is simply taken over.
fn lock(pool: &SharedPagePool) -> MutexGuard<'_, PagePool> {
    pool.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A process-wide zero page, so reads of never-touched pages need no
/// allocation.
fn zero_page() -> &'static PageBuf {
    use std::sync::OnceLock;
    static ZERO_PAGE: OnceLock<Box<PageBuf>> = OnceLock::new();
    ZERO_PAGE.get_or_init(PageBuf::zeroed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_is_zero_and_valid() {
        let m = NodeMemory::new(4);
        assert_eq!(m.state(2), PageState::Valid);
        assert!(m.page(2).iter().all(|&b| b == 0));
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn crash_page_loses_content_and_invalidates() {
        let mut m = NodeMemory::new(2);
        m.note_write(0);
        m.page_mut(0).set_word(3, 77);
        m.end_interval(); // extract the diff: page back to Valid
        assert!(m.crash_page(0), "materialized page should be dropped");
        assert_eq!(m.state(0), PageState::Invalid);
        // Once the protocol validates it again, content restarts from zero.
        m.validate(0);
        assert!(m.page(0).iter().all(|&b| b == 0));
        // A never-touched page has no buffer to lose but still goes Invalid.
        assert!(!m.crash_page(1));
        assert_eq!(m.state(1), PageState::Invalid);
    }

    #[test]
    fn write_then_end_interval_produces_diff() {
        let mut m = NodeMemory::new(2);
        m.note_write(1);
        m.page_mut(1).set_word(10, 99);
        assert_eq!(m.state(1), PageState::Dirty);
        assert_eq!(m.dirty_pages(), vec![1]);
        let diffs = m.end_interval();
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].0, 1);
        assert_eq!(diffs[0].1.word_count(), 1);
        assert_eq!(m.state(1), PageState::Valid);
        assert!(m.dirty_pages().is_empty());
    }

    #[test]
    fn rewrite_same_value_gives_empty_diff() {
        let mut m = NodeMemory::new(1);
        m.note_write(0);
        m.page_mut(0).set_word(0, 0); // same as zero fill
        let diffs = m.end_interval();
        assert!(diffs[0].1.is_empty());
    }

    #[test]
    fn second_write_in_interval_does_not_retwin() {
        let mut m = NodeMemory::new(1);
        m.note_write(0);
        m.page_mut(0).set_word(0, 1);
        m.note_write(0); // no-op: already dirty
        m.page_mut(0).set_word(1, 2);
        let diffs = m.end_interval();
        assert_eq!(diffs[0].1.word_count(), 2);
    }

    #[test]
    fn apply_diff_updates_stale_copy() {
        // Writer produces a diff; a reader applies it to its zero copy.
        let mut w = NodeMemory::new(1);
        w.note_write(0);
        w.page_mut(0).set_word(7, 42);
        let (p, d) = w.end_interval().pop().unwrap();

        let mut r = NodeMemory::new(1);
        r.invalidate(0);
        r.apply_diff(p, &d);
        r.validate(0);
        assert_eq!(r.page(0).word(7), 42);
        assert_eq!(r.state(0), PageState::Valid);
    }

    #[test]
    #[should_panic(expected = "write to invalid page")]
    fn write_to_invalid_page_is_a_bug() {
        let mut m = NodeMemory::new(1);
        m.invalidate(0);
        m.note_write(0);
    }

    #[test]
    fn pool_recycles_twins_across_intervals() {
        let mut m = NodeMemory::new(1);
        m.note_write(0);
        m.page_mut(0).set_word(0, 1);
        m.end_interval();
        assert_eq!(m.pool().len(), 1);
        m.note_write(0); // twin comes from the free list
        m.page_mut(0).set_word(0, 2);
        let diffs = m.end_interval();
        assert_eq!(m.pool().stats(), (1, 1));
        assert_eq!(diffs[0].1.word_count(), 1);
        assert_eq!(diffs[0].1.runs().next(), Some((0, &[2][..])));
    }

    #[test]
    fn pool_capacity_bounds_free_list() {
        let mut pool = PagePool::with_capacity(2);
        assert_eq!(pool.capacity(), 2);
        for _ in 0..5 {
            pool.release(PageBuf::zeroed());
        }
        // Releases beyond the configured capacity drop the page.
        assert_eq!(pool.len(), 2);
        assert_eq!(PagePool::new().capacity(), PagePool::CAP);
        // A shared pool holds a whole address space, never less than CAP.
        assert_eq!(lock(&PagePool::shared_for(1)).capacity(), PagePool::CAP);
        assert_eq!(lock(&PagePool::shared_for(1536)).capacity(), 1536);
        assert_eq!(NodeMemory::new(7).pool().capacity(), PagePool::CAP);
    }

    #[test]
    fn memories_sharing_a_pool_recycle_each_others_twins() {
        let pool = PagePool::shared_for(2);
        let mut a = NodeMemory::with_pool(2, pool.clone());
        let mut b = NodeMemory::with_pool(2, pool.clone());
        a.note_write(0);
        a.page_mut(0).set_word(0, 1);
        a.end_interval();
        assert_eq!(lock(&pool).len(), 1);
        // b's twin is the buffer a released: a hit, not an allocation.
        b.note_write(1);
        b.page_mut(1).set_word(0, 2);
        assert_eq!(lock(&pool).stats(), (1, 1));
        let diffs = b.end_interval();
        assert_eq!(diffs[0].1.runs().next(), Some((0, &[2][..])));
        // And back: a's next twin is the one b released.
        a.note_write(0);
        assert_eq!(lock(&pool).stats(), (2, 1));
        a.end_interval();
        // Releases beyond the shared capacity drop the page.
        let cap = lock(&pool).capacity();
        for _ in 0..cap + 5 {
            a.release_page(PageBuf::zeroed());
            b.release_page(PageBuf::zeroed());
            assert!(lock(&pool).len() <= cap);
        }
        assert_eq!(a.pool().len(), cap);
    }

    #[test]
    fn pool_acquire_release_roundtrip() {
        let mut pool = PagePool::new();
        let mut a = pool.acquire_zeroed();
        a.set_word(3, 7);
        pool.release(a);
        assert_eq!(pool.len(), 1);
        // Recycled zeroed buffer must be scrubbed.
        let b = pool.acquire_zeroed();
        assert!(b.iter().all(|&x| x == 0));
        let src = {
            let mut s = PageBuf::zeroed();
            s.set_word(1, 5);
            s
        };
        pool.release(b);
        let c = pool.acquire_copy(&src);
        assert_eq!(c.word(1), 5);
        assert_eq!(pool.stats(), (2, 1));
    }

    #[test]
    fn clone_install_release_page() {
        let mut m = NodeMemory::new(2);
        m.note_write(0);
        m.page_mut(0).set_word(9, 33);
        m.end_interval();
        let copy = m.clone_page(0);
        assert_eq!(copy.word(9), 33);
        let mut other = NodeMemory::new(2);
        other.install_page(1, &copy);
        assert_eq!(other.page(1).word(9), 33);
        other.release_page(copy);
        assert_eq!(other.pool().len(), 1);
        // clone_page of a never-touched page is a zero page.
        let z = m.clone_page(1);
        assert!(z.iter().all(|&x| x == 0));
    }

    #[test]
    fn validate_only_affects_invalid() {
        let mut m = NodeMemory::new(1);
        m.note_write(0);
        m.validate(0); // dirty stays dirty
        assert_eq!(m.state(0), PageState::Dirty);
    }
}
