//! The shared address-space layout: allocations and view definitions.
//!
//! Every node of an SPMD DSM program must agree on where shared objects
//! live. A [`Layout`] is built once by the driver (allocations + views) and
//! shared read-only by all simulated nodes.
//!
//! Views follow the paper's rules (§2): they are fixed for the whole program
//! and must not overlap. This implementation additionally page-aligns each
//! view so no two views share a page.

use std::ops::Range;
use std::sync::Arc;

use vopp_page::{pages_spanned, Addr, PageId, SharedHeap, PAGE_SIZE};

/// Identifier of a view (dense, 0-based).
pub type ViewId = u32;

/// A registered view: a page-aligned region of shared memory.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// The view's id.
    pub id: ViewId,
    /// First byte address.
    pub base: Addr,
    /// Requested length in bytes (the backing region is padded to pages).
    pub len: usize,
    /// Pages backing the view.
    pub pages: Range<PageId>,
    /// Preferred manager node (usually the primary writer, like home-based
    /// LRC home assignment); `None` falls back to round-robin.
    pub home: Option<usize>,
}

/// The program's shared-memory layout.
#[derive(Debug, Default)]
pub struct Layout {
    heap: SharedHeap,
    views: Vec<ViewDef>,
    page_view: Vec<Option<ViewId>>,
}

impl Layout {
    /// An empty layout.
    pub fn new() -> Layout {
        Layout::default()
    }

    /// Allocate plain shared memory (traditional programs). No page
    /// alignment is forced, so distinct objects may share pages — the false
    /// sharing the paper's traditional applications suffer from.
    pub fn alloc(&mut self, len: usize, align: usize) -> Addr {
        let a = self.heap.alloc(len, align);
        self.sync_page_map();
        a
    }

    /// Register a view of `len` bytes (VOPP programs). Returns its id and
    /// base address.
    pub fn add_view(&mut self, len: usize) -> (ViewId, Addr) {
        self.add_view_homed(len, None)
    }

    /// Register a view with an explicit manager node (usually its primary
    /// writer — the placement a home-based DSM would choose).
    pub fn add_view_homed(&mut self, len: usize, home: Option<usize>) -> (ViewId, Addr) {
        let base = self.heap.alloc_page_aligned(len);
        let id = self.views.len() as ViewId;
        let pages = pages_spanned(base, len.max(1));
        self.views.push(ViewDef {
            id,
            base,
            len,
            pages: pages.clone(),
            home,
        });
        self.sync_page_map();
        for p in pages {
            self.page_view[p] = Some(id);
        }
        (id, base)
    }

    /// Register `n` consecutive views of `len` bytes each (a common pattern:
    /// one view per processor). Returns the id of the first; ids are dense.
    pub fn add_views(&mut self, n: usize, len: usize) -> Vec<(ViewId, Addr)> {
        (0..n).map(|_| self.add_view(len)).collect()
    }

    fn sync_page_map(&mut self) {
        let need = self.heap.pages_needed();
        if self.page_view.len() < need {
            self.page_view.resize(need, None);
        }
    }

    /// Number of registered views.
    pub fn nviews(&self) -> usize {
        self.views.len()
    }

    /// Definition of view `v`.
    pub fn view(&self, v: ViewId) -> &ViewDef {
        &self.views[v as usize]
    }

    /// All views.
    pub fn views(&self) -> &[ViewDef] {
        &self.views
    }

    /// The view containing page `p`, if any.
    pub fn view_of_page(&self, p: PageId) -> Option<ViewId> {
        self.page_view.get(p).copied().flatten()
    }

    /// The node managing view `v` on a cluster of `n`: its declared home
    /// (normally the primary writer) or round-robin — either way
    /// consistency maintenance is distributed across nodes, which the paper
    /// credits for VC's barrier advantage.
    pub fn view_home(&self, v: ViewId, n: usize) -> usize {
        self.view(v).home.unwrap_or(v as usize) % n
    }

    /// The home of page `p` under HLRC on a cluster of `n` (round-robin).
    pub fn page_home(&self, p: PageId, n: usize) -> usize {
        p % n
    }

    /// Total pages in the shared address space.
    pub fn npages(&self) -> usize {
        self.heap.pages_needed()
    }

    /// Freeze into a shareable handle.
    pub fn freeze(self) -> Arc<Layout> {
        Arc::new(self)
    }
}

/// Validate that views are sane (non-overlapping is guaranteed by
/// construction; this checks page alignment and coverage for tests).
pub fn check_views(layout: &Layout) -> Result<(), String> {
    for v in layout.views() {
        if v.base % PAGE_SIZE != 0 {
            return Err(format!("view {} not page aligned", v.id));
        }
        for p in v.pages.clone() {
            if layout.view_of_page(p) != Some(v.id) {
                return Err(format!("page {} not mapped to view {}", p, v.id));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_are_page_aligned_and_disjoint() {
        let mut l = Layout::new();
        let a = l.alloc(100, 8);
        let (v0, b0) = l.add_view(10);
        let (v1, b1) = l.add_view(PAGE_SIZE + 1);
        let (v2, b2) = l.add_view(64);
        assert_eq!(a, 0);
        assert_eq!(b0 % PAGE_SIZE, 0);
        assert_eq!(b1, b0 + PAGE_SIZE);
        assert_eq!(b2, b1 + 2 * PAGE_SIZE);
        assert_eq!((v0, v1, v2), (0, 1, 2));
        check_views(&l).unwrap();
    }

    #[test]
    fn page_view_mapping() {
        let mut l = Layout::new();
        let _ = l.alloc(5000, 1); // spans pages 0..2
        let (v, base) = l.add_view(8192);
        let first = base / PAGE_SIZE;
        assert_eq!(l.view_of_page(0), None);
        assert_eq!(l.view_of_page(first), Some(v));
        assert_eq!(l.view_of_page(first + 1), Some(v));
        assert_eq!(l.npages(), first + 2);
    }

    #[test]
    fn add_views_bulk() {
        let mut l = Layout::new();
        let vs = l.add_views(4, 100);
        assert_eq!(vs.len(), 4);
        assert_eq!(l.nviews(), 4);
        for (i, (v, _)) in vs.iter().enumerate() {
            assert_eq!(*v as usize, i);
        }
    }

    #[test]
    fn plain_allocs_can_share_pages() {
        let mut l = Layout::new();
        let a = l.alloc(8, 8);
        let b = l.alloc(8, 8);
        // Same page: the substrate for false sharing.
        assert_eq!(a / PAGE_SIZE, b / PAGE_SIZE);
        assert_eq!(l.view_of_page(0), None);
    }
}
