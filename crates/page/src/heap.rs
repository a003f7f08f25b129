//! The shared address-space allocator.
//!
//! All nodes run the same program and perform the same allocation sequence
//! at startup, so a deterministic bump allocator yields identical addresses
//! everywhere — the scheme real SPMD DSM programs rely on.

use crate::page::{page_of, Addr, PAGE_SIZE};

/// A deterministic bump allocator over the shared address space.
#[derive(Debug, Clone, Default)]
pub struct SharedHeap {
    next: Addr,
}

impl SharedHeap {
    /// An empty heap starting at address 0.
    pub fn new() -> SharedHeap {
        SharedHeap::default()
    }

    /// Allocate `len` bytes with the given alignment (power of two).
    pub fn alloc(&mut self, len: usize, align: usize) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(len > 0, "zero-length allocation");
        let base = (self.next + align - 1) & !(align - 1);
        self.next = base + len;
        base
    }

    /// Allocate `len` bytes starting on a fresh page and padded to a whole
    /// number of pages. Views use this so that distinct views never share a
    /// page (the paper requires views not to overlap; page-aligning them also
    /// prevents DSM-level false sharing *between* views).
    pub fn alloc_page_aligned(&mut self, len: usize) -> Addr {
        let padded = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        self.alloc(padded, PAGE_SIZE)
    }

    /// Total pages needed to back every allocation so far.
    pub fn pages_needed(&self) -> usize {
        if self.next == 0 {
            0
        } else {
            page_of(self.next - 1) + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_align() {
        let mut h = SharedHeap::new();
        let a = h.alloc(3, 1);
        let b = h.alloc(8, 8);
        assert_eq!(a, 0);
        assert_eq!(b, 8); // aligned up from 3
        assert_eq!(h.pages_needed(), 1);
        // Unaligned, so it straddles the first page boundary.
        assert_eq!(h.alloc(PAGE_SIZE, 1), 16);
        assert_eq!(h.pages_needed(), 2);
    }

    #[test]
    fn page_aligned_views_never_share_pages() {
        let mut h = SharedHeap::new();
        let _ = h.alloc(10, 1);
        let v1 = h.alloc_page_aligned(100);
        let v2 = h.alloc_page_aligned(5000);
        let v3 = h.alloc_page_aligned(1);
        assert_eq!(v1 % PAGE_SIZE, 0);
        assert_eq!(v2, v1 + PAGE_SIZE);
        assert_eq!(v3, v2 + 2 * PAGE_SIZE);
        // Page 0 (the 10-byte alloc) + 1 (v1) + 2 (v2) + 1 (v3).
        assert_eq!(h.pages_needed(), 5);
    }

    #[test]
    fn pages_needed_empty() {
        assert_eq!(SharedHeap::new().pages_needed(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_rejected() {
        SharedHeap::new().alloc(1, 3);
    }
}
