//! Building the shared world of a VOPP (or traditional) program.

use std::sync::Arc;

use vopp_dsm::Layout;

use crate::region::{Region, ViewRegion};

/// Builder for a program's shared address space. Traditional programs use
/// the `alloc_*` methods (objects may share pages — false sharing included);
/// VOPP programs use the `view_*` methods.
#[derive(Debug, Default)]
pub struct WorldBuilder {
    layout: Layout,
}

impl WorldBuilder {
    /// An empty world.
    pub fn new() -> WorldBuilder {
        WorldBuilder::default()
    }

    /// Plain shared `f64` array (8-byte aligned, packed after previous
    /// allocations).
    pub fn alloc_f64(&mut self, len: usize) -> Region<f64> {
        let addr = self.layout.alloc(len * 8, 8);
        Region::new(addr, len)
    }

    /// Plain shared `u32` array.
    pub fn alloc_u32(&mut self, len: usize) -> Region<u32> {
        let addr = self.layout.alloc(len * 4, 4);
        Region::new(addr, len)
    }

    /// A view of `len` doubles.
    pub fn view_f64(&mut self, len: usize) -> ViewRegion<f64> {
        let (view, addr) = self.layout.add_view(len * 8);
        ViewRegion {
            view,
            region: Region::new(addr, len),
        }
    }

    /// A view of `len` doubles managed by `home` (usually its primary
    /// writer).
    pub fn view_f64_at(&mut self, len: usize, home: usize) -> ViewRegion<f64> {
        let (view, addr) = self.layout.add_view_homed(len * 8, Some(home));
        ViewRegion {
            view,
            region: Region::new(addr, len),
        }
    }

    /// A view of `len` words managed by `home`.
    pub fn view_u32_at(&mut self, len: usize, home: usize) -> ViewRegion<u32> {
        let (view, addr) = self.layout.add_view_homed(len * 4, Some(home));
        ViewRegion {
            view,
            region: Region::new(addr, len),
        }
    }

    /// A view of `len` 32-bit words.
    pub fn view_u32(&mut self, len: usize) -> ViewRegion<u32> {
        let (view, addr) = self.layout.add_view(len * 4);
        ViewRegion {
            view,
            region: Region::new(addr, len),
        }
    }

    /// `count` equally-sized double views (e.g. one per processor).
    pub fn views_f64(&mut self, count: usize, len: usize) -> Vec<ViewRegion<f64>> {
        (0..count).map(|_| self.view_f64(len)).collect()
    }

    /// `count` equally-sized word views.
    pub fn views_u32(&mut self, count: usize, len: usize) -> Vec<ViewRegion<u32>> {
        (0..count).map(|_| self.view_u32(len)).collect()
    }

    /// Freeze the world for a cluster run.
    pub fn build(self) -> Arc<Layout> {
        self.layout.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vopp_page::PAGE_SIZE;

    #[test]
    fn traditional_allocs_pack() {
        let mut w = WorldBuilder::new();
        let a = w.alloc_u32(3);
        let b = w.alloc_f64(2);
        assert_eq!(a.addr, 0);
        assert_eq!(b.addr, 16); // aligned up from 12
        let l = w.build();
        assert_eq!(l.nviews(), 0);
    }

    #[test]
    fn views_page_aligned() {
        let mut w = WorldBuilder::new();
        let _ = w.alloc_u32(1);
        let v = w.view_f64(3);
        assert_eq!(v.region.addr % PAGE_SIZE, 0);
        assert_eq!(v.len(), 3);
        let vs = w.views_u32(4, 1024);
        assert_eq!(vs.len(), 4);
        let l = w.build();
        assert_eq!(l.nviews(), 5);
    }
}
