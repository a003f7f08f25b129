//! Typed windows onto shared memory.
//!
//! A [`Region<T>`] is a typed array living in the DSM address space; a
//! [`ViewRegion<T>`] is a region registered as a VOPP view. Both are plain
//! descriptors (address + length), identical on every node.

use std::marker::PhantomData;

use vopp_dsm::{DsmCtx, ViewId};
use vopp_page::Addr;

/// A typed array in shared memory.
#[derive(Debug, Clone, Copy)]
pub struct Region<T> {
    /// First byte address.
    pub addr: Addr,
    /// Element count.
    pub len: usize,
    _elem: PhantomData<T>,
}

impl<T> Region<T> {
    pub(crate) fn new(addr: Addr, len: usize) -> Region<T> {
        Region {
            addr,
            len,
            _elem: PhantomData,
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Region<f64> {
    /// Address of element `i`.
    pub fn at(&self, i: usize) -> Addr {
        debug_assert!(i < self.len);
        self.addr + i * 8
    }

    /// Read element `i`.
    pub fn get(&self, ctx: &DsmCtx<'_>, i: usize) -> f64 {
        ctx.read_f64(self.at(i))
    }

    /// Write element `i`.
    pub fn set(&self, ctx: &DsmCtx<'_>, i: usize, v: f64) {
        ctx.write_f64(self.at(i), v)
    }

    /// Read the whole region.
    pub fn read_vec(&self, ctx: &DsmCtx<'_>) -> Vec<f64> {
        let mut out = vec![0.0; self.len];
        ctx.read_f64s(self.addr, &mut out);
        out
    }

    /// Read a sub-range `[off, off+out.len())`. An empty range may start at
    /// `len`, so the address is not taken through `at`.
    pub fn read_into(&self, ctx: &DsmCtx<'_>, off: usize, out: &mut [f64]) {
        debug_assert!(off + out.len() <= self.len);
        ctx.read_f64s(self.addr + off * 8, out);
    }

    /// Write the whole region (length must match).
    pub fn write_all(&self, ctx: &DsmCtx<'_>, data: &[f64]) {
        debug_assert_eq!(data.len(), self.len);
        ctx.write_f64s(self.addr, data);
    }

    /// Write a sub-range starting at `off`.
    pub fn write_at(&self, ctx: &DsmCtx<'_>, off: usize, data: &[f64]) {
        debug_assert!(off + data.len() <= self.len);
        ctx.write_f64s(self.addr + off * 8, data);
    }
}

impl Region<u32> {
    /// Address of element `i`.
    pub fn at(&self, i: usize) -> Addr {
        debug_assert!(i < self.len);
        self.addr + i * 4
    }

    /// Read element `i`.
    pub fn get(&self, ctx: &DsmCtx<'_>, i: usize) -> u32 {
        ctx.read_u32(self.at(i))
    }

    /// Write element `i`.
    pub fn set(&self, ctx: &DsmCtx<'_>, i: usize, v: u32) {
        ctx.write_u32(self.at(i), v)
    }

    /// Read-modify-write element `i`.
    pub fn update(&self, ctx: &DsmCtx<'_>, i: usize, f: impl FnOnce(u32) -> u32) {
        ctx.update_u32(self.at(i), f)
    }

    /// Read the whole region.
    pub fn read_vec(&self, ctx: &DsmCtx<'_>) -> Vec<u32> {
        let mut out = vec![0; self.len];
        ctx.read_u32s(self.addr, &mut out);
        out
    }

    /// Read a sub-range.
    pub fn read_into(&self, ctx: &DsmCtx<'_>, off: usize, out: &mut [u32]) {
        debug_assert!(off + out.len() <= self.len);
        ctx.read_u32s(self.addr + off * 4, out);
    }

    /// Write the whole region.
    pub fn write_all(&self, ctx: &DsmCtx<'_>, data: &[u32]) {
        debug_assert_eq!(data.len(), self.len);
        ctx.write_u32s(self.addr, data);
    }

    /// Write a sub-range starting at `off`.
    pub fn write_at(&self, ctx: &DsmCtx<'_>, off: usize, data: &[u32]) {
        debug_assert!(off + data.len() <= self.len);
        ctx.write_u32s(self.addr + off * 4, data);
    }
}

/// A region registered as a VOPP view.
#[derive(Debug, Clone, Copy)]
pub struct ViewRegion<T> {
    /// The view to acquire before touching the region.
    pub view: ViewId,
    /// The data window.
    pub region: Region<T>,
}

impl<T> ViewRegion<T> {
    /// Element count.
    pub fn len(&self) -> usize {
        self.region.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }
}
