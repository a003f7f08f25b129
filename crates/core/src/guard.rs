//! RAII view guards: scope-based `acquire_view` / `release_view`.
//!
//! The paper's primitives are explicit acquire/release pairs; these guards
//! give them an idiomatic Rust shape while keeping the underlying protocol
//! calls identical.

use std::io::{self, Write};
use std::sync::Arc;

use vopp_dsm::{DsmCtx, ViewId};
use vopp_trace::EventKind;

use crate::region::{Region, ViewRegion};

/// Exclusive access to a view for the guard's lifetime.
pub struct ViewGuard<'c, 'a> {
    ctx: &'c DsmCtx<'a>,
    view: ViewId,
}

impl Drop for ViewGuard<'_, '_> {
    fn drop(&mut self) {
        self.ctx.release_view(self.view);
    }
}

/// Shared read access to a view for the guard's lifetime.
pub struct RViewGuard<'c, 'a> {
    ctx: &'c DsmCtx<'a>,
    view: ViewId,
}

impl Drop for RViewGuard<'_, '_> {
    fn drop(&mut self) {
        self.ctx.release_rview(self.view);
    }
}

/// Scoped VOPP operations on a [`DsmCtx`].
pub trait VoppExt<'a> {
    /// `acquire_view` returning a guard that releases on drop.
    fn view<'c>(&'c self, v: ViewId) -> ViewGuard<'c, 'a>;
    /// `acquire_Rview` returning a guard that releases on drop.
    fn rview<'c>(&'c self, v: ViewId) -> RViewGuard<'c, 'a>;
    /// Acquire `vr` for writing, run `f`, release.
    fn with_view<T, R>(&self, vr: &ViewRegion<T>, f: impl FnOnce(&Region<T>) -> R) -> R;
    /// Acquire `vr` for reading, run `f`, release.
    fn with_rview<T, R>(&self, vr: &ViewRegion<T>, f: impl FnOnce(&Region<T>) -> R) -> R;
}

impl<'a> VoppExt<'a> for DsmCtx<'a> {
    fn view<'c>(&'c self, v: ViewId) -> ViewGuard<'c, 'a> {
        self.acquire_view(v);
        ViewGuard { ctx: self, view: v }
    }

    fn rview<'c>(&'c self, v: ViewId) -> RViewGuard<'c, 'a> {
        self.acquire_rview(v);
        RViewGuard { ctx: self, view: v }
    }

    fn with_view<T, R>(&self, vr: &ViewRegion<T>, f: impl FnOnce(&Region<T>) -> R) -> R {
        let span = Span::open(self, "with_view", vr.view);
        let g = self.view(vr.view);
        let r = f(&vr.region);
        drop(g);
        span.close(self);
        r
    }

    fn with_rview<T, R>(&self, vr: &ViewRegion<T>, f: impl FnOnce(&Region<T>) -> R) -> R {
        let span = Span::open(self, "with_rview", vr.view);
        let g = self.rview(vr.view);
        let r = f(&vr.region);
        drop(g);
        span.close(self);
        r
    }
}

/// An application-level trace span bracketing a whole view bracket
/// (acquire, body, release). Nothing is allocated or recorded unless the
/// run has a tracer installed; then the label is allocated once and shared
/// by the span's two events.
struct Span(Option<Arc<str>>);

impl Span {
    fn open(ctx: &DsmCtx<'_>, what: &str, view: ViewId) -> Span {
        if !ctx.tracing() {
            return Span(None);
        }
        // Formatted on the stack, so the `Arc` is the one allocation.
        let mut buf = [0u8; 48];
        let mut label = io::Cursor::new(&mut buf[..]);
        write!(label, "{what} v{view}").expect("a span label fits 48 bytes");
        let len = label.position() as usize;
        let name: Arc<str> = std::str::from_utf8(&buf[..len]).expect("UTF-8").into();
        ctx.trace(EventKind::SpanBegin { name: name.clone() });
        Span(Some(name))
    }

    fn close(self, ctx: &DsmCtx<'_>) {
        if let Some(name) = self.0 {
            ctx.trace(EventKind::SpanEnd { name });
        }
    }
}
