//! Host-side self-profiling: where does the *benchmark process* spend real
//! memory and wall-clock?
//!
//! Everything here observes the host, never the simulation: peak RSS and
//! allocation counters have no connection to virtual time, so they are
//! reported (peak RSS on the `tables` binary's `[host: ...]` line; both
//! per rep by the `benchmark/` suite) but never written to a gated artifact.
//!
//! * [`CountingAlloc`] — a `GlobalAlloc` wrapper counting allocations and
//!   allocated bytes (cumulative, relaxed atomics; a few ns per malloc).
//!   Installed by `benchmark/` and by the root package's allocation tests
//!   (`tests/{protocol_allocs,trace_export,view_integration}.rs`); the
//!   library and every other binary and test pay nothing.
//! * [`peak_rss_bytes`] — the process's high-water resident set, read from
//!   `/proc/self/status` (`VmHWM`) on Linux; `None` elsewhere.

// The one place in the crate allowed to write `unsafe`: implementing the
// (unsafe-by-design) GlobalAlloc trait as a pure pass-through to System.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator. Install with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters are relaxed atomics
// with no allocation or panicking on the alloc path.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Cumulative allocation counters since process start: `(count, bytes)`.
/// Both are zero unless [`CountingAlloc`] is the global allocator.
pub fn alloc_totals() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The process's peak resident set size in bytes (`VmHWM`), or `None` when
/// the platform does not expose it. Best-effort by design: callers report
/// it as an optional field, never branch on it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_plausible_when_present() {
        if let Some(rss) = peak_rss_bytes() {
            // A test process occupies at least a few hundred KiB and less
            // than a TiB.
            assert!(rss > 100 * 1024, "rss {rss}");
            assert!(rss < 1 << 40, "rss {rss}");
        }
    }
}
