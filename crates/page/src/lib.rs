#![warn(missing_docs)]

//! # vopp-page — paged shared-memory substrate
//!
//! The memory machinery shared by every DSM protocol in this reproduction:
//!
//! * [`PageBuf`] / addressing helpers — 4 KB pages, the unit of sharing.
//! * [`NodeMemory`] — a node's local copies with the valid/invalid/dirty
//!   state machine and twin snapshots (the simulation stand-in for
//!   `mprotect` + SIGSEGV write trapping).
//! * [`Diff`] — word-granularity run-length diffs, with the *diff
//!   integration* merge that defines the optimal `VC_sd` protocol's grants.
//! * [`IntegratedPage`] — a view home's per-page integration state: absorbs
//!   versioned diffs as they are released and yields the integrated diff of
//!   everything newer than a given version in O(page).
//! * [`VTime`] — vector timestamps over intervals.
//! * [`IntervalRecord`] / [`WriteNotice`] — the consistency metadata
//!   exchanged at synchronization points.
//! * [`SharedHeap`] — the deterministic shared-address-space allocator.

mod diff;
mod heap;
mod integrate;
mod interval;
mod mem;
mod page;
mod vtime;

pub use diff::{Diff, DIFF_HEADER_BYTES, RUN_HEADER_BYTES};
pub use heap::SharedHeap;
pub use integrate::IntegratedPage;
pub use interval::{IntervalId, IntervalRecord, WriteNotice, NOTICE_WIRE_BYTES};
pub use mem::{NodeMemory, PagePool, PageState, SharedPagePool};
pub use page::{
    offset_in_page, page_base, page_of, pages_spanned, Addr, PageBuf, PageId, CHUNK_WORDS,
    PAGE_CHUNKS, PAGE_QUARTERS, PAGE_SIZE, PAGE_SUPERS, PAGE_WORDS, QUARTER_BYTES, SUPER_BYTES,
    WORD_SIZE,
};
pub use vtime::VTime;
