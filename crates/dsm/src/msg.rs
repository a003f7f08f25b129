//! Protocol messages and their wire-size accounting.
//!
//! Payloads travel in-process (no serialization), but each message computes
//! the exact size it would occupy on the wire so the `Data` and `Num. Msg`
//! statistics match what a real implementation would produce.

use std::sync::Arc;

use vopp_page::{Diff, IntervalId, IntervalRecord, PageBuf, PageId, VTime, NOTICE_WIRE_BYTES};
use vopp_simnet::HEADER_BYTES;

use crate::layout::ViewId;

/// Read/write mode of a view acquisition (paper: `acquire_view` vs
/// `acquire_Rview`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Exclusive writer access.
    Write,
    /// Shared read-only access.
    Read,
}

/// A view-scoped interval record: the unit of consistency history kept by a
/// view home. `version` totally orders releases of one view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewRecord {
    /// Release sequence number within the view (1-based).
    pub version: u32,
    /// The writer-side interval holding the diffs.
    pub id: IntervalId,
    /// Happens-before scalar for diff application order.
    pub lamport: u64,
    /// Pages dirtied by the release.
    pub pages: Vec<PageId>,
}

impl ViewRecord {
    /// Wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        20 + 4 * self.pages.len()
    }
}

/// Requests (service-handler class).
#[derive(Debug, Clone)]
pub enum Req {
    /// Traditional API: acquire lock `lock`; `vt` is the requester's logged
    /// vector time, so the grant only carries unseen interval records.
    LockAcquire {
        /// Lock id.
        lock: u32,
        /// Requester's logged vector time.
        vt: VTime,
    },
    /// Traditional API: release a lock, pushing interval records the home
    /// may not have seen. Records are immutable once logged, so they are
    /// shared by `Arc` rather than deep-copied per message.
    LockRelease {
        /// Lock id.
        lock: u32,
        /// Interval records the home may be missing.
        records: Vec<Arc<IntervalRecord>>,
    },
    /// Arrive at barrier `episode`, pushing this node's new interval records
    /// (empty under VC: barriers synchronize only).
    BarrierArrive {
        /// 0-based barrier episode.
        episode: u32,
        /// New interval records (empty under VC).
        records: Vec<Arc<IntervalRecord>>,
        /// The arriver's logged vector time.
        vt: VTime,
    },
    /// VOPP: acquire a view; `have` is the latest view version already
    /// applied locally.
    ViewAcquire {
        /// View id.
        view: ViewId,
        /// Read or write access.
        mode: AccessMode,
        /// Latest view version already applied at the requester.
        have: u32,
    },
    /// VOPP: release a view. Write releases carry the dirtied pages (and,
    /// under `VC_sd`, the diffs themselves for integration at the home).
    ViewRelease {
        /// View id.
        view: ViewId,
        /// Read or write access being released.
        mode: AccessMode,
        /// The writer-side interval of this release (write mode, dirty).
        interval: Option<IntervalId>,
        /// Releaser's happens-before scalar.
        lamport: u64,
        /// Pages dirtied (write mode).
        pages: Vec<PageId>,
        /// The diffs themselves (`VC_sd` only), shared with the releaser's
        /// diff store.
        diffs: Vec<(PageId, Diff)>,
    },
    /// Fetch the diffs of specific intervals of one page from their creator
    /// (the invalidate-protocol fault path).
    DiffReq {
        /// Faulted page.
        page: PageId,
        /// The intervals whose diffs are needed.
        intervals: Vec<IntervalId>,
    },
    /// Fetch the full current content of a *view* page from its most recent
    /// writer. Used by `VC_d` when many per-interval diffs have accumulated:
    /// view writes are serialized, so the last writer's copy is complete —
    /// one page transfer replaces a fan-out of diff fetches (the classic
    /// TreadMarks "get whole page" escape hatch).
    PageReq {
        /// The page whose full content is requested.
        page: PageId,
    },
    /// HLRC: eagerly flush interval diffs to the pages' home node, which
    /// applies them immediately so its copies stay current.
    HomeFlush {
        /// `(page, diff)` pairs for pages homed at the destination.
        items: Vec<(PageId, Diff)>,
    },
}

impl Req {
    /// Full wire size, including headers.
    pub fn wire_bytes(&self) -> usize {
        HEADER_BYTES
            + match self {
                Req::LockAcquire { vt, .. } => 4 + vt.wire_bytes(),
                Req::LockRelease { records, .. } => {
                    4 + records.iter().map(|r| r.wire_bytes()).sum::<usize>()
                }
                Req::BarrierArrive { records, vt, .. } => {
                    8 + vt.wire_bytes() + records.iter().map(|r| r.wire_bytes()).sum::<usize>()
                }
                Req::ViewAcquire { .. } => 9,
                Req::ViewRelease { pages, diffs, .. } => {
                    21 + 4 * pages.len() + diffs.iter().map(|(_, d)| d.wire_bytes()).sum::<usize>()
                }
                Req::DiffReq { intervals, .. } => 4 + 8 * intervals.len(),
                Req::PageReq { .. } => 4,
                Req::HomeFlush { items } => {
                    items.iter().map(|(_, d)| 4 + d.wire_bytes()).sum::<usize>()
                }
            }
    }
}

/// Replies (application/mailbox class). Every reply answers one [`Req`].
#[derive(Debug, Clone)]
pub enum Resp {
    /// Generic acknowledgement.
    Ack,
    /// Lock granted: the interval records the requester was missing, the
    /// grantor's vector time to advance to, and its lamport clock.
    LockGrant {
        /// Interval records the requester was missing.
        records: Vec<Arc<IntervalRecord>>,
        /// Grantor's logged vector time (consistency target).
        vt: VTime,
        /// Grantor's happens-before scalar.
        lamport: u64,
    },
    /// Barrier released (same payload as a lock grant; empty under VC).
    BarrierRelease {
        /// Interval records the arriver was missing (empty under VC).
        records: Vec<Arc<IntervalRecord>>,
        /// Manager's logged vector time (empty under VC).
        vt: VTime,
        /// Manager's happens-before scalar.
        lamport: u64,
    },
    /// View granted. `VC_d` sends history records (invalidations to fault
    /// on); `VC_sd` piggy-backs one integrated diff per stale page.
    ViewGrant {
        /// Missed release records (`VC_d`: invalidations to fault on),
        /// shared with the home's release history.
        records: Vec<Arc<ViewRecord>>,
        /// Integrated diffs per stale page (`VC_sd`). A single missed
        /// release is shared as-is; multiple releases merge into one fresh
        /// integrated diff.
        diffs: Vec<(PageId, Diff)>,
        /// The view's current version.
        version: u32,
        /// Home's happens-before scalar.
        lamport: u64,
    },
    /// Write release acknowledged; `version` is the release's assigned view
    /// version (the releaser is already up to date with its own write).
    ReleaseAck {
        /// Version assigned to the release (unchanged if nothing was dirty).
        version: u32,
    },
    /// The requested diffs, with their application-order keys.
    DiffResp {
        /// `(interval, lamport, diff)` triples, application-ordered by the
        /// requester. Diffs are shared with the serving node's diff store.
        items: Vec<(IntervalId, u64, Diff)>,
    },
    /// Full page content (answers [`Req::PageReq`]); `None` when the
    /// server no longer holds a valid copy and the requester must fall
    /// back to per-interval diff fetches.
    PageResp {
        /// The page content, or `None` if the server's copy was invalid.
        content: Option<Box<PageBuf>>,
    },
}

impl Resp {
    /// Full wire size, including headers.
    pub fn wire_bytes(&self) -> usize {
        HEADER_BYTES
            + match self {
                Resp::Ack => 0,
                Resp::LockGrant { records, vt, .. } | Resp::BarrierRelease { records, vt, .. } => {
                    8 + vt.wire_bytes() + records.iter().map(|r| r.wire_bytes()).sum::<usize>()
                }
                Resp::ViewGrant { records, diffs, .. } => {
                    12 + records.iter().map(|r| r.wire_bytes()).sum::<usize>()
                        + diffs.iter().map(|(_, d)| d.wire_bytes()).sum::<usize>()
                }
                Resp::ReleaseAck { .. } => 4,
                Resp::DiffResp { items } => items
                    .iter()
                    .map(|(_, _, d)| 16 + d.wire_bytes())
                    .sum::<usize>(),
                Resp::PageResp { content } => {
                    4 + content.as_ref().map_or(0, |_| crate::PAGE_SIZE_WIRE)
                }
            }
    }
}

/// Wire size of a batch of write notices (used in sanity checks).
pub fn notices_wire_bytes(n: usize) -> usize {
    n * NOTICE_WIRE_BYTES
}

/// Mailbox tag of the one-sided grant data the home writes into an
/// acquirer's preposted buffer under `VC_rdma`. Bit 62 keeps the RDMA tag
/// space disjoint from RPC reply tags (bit 63).
pub fn rdma_grant_tag(view: ViewId) -> u64 {
    (1 << 62) | view as u64
}

/// Mailbox tag of the one-sided release-diff data a writer deposits at the
/// view home under `VC_rdma` (bit 40 separates it from grant data).
pub fn rdma_release_tag(view: ViewId) -> u64 {
    (1 << 62) | (1 << 40) | view as u64
}

/// Wire size of a one-sided diff deposit (`VC_rdma`): one RDMA write
/// carrying each page's id and diff, plus the transport header.
pub fn one_sided_diffs_wire_bytes(diffs: &[(PageId, Diff)]) -> usize {
    HEADER_BYTES + diffs.iter().map(|(_, d)| 4 + d.wire_bytes()).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vopp_page::PageBuf;

    #[test]
    fn sizes_are_header_plus_payload() {
        let vt = VTime::zero(16);
        assert_eq!(
            Req::LockAcquire {
                lock: 3,
                vt: vt.clone()
            }
            .wire_bytes(),
            HEADER_BYTES + 4 + 64
        );
        assert_eq!(Resp::Ack.wire_bytes(), HEADER_BYTES);
        assert_eq!(
            Req::ViewAcquire {
                view: 1,
                mode: AccessMode::Read,
                have: 0
            }
            .wire_bytes(),
            HEADER_BYTES + 9
        );
    }

    #[test]
    fn diff_payloads_counted() {
        let mut p = PageBuf::zeroed();
        p.set_word(0, 1);
        let d = Diff::create(&PageBuf::zeroed(), &p);
        let grant = Resp::ViewGrant {
            records: vec![],
            diffs: vec![(0, d.clone())],
            version: 1,
            lamport: 1,
        };
        assert_eq!(grant.wire_bytes(), HEADER_BYTES + 12 + d.wire_bytes());
        let rel = Req::ViewRelease {
            view: 0,
            mode: AccessMode::Write,
            interval: None,
            lamport: 0,
            pages: vec![0, 1],
            diffs: vec![(0, d.clone())],
        };
        assert_eq!(rel.wire_bytes(), HEADER_BYTES + 21 + 8 + d.wire_bytes());
    }

    #[test]
    fn view_record_size_scales() {
        let r = ViewRecord {
            version: 1,
            id: IntervalId { owner: 0, seq: 1 },
            lamport: 1,
            pages: vec![1, 2, 3],
        };
        assert_eq!(r.wire_bytes(), 32);
    }
}
