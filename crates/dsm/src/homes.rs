//! Manager roles (lock homes, the barrier manager, view homes) and the
//! service handler that runs them.
//!
//! Every manager lives on its home node and executes inside that node's
//! service handler — the simulation analogue of TreadMarks' SIGIO request
//! handlers. All handlers are idempotent: the reliable transport may deliver
//! duplicate requests after a retransmission.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use vopp_page::{Diff, IntegratedPage, PageId, VTime};
use vopp_sim::sync::Mutex;
use vopp_sim::{Handler, Payload, ProcId, SvcCtx};
use vopp_simnet::reply;

use crate::msg::{AccessMode, Req, Resp, ViewRecord};
use crate::node::NodeState;
use crate::protocol::vc::{rdma_read, rdma_write, Buffer};
use crate::protocol::{Family, PageSource, ViewData};

/// A queued lock request.
#[derive(Debug, Clone)]
pub struct LockWaiter {
    /// Requesting processor.
    pub proc: ProcId,
    /// Reply tag of the pending rpc.
    pub tag: u64,
    /// The requester's logged vector time (sizes the grant delta).
    pub vt: VTime,
}

/// State of one lock at its home.
#[derive(Debug, Clone, Default)]
pub struct LockHome {
    /// Current holder, if any.
    pub holder: Option<ProcId>,
    /// FIFO of waiting requests.
    pub queue: VecDeque<LockWaiter>,
}

/// State of the (centralized) barrier manager.
#[derive(Debug, Clone, Default)]
pub struct BarrierHome {
    /// Completed episodes.
    pub episodes_done: u32,
    /// Arrivals of the current episode: proc -> (reply tag, vector time).
    pub arrived: BTreeMap<ProcId, (u64, VTime)>,
}

/// A queued view request.
#[derive(Debug, Clone)]
pub struct ViewWaiter {
    /// Requesting processor.
    pub proc: ProcId,
    /// Reply tag of the pending rpc.
    pub tag: u64,
    /// Read or write access.
    pub mode: AccessMode,
    /// Latest view version already applied at the requester.
    pub have: u32,
}

/// State of one view at its home.
///
/// What a grant must carry is kept current as releases arrive, so serving a
/// requester never walks the view's release history: `VC_d` and ScC grants
/// slice `records`; `VC_sd` and `VC_rdma` grants read `integrated`, whose
/// size is fixed by the view's page count, not by how often it was released.
#[derive(Debug, Clone, Default)]
pub struct ViewHome {
    /// Current exclusive holder.
    pub writer: Option<ProcId>,
    /// Current read holders.
    pub readers: BTreeSet<ProcId>,
    /// FIFO of waiting requests.
    pub queue: VecDeque<ViewWaiter>,
    /// Number of write releases so far (the view's version).
    pub version: u32,
    /// `VC_d` / ScC: release history (grants send the slice a requester
    /// missed). Records are immutable once appended and `Arc`-shared with
    /// grants. Empty under the update protocols, which never read it.
    pub records: Vec<Arc<ViewRecord>>,
    /// `VC_sd` / `VC_rdma`: per page, every release's diff overlaid in
    /// version order as it arrived. A grant reads off one integrated diff
    /// per stale page (the CCGrid'05 "single diff") in O(page), however
    /// many releases the requester missed.
    pub integrated: BTreeMap<PageId, IntegratedPage>,
    /// Last version assigned to each releaser (idempotent release acks).
    pub last_write_release: BTreeMap<ProcId, u32>,
}

impl ViewHome {
    /// Fold the diffs of release `version` into the integration state.
    fn absorb(&mut self, version: u32, diffs: &[(PageId, Diff)]) {
        for (p, d) in diffs {
            self.integrated
                .entry(*p)
                .or_default()
                .absorb(version, d.clone());
        }
    }

    /// One integrated diff per page released after version `have`, in page
    /// order. A page only one such release touched shares that release's
    /// diff with the releaser's diff store — the common case pays no copy.
    fn integrated_since(&self, have: u32) -> Vec<(PageId, Diff)> {
        self.integrated
            .iter()
            .filter_map(|(p, page)| Some((*p, page.newer_than(have)?)))
            .collect()
    }
}

/// Build the service handler for one node.
pub fn make_handler(node: Arc<Mutex<NodeState>>) -> Handler {
    // Every ack is the same message: one payload, shared by every reply.
    let ack: Payload = Arc::new(Resp::Ack);
    Box::new(move |svc, pkt| {
        let tag = pkt.tag;
        let src = pkt.src;
        // The sender's `RpcClient` keeps the payload for retransmission, so
        // the request is shared: borrow it and copy only what a home stores.
        let req = pkt.expect_arc::<Req>();
        handle(&mut node.lock(), svc, src, tag, &req, &ack);
    })
}

fn handle(
    n: &mut NodeState,
    svc: &mut SvcCtx<'_>,
    src: ProcId,
    tag: u64,
    req: &Req,
    ack: &Payload,
) {
    match req {
        Req::LockAcquire { lock, vt } => {
            let mut h = n.locks.remove(lock).unwrap_or_default();
            if h.holder == Some(src) {
                // Duplicate of a request we already granted.
                send_lock_grant(n, svc, src, tag, vt);
            } else if h.holder.is_none() && h.queue.is_empty() {
                h.holder = Some(src);
                send_lock_grant(n, svc, src, tag, vt);
            } else if let Some(w) = h.queue.iter_mut().find(|w| w.proc == src) {
                w.tag = tag;
                w.vt.clone_from(vt);
            } else {
                h.queue.push_back(LockWaiter {
                    proc: src,
                    tag,
                    vt: vt.clone(),
                });
            }
            n.locks.insert(*lock, h);
        }

        Req::LockRelease { lock, records } => {
            n.learn(records);
            let mut h = n.locks.remove(lock).unwrap_or_default();
            if h.holder == Some(src) {
                h.holder = None;
                if let Some(w) = h.queue.pop_front() {
                    h.holder = Some(w.proc);
                    send_lock_grant(n, svc, w.proc, w.tag, &w.vt);
                }
            }
            // Duplicate releases (holder already moved on) are just acked.
            n.locks.insert(*lock, h);
            reply(svc, src, Resp::Ack.wire_bytes(), tag, ack.clone());
        }

        Req::BarrierArrive {
            episode,
            records,
            vt,
        } => {
            n.learn(records);
            if *episode < n.barrier.episodes_done {
                // The release for this episode was lost: regenerate it.
                send_barrier_release(n, svc, src, tag, vt);
                return;
            }
            debug_assert_eq!(*episode, n.barrier.episodes_done, "barrier episode skew");
            n.barrier.arrived.insert(src, (tag, vt.clone()));
            if n.barrier.arrived.len() == n.n {
                let arrived = std::mem::take(&mut n.barrier.arrived);
                n.barrier.episodes_done += 1;
                for (proc, (ptag, pvt)) in arrived {
                    send_barrier_release(n, svc, proc, ptag, &pvt);
                }
            }
        }

        &Req::ViewAcquire { view, mode, have } => {
            let mut h = n.views.remove(&view).unwrap_or_default();
            let free = h.writer.is_none() && h.queue.is_empty();
            let (already, can) = match mode {
                AccessMode::Write => (h.writer == Some(src), free && h.readers.is_empty()),
                AccessMode::Read => (h.readers.contains(&src), free),
            };
            if already {
                send_view_grant(n, &h, svc, view, src, tag, have);
            } else if can {
                admit(&mut h, src, mode);
                send_view_grant(n, &h, svc, view, src, tag, have);
            } else if let Some(w) = h.queue.iter_mut().find(|w| w.proc == src) {
                w.tag = tag;
                w.have = have;
                w.mode = mode;
            } else {
                h.queue.push_back(ViewWaiter {
                    proc: src,
                    tag,
                    mode,
                    have,
                });
            }
            n.views.insert(view, h);
        }

        Req::ViewRelease {
            view,
            mode: AccessMode::Write,
            interval,
            lamport,
            pages,
            diffs,
        } => {
            let (view, lamport) = (*view, *lamport);
            n.lamport_sync(lamport);
            let mut h = n.views.remove(&view).unwrap_or_default();
            if h.writer == Some(src) {
                h.writer = None;
                let version = if pages.is_empty() {
                    h.version
                } else {
                    h.version += 1;
                    let v = h.version;
                    match n.protocol.view_data() {
                        ViewData::Notices => h.records.push(Arc::new(ViewRecord {
                            version: v,
                            id: interval.expect("write release with pages but no interval id"),
                            lamport,
                            pages: pages.clone(),
                        })),
                        ViewData::Inline => h.absorb(v, diffs),
                        ViewData::OneSided => {
                            // The diffs were written one-sided ahead of this
                            // request. Retransmitted duplicates take the
                            // else branch below and never reach this read.
                            let take = |tag| svc.take_one_sided(src, tag);
                            let data = rdma_read(Buffer::Release(view), take);
                            h.absorb(v, &data.expect("VC_rdma release data must precede it"));
                        }
                    }
                    v
                };
                h.last_write_release.insert(src, version);
                respond(svc, src, tag, Resp::ReleaseAck { version });
                grant_next(n, &mut h, svc, view);
            } else {
                // Duplicate release after the original was processed.
                let version = h.last_write_release.get(&src).copied().unwrap_or(h.version);
                respond(svc, src, tag, Resp::ReleaseAck { version });
            }
            n.views.insert(view, h);
        }

        &Req::ViewRelease {
            view,
            mode: AccessMode::Read,
            ..
        } => {
            let mut h = n.views.remove(&view).unwrap_or_default();
            h.readers.remove(&src);
            reply(svc, src, Resp::Ack.wire_bytes(), tag, ack.clone());
            if h.readers.is_empty() && h.writer.is_none() {
                grant_next(n, &mut h, svc, view);
            }
            n.views.insert(view, h);
        }

        Req::DiffReq { page, intervals } => {
            let items = n.serve_diffs(*page, intervals);
            respond(svc, src, tag, Resp::DiffResp { items });
        }

        Req::HomeFlush { items } => {
            // Apply eagerly so this home's copies stay current. If the
            // application thread has a live twin on a page, update the twin
            // too, so the flushed words are not re-attributed to this node's
            // next diff (concurrent writers are word-disjoint in DRF
            // programs).
            debug_assert_eq!(n.protocol.page_source(), PageSource::Home);
            for (page, diff) in items {
                debug_assert_eq!(n.page_home(*page), n.me, "flush sent to wrong home");
                n.mem.apply_diff_with_twin(*page, diff);
                n.stats.diffs_applied += 1;
            }
            reply(svc, src, Resp::Ack.wire_bytes(), tag, ack.clone());
        }

        &Req::PageReq { page } => {
            // Serve the full current content if this node still holds a
            // valid copy; otherwise the requester falls back to diffs.
            // (For view pages the copy is provably valid while the
            // requester holds the view; for LRC single-writer pages an
            // invalidation race is possible in principle.)
            let content = if n.mem.state(page) == vopp_page::PageState::Invalid {
                None
            } else {
                Some(n.mem.clone_page(page))
            };
            respond(svc, src, tag, Resp::PageResp { content });
        }
    }
}

/// Answer the request `tag` from `dst` with `resp`.
fn respond(svc: &mut SvcCtx<'_>, dst: ProcId, tag: u64, resp: Resp) {
    reply(svc, dst, resp.wire_bytes(), tag, Arc::new(resp));
}

fn admit(h: &mut ViewHome, proc: ProcId, mode: AccessMode) {
    match mode {
        AccessMode::Write => h.writer = Some(proc),
        AccessMode::Read => {
            h.readers.insert(proc);
        }
    }
}

/// Admit as many queued requests as compatibility allows: one writer, or a
/// maximal batch of consecutive readers.
fn grant_next(n: &NodeState, h: &mut ViewHome, svc: &mut SvcCtx<'_>, view: crate::layout::ViewId) {
    while let Some(front) = h.queue.front() {
        let ok = match front.mode {
            AccessMode::Write => h.writer.is_none() && h.readers.is_empty(),
            AccessMode::Read => h.writer.is_none(),
        };
        if !ok {
            break;
        }
        let w = h.queue.pop_front().unwrap();
        admit(h, w.proc, w.mode);
        send_view_grant(n, h, svc, view, w.proc, w.tag, w.have);
        if w.mode == AccessMode::Write {
            break;
        }
    }
}

fn send_lock_grant(n: &NodeState, svc: &mut SvcCtx<'_>, dst: ProcId, tag: u64, req_vt: &VTime) {
    debug_assert!(
        n.protocol.is_lrc_family(),
        "locks are a traditional-API feature"
    );
    let records = n.delta_since(req_vt);
    let resp = Resp::LockGrant {
        records,
        vt: n.logged_vt.clone(),
        lamport: n.lamport,
    };
    respond(svc, dst, tag, resp);
}

fn send_barrier_release(
    n: &NodeState,
    svc: &mut SvcCtx<'_>,
    dst: ProcId,
    tag: u64,
    req_vt: &VTime,
) {
    let (records, vt) = match n.protocol.family() {
        Family::Lrc => (n.delta_since(req_vt), n.logged_vt.clone()),
        // VC barriers synchronize only: no consistency payload (paper §3.2).
        Family::Vc => (Vec::new(), VTime::zero(0)),
    };
    let resp = Resp::BarrierRelease {
        records,
        vt,
        lamport: n.lamport,
    };
    respond(svc, dst, tag, resp);
}

fn send_view_grant(
    n: &NodeState,
    h: &ViewHome,
    svc: &mut SvcCtx<'_>,
    view: crate::layout::ViewId,
    dst: ProcId,
    tag: u64,
    have: u32,
) {
    // ScC scoped grants look exactly like VC_d view grants: release
    // records newer than the requester's version, diffs on fault. A
    // requester's own releases are elided — it applied them locally —
    // except when it asks from version 0: in steady state no own records
    // predate a node's first acquire, so `have == 0` with own history means
    // a crashed node rebuilding from the home, and it needs its own
    // releases back (their diffs still sit in its durable diff store).
    let mut data_bytes = 0;
    let (records, diffs) = match n.protocol.view_data() {
        ViewData::Notices => (
            h.records
                .iter()
                .filter(|r| r.version > have && (have == 0 || r.id.owner != dst))
                .cloned()
                .collect(),
            Vec::new(),
        ),
        ViewData::Inline => (Vec::new(), h.integrated_since(have)),
        // The grant message itself stays slim.
        ViewData::OneSided => {
            let send = |w, c, t, p| svc.send(dst, w, c, t, p);
            data_bytes = rdma_write(Buffer::Grant(view), h.integrated_since(have), send);
            (Vec::new(), Vec::new())
        }
    };
    let resp = Resp::ViewGrant {
        records,
        diffs,
        version: h.version,
        lamport: n.lamport,
    };
    svc.trace(vopp_sim::EventKind::ViewGrantSent {
        view: view as u64,
        to: dst,
        version: h.version as u64,
        bytes: resp.wire_bytes() as u64 + data_bytes,
    });
    respond(svc, dst, tag, resp);
}

#[cfg(test)]
mod tests {
    use super::*;
    fn diff(word_off: u32, words: Vec<u32>) -> Diff {
        Diff::from_runs([(word_off, &words[..])])
    }

    #[test]
    fn single_missed_release_is_shared_with_the_releaser() {
        let mut h = ViewHome::default();
        let (r1, r2, r3) = (diff(0, vec![1, 1]), diff(1, vec![2, 2]), diff(8, vec![3]));
        h.absorb(1, &[(4, r1.clone()), (5, r1.clone())]);
        h.absorb(2, &[(4, r2.clone())]);
        h.absorb(3, &[(4, r3.clone())]);

        // Up to date: nothing to send.
        assert!(h.integrated_since(3).is_empty());
        // Missed one release: the releaser's own allocation, not a copy.
        let one = h.integrated_since(2);
        assert_eq!(one.len(), 1);
        assert!(one[0].1.shares_buffer(&r3));
        // Missed two on page 4, none on page 5: one fresh integrated diff.
        let two = h.integrated_since(1);
        assert_eq!(two.len(), 1);
        assert_eq!(two[0].1, r2.merge(&r3));
        // Missed everything (a crashed node re-acquiring from version 0):
        // page 5 saw a single release in all that time and is still shared.
        let all = h.integrated_since(0);
        assert_eq!(all.iter().map(|(p, _)| *p).collect::<Vec<_>>(), [4, 5]);
        assert_eq!(all[0].1, r1.merge(&r2).merge(&r3));
        assert!(all[1].1.shares_buffer(&r1));
    }
}
