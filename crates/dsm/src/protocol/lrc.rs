//! The LRC family: LRC_d, HLRC and ScC (docs/PROTOCOLS.md). Consistency
//! covers the whole memory: a lock grant or barrier release carries the
//! write notices the acquirer has not seen, absorbing it invalidates their
//! pages, and faults fetch the data. HLRC flushes diffs to page homes and
//! fetches whole pages from them; ScC's locks are scopes on the view round
//! trip (`vc.rs`), and its barriers skip what a scoped grant enforced.

use std::collections::BTreeMap;
use std::sync::Arc;

use vopp_metrics::Phase;
use vopp_page::{IntervalRecord, VTime};
use vopp_sim::{EventKind, ProcId};

use crate::api::DsmCtx;
use crate::msg::{AccessMode, Req, Resp, ViewRecord};
use crate::node::{NodeState, PageDiffs};

impl NodeState {
    /// Absorb a lock grant or barrier release: log the records, then
    /// enforce consistency up to `vt` by invalidating every page written in
    /// intervals this node has not yet applied. A VC barrier release has an
    /// empty `vt`, so absorbing it only syncs the lamport clock.
    pub fn absorb_lrc_grant(&mut self, records: &[Arc<IntervalRecord>], vt: &VTime, lamport: u64) {
        self.merge_logged(records);
        self.lamport_sync(lamport);
        if vt.is_empty() {
            return;
        }
        let scoped = self.protocol.scoped_locks();
        let log = Arc::clone(&self.log);
        let log = log.lock();
        for owner in 0..self.n {
            if owner == self.me {
                continue;
            }
            let from = self.applied_vt.get(owner) as usize;
            let to = vt.get(owner) as usize;
            if to <= from {
                continue;
            }
            let missing = self
                .known(&log, owner)
                .get(from..to)
                .unwrap_or_else(|| panic!("node {} missing record ({owner},{to})", self.me));
            for rec in missing {
                // ScC: already enforced through a scoped lock grant.
                if !(scoped && self.scoped_applied.contains(&rec.id)) {
                    self.invalidate(rec.id, rec.lamport, &rec.pages);
                }
            }
        }
        self.applied_vt.join_from(vt);
    }

    /// ScC: absorb a scoped lock grant — invalidate the pages of each
    /// release record not yet enforced on this node.
    fn absorb_scope_grant(&mut self, records: &[Arc<ViewRecord>], lamport: u64) {
        self.lamport_sync(lamport);
        for r in records {
            if r.id.owner != self.me && self.scoped_applied.insert(r.id) {
                self.invalidate(r.id, r.lamport, &r.pages);
            }
        }
    }
}

impl DsmCtx<'_> {
    /// Acquire lock `lock` (traditional API; LRC/HLRC/ScC).
    ///
    /// Under Scope Consistency the grant enforces only the updates made
    /// under this lock's scope (paper §4); under the LRC family it enforces
    /// everything the grantor knows.
    pub fn lock_acquire(&self, lock: u32) {
        assert!(
            self.protocol.is_lrc_family(),
            "locks belong to the traditional API; VOPP programs use views"
        );
        self.flush();
        let t0 = self.sim.now();
        self.trace(EventKind::LockAcquireStart { lock: lock as u64 });
        self.close_interval();
        let home = self.node().lock_home(lock);
        let (fresh, scope) = if self.protocol.scoped_locks() {
            // The scope's release records newer than what this node has
            // enforced, exactly like a `VC_d` view grant — but the scope's
            // page set is whatever its releases dirtied.
            let g = self.view_grant(home, lock, AccessMode::Write);
            let mut n = self.node();
            let fresh = if self.tracing() {
                g.records
                    .iter()
                    .filter(|r| r.id.owner != n.me && !n.scoped_applied.contains(&r.id))
                    .map(|r| (r.id.owner, r.id.seq as u64, r.pages.len() as u64))
                    .collect()
            } else {
                Vec::new()
            };
            n.absorb_scope_grant(&g.records, g.lamport);
            (fresh, lock as u64 + 1)
        } else {
            let vt = self.node().logged_vt.clone();
            let req = Req::LockAcquire { lock, vt };
            let Resp::LockGrant {
                records,
                vt,
                lamport,
            } = self.call(home, req, Phase::AcquireWait, lock as u64)
            else {
                panic!("lock_acquire got an unexpected reply")
            };
            let fresh = self.fresh_lrc_notices(&records);
            let mut n = self.node();
            n.absorb_lrc_grant(&records, &vt, lamport);
            n.note_home_knows(home, &vt);
            (fresh, 0)
        };
        {
            let mut n = self.node();
            n.stats.acquires += 1;
            n.stats.acquire_wait_ns += (self.sim.now() - t0).nanos();
        }
        self.emit_notices(fresh, scope);
        self.trace(EventKind::LockAcquireEnd { lock: lock as u64 });
        if let Some(rc) = &self.rc {
            rc.lock_acquired(self.me(), lock);
        }
    }

    /// Release lock `lock`, pushing this node's new interval records to the
    /// lock home (LRC family) or publishing this scope's release record
    /// (ScC).
    pub fn lock_release(&self, lock: u32) {
        assert!(self.protocol.is_lrc_family());
        self.flush();
        let sealed = self.close_interval();
        if let Some(rc) = &self.rc {
            // Publish this node's ordering before the release message: the
            // home may grant the lock to a remote acquirer while this
            // thread is still blocked on the Ack.
            rc.lock_released(self.me(), lock);
        }
        let home = self.node().lock_home(lock);
        if self.protocol.scoped_locks() {
            if let Some((id, ..)) = &sealed {
                // This node's own release is already enforced locally.
                self.node().scoped_applied.insert(*id);
            }
            self.release_to_view_home(home, lock, AccessMode::Write, sealed);
        } else {
            let records = self.node().delta_for_home(home);
            let req = Req::LockRelease { lock, records };
            let resp = self.call(home, req, Phase::SendWait, lock as u64);
            assert!(matches!(resp, Resp::Ack), "lock_release expects Ack");
        }
        self.trace(EventKind::LockRelease { lock: lock as u64 });
    }

    /// HLRC: flush a closed interval's diffs to their pages' homes, and wait
    /// for every ack, before any synchronization message is sent — the
    /// flush-before-sync invariant that keeps home copies current when
    /// invalidated readers fetch them.
    pub(crate) fn flush_to_homes(&self, diffs: &PageDiffs) {
        let mut groups: BTreeMap<ProcId, Vec<_>> = BTreeMap::new();
        for (p, d) in diffs.iter() {
            let home = self.layout.page_home(*p, self.nprocs());
            // The home's own pages are already current locally.
            if home != self.me() {
                groups.entry(home).or_default().push((*p, d.clone()));
            }
        }
        if !groups.is_empty() {
            let flushes = groups
                .into_iter()
                .map(|(home, items)| (home, Req::HomeFlush { items }));
            self.call_all(flushes, Phase::SendWait, 0, None, |resp| {
                assert!(matches!(resp, Resp::Ack));
            });
        }
    }

    /// The subset of grant `records` this node has not yet logged, as
    /// `(owner, seq, pages)` triples for [`EventKind::WriteNoticeApply`]
    /// events. Empty when tracing is off. Filtering against the pre-merge
    /// log keeps each `(scope, owner)` notice series strictly increasing
    /// even when a duplicate grant re-sends known records.
    pub(crate) fn fresh_lrc_notices(
        &self,
        records: &[Arc<IntervalRecord>],
    ) -> Vec<(ProcId, u64, u64)> {
        if !self.tracing() || records.is_empty() {
            return Vec::new();
        }
        let n = self.node();
        records
            .iter()
            .filter(|r| r.id.seq > n.logged_vt.get(r.id.owner))
            .map(|r| (r.id.owner, r.id.seq as u64, r.pages.len() as u64))
            .collect()
    }
}
