//! vopp-racecheck: dynamic correctness checking for both programming models
//! the paper compares (§2, §3).
//!
//! One [`RaceChecker`] holds both checks; the DSM layer calls the hooks of
//! the one its protocol family needs:
//!
//! * **Happens-before data-race detection** for traditional lock/barrier
//!   programs on the LRC-family protocols. Every shared access is recorded
//!   as a per-word-range shadow record carrying the accessor's vector-clock
//!   epoch; locks and barriers propagate vector timestamps
//!   ([`vopp_page::VTime`], the same machinery the protocols use). Two
//!   overlapping accesses from different nodes, at least one a write, with
//!   neither ordered before the other, are a data race. Detection is
//!   *word-range* precise: false sharing (distinct ranges on one page) is
//!   not a race.
//! * **View-discipline checking** for VOPP programs on the VC-family
//!   protocols: every shared access must fall inside a currently-acquired
//!   view that owns the touched addresses, and writes need the exclusive
//!   view (paper §2: "debugging is easier since the runtime can detect view
//!   access violations"). The DSM layer classifies each violation into a
//!   [`DisciplineRule`] and reports it here.
//!
//! The checker is pure observation: it never blocks, never advances virtual
//! time, and deduplicates violations by a canonical key so seeded-racy runs
//! produce exact, deterministic counts.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use vopp_page::{pages_spanned, Addr, PageId, VTime, PAGE_SIZE};

/// One recorded shared-memory access, as named in a race report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct AccessRec {
    /// The accessing node.
    pub node: usize,
    /// First byte touched (absolute shared address).
    pub start: Addr,
    /// One past the last byte touched.
    pub end: Addr,
    /// Whether the access was a write.
    pub write: bool,
    /// The accessor's own vector-clock component at access time.
    pub clock: u32,
}

impl AccessRec {
    fn describe(&self) -> String {
        format!(
            "node {} {} [{:#x}, {:#x}) @epoch {}",
            self.node,
            if self.write { "write" } else { "read" },
            self.start,
            self.end,
            self.clock
        )
    }
}

/// Why a VOPP access violates the view discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DisciplineRule {
    /// The address belongs to no declared view (shared data outside views).
    OutsideViews,
    /// The address belongs to a view, but no view is held at all.
    Unbracketed,
    /// A view is held, but the address belongs to a different view.
    ForeignView,
    /// A write while the owning view is held read-only (`acquire_Rview`).
    ReadOnlyWrite,
}

impl DisciplineRule {
    /// Stable snake_case label (used in reports and trace events).
    pub fn label(self) -> &'static str {
        match self {
            DisciplineRule::OutsideViews => "outside_views",
            DisciplineRule::Unbracketed => "unbracketed",
            DisciplineRule::ForeignView => "foreign_view",
            DisciplineRule::ReadOnlyWrite => "read_only_write",
        }
    }
}

/// One confirmed violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two unordered conflicting accesses (LRC-family runs).
    DataRace {
        /// Page both accesses touch.
        page: PageId,
        /// The earlier-recorded access.
        first: AccessRec,
        /// The access that completed the race.
        second: AccessRec,
    },
    /// A view-discipline violation (VC-family runs).
    Discipline {
        /// The broken rule.
        rule: DisciplineRule,
        /// The offending node.
        node: usize,
        /// The view owning the touched addresses, if any.
        view: Option<u32>,
        /// Page touched.
        page: PageId,
        /// First byte touched (absolute shared address).
        start: Addr,
        /// One past the last byte touched.
        end: Addr,
        /// Whether the access was a write.
        write: bool,
    },
}

impl Violation {
    /// One-line human-readable description naming node, page/view, address
    /// range and (for races) the two unordered accesses.
    pub fn describe(&self) -> String {
        match self {
            Violation::DataRace {
                page,
                first,
                second,
            } => format!(
                "data race on page {page}: {} is unordered with {}",
                first.describe(),
                second.describe()
            ),
            Violation::Discipline {
                rule,
                node,
                view,
                page,
                start,
                end,
                write,
            } => {
                let v = match view {
                    Some(v) => format!("view {v}"),
                    None => "no view".to_string(),
                };
                format!(
                    "view discipline ({}) on node {node}: {} [{start:#x}, {end:#x}) \
                     on page {page} ({v})",
                    rule.label(),
                    if *write { "write" } else { "read" },
                )
            }
        }
    }

    /// Canonical deduplication key: the same logical violation detected
    /// from either side (or repeatedly) maps to one key.
    fn key(&self) -> String {
        match self {
            Violation::DataRace {
                page,
                first,
                second,
            } => {
                let (a, b) = if first <= second {
                    (first, second)
                } else {
                    (second, first)
                };
                format!(
                    "race:{page}:{}:{}:{}:{}:{}:{}:{}:{}",
                    a.node, a.start, a.end, a.write, b.node, b.start, b.end, b.write
                )
            }
            Violation::Discipline {
                rule,
                node,
                view,
                page,
                start,
                end,
                write,
            } => format!(
                "disc:{}:{node}:{view:?}:{page}:{start}:{end}:{write}",
                rule.label()
            ),
        }
    }
}

/// A shadow access record kept per page.
#[derive(Debug, Clone, Copy)]
struct Shadow {
    start: Addr,
    end: Addr,
    node: usize,
    write: bool,
    clock: u32,
}

#[derive(Default)]
struct Inner {
    n: usize,
    /// Per-node vector clock; node `i`'s own component starts at 1 so the
    /// initial epoch is distinguishable from "never synchronized with".
    clocks: Vec<VTime>,
    /// Per-lock release clock (join of every releaser's clock).
    locks: BTreeMap<u32, VTime>,
    /// Per-barrier-episode clock (join of every arriver's clock).
    barriers: BTreeMap<u32, VTime>,
    /// How many nodes have left each episode (for garbage collection).
    barrier_exits: BTreeMap<u32, usize>,
    /// Per-page shadow access records.
    shadow: BTreeMap<PageId, Vec<Shadow>>,
    violations: Vec<Violation>,
    seen: BTreeSet<String>,
}

impl Inner {
    /// Record `v` unless its canonical key was already seen. Returns
    /// whether it was fresh.
    fn push(&mut self, v: Violation) -> bool {
        if self.seen.insert(v.key()) {
            self.violations.push(v);
            true
        } else {
            false
        }
    }
}

/// The dynamic checker attached to simulated cluster runs, one at a time.
///
/// Thread-safe: the simulator runs one node thread at a time, but handler
/// and app threads are real OS threads, so all state sits behind a mutex.
/// All methods are pure observation — they never advance virtual time, so
/// attaching a checker does not change the simulated execution.
#[derive(Default)]
pub struct RaceChecker {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for RaceChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaceChecker").finish_non_exhaustive()
    }
}

impl RaceChecker {
    /// A checker to attach to cluster runs of any size, which size it
    /// through [`RaceChecker::begin_run`].
    pub fn new() -> RaceChecker {
        RaceChecker::default()
    }

    /// Start checking a run of `n` nodes: fresh vector clocks, and no lock
    /// clock, barrier clock or shadow record left by an earlier run.
    /// Violations found so far are kept. The DSM runtime calls this when a
    /// cluster run starts.
    pub fn begin_run(&self, n: usize) {
        let mut g = self.inner.lock().unwrap();
        g.n = n;
        g.clocks = (0..n)
            .map(|i| {
                let mut c = VTime::zero(n);
                c.set(i, 1);
                c
            })
            .collect();
        g.locks.clear();
        g.barriers.clear();
        g.barrier_exits.clear();
        g.shadow.clear();
    }

    // ---------------------------------------------------------------
    // Happens-before: accesses and synchronization
    // ---------------------------------------------------------------

    /// Record a shared access of `[addr, addr+len)` by `node` and check it
    /// against the shadow records. Returns the freshly detected races (for
    /// trace emission); they are also retained internally.
    pub fn access(&self, node: usize, addr: Addr, len: usize, write: bool) -> Vec<Violation> {
        let mut fresh = Vec::new();
        if len == 0 {
            return fresh;
        }
        let mut g = self.inner.lock().unwrap();
        let my_view_of = g.clocks[node].clone();
        let my_clock = my_view_of.get(node);
        for p in pages_spanned(addr, len) {
            let ps = p * PAGE_SIZE;
            let start = addr.max(ps);
            let end = (addr + len).min(ps + PAGE_SIZE);
            let second = AccessRec {
                node,
                start,
                end,
                write,
                clock: my_clock,
            };
            let mut found = Vec::new();
            let recs = g.shadow.entry(p).or_default();
            for r in recs.iter() {
                let conflict = r.node != node
                    && (r.write || write)
                    && r.start < end
                    && start < r.end
                    && r.clock > my_view_of.get(r.node);
                if conflict {
                    found.push(Violation::DataRace {
                        page: p,
                        first: AccessRec {
                            node: r.node,
                            start: r.start,
                            end: r.end,
                            write: r.write,
                            clock: r.clock,
                        },
                        second,
                    });
                }
            }
            // Merge: a newer same-node, same-kind record covering an older
            // one supersedes it (its epoch is >= and its range contains the
            // old range, so every future race with the old record is also a
            // race with the new one).
            recs.retain(|r| {
                !(r.node == node && r.write == write && start <= r.start && r.end <= end)
            });
            recs.push(Shadow {
                start,
                end,
                node,
                write,
                clock: my_clock,
            });
            for v in found {
                if g.push(v.clone()) {
                    fresh.push(v);
                }
            }
        }
        fresh
    }

    /// A lock grant completed: `node` now holds `lock` and inherits the
    /// ordering published by its previous releasers.
    pub fn lock_acquired(&self, node: usize, lock: u32) {
        let mut g = self.inner.lock().unwrap();
        if let Some(lc) = g.locks.get(&lock).cloned() {
            g.clocks[node].join_from(&lc);
        }
    }

    /// `node` releases `lock`: its clock joins the lock's release clock and
    /// its own epoch advances. Call *before* the release message is sent,
    /// so a remote acquire granted afterwards observes the ordering.
    pub fn lock_released(&self, node: usize, lock: u32) {
        let mut g = self.inner.lock().unwrap();
        let n = g.n;
        let cl = g.clocks[node].clone();
        g.locks
            .entry(lock)
            .or_insert_with(|| VTime::zero(n))
            .join_from(&cl);
        g.clocks[node].bump(node);
    }

    /// `node` arrives at barrier `episode`, contributing its clock. Call
    /// before the arrive message is sent.
    pub fn barrier_enter(&self, node: usize, episode: u32) {
        let mut g = self.inner.lock().unwrap();
        let n = g.n;
        let cl = g.clocks[node].clone();
        g.barriers
            .entry(episode)
            .or_insert_with(|| VTime::zero(n))
            .join_from(&cl);
    }

    /// `node` leaves barrier `episode`: every arriver's clock is inherited
    /// and the node's epoch advances. Call after the release reply.
    pub fn barrier_exit(&self, node: usize, episode: u32) {
        let mut g = self.inner.lock().unwrap();
        if let Some(bc) = g.barriers.get(&episode).cloned() {
            g.clocks[node].join_from(&bc);
        }
        g.clocks[node].bump(node);
        let n = g.n;
        let exits = g.barrier_exits.entry(episode).or_insert(0);
        *exits += 1;
        if *exits == n {
            g.barriers.remove(&episode);
            g.barrier_exits.remove(&episode);
        }
    }

    // ---------------------------------------------------------------
    // View discipline
    // ---------------------------------------------------------------

    /// Record a view-discipline violation classified by the DSM layer.
    /// Returns whether it was fresh (not a duplicate of an already-recorded
    /// violation), so callers can emit one trace event per distinct
    /// violation.
    #[allow(clippy::too_many_arguments)]
    pub fn record_discipline(
        &self,
        rule: DisciplineRule,
        node: usize,
        view: Option<u32>,
        page: PageId,
        start: Addr,
        end: Addr,
        write: bool,
    ) -> bool {
        self.inner.lock().unwrap().push(Violation::Discipline {
            rule,
            node,
            view,
            page,
            start,
            end,
            write,
        })
    }

    // ---------------------------------------------------------------
    // Results
    // ---------------------------------------------------------------

    /// Number of distinct violations recorded so far.
    pub fn count(&self) -> usize {
        self.inner.lock().unwrap().violations.len()
    }

    /// All distinct violations, in detection order (deterministic: the
    /// simulation schedule is deterministic).
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.lock().unwrap().violations.clone()
    }

    /// Multi-line report: a summary line followed by one numbered line per
    /// violation. Empty string when clean.
    pub fn report(&self) -> String {
        let vs = self.violations();
        if vs.is_empty() {
            return String::new();
        }
        let races = vs
            .iter()
            .filter(|v| matches!(v, Violation::DataRace { .. }))
            .count();
        let disc = vs.len() - races;
        let mut out = format!(
            "{} violation(s): {races} data race(s), {disc} discipline violation(s)\n",
            vs.len()
        );
        for (i, v) in vs.iter().enumerate() {
            out.push_str(&format!("  #{:<3} {}\n", i + 1, v.describe()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker(n: usize) -> RaceChecker {
        let rc = RaceChecker::new();
        rc.begin_run(n);
        rc
    }

    #[test]
    fn unordered_write_write_is_a_race() {
        let rc = checker(2);
        assert!(rc.access(0, 0x100, 8, true).is_empty());
        let races = rc.access(1, 0x104, 8, true);
        assert_eq!(races.len(), 1);
        assert_eq!(rc.count(), 1);
        match &races[0] {
            Violation::DataRace {
                page,
                first,
                second,
            } => {
                assert_eq!(*page, 0);
                assert_eq!(first.node, 0);
                assert_eq!(second.node, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn read_read_is_not_a_race() {
        let rc = checker(2);
        rc.access(0, 0, 64, false);
        assert!(rc.access(1, 0, 64, false).is_empty());
        assert_eq!(rc.count(), 0);
    }

    #[test]
    fn disjoint_ranges_on_one_page_are_not_a_race() {
        // The false-sharing case: same page, different words.
        let rc = checker(2);
        rc.access(0, 0, 64, true);
        assert!(rc.access(1, 64, 64, true).is_empty());
        assert_eq!(rc.count(), 0);
    }

    #[test]
    fn lock_ordering_suppresses_the_race() {
        let rc = checker(2);
        rc.lock_acquired(0, 7);
        rc.access(0, 0, 8, true);
        rc.lock_released(0, 7);
        rc.lock_acquired(1, 7);
        assert!(rc.access(1, 0, 8, true).is_empty());
        rc.lock_released(1, 7);
        assert_eq!(rc.count(), 0);
    }

    #[test]
    fn different_locks_do_not_order() {
        let rc = checker(2);
        rc.lock_acquired(0, 1);
        rc.access(0, 0, 8, true);
        rc.lock_released(0, 1);
        rc.lock_acquired(1, 2);
        assert_eq!(rc.access(1, 0, 8, true).len(), 1);
        rc.lock_released(1, 2);
    }

    #[test]
    fn barrier_ordering_suppresses_the_race() {
        let rc = checker(3);
        rc.access(0, 0, 8, true);
        for node in 0..3 {
            rc.barrier_enter(node, 0);
        }
        for node in 0..3 {
            rc.barrier_exit(node, 0);
        }
        assert!(rc.access(1, 0, 8, true).is_empty());
        assert!(rc.access(2, 16, 8, false).is_empty());
        assert_eq!(rc.count(), 0);
    }

    #[test]
    fn race_before_barrier_still_detected_after() {
        let rc = checker(2);
        rc.access(0, 0, 8, true);
        rc.access(1, 0, 8, true); // race happens here
        for node in 0..2 {
            rc.barrier_enter(node, 0);
        }
        for node in 0..2 {
            rc.barrier_exit(node, 0);
        }
        assert_eq!(rc.count(), 1);
    }

    #[test]
    fn duplicate_pairs_dedupe() {
        let rc = checker(2);
        rc.access(0, 0, 8, true);
        rc.access(1, 0, 8, true);
        rc.access(1, 0, 8, true); // same pair again (record superseded)
        rc.access(0, 0, 8, true); // detected from the other side
        assert_eq!(rc.count(), 1);
    }

    #[test]
    fn read_write_race_both_directions() {
        let rc = checker(2);
        rc.access(0, 0, 8, false);
        assert_eq!(rc.access(1, 0, 8, true).len(), 1);
        let rc = checker(2);
        rc.access(0, 0, 8, true);
        assert_eq!(rc.access(1, 0, 8, false).len(), 1);
    }

    #[test]
    fn access_spanning_pages_clips_per_page() {
        let rc = checker(2);
        rc.access(0, PAGE_SIZE - 8, 16, true);
        // Conflicts exist on both pages; two distinct per-page races.
        let races = rc.access(1, PAGE_SIZE - 8, 16, true);
        assert_eq!(races.len(), 2);
    }

    #[test]
    fn discipline_dedupes_and_reports() {
        let rc = checker(2);
        assert!(rc.record_discipline(DisciplineRule::Unbracketed, 0, Some(3), 5, 100, 108, false));
        assert!(!rc.record_discipline(DisciplineRule::Unbracketed, 0, Some(3), 5, 100, 108, false));
        assert!(rc.record_discipline(DisciplineRule::OutsideViews, 1, None, 9, 0, 4, true));
        assert_eq!(rc.count(), 2);
        let rep = rc.report();
        assert!(rep.contains("2 violation(s)"));
        assert!(rep.contains("unbracketed"));
        assert!(rep.contains("outside_views"));
    }

    #[test]
    fn a_new_run_forgets_the_last_runs_accesses_but_keeps_its_violations() {
        let rc = checker(2);
        rc.access(0, 0, 8, true);
        rc.access(1, 0, 8, true);
        assert_eq!(rc.count(), 1);
        rc.begin_run(4);
        // Node 0's write of the first run is no longer shadowed, and node 3
        // exists now.
        assert!(rc.access(3, 0, 8, true).is_empty());
        assert_eq!(rc.access(2, 0, 8, false).len(), 1);
        assert_eq!(rc.count(), 2);
    }

    #[test]
    fn clean_checker_reports_empty() {
        assert_eq!(checker(2).report(), "");
    }
}
