//! Every per-protocol decision of the engine, in one place. The six
//! protocols share one set of mechanisms (twins, diffs, write notices,
//! invalidation, fault-time fetches) and differ only in the few properties
//! [`Protocol`] answers here: its family (`lrc.rs` or `vc.rs`), how view
//! data travels, where a faulting page comes from, and whether locks are
//! scoped. The shared engine (`api.rs`, `homes.rs`, `node.rs`) branches on
//! these, never on a protocol by name.

mod lrc;
pub(crate) mod vc;

/// Which DSM implementation a run uses: the paper's three systems plus
/// three extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Diff-based Lazy Release Consistency: the TreadMarks protocol.
    /// Traditional lock/barrier programs; barriers maintain consistency.
    LrcD,
    /// Diff-based View-based Consistency: same implementation techniques
    /// (twins, diffs, invalidate, fault-time diff requests) but consistency
    /// is view-scoped; barriers only synchronize.
    VcD,
    /// View-based Consistency with the integrated-diff update protocol:
    /// a single merged diff per page, piggy-backed on the view grant.
    VcSd,
    /// `VC_sd` retargeted at an RDMA-capable fabric: view data moves by
    /// one-sided writes into preposted per-node buffers (no request/reply
    /// round trip, no remote CPU on the data path), and release diffs are
    /// written to the home and applied there asynchronously — off the
    /// acquirer's critical path. Identical consistency semantics to
    /// [`Protocol::VcSd`]; only the transport and the CPU accounting of
    /// diff application differ.
    VcRdma,
    /// Home-based Lazy Release Consistency (extension; the authors'
    /// companion work on homeless vs. home-based protocols): every page has
    /// a home node to which diffs are flushed eagerly at interval end;
    /// faults fetch the whole up-to-date page from the home with a single
    /// round trip.
    Hlrc,
    /// Scope Consistency (related work, paper §4): lock acquires receive
    /// only the updates made under that lock's *scope* (dynamically — the
    /// pages dirtied in intervals closed by its releases); barriers merge
    /// all scopes globally, exactly like an LRC barrier. Weaker than LRC:
    /// updates made under a different lock are not visible until a barrier.
    ScC,
}

/// Where a protocol maintains consistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Family {
    /// Whole memory, at barriers and lock grants: LRC_d, HLRC, ScC.
    Lrc,
    /// Per view, at `acquire_view`; barriers only synchronize.
    Vc,
}

/// How the data of a view home's grant reaches the acquirer (and a write
/// release's diffs reach the home).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ViewData {
    /// Write notices only: the grant invalidates, faults fetch the diffs.
    Notices,
    /// One integrated diff per stale page, inside the grant message.
    Inline,
    /// The same integrated diffs, by one-sided write ahead of a slim grant.
    OneSided,
}

/// Where the content of a faulting page comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PageSource {
    /// One diff request per writer.
    Diffs,
    /// Diffs, or the whole page from its only writer ever once four or
    /// more of its diffs are pending (TreadMarks' "get whole page").
    SoleWriter,
    /// Diffs, or the whole view page from its last writer once three or
    /// more writers are pending: view writes are serialized, so that copy
    /// is complete.
    LastWriter,
    /// The whole page from its home, kept current by eager flushes.
    Home,
}

impl Protocol {
    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::LrcD => "LRC_d",
            Protocol::VcD => "VC_d",
            Protocol::VcSd => "VC_sd",
            Protocol::VcRdma => "VC_rdma",
            Protocol::Hlrc => "HLRC_d",
            Protocol::ScC => "ScC_d",
        }
    }

    /// True for the VOPP protocols.
    pub fn is_vc(self) -> bool {
        self.family() == Family::Vc
    }

    /// True for the traditional lock/barrier protocols (homeless or
    /// home-based LRC, and Scope Consistency).
    pub fn is_lrc_family(self) -> bool {
        self.family() == Family::Lrc
    }

    /// True when a view grant carries the integrated diffs of its stale
    /// pages (inline or one-sided), so an acquirer never requests a diff.
    pub fn integrates_diffs(self) -> bool {
        self.view_data() != ViewData::Notices
    }

    pub(crate) fn family(self) -> Family {
        match self {
            Protocol::LrcD | Protocol::Hlrc | Protocol::ScC => Family::Lrc,
            Protocol::VcD | Protocol::VcSd | Protocol::VcRdma => Family::Vc,
        }
    }

    pub(crate) fn view_data(self) -> ViewData {
        match self {
            Protocol::VcSd => ViewData::Inline,
            Protocol::VcRdma => ViewData::OneSided,
            Protocol::LrcD | Protocol::Hlrc | Protocol::ScC | Protocol::VcD => ViewData::Notices,
        }
    }

    pub(crate) fn page_source(self) -> PageSource {
        match self {
            Protocol::LrcD => PageSource::SoleWriter,
            Protocol::Hlrc => PageSource::Home,
            Protocol::ScC => PageSource::Diffs,
            Protocol::VcD | Protocol::VcSd | Protocol::VcRdma => PageSource::LastWriter,
        }
    }

    /// Whether a lock grant carries only its scope's updates, through the
    /// view home's round trip.
    pub(crate) fn scoped_locks(self) -> bool {
        self == Protocol::ScC
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every protocol's row. The match is exhaustive, so a new protocol
    /// does not compile until it states its row here.
    fn row(p: Protocol) -> (Family, ViewData, PageSource, bool) {
        use PageSource::*;
        use ViewData::*;
        match p {
            Protocol::LrcD => (Family::Lrc, Notices, SoleWriter, false),
            Protocol::Hlrc => (Family::Lrc, Notices, Home, false),
            Protocol::ScC => (Family::Lrc, Notices, Diffs, true),
            Protocol::VcD => (Family::Vc, Notices, LastWriter, false),
            Protocol::VcSd => (Family::Vc, Inline, LastWriter, false),
            Protocol::VcRdma => (Family::Vc, OneSided, LastWriter, false),
        }
    }

    #[test]
    fn each_protocol_states_its_row() {
        use Protocol::*;
        let all = [LrcD, Hlrc, ScC, VcD, VcSd, VcRdma];
        for p in all {
            let got = (p.family(), p.view_data(), p.page_source(), p.scoped_locks());
            assert_eq!(got, row(p), "{p}");
        }
        let vc: Vec<_> = all.into_iter().filter(|p| p.is_vc()).collect();
        let lrc: Vec<_> = all.into_iter().filter(|p| p.is_lrc_family()).collect();
        assert_eq!(vc, [VcD, VcSd, VcRdma]);
        assert_eq!(lrc, [LrcD, Hlrc, ScC]);
        assert!(all.iter().all(|p| p.is_vc() != p.is_lrc_family()));
        let integrated: Vec<_> = all.into_iter().filter(|p| p.integrates_diffs()).collect();
        assert_eq!(integrated, [VcSd, VcRdma]);
    }
}
