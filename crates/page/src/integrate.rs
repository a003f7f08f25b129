//! Incremental diff integration: the state a view home keeps per page so
//! that the single integrated diff of `VC_sd` (Huang et al., CCGrid'05)
//! costs O(page) to produce however many releases the requester missed.
//!
//! Releases of one view are totally ordered by their version. Instead of
//! retaining every release's diff and folding the missed ones together with
//! [`Diff::merge`] at grant time, the home overlays each diff as it arrives
//! onto two page-sized arrays — the latest value of every word, and the
//! version that last wrote it. "Everything newer than version `have`" is then
//! one pass over the stamps: the words stamped above `have`, as maximal runs.
//! That is the same diff the fold produces, run for run: a word belongs to
//! the fold exactly when some missed release wrote it, i.e. when its last
//! writer is a missed release; its value in both is the last writer's; and
//! both encode the covered words as maximal runs.

use crate::diff::{Diff, Encoder, ENCODED_MAX};
use crate::page::PAGE_WORDS;

/// The integration state of one page: every versioned diff absorbed so far,
/// overlaid last-writer-wins.
#[derive(Debug, Clone)]
pub struct IntegratedPage {
    /// Latest value of every word some absorbed diff wrote.
    words: Box<[u32; PAGE_WORDS]>,
    /// Version of the diff that last wrote each word; 0 = never written.
    stamps: Box<[u32; PAGE_WORDS]>,
    /// The newest absorbed diff and its version, kept so a requester that
    /// missed only this one is handed it shared rather than a copy.
    newest: Option<(u32, Diff)>,
    /// Version of the diff absorbed before `newest` (0 = none).
    previous: u32,
}

impl Default for IntegratedPage {
    fn default() -> IntegratedPage {
        IntegratedPage {
            words: Box::new([0; PAGE_WORDS]),
            stamps: Box::new([0; PAGE_WORDS]),
            newest: None,
            previous: 0,
        }
    }
}

impl IntegratedPage {
    /// Version of the newest absorbed diff (0 = nothing absorbed yet).
    pub fn version(&self) -> u32 {
        self.newest.as_ref().map_or(0, |(v, _)| *v)
    }

    /// Overlay `diff`, released as `version`, on everything absorbed before.
    /// Versions are 1-based and must arrive in strictly increasing order.
    /// O(words in `diff`).
    pub fn absorb(&mut self, version: u32, diff: Diff) {
        assert!(
            version > self.version(),
            "diff of version {version} absorbed after version {}",
            self.version()
        );
        for (off, words) in diff.runs() {
            let at = off as usize..off as usize + words.len();
            self.words[at.clone()].copy_from_slice(words);
            self.stamps[at].fill(version);
        }
        self.previous = self.version();
        self.newest = Some((version, diff));
    }

    /// The integrated diff of every absorbed version above `have`: equal to
    /// the left fold of [`Diff::merge`] over those diffs, oldest first.
    /// `None` when nothing newer than `have` was absorbed; an absorbed diff
    /// that modified no word still counts (the result is then empty, as the
    /// fold's would be). A single newer diff is returned shared; otherwise
    /// the result is encoded on the stack and allocated once. O(page).
    pub fn newer_than(&self, have: u32) -> Option<Diff> {
        let (version, newest) = self.newest.as_ref()?;
        if *version <= have {
            return None;
        }
        if self.previous <= have {
            return Some(newest.clone());
        }
        let mut buf = [0; ENCODED_MAX];
        let mut enc = Encoder::new(&mut buf);
        let mut w = 0;
        while let Some(skip) = self.stamps[w..].iter().position(|&s| s > have) {
            let start = w + skip;
            let len = self.stamps[start..]
                .iter()
                .position(|&s| s <= have)
                .unwrap_or(PAGE_WORDS - start);
            enc.push(start as u32, &self.words[start..start + len]);
            w = start + len;
        }
        Some(enc.finish())
    }
}
