//! Word-granularity page diffs.
//!
//! A diff records the words of a page that changed relative to its *twin*
//! (the copy snapshotted at the first write of an interval), encoded as
//! maximal runs of consecutive modified words — the TreadMarks encoding.
//!
//! `VC_sd`'s *diff integration* (Huang et al., CCGrid'05) is defined by
//! [`Diff::merge`]: any number of diffs against the same page collapse into a
//! single diff bounded by the page size, with later writes overriding earlier
//! ones. View homes compute the same diff incrementally through
//! [`IntegratedPage`](crate::IntegratedPage).

use crate::page::{
    PageBuf, CHUNK_WORDS, PAGE_QUARTERS, PAGE_WORDS, QUARTER_BYTES, SUPER_BYTES, WORD_SIZE,
};

/// One maximal run of consecutive modified words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRun {
    /// Word index of the first modified word.
    pub word_off: u32,
    /// The new little-endian word values.
    pub words: Vec<u32>,
}

impl DiffRun {
    /// One past the last modified word index.
    pub fn end(&self) -> u32 {
        self.word_off + self.words.len() as u32
    }
}

/// A set of modifications to a single page: sorted, non-overlapping,
/// non-adjacent maximal runs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff {
    pub(crate) runs: Vec<DiffRun>,
}

/// Wire-format overhead per diff (page id + run count), in bytes.
pub const DIFF_HEADER_BYTES: usize = 8;
/// Wire-format overhead per run (offset + length), in bytes.
pub const RUN_HEADER_BYTES: usize = 4;

impl Diff {
    /// An empty diff.
    pub fn empty() -> Diff {
        Diff::default()
    }

    /// True if no words are modified.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of modified words.
    pub fn word_count(&self) -> usize {
        self.runs.iter().map(|r| r.words.len()).sum()
    }

    /// The runs, in ascending word order.
    pub fn runs(&self) -> &[DiffRun] {
        &self.runs
    }

    /// Bytes this diff would occupy on the wire.
    pub fn wire_bytes(&self) -> usize {
        DIFF_HEADER_BYTES
            + self
                .runs
                .iter()
                .map(|r| RUN_HEADER_BYTES + r.words.len() * WORD_SIZE)
                .sum::<usize>()
    }

    /// Compare `current` against its `twin` and record every changed word.
    ///
    /// Hierarchical scan: clean 256-byte superblocks are dismissed with one
    /// `memcmp`-class slice compare, dirty superblocks are scanned 16 bytes
    /// at a time (one `u128` compare per chunk), and only dirty chunks fall
    /// back to word granularity. Runs remain maximal across every boundary
    /// because a run is extended whenever its end meets the next modified
    /// word, and a clean block implies the run already closed.
    pub fn create(twin: &PageBuf, current: &PageBuf) -> Diff {
        let mut scratch = Vec::new();
        Diff::create_with_scratch(twin, current, &mut scratch)
    }

    /// [`Diff::create`] with an external word-accumulation arena: the words
    /// of the run being scanned collect in `scratch` (retaining its capacity
    /// across calls), and each finished run is allocated once at exact size.
    /// [`NodeMemory`](crate::NodeMemory) passes a per-node scratch that is
    /// reset every interval.
    pub fn create_with_scratch(twin: &PageBuf, current: &PageBuf, scratch: &mut Vec<u32>) -> Diff {
        scratch.clear();
        let mut runs: Vec<DiffRun> = Vec::new();
        let mut open: Option<u32> = None; // word_off of the run in `scratch`
        fn close(runs: &mut Vec<DiffRun>, open: &mut Option<u32>, scratch: &mut Vec<u32>) {
            if let Some(off) = open.take() {
                runs.push(DiffRun {
                    word_off: off,
                    words: scratch.as_slice().to_vec(),
                });
                scratch.clear();
            }
        }
        const SUPER_CHUNKS: usize = SUPER_BYTES / (CHUNK_WORDS * WORD_SIZE);
        const QUARTER_SUPERS: usize = QUARTER_BYTES / SUPER_BYTES;
        for q in 0..PAGE_QUARTERS {
            if twin.quarter(q) == current.quarter(q) {
                close(&mut runs, &mut open, scratch);
                continue;
            }
            for s in q * QUARTER_SUPERS..(q + 1) * QUARTER_SUPERS {
                if twin.superblock(s) == current.superblock(s) {
                    close(&mut runs, &mut open, scratch);
                    continue;
                }
                for c in s * SUPER_CHUNKS..(s + 1) * SUPER_CHUNKS {
                    let t = twin.chunk128(c);
                    let cu = current.chunk128(c);
                    if t == cu {
                        close(&mut runs, &mut open, scratch);
                        continue;
                    }
                    // Word `i` of a little-endian chunk occupies bits
                    // `32*i..32*i+32`; a nonzero XOR window marks a
                    // modified word. Fully-dirty chunks (contiguous
                    // writes, the dense/full-page case) extend the open
                    // run four words at a time without per-word branches.
                    let x = t ^ cu;
                    let base = c * CHUNK_WORDS;
                    let words = [
                        cu as u32,
                        (cu >> 32) as u32,
                        (cu >> 64) as u32,
                        (cu >> 96) as u32,
                    ];
                    if (x as u32) != 0
                        && ((x >> 32) as u32) != 0
                        && ((x >> 64) as u32) != 0
                        && ((x >> 96) as u32) != 0
                    {
                        if open.is_none() {
                            open = Some(base as u32);
                        }
                        scratch.extend_from_slice(&words);
                        continue;
                    }
                    for (i, &v) in words.iter().enumerate() {
                        if (x >> (32 * i)) as u32 == 0 {
                            close(&mut runs, &mut open, scratch);
                        } else {
                            if open.is_none() {
                                open = Some((base + i) as u32);
                            }
                            scratch.push(v);
                        }
                    }
                }
            }
        }
        close(&mut runs, &mut open, scratch);
        Diff { runs }
    }

    /// Build a diff from raw runs (used by tests and protocol decoding).
    /// Panics if the runs are not sorted, non-overlapping and in-bounds.
    pub fn from_runs(runs: Vec<DiffRun>) -> Diff {
        let mut prev_end = 0u32;
        for (i, r) in runs.iter().enumerate() {
            assert!(!r.words.is_empty(), "empty run");
            assert!(i == 0 || r.word_off > prev_end, "unsorted or adjacent runs");
            assert!(r.end() as usize <= PAGE_WORDS, "run out of bounds");
            prev_end = r.end();
        }
        Diff { runs }
    }

    /// Write the modified words into `page`.
    ///
    /// Each run is stored through [`PageBuf::set_words`] — a single
    /// bounds-checked block copy — instead of a per-word loop.
    pub fn apply(&self, page: &mut PageBuf) {
        for r in &self.runs {
            debug_assert!(
                r.end() as usize <= PAGE_WORDS,
                "diff run out of bounds: off={} len={}",
                r.word_off,
                r.words.len()
            );
            page.set_words(r.word_off as usize, &r.words);
        }
    }

    /// Diff integration: overlay `newer` on top of `self`, producing a single
    /// diff equivalent to applying `self` then `newer`.
    pub fn merge(&self, newer: &Diff) -> Diff {
        let mut runs = Vec::with_capacity(self.runs.len() + newer.runs.len());
        merge_runs(&self.runs, &newer.runs, &mut runs);
        Diff { runs }
    }
}

/// Two-pointer run merge: overlay the newer runs `b` on the older runs `a`,
/// appending sorted maximal runs to `out`. Newer words win on overlap. Walks
/// both run lists once instead of materializing a page-sized overlay.
fn merge_runs(a: &[DiffRun], b: &[DiffRun], out: &mut Vec<DiffRun>) {
    // Append `words` at `off`, coalescing with the previous run if adjacent.
    fn push(out: &mut Vec<DiffRun>, off: u32, words: &[u32]) {
        if words.is_empty() {
            return;
        }
        match out.last_mut() {
            Some(r) if r.end() == off => r.words.extend_from_slice(words),
            _ => out.push(DiffRun {
                word_off: off,
                words: words.to_vec(),
            }),
        }
    }
    // Emit the a-words below `limit`, advancing the (run index, words consumed)
    // cursor. An a-run straddling `limit` is split and its tail kept pending.
    fn copy_a(out: &mut Vec<DiffRun>, a: &[DiffRun], ai: &mut usize, done: &mut usize, limit: u32) {
        while *ai < a.len() {
            let ar = &a[*ai];
            let start = ar.word_off + *done as u32;
            if start >= limit {
                return;
            }
            let stop = ar.end().min(limit);
            push(out, start, &ar.words[*done..(stop - ar.word_off) as usize]);
            if stop == ar.end() {
                *ai += 1;
                *done = 0;
            } else {
                *done = (stop - ar.word_off) as usize;
                return;
            }
        }
    }
    // Advance the a-cursor past words below `limit` without emitting them
    // (they are overwritten by a newer run).
    fn skip_a(a: &[DiffRun], ai: &mut usize, done: &mut usize, limit: u32) {
        while *ai < a.len() {
            let ar = &a[*ai];
            if ar.end() <= limit {
                *ai += 1;
                *done = 0;
            } else {
                if ar.word_off + (*done as u32) < limit {
                    *done = (limit - ar.word_off) as usize;
                }
                return;
            }
        }
    }
    let (mut ai, mut done) = (0usize, 0usize);
    for br in b {
        copy_a(out, a, &mut ai, &mut done, br.word_off);
        skip_a(a, &mut ai, &mut done, br.end());
        push(out, br.word_off, &br.words);
    }
    copy_a(out, a, &mut ai, &mut done, PAGE_WORDS as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    fn page_with(words: &[(usize, u32)]) -> Box<PageBuf> {
        let mut p = PageBuf::zeroed();
        for &(w, v) in words {
            p.set_word(w, v);
        }
        p
    }

    #[test]
    fn identical_pages_empty_diff() {
        let a = PageBuf::zeroed();
        let b = a.clone();
        let d = Diff::create(&a, &b);
        assert!(d.is_empty());
        assert_eq!(d.wire_bytes(), DIFF_HEADER_BYTES);
    }

    #[test]
    fn create_apply_roundtrip() {
        let twin = page_with(&[(0, 1), (100, 2)]);
        let cur = page_with(&[(0, 9), (100, 2), (101, 5), (1023, 7)]);
        let d = Diff::create(&twin, &cur);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        assert_eq!(&*rebuilt, &*cur);
    }

    #[test]
    fn runs_are_maximal_and_sorted() {
        let twin = PageBuf::zeroed();
        let cur = page_with(&[(3, 1), (4, 2), (5, 3), (9, 4)]);
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.runs().len(), 2);
        assert_eq!(d.runs()[0].word_off, 3);
        assert_eq!(d.runs()[0].words, vec![1, 2, 3]);
        assert_eq!(d.runs()[1].word_off, 9);
        assert_eq!(d.word_count(), 4);
    }

    #[test]
    fn wire_bytes_counts_runs() {
        let twin = PageBuf::zeroed();
        let cur = page_with(&[(0, 1), (10, 2)]);
        let d = Diff::create(&twin, &cur);
        assert_eq!(
            d.wire_bytes(),
            DIFF_HEADER_BYTES + 2 * (RUN_HEADER_BYTES + WORD_SIZE)
        );
    }

    #[test]
    fn merge_last_writer_wins() {
        let twin = PageBuf::zeroed();
        let a = Diff::create(&twin, &page_with(&[(0, 1), (1, 1)]));
        let b = Diff::create(&twin, &page_with(&[(1, 2), (2, 2)]));
        let m = a.merge(&b);
        let mut p = PageBuf::zeroed();
        m.apply(&mut p);
        assert_eq!(p.word(0), 1);
        assert_eq!(p.word(1), 2);
        assert_eq!(p.word(2), 2);
        // Integration collapses into a single contiguous run.
        assert_eq!(m.runs().len(), 1);
    }

    #[test]
    fn merge_equals_sequential_application() {
        let twin = PageBuf::zeroed();
        let a = Diff::create(&twin, &page_with(&[(5, 10), (6, 11)]));
        let b = Diff::create(&twin, &page_with(&[(6, 20), (200, 21)]));
        let mut seq = PageBuf::zeroed();
        a.apply(&mut seq);
        b.apply(&mut seq);
        let mut merged = PageBuf::zeroed();
        a.merge(&b).apply(&mut merged);
        assert_eq!(&*seq, &*merged);
    }

    #[test]
    fn full_page_diff_bounded() {
        let twin = PageBuf::zeroed();
        let mut cur = PageBuf::zeroed();
        for w in 0..PAGE_WORDS {
            cur.set_word(w, w as u32 + 1);
        }
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.runs().len(), 1);
        assert_eq!(d.word_count(), PAGE_WORDS);
        assert_eq!(
            d.wire_bytes(),
            DIFF_HEADER_BYTES + RUN_HEADER_BYTES + PAGE_SIZE
        );
    }

    /// The original word-by-word diff kernel, retained as the oracle for the
    /// randomized equivalence suite below.
    fn scalar_create(twin: &PageBuf, current: &PageBuf) -> Diff {
        let mut runs = Vec::new();
        let mut w = 0;
        while w < PAGE_WORDS {
            if twin.word(w) != current.word(w) {
                let start = w;
                let mut words = Vec::new();
                while w < PAGE_WORDS && twin.word(w) != current.word(w) {
                    words.push(current.word(w));
                    w += 1;
                }
                runs.push(DiffRun {
                    word_off: start as u32,
                    words,
                });
            } else {
                w += 1;
            }
        }
        Diff { runs }
    }

    /// The original page-sized-overlay merge, retained as the oracle.
    fn overlay_merge(older: &Diff, newer: &Diff) -> Diff {
        let mut overlay: Vec<Option<u32>> = vec![None; PAGE_WORDS];
        for d in [older, newer] {
            for r in &d.runs {
                for (i, &v) in r.words.iter().enumerate() {
                    overlay[r.word_off as usize + i] = Some(v);
                }
            }
        }
        let mut runs = Vec::new();
        let mut w = 0;
        while w < PAGE_WORDS {
            match overlay[w] {
                Some(_) => {
                    let start = w;
                    let mut words = Vec::new();
                    while let Some(Some(v)) = overlay.get(w) {
                        words.push(*v);
                        w += 1;
                    }
                    runs.push(DiffRun {
                        word_off: start as u32,
                        words,
                    });
                }
                None => w += 1,
            }
        }
        Diff { runs }
    }

    /// SplitMix64: tiny deterministic PRNG, no dependencies.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Mutate a random set of words; higher `density` touches more words.
    fn random_mutation(rng: &mut Rng, base: &PageBuf, density: usize) -> Box<PageBuf> {
        let mut p = Box::new(base.clone());
        for _ in 0..density {
            let w = rng.below(PAGE_WORDS);
            let run = 1 + rng.below(8);
            for i in 0..run {
                if w + i < PAGE_WORDS {
                    p.set_word(w + i, rng.next() as u32);
                }
            }
        }
        p
    }

    #[test]
    fn randomized_create_matches_scalar_reference() {
        let mut rng = Rng(0x5eed_2026);
        for trial in 0..200 {
            let density = [1, 4, 32, 256][trial % 4];
            let twin = random_mutation(&mut rng, &PageBuf::zeroed(), 16);
            let cur = random_mutation(&mut rng, &twin, density);
            let chunked = Diff::create(&twin, &cur);
            let scalar = scalar_create(&twin, &cur);
            assert_eq!(chunked, scalar, "trial {trial} density {density}");
        }
    }

    #[test]
    fn randomized_merge_matches_overlay_reference() {
        let mut rng = Rng(0xfeed_2026);
        let twin = PageBuf::zeroed();
        for trial in 0..200 {
            let density = [1, 4, 32, 256][trial % 4];
            let a = Diff::create(&twin, &random_mutation(&mut rng, &twin, density));
            let b = Diff::create(&twin, &random_mutation(&mut rng, &twin, density));
            let two_ptr = a.merge(&b);
            let overlay = overlay_merge(&a, &b);
            assert_eq!(two_ptr, overlay, "trial {trial} density {density}");
        }
    }

    #[test]
    fn create_boundary_cases_match_scalar_reference() {
        let zero = PageBuf::zeroed();
        let mut full = PageBuf::zeroed();
        for w in 0..PAGE_WORDS {
            full.set_word(w, w as u32 + 1);
        }
        let cases: Vec<Box<PageBuf>> = vec![
            page_with(&[(0, 1)]),                                 // first word
            page_with(&[(PAGE_WORDS - 1, 1)]),                    // last word
            page_with(&[(2, 1), (3, 2), (4, 3), (5, 4), (6, 5)]), // chunk-straddling run
            page_with(&[(CHUNK_WORDS - 1, 1), (CHUNK_WORDS, 2)]), // exact chunk boundary
            page_with(&[(0, 1), (PAGE_WORDS - 1, 2)]),            // both extremes
            full,                                                 // full page
            zero.clone(),                                         // no change
        ];
        for (i, cur) in cases.iter().enumerate() {
            let chunked = Diff::create(&zero, cur);
            let scalar = scalar_create(&zero, cur);
            assert_eq!(chunked, scalar, "case {i}");
            let mut rebuilt = zero.clone();
            chunked.apply(&mut rebuilt);
            assert_eq!(&*rebuilt, &**cur, "roundtrip case {i}");
        }
    }

    #[test]
    fn merge_boundary_cases() {
        // Older run spans an entire newer run, with head and tail kept.
        let a = Diff::from_runs(vec![DiffRun {
            word_off: 10,
            words: (0..20).collect(),
        }]);
        let b = Diff::from_runs(vec![DiffRun {
            word_off: 15,
            words: vec![900, 901, 902],
        }]);
        let m = a.merge(&b);
        assert_eq!(m, overlay_merge(&a, &b));
        assert_eq!(m.runs().len(), 1);
        assert_eq!(m.word_count(), 20);
        // Newer run extends past the older tail and bridges into a later run.
        let a = Diff::from_runs(vec![
            DiffRun {
                word_off: 0,
                words: vec![1, 2],
            },
            DiffRun {
                word_off: 4,
                words: vec![3],
            },
        ]);
        let b = Diff::from_runs(vec![DiffRun {
            word_off: 1,
            words: vec![7, 8, 9],
        }]);
        assert_eq!(a.merge(&b), overlay_merge(&a, &b));
        // Merging with empties.
        assert_eq!(a.merge(&Diff::empty()), a);
        assert_eq!(Diff::empty().merge(&a), a);
        // Last-word runs.
        let last = Diff::from_runs(vec![DiffRun {
            word_off: PAGE_WORDS as u32 - 1,
            words: vec![5],
        }]);
        assert_eq!(a.merge(&last), overlay_merge(&a, &last));
        assert_eq!(last.merge(&a), overlay_merge(&last, &a));
    }

    #[test]
    #[should_panic(expected = "unsorted")]
    fn from_runs_validates() {
        Diff::from_runs(vec![
            DiffRun {
                word_off: 5,
                words: vec![1],
            },
            DiffRun {
                word_off: 2,
                words: vec![1],
            },
        ]);
    }
}
