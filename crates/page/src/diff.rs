//! Word-granularity page diffs.
//!
//! A diff records the words of a page that changed relative to its *twin*
//! (the copy snapshotted at the first write of an interval), encoded as
//! maximal runs of consecutive modified words — the TreadMarks encoding.
//!
//! In memory a diff is that encoding, in one immutable block shared by
//! every holder (the creator's diff store, each message that carries it, a
//! view home's integration state):
//!
//! ```text
//! [run count] [off | len << 16] [len words] [off | len << 16] [len words] ...
//! ```
//!
//! Each run header is one 32-bit word holding the run's first word index
//! and its length, so the block is the wire encoding less the page id:
//! [`DIFF_HEADER_BYTES`] covers the page id and the count word,
//! [`RUN_HEADER_BYTES`] a header word. A diff costs one allocation, made
//! at exact size once its runs are known; the empty diff costs none.
//!
//! `VC_sd`'s *diff integration* (Huang et al., CCGrid'05) is defined by
//! [`Diff::merge`]: any number of diffs against the same page collapse into a
//! single diff bounded by the page size, with later writes overriding earlier
//! ones. View homes compute the same diff incrementally through
//! [`IntegratedPage`](crate::IntegratedPage).

use std::sync::Arc;

use crate::page::{
    PageBuf, CHUNK_WORDS, PAGE_QUARTERS, PAGE_WORDS, QUARTER_BYTES, SUPER_BYTES, WORD_SIZE,
};

/// A set of modifications to a single page: sorted, non-overlapping,
/// non-adjacent maximal runs. Cloning shares the encoding (see the module
/// docs) instead of copying it.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Diff {
    /// The encoding; `None` for the empty diff.
    buf: Option<Arc<[u32]>>,
}

/// Wire-format overhead per diff (page id + run count), in bytes.
pub const DIFF_HEADER_BYTES: usize = 8;
/// Wire-format overhead per run (offset + length), in bytes.
pub const RUN_HEADER_BYTES: usize = 4;

/// Bit position of the length in a run header; the offset sits below it.
const LEN_SHIFT: u32 = 16;
/// Mask of the offset in a run header.
const OFF_MASK: u32 = (1 << LEN_SHIFT) - 1;
/// Longest encoding of one page's diff: the count word, at most
/// `PAGE_WORDS` words and one header per run, of which there are at most
/// `PAGE_WORDS / 2` (runs are separated by an unchanged word).
pub(crate) const ENCODED_MAX: usize = 1 + PAGE_WORDS + PAGE_WORDS / 2;

impl std::fmt::Debug for Diff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.runs()).finish()
    }
}

impl Diff {
    /// An empty diff.
    pub fn empty() -> Diff {
        Diff::default()
    }

    /// True if no words are modified.
    pub fn is_empty(&self) -> bool {
        self.buf.is_none()
    }

    /// Number of modified words.
    pub fn word_count(&self) -> usize {
        self.buf.as_ref().map_or(0, |b| b.len() - 1 - b[0] as usize)
    }

    /// The runs as `(word_off, words)`, in ascending word order.
    pub fn runs(&self) -> impl ExactSizeIterator<Item = (u32, &[u32])> + Clone + '_ {
        let (left, rest) = match &self.buf {
            Some(b) => (b[0] as usize, &b[1..]),
            None => (0, &[][..]),
        };
        Runs { rest, left }
    }

    /// Bytes this diff would occupy on the wire.
    pub fn wire_bytes(&self) -> usize {
        DIFF_HEADER_BYTES + self.buf.as_ref().map_or(0, |b| (b.len() - 1) * WORD_SIZE)
    }

    /// Whether `self` and `other` are handles on one and the same buffer.
    pub fn shares_buffer(&self, other: &Diff) -> bool {
        matches!((&self.buf, &other.buf), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// Compare `current` against its `twin` and record every changed word.
    ///
    /// Hierarchical scan: clean 256-byte superblocks are dismissed with one
    /// `memcmp`-class slice compare, dirty superblocks are scanned 16 bytes
    /// at a time (one `u128` compare per chunk), a stretch of fully-modified
    /// chunks is copied in one piece, and only partly modified chunks fall
    /// back to word granularity. Runs remain maximal across every boundary
    /// because the encoder extends a run whenever its end meets the next
    /// modified word. The encoding is built on the stack, then allocated
    /// once.
    pub fn create(twin: &PageBuf, current: &PageBuf) -> Diff {
        let mut buf = [0; ENCODED_MAX];
        Diff::create_into(twin, current, &mut buf)
    }

    /// [`Diff::create`] encoding into a reusable `scratch` instead of the
    /// stack: `scratch` grows once to the longest encoding and keeps its
    /// capacity across calls. [`NodeMemory`](crate::NodeMemory) passes a
    /// per-node scratch.
    pub fn create_with_scratch(twin: &PageBuf, current: &PageBuf, scratch: &mut Vec<u32>) -> Diff {
        if scratch.len() < ENCODED_MAX {
            scratch.resize(ENCODED_MAX, 0);
        }
        Diff::create_into(twin, current, scratch)
    }

    fn create_into(twin: &PageBuf, current: &PageBuf, out: &mut [u32]) -> Diff {
        let mut enc = Encoder::new(out);
        const CHUNK_BYTES: usize = CHUNK_WORDS * WORD_SIZE;
        const SUPER_CHUNKS: usize = SUPER_BYTES / CHUNK_BYTES;
        const QUARTER_SUPERS: usize = QUARTER_BYTES / SUPER_BYTES;
        for q in 0..PAGE_QUARTERS {
            if twin.quarter(q) == current.quarter(q) {
                continue;
            }
            for s in q * QUARTER_SUPERS..(q + 1) * QUARTER_SUPERS {
                if twin.superblock(s) == current.superblock(s) {
                    continue;
                }
                // Word `i` of a little-endian chunk occupies bits
                // `32*i..32*i+32`; a nonzero XOR window marks a modified
                // word.
                let xor = |c: usize| twin.chunk128(c) ^ current.chunk128(c);
                let full = |x: u128| (0..CHUNK_WORDS).all(|i| (x >> (32 * i)) as u32 != 0);
                let end = (s + 1) * SUPER_CHUNKS;
                let mut c = s * SUPER_CHUNKS;
                while c < end {
                    let x = xor(c);
                    if x == 0 {
                        c += 1;
                        continue;
                    }
                    if full(x) {
                        // A stretch of fully-dirty chunks (contiguous
                        // writes, the dense and whole-page case) is copied
                        // in one push; the chunk that ends it is examined
                        // again.
                        let first = c;
                        c += 1;
                        while c < end && full(xor(c)) {
                            c += 1;
                        }
                        let bytes = &current[first * CHUNK_BYTES..c * CHUNK_BYTES];
                        enc.push_le_bytes((first * CHUNK_WORDS) as u32, bytes);
                        continue;
                    }
                    let cu = current.chunk128(c);
                    let base = (c * CHUNK_WORDS) as u32;
                    for i in 0..CHUNK_WORDS {
                        if (x >> (32 * i)) as u32 != 0 {
                            enc.push(base + i as u32, &[(cu >> (32 * i)) as u32]);
                        }
                    }
                    c += 1;
                }
            }
        }
        enc.finish()
    }

    /// Build a diff from `(word_off, words)` runs (used by tests and
    /// protocol decoding). Panics if the runs are not sorted,
    /// non-overlapping, non-adjacent and in-bounds.
    pub fn from_runs<'r>(runs: impl IntoIterator<Item = (u32, &'r [u32])>) -> Diff {
        let mut buf = [0; ENCODED_MAX];
        let mut enc = Encoder::new(&mut buf);
        for (i, (off, words)) in runs.into_iter().enumerate() {
            assert!(!words.is_empty(), "empty run");
            assert!(i == 0 || off > enc.end, "unsorted or adjacent runs");
            assert!(
                off as usize + words.len() <= PAGE_WORDS,
                "run out of bounds"
            );
            enc.push(off, words);
        }
        enc.finish()
    }

    /// Write the modified words into `page`.
    ///
    /// Each run is stored through [`PageBuf::set_words`] — a single
    /// bounds-checked block copy — instead of a per-word loop.
    pub fn apply(&self, page: &mut PageBuf) {
        for (off, words) in self.runs() {
            page.set_words(off as usize, words);
        }
    }

    /// Diff integration: overlay `newer` on top of `self`, producing a single
    /// diff equivalent to applying `self` then `newer`.
    ///
    /// Two-pointer run merge: walks both run lists once instead of
    /// materializing a page-sized overlay. Newer words win on overlap; an
    /// older run straddling a newer one keeps its head and its tail.
    pub fn merge(&self, newer: &Diff) -> Diff {
        let mut buf = [0; ENCODED_MAX];
        let mut enc = Encoder::new(&mut buf);
        let mut older = self.runs();
        // The part of the current older run not yet emitted or overwritten.
        let mut pending = older.next();
        for (off, words) in newer.runs() {
            let end = off + words.len() as u32;
            while let Some((a_off, a_words)) = pending {
                if a_off >= end {
                    break;
                }
                let a_end = a_off + a_words.len() as u32;
                if a_off < off {
                    enc.push(a_off, &a_words[..(a_end.min(off) - a_off) as usize]);
                }
                if a_end > end {
                    pending = Some((end, &a_words[(end - a_off) as usize..]));
                    break;
                }
                pending = older.next();
            }
            enc.push(off, words);
        }
        while let Some((a_off, a_words)) = pending {
            enc.push(a_off, a_words);
            pending = older.next();
        }
        enc.finish()
    }
}

/// Iterator over an encoding's runs.
#[derive(Clone)]
struct Runs<'a> {
    /// The encoding after the count word, from the next run header on.
    rest: &'a [u32],
    /// Runs not yet yielded.
    left: usize,
}

impl<'a> Iterator for Runs<'a> {
    type Item = (u32, &'a [u32]);

    fn next(&mut self) -> Option<(u32, &'a [u32])> {
        let (&header, tail) = self.rest.split_first()?;
        let (words, rest) = tail.split_at((header >> LEN_SHIFT) as usize);
        self.rest = rest;
        self.left -= 1;
        Some((header & OFF_MASK, words))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Runs<'_> {}

/// Builds one diff's encoding in a caller-provided buffer of at least
/// [`ENCODED_MAX`] words, merging a pushed run into the previous one when
/// they meet, so pushes in ascending order always yield maximal runs.
pub(crate) struct Encoder<'a> {
    out: &'a mut [u32],
    /// Words written so far, the count word included.
    len: usize,
    runs: u32,
    /// Index of the last run's header.
    header: usize,
    /// One past the last run's final word (`u32::MAX` before the first).
    end: u32,
}

impl<'a> Encoder<'a> {
    pub(crate) fn new(out: &'a mut [u32]) -> Encoder<'a> {
        assert!(out.len() >= ENCODED_MAX, "diff encoder buffer too short");
        Encoder {
            out,
            len: 1,
            runs: 0,
            header: 0,
            end: u32::MAX,
        }
    }

    /// Append `words` at word `off`, which must not lie below the end of
    /// the previous push.
    #[inline]
    pub(crate) fn push(&mut self, off: u32, words: &[u32]) {
        if !words.is_empty() {
            self.extend(off, words.len()).copy_from_slice(words);
        }
    }

    /// [`Encoder::push`] of the little-endian words in `bytes` (a whole
    /// number of words, at least one).
    #[inline]
    fn push_le_bytes(&mut self, off: u32, bytes: &[u8]) {
        let words = self.extend(off, bytes.len() / WORD_SIZE);
        for (w, b) in words.iter_mut().zip(bytes.chunks_exact(WORD_SIZE)) {
            *w = u32::from_le_bytes(b.try_into().expect("a whole word"));
        }
    }

    /// Open a run at `off`, or extend the last one when it ends there, by
    /// `n > 0` words, and return them for the caller to fill.
    #[inline]
    fn extend(&mut self, off: u32, n: usize) -> &mut [u32] {
        debug_assert!(
            self.runs == 0 || off >= self.end,
            "diff runs pushed out of order"
        );
        if off == self.end {
            self.out[self.header] += (n as u32) << LEN_SHIFT;
        } else {
            self.header = self.len;
            self.out[self.len] = off | (n as u32) << LEN_SHIFT;
            self.len += 1;
            self.runs += 1;
        }
        let words = &mut self.out[self.len..self.len + n];
        self.len += n;
        self.end = off + n as u32;
        words
    }

    /// The finished diff: one exact-size allocation, none when empty.
    pub(crate) fn finish(self) -> Diff {
        if self.runs == 0 {
            return Diff::empty();
        }
        self.out[0] = self.runs;
        Diff {
            buf: Some(Arc::from(&self.out[..self.len])),
        }
    }
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
        let runs: Vec<_> = d.runs().collect();
        assert_eq!(runs, [(3, &[1, 2, 3][..]), (9, &[4][..])]);
        assert_eq!(d.runs().len(), 2);
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

    /// A diff as a plain run list: `(word_off, words)` per run, ascending.
    type RunList = Vec<(u32, Vec<u32>)>;

    fn run_list(d: &Diff) -> RunList {
        d.runs().map(|(off, words)| (off, words.to_vec())).collect()
    }

    /// `d` equals the reference run list run for run, and its O(1) sizes
    /// agree with the list's.
    fn assert_matches(d: &Diff, reference: &RunList, what: &str) {
        assert_eq!(run_list(d), *reference, "{what}: runs");
        let words: usize = reference.iter().map(|(_, w)| w.len()).sum();
        assert_eq!(d.word_count(), words, "{what}: word_count");
        assert_eq!(d.is_empty(), reference.is_empty(), "{what}: is_empty");
        assert_eq!(
            d.wire_bytes(),
            DIFF_HEADER_BYTES + reference.len() * RUN_HEADER_BYTES + words * WORD_SIZE,
            "{what}: wire_bytes"
        );
    }

    /// The original word-by-word diff kernel, retained as the oracle for the
    /// randomized equivalence suite below.
    fn scalar_create(twin: &PageBuf, current: &PageBuf) -> RunList {
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
                runs.push((start as u32, words));
            } else {
                w += 1;
            }
        }
        runs
    }

    /// The original page-sized-overlay merge, retained as the oracle.
    fn overlay_merge(older: &Diff, newer: &Diff) -> RunList {
        let mut overlay: Vec<Option<u32>> = vec![None; PAGE_WORDS];
        for d in [older, newer] {
            for (off, words) in run_list(d) {
                for (i, &v) in words.iter().enumerate() {
                    overlay[off as usize + i] = Some(v);
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
                    runs.push((start as u32, words));
                }
                None => w += 1,
            }
        }
        runs
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
            let what = format!("trial {trial} density {density}");
            assert_matches(&chunked, &scalar_create(&twin, &cur), &what);
            let mut scratch = Vec::new();
            let reused = Diff::create_with_scratch(&twin, &cur, &mut scratch);
            assert_eq!(reused, chunked, "{what}: scratch");
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
            let what = format!("trial {trial} density {density}");
            assert_matches(&a.merge(&b), &overlay_merge(&a, &b), &what);
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
            assert_matches(&chunked, &scalar_create(&zero, cur), &format!("case {i}"));
            let mut rebuilt = zero.clone();
            chunked.apply(&mut rebuilt);
            assert_eq!(&*rebuilt, &**cur, "roundtrip case {i}");
        }
    }

    #[test]
    fn merge_boundary_cases() {
        // Older run spans an entire newer run, with head and tail kept.
        let older: Vec<u32> = (0..20).collect();
        let a = Diff::from_runs([(10, &older[..])]);
        let b = Diff::from_runs([(15, &[900, 901, 902][..])]);
        let m = a.merge(&b);
        assert_matches(&m, &overlay_merge(&a, &b), "spanned");
        assert_eq!(m.runs().len(), 1);
        assert_eq!(m.word_count(), 20);
        // Newer run extends past the older tail and bridges into a later run.
        let a = Diff::from_runs([(0, &[1, 2][..]), (4, &[3][..])]);
        let b = Diff::from_runs([(1, &[7, 8, 9][..])]);
        assert_matches(&a.merge(&b), &overlay_merge(&a, &b), "bridged");
        // Merging with empties.
        assert_eq!(a.merge(&Diff::empty()), a);
        assert_eq!(Diff::empty().merge(&a), a);
        // Last-word runs.
        let last = Diff::from_runs([(PAGE_WORDS as u32 - 1, &[5][..])]);
        assert_matches(&a.merge(&last), &overlay_merge(&a, &last), "last word");
        assert_matches(
            &last.merge(&a),
            &overlay_merge(&last, &a),
            "last word, older",
        );
        // The whole page, and page-boundary runs on both sides.
        let mut full_page = PageBuf::zeroed();
        for w in 0..PAGE_WORDS {
            full_page.set_word(w, w as u32 + 1);
        }
        let full = Diff::create(&PageBuf::zeroed(), &full_page);
        for (what, x, y) in [
            ("full over runs", &a, &full),
            ("runs over full", &full, &a),
            ("runs over last", &last, &a),
            ("empty over empty", &Diff::empty(), &Diff::empty()),
        ] {
            assert_matches(&x.merge(y), &overlay_merge(x, y), what);
        }
    }

    #[test]
    #[should_panic(expected = "unsorted")]
    fn from_runs_validates() {
        Diff::from_runs([(5, &[1][..]), (2, &[1][..])]);
    }

    #[test]
    #[should_panic(expected = "unsorted or adjacent")]
    fn from_runs_rejects_adjacent_runs() {
        Diff::from_runs([(5, &[1][..]), (6, &[1][..])]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_runs_rejects_runs_past_the_page() {
        Diff::from_runs([(PAGE_WORDS as u32 - 1, &[1, 2][..])]);
    }

    #[test]
    fn from_runs_round_trips_every_created_diff() {
        let mut rng = Rng(0xf00d_2026);
        for density in [0, 1, 4, 32, 256] {
            let twin = PageBuf::zeroed();
            let d = Diff::create(&twin, &random_mutation(&mut rng, &twin, density));
            assert_eq!(Diff::from_runs(d.runs()), d, "density {density}");
        }
    }

    #[test]
    fn the_longest_encoding_fits() {
        // Every other word changed: the most runs a page can hold.
        let twin = PageBuf::zeroed();
        let mut cur = PageBuf::zeroed();
        for w in (0..PAGE_WORDS).step_by(2) {
            cur.set_word(w, 1);
        }
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.runs().len(), PAGE_WORDS / 2);
        let d = d.merge(&Diff::create(&twin, &page_with(&[(PAGE_WORDS - 1, 2)])));
        assert_eq!(d.runs().len(), PAGE_WORDS / 2);
        assert_eq!(d.word_count(), PAGE_WORDS / 2 + 1);
    }

    #[test]
    fn clones_share_one_buffer() {
        let d = Diff::create(&PageBuf::zeroed(), &page_with(&[(7, 1)]));
        let c = d.clone();
        assert!(c.shares_buffer(&d));
        assert!(!Diff::from_runs(d.runs()).shares_buffer(&d));
        assert!(!Diff::empty().shares_buffer(&Diff::empty()));
    }
}
