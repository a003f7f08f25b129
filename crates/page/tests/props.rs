//! Property-based tests of the memory substrate invariants.
//!
//! Exercised over seeded pseudo-random inputs (SplitMix64) instead of a
//! property-testing framework so the suite runs without external
//! dependencies; failures print the seed for replay.

use vopp_page::{
    pages_spanned, Diff, IntegratedPage, NodeMemory, PageBuf, SharedHeap, VTime, PAGE_SIZE,
    PAGE_WORDS,
};

/// SplitMix64: tiny deterministic PRNG, seeded per case.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    /// Uniform in [lo, hi).
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// A small set of sparse word writes as (index, value) pairs.
    fn writes(&mut self) -> Vec<(usize, u32)> {
        (0..self.range(0, 64))
            .map(|_| (self.range(0, PAGE_WORDS), self.next_u32()))
            .collect()
    }
}

const CASES: u64 = 64;

fn page_from(writes: &[(usize, u32)]) -> Box<PageBuf> {
    let mut p = PageBuf::zeroed();
    for &(w, v) in writes {
        p.set_word(w, v);
    }
    p
}

/// diff(twin, cur) applied to twin reconstructs cur exactly.
#[test]
fn diff_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let twin = page_from(&rng.writes());
        let cur = page_from(&rng.writes());
        let d = Diff::create(&twin, &cur);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        assert_eq!(&*rebuilt, &*cur, "seed {seed}");
    }
}

/// Diff runs are sorted, non-overlapping, non-adjacent and in bounds.
#[test]
fn diff_runs_canonical() {
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let d = Diff::create(&page_from(&rng.writes()), &page_from(&rng.writes()));
        let mut prev_end: Option<u32> = None;
        for (off, words) in d.runs() {
            assert!(!words.is_empty(), "seed {seed}");
            let end = off + words.len() as u32;
            assert!(end as usize <= PAGE_WORDS, "seed {seed}");
            if let Some(pe) = prev_end {
                // A gap of at least one unchanged word between runs.
                assert!(off > pe, "seed {seed}");
            }
            prev_end = Some(end);
        }
    }
}

/// Merging two diffs equals applying them in sequence (last writer wins).
#[test]
fn diff_merge_equals_sequential() {
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let zero = PageBuf::zeroed();
        let a = Diff::create(&zero, &page_from(&rng.writes()));
        let b = Diff::create(&zero, &page_from(&rng.writes()));
        let base = rng.writes();
        let mut seq = page_from(&base);
        a.apply(&mut seq);
        b.apply(&mut seq);
        let mut merged = page_from(&base);
        a.merge(&b).apply(&mut merged);
        assert_eq!(&*seq, &*merged, "seed {seed}");
    }
}

/// Merge is associative in effect: (a+b)+c == a+(b+c) as page transforms.
#[test]
fn diff_merge_associative() {
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let zero = PageBuf::zeroed();
        let a = Diff::create(&zero, &page_from(&rng.writes()));
        let b = Diff::create(&zero, &page_from(&rng.writes()));
        let c = Diff::create(&zero, &page_from(&rng.writes()));
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        assert_eq!(left, right, "seed {seed}");
    }
}

/// Integrated diff never exceeds one full page of payload.
#[test]
fn diff_merge_bounded() {
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let zero = PageBuf::zeroed();
        let a = Diff::create(&zero, &page_from(&rng.writes()));
        let b = Diff::create(&zero, &page_from(&rng.writes()));
        let m = a.merge(&b);
        assert!(m.word_count() <= PAGE_WORDS, "seed {seed}");
        assert!(
            m.word_count() <= a.word_count() + b.word_count(),
            "seed {seed}"
        );
    }
}

/// One release's diff of a page, in the shapes view programs produce:
/// scattered words, a few short runs (which overlap and abut across
/// releases, because they cluster), every 8th word, the whole page, or a
/// page that was dirtied but ended up unchanged (an empty diff).
fn release_diff(rng: &mut Rng) -> Diff {
    let mut runs = Vec::new();
    match rng.range(0, 6) {
        0 => {}
        1 => runs.push((0, PAGE_WORDS)),
        2 => runs.extend((0..PAGE_WORDS).step_by(8).map(|w| (w, 1))),
        3 => {
            let mut w = rng.range(0, 64);
            while w < PAGE_WORDS {
                runs.push((w, 1));
                w += rng.range(2, 200);
            }
        }
        _ => {
            // Short runs packed into a 64-word window.
            let mut w = 256 + rng.range(0, 16);
            for _ in 0..rng.range(1, 6) {
                let len = rng.range(1, 9);
                runs.push((w, len));
                w += len + rng.range(1, 4);
            }
        }
    }
    let words: Vec<Vec<u32>> = runs
        .iter()
        .map(|&(_, len)| (0..len).map(|_| rng.next_u32()).collect())
        .collect();
    Diff::from_runs(
        runs.iter()
            .zip(&words)
            .map(|(&(off, _), w)| (off as u32, &w[..])),
    )
}

/// The incremental kernel against its definition: for every `have`, the
/// diff of everything newer equals the left fold of `Diff::merge` over the
/// releases above `have` — from `have = 0` (a crashed node re-acquiring) to
/// `have = version` (nothing to send) — is canonical, and a single missed
/// release is handed out shared.
#[test]
fn integrated_page_equals_merge_fold() {
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let mut page = IntegratedPage::default();
        // (version, diff) of the releases that touched this page; the view's
        // other releases (other pages only) leave gaps in the versions.
        let mut releases: Vec<(u32, Diff)> = Vec::new();
        let last_version = rng.range(1, 24) as u32;
        for version in 1..=last_version {
            if rng.range(0, 3) > 0 {
                let d = release_diff(&mut rng);
                page.absorb(version, d.clone());
                releases.push((version, d));
            }
        }
        assert_eq!(page.version(), releases.last().map_or(0, |(v, _)| *v));
        for have in 0..=last_version {
            let missed: Vec<&Diff> = releases
                .iter()
                .filter(|(v, _)| *v > have)
                .map(|(_, d)| d)
                .collect();
            let got = page.newer_than(have);
            let Some(first) = missed.first() else {
                assert!(got.is_none(), "seed {seed} have {have}");
                continue;
            };
            let got = got.unwrap_or_else(|| panic!("seed {seed} have {have}: no diff"));
            let fold = missed[1..]
                .iter()
                .fold(Diff::clone(first), |acc, d| acc.merge(d));
            assert_eq!(got, fold, "seed {seed} have {have}");
            // Sorted, non-adjacent, in-bounds: from_runs panics otherwise.
            let _ = Diff::from_runs(got.runs());
            // (An empty diff has no buffer to share.)
            if missed.len() == 1 && !first.is_empty() {
                assert!(got.shares_buffer(first), "seed {seed} have {have}");
            }
        }
    }
    // A page no release ever wrote has nothing for anyone.
    assert!(IntegratedPage::default().newer_than(0).is_none());
}

/// Wire-size accounting matches the encoding exactly: header + one
/// header-plus-payload block per run.
#[test]
fn diff_wire_bytes_exact() {
    use vopp_page::{DIFF_HEADER_BYTES, RUN_HEADER_BYTES, WORD_SIZE};
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let d = Diff::create(&page_from(&rng.writes()), &page_from(&rng.writes()));
        let expect =
            DIFF_HEADER_BYTES + d.runs().len() * RUN_HEADER_BYTES + d.word_count() * WORD_SIZE;
        assert_eq!(d.wire_bytes(), expect, "seed {seed}");
    }
}

/// A diff as a plain run list: `(word_off, words)` per run, ascending.
type RunList = Vec<(u32, Vec<u32>)>;

fn run_list(d: &Diff) -> RunList {
    d.runs().map(|(off, words)| (off, words.to_vec())).collect()
}

/// Word-by-word reference of `Diff::create`: maximal runs of the words of
/// `cur` that differ from `twin`.
fn scalar_runs(twin: &PageBuf, cur: &PageBuf) -> RunList {
    let mut runs: RunList = Vec::new();
    for w in 0..PAGE_WORDS {
        if twin.word(w) == cur.word(w) {
            continue;
        }
        match runs.last_mut() {
            Some((off, words)) if *off as usize + words.len() == w => words.push(cur.word(w)),
            _ => runs.push((w as u32, vec![cur.word(w)])),
        }
    }
    runs
}

/// Page-overlay reference of a left fold of `Diff::merge`: later diffs win.
fn overlay_runs(diffs: &[&Diff]) -> RunList {
    let mut twin = PageBuf::zeroed();
    let mut cur = PageBuf::zeroed();
    for d in diffs {
        for (off, words) in run_list(d) {
            for (i, &v) in words.iter().enumerate() {
                let w = off as usize + i;
                // The twin word only has to differ from the written value.
                twin.set_word(w, !v);
                cur.set_word(w, v);
            }
        }
    }
    scalar_runs(&twin, &cur)
}

/// `d` equals the reference run list run for run, and its sizes agree.
fn assert_matches(d: &Diff, reference: &RunList, what: &str) {
    use vopp_page::{DIFF_HEADER_BYTES, RUN_HEADER_BYTES, WORD_SIZE};
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

/// `page` with every word of each `[start, end)` stretch changed.
fn write_stretches(page: &mut PageBuf, stretches: &[(usize, usize)]) {
    for &(start, end) in stretches {
        for w in start..end {
            page.set_word(w, !page.word(w));
        }
    }
}

/// Page-boundary shapes: first and last word, the whole page, every other
/// word (the most runs a page can hold), and no change at all; then
/// stretches of modified words (16-byte chunks are words `4c..4c + 4`,
/// 256-byte superblocks 64 words, 1 KiB quarters 256 words) that start or
/// end inside a chunk, end at or cross a superblock or quarter boundary, or
/// run on into the first words of a partly modified chunk.
fn boundary_pages() -> Vec<Box<PageBuf>> {
    let last = PAGE_WORDS - 1;
    let mut full = PageBuf::zeroed();
    let mut alternate = PageBuf::zeroed();
    for w in 0..PAGE_WORDS {
        full.set_word(w, w as u32 + 1);
        if w % 2 == 0 {
            alternate.set_word(w, 7);
        }
    }
    let mut pages = vec![
        page_from(&[(0, 1)]),
        page_from(&[(last, 1)]),
        page_from(&[(0, 1), (last, 2)]),
        page_from(&[(last - 1, 1), (last, 2)]),
        full,
        alternate,
        PageBuf::zeroed(),
    ];
    let stretches: [&[(usize, usize)]; 12] = [
        &[(2, 14)],
        &[(5, 64)],
        &[(8, 23)],
        &[(48, 64)],
        &[(240, 256)],
        &[(56, 72)],
        &[(250, 262)],
        &[(244, 272)],
        &[(0, PAGE_WORDS - 3)],
        &[(8, 17)],
        &[(8, 18), (19, 20)],
        &[(60, 64), (65, 66), (128, 200), (255, 513)],
    ];
    for s in stretches {
        let mut page = PageBuf::zeroed();
        write_stretches(&mut page, s);
        pages.push(page);
    }
    pages
}

/// `Diff::create` and `Diff::create_with_scratch` (one scratch, reused
/// across every case) equal the word-by-word reference run for run, in
/// their run lists and in their O(1) sizes, on page-boundary pages, random
/// sparse pages and random stretches of modified words.
#[test]
fn diff_create_matches_scalar_run_list() {
    let mut scratch = Vec::new();
    let mut check = |twin: &PageBuf, cur: &PageBuf, what: &str| {
        let reference = scalar_runs(twin, cur);
        assert_matches(&Diff::create(twin, cur), &reference, what);
        let d = Diff::create_with_scratch(twin, cur, &mut scratch);
        assert_matches(&d, &reference, &format!("{what}, scratch"));
    };
    let zero = PageBuf::zeroed();
    for (i, cur) in boundary_pages().iter().enumerate() {
        check(&zero, cur, &format!("boundary {i}"));
    }
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let twin = page_from(&rng.writes());
        let cur = page_from(&rng.writes());
        check(&twin, &cur, &format!("seed {seed}"));
        // Stretches, which may meet, overlap (changing a word back) or
        // straddle any boundary, over a twin with scattered writes.
        let stretches: Vec<(usize, usize)> = (0..rng.range(1, 5))
            .map(|_| {
                let start = rng.range(0, PAGE_WORDS);
                (start, rng.range(start + 1, PAGE_WORDS + 1).min(start + 300))
            })
            .collect();
        let mut cur = twin.clone();
        write_stretches(&mut cur, &stretches);
        check(&twin, &cur, &format!("seed {seed} stretches {stretches:?}"));
    }
}

/// `Diff::merge` equals the overlay reference run for run, including
/// merges with the empty diff and with whole-page and boundary diffs.
#[test]
fn diff_merge_matches_overlay_run_list() {
    let zero = PageBuf::zeroed();
    let shapes: Vec<Diff> = boundary_pages()
        .iter()
        .map(|p| Diff::create(&zero, p))
        .collect();
    for (i, a) in shapes.iter().enumerate() {
        for (j, b) in shapes.iter().enumerate() {
            assert_matches(
                &a.merge(b),
                &overlay_runs(&[a, b]),
                &format!("{i} then {j}"),
            );
        }
    }
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let a = release_diff(&mut rng);
        let b = release_diff(&mut rng);
        let c = release_diff(&mut rng);
        let m = a.merge(&b).merge(&c);
        assert_matches(&m, &overlay_runs(&[&a, &b, &c]), &format!("seed {seed}"));
    }
}

/// Every integrated diff a page hands out equals the overlay reference run
/// for run, sizes included.
#[test]
fn integrated_page_matches_overlay_run_list() {
    for seed in 0..CASES {
        let mut rng = Rng(seed ^ 0x1d);
        let mut page = IntegratedPage::default();
        let releases: Vec<Diff> = (0..rng.range(1, 12))
            .map(|_| release_diff(&mut rng))
            .collect();
        for (v, d) in releases.iter().enumerate() {
            page.absorb(v as u32 + 1, d.clone());
        }
        for have in 0..releases.len() {
            let missed: Vec<&Diff> = releases[have..].iter().collect();
            let got = page.newer_than(have as u32).expect("a newer release");
            let what = format!("seed {seed} have {have}");
            assert_matches(&got, &overlay_runs(&missed), &what);
        }
    }
}

/// Vector time join is the least upper bound.
#[test]
fn vtime_join_is_lub() {
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let a: Vec<u32> = (0..8).map(|_| rng.range(0, 1000) as u32).collect();
        let b: Vec<u32> = (0..8).map(|_| rng.range(0, 1000) as u32).collect();
        let mut va = VTime::zero(8);
        let mut vb = VTime::zero(8);
        for i in 0..8 {
            va.set(i, a[i]);
            vb.set(i, b[i]);
        }
        let j = va.join(&vb);
        assert!(j.dominates(&va), "seed {seed}");
        assert!(j.dominates(&vb), "seed {seed}");
        // Minimality: any upper bound dominates the join.
        let mut ub = VTime::zero(8);
        for i in 0..8 {
            ub.set(i, a[i].max(b[i]));
        }
        assert!(ub.dominates(&j) && j.dominates(&ub), "seed {seed}");
    }
}

/// Domination is a partial order: reflexive and antisymmetric; join
/// commutes.
#[test]
fn vtime_partial_order_laws() {
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let a: Vec<u32> = (0..4).map(|_| rng.range(0, 50) as u32).collect();
        let b: Vec<u32> = (0..4).map(|_| rng.range(0, 50) as u32).collect();
        let mut va = VTime::zero(4);
        let mut vb = VTime::zero(4);
        for i in 0..4 {
            va.set(i, a[i]);
            vb.set(i, b[i]);
        }
        assert!(va.dominates(&va), "seed {seed}");
        if va.dominates(&vb) && vb.dominates(&va) {
            assert_eq!(va.clone(), vb.clone(), "seed {seed}");
        }
        assert_eq!(va.join(&vb), vb.join(&va), "seed {seed}");
    }
}

/// Heap allocations never overlap and respect alignment.
#[test]
fn heap_no_overlap() {
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let reqs: Vec<(usize, u32)> = (0..rng.range(1, 40))
            .map(|_| (rng.range(1, 10_000), rng.range(0, 6) as u32))
            .collect();
        let mut h = SharedHeap::new();
        let mut got: Vec<(usize, usize)> = Vec::new();
        for (len, align_pow) in reqs {
            let align = 1usize << align_pow;
            let a = h.alloc(len, align);
            assert_eq!(a % align, 0, "seed {seed}");
            for &(b, blen) in &got {
                assert!(a + len <= b || b + blen <= a, "seed {seed}: overlap");
            }
            got.push((a, len));
        }
    }
}

/// pages_spanned covers exactly the bytes of the range.
#[test]
fn pages_spanned_covers() {
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let addr = rng.range(0, 100_000);
        let len = rng.range(0, 20_000);
        let r = pages_spanned(addr, len);
        if len == 0 {
            assert!(r.is_empty(), "seed {seed}");
        } else {
            assert_eq!(r.start, addr / PAGE_SIZE, "seed {seed}");
            assert_eq!(r.end, (addr + len - 1) / PAGE_SIZE + 1, "seed {seed}");
        }
    }
}

/// NodeMemory interval extraction: applying the extracted diffs to a copy
/// of the pre-interval state reproduces the post-interval state.
#[test]
fn node_memory_interval_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let ws: Vec<(usize, usize, u32)> = (0..rng.range(1, 50))
            .map(|_| (rng.range(0, 4), rng.range(0, PAGE_WORDS), rng.next_u32()))
            .collect();
        let mut m = NodeMemory::new(4);
        // Pre-state: some baseline writes in a first interval.
        m.note_write(0);
        m.page_mut(0).set_word(0, 7);
        let _ = m.end_interval();
        let pre: Vec<Box<PageBuf>> = (0..4).map(|p| Box::new(m.page(p).clone())).collect();

        for &(p, w, v) in &ws {
            m.note_write(p);
            m.page_mut(p).set_word(w, v);
        }
        let diffs = m.end_interval();
        let mut rebuilt = pre;
        for (p, d) in &diffs {
            d.apply(&mut rebuilt[*p]);
        }
        for (p, page) in rebuilt.iter().enumerate() {
            assert_eq!(&**page, m.page(p), "seed {seed}");
        }
    }
}
