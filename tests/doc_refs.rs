//! Every `PERFORMANCE.md §N` that the docs and the sources cite names a
//! numbered section (`## N.`) of docs/PERFORMANCE.md, and so does every
//! `§N` inside that document. CHANGES.md and ROADMAP.md are history and
//! plans: they keep the numbers they were written with, and
//! docs/PERFORMANCE.md ends with a table from the former numbers to the
//! current ones.

use std::path::{Path, PathBuf};

const DOC: &str = "docs/PERFORMANCE.md";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The numbers of the document's `## N.` headings.
fn sections(doc: &str) -> Vec<u32> {
    doc.lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|h| h.split_once('.'))
        .filter_map(|(n, _)| n.parse().ok())
        .collect()
}

/// The number at the start of `s`, and the rest of `s`.
fn leading_number(s: &str) -> (Option<u32>, &str) {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    (s[..end].parse().ok(), &s[end..])
}

/// `(line, N)` for every `§N` in `text`, and for both ends of a range
/// `§N–M`. With `prefixed`, only the `§` right after `PERFORMANCE.md`
/// counts, allowing a line break and comment markers between the two.
fn cited(text: &str, prefixed: bool) -> Vec<(usize, u32)> {
    let mut out = Vec::new();
    for (at, sign) in text.match_indices('§') {
        let before = text[..at].trim_end_matches([' ', '\t', '\r', '\n', '/', '!', '*']);
        if prefixed && !before.ends_with("PERFORMANCE.md") {
            continue;
        }
        let line = text[..at].matches('\n').count() + 1;
        let (Some(n), tail) = leading_number(&text[at + sign.len()..]) else {
            continue;
        };
        out.push((line, n));
        if let Some(range) = tail.strip_prefix('–').or_else(|| tail.strip_prefix('-')) {
            if let (Some(m), _) = leading_number(range) {
                out.push((line, m));
            }
        }
    }
    out
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read a source directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// README.md, EXPERIMENTS.md, DESIGN.md, docs/*.md and every Rust source
/// under `crates/*/src`.
fn scanned_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = ["README.md", "EXPERIMENTS.md", "DESIGN.md"]
        .iter()
        .map(|f| root().join(f))
        .collect();
    for entry in std::fs::read_dir(root().join("docs")).expect("read docs/") {
        let path = entry.expect("a directory entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    for entry in std::fs::read_dir(root().join("crates")).expect("read crates/") {
        let src = entry.expect("a directory entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    files
}

#[test]
fn every_performance_section_reference_names_a_numbered_section() {
    let doc = std::fs::read_to_string(root().join(DOC)).expect("read the performance doc");
    let known = sections(&doc);
    assert!(!known.is_empty(), "{DOC} has no `## N.` heading");
    let mut bad = Vec::new();
    let mut checked = 0;
    for path in scanned_files() {
        let text = std::fs::read_to_string(&path).expect("read a scanned file");
        // The document's own `§N` are all its sections; elsewhere, only a
        // `§N` that follows the document's name is.
        let refs = cited(&text, !path.ends_with(DOC));
        for (line, n) in refs {
            checked += 1;
            if !known.contains(&n) {
                let shown = path.strip_prefix(root()).unwrap_or(&path).display();
                bad.push(format!("{shown}:{line}: §{n}"));
            }
        }
    }
    assert!(checked > 0, "no reference to {DOC} was found at all");
    assert!(
        bad.is_empty(),
        "references to sections {DOC} does not have (its sections: {known:?}):\n{}",
        bad.join("\n")
    );
}

#[test]
fn the_scanner_finds_wrapped_and_ranged_references() {
    let text = "see PERFORMANCE.md §4.\n/// heap (PERFORMANCE.md\n/// §5), and PERFORMANCE.md §7–9; not §3";
    assert_eq!(cited(text, true), [(1, 4), (3, 5), (3, 7), (3, 9)]);
    assert_eq!(cited(text, false), [(1, 4), (3, 5), (3, 7), (3, 9), (3, 3)]);
    assert_eq!(
        sections("# T\n## 1. A\n### x\n## 12. B\n## Former"),
        [1, 12]
    );
}
