//! Plain-text summarization of a trace: where did the time go?
//!
//! Complements the Perfetto export for terminal workflows: the report lists
//! the top-N slowest view acquires, a per-view wait histogram, and barrier
//! wait statistics — the three quantities the paper's tables aggregate away.

use std::fmt::Write;

use crate::event::{EventKind, NodeId};
use crate::perfetto::FastMap;
use crate::tracer::Trace;

/// One completed view-acquire wait reconstructed from the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcquireWait {
    /// Waiting node.
    pub node: NodeId,
    /// View id.
    pub view: u64,
    /// Write vs read acquisition.
    pub write: bool,
    /// Virtual time the wait began (ns).
    pub start: u64,
    /// Wait duration (ns).
    pub wait_ns: u64,
}

/// Pair every `AcquireStart` with its `AcquireEnd`.
pub fn acquire_waits(trace: &Trace) -> Vec<AcquireWait> {
    Scan::of(trace).acquires
}

/// Aggregate acquire statistics of one view, for hot-view ranking (§3.6:
/// frequently-acquired views serialize the computation and dominate the
/// acquire-wait column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotView {
    /// View id.
    pub view: u64,
    /// Completed acquires (write and read).
    pub acquires: u64,
    /// Total time nodes spent waiting to acquire this view (ns).
    pub wait_ns: u64,
    /// Total bytes carried by the view grants (diffs/pages piggy-backed on
    /// the grant message).
    pub grant_bytes: u64,
}

/// Rank views by total acquire-wait time, hottest first (ties broken by
/// view id), truncated to `top_n`.
pub fn hot_views(trace: &Trace, top_n: usize) -> Vec<HotView> {
    rank(Scan::of(trace).views, top_n)
}

/// Everything the report reads from the event stream, gathered in one scan.
struct Scan {
    census: FastMap<&'static str, usize>,
    acquires: Vec<AcquireWait>,
    /// Per view: every `AcquireEnd`, and the waits of those that matched
    /// an `AcquireStart`.
    views: FastMap<u64, HotView>,
    barriers: Vec<u64>,
}

impl Scan {
    fn of(trace: &Trace) -> Scan {
        let mut census: FastMap<&'static str, usize> = FastMap::default();
        let mut open: FastMap<(NodeId, u64, bool), Vec<u64>> = FastMap::default();
        let mut acquires = Vec::new();
        let mut views: FastMap<u64, HotView> = FastMap::default();
        let mut open_barriers: FastMap<(NodeId, u64), u64> = FastMap::default();
        let mut barriers = Vec::new();
        for ev in &trace.events {
            *census.entry(ev.kind.name()).or_default() += 1;
            match &ev.kind {
                EventKind::AcquireStart { view, write } => {
                    open.entry((ev.node, *view, *write)).or_default().push(ev.t);
                }
                EventKind::AcquireEnd {
                    view, write, bytes, ..
                } => {
                    let hot = views.entry(*view).or_insert(HotView {
                        view: *view,
                        acquires: 0,
                        wait_ns: 0,
                        grant_bytes: 0,
                    });
                    hot.acquires += 1;
                    hot.grant_bytes += bytes;
                    if let Some(start) = open.get_mut(&(ev.node, *view, *write)).and_then(Vec::pop)
                    {
                        let wait_ns = ev.t.saturating_sub(start);
                        hot.wait_ns += wait_ns;
                        acquires.push(AcquireWait {
                            node: ev.node,
                            view: *view,
                            write: *write,
                            start,
                            wait_ns,
                        });
                    }
                }
                EventKind::BarrierEnter { id, .. } => {
                    open_barriers.insert((ev.node, *id), ev.t);
                }
                EventKind::BarrierExit { id, .. } => {
                    if let Some(start) = open_barriers.remove(&(ev.node, *id)) {
                        barriers.push(ev.t.saturating_sub(start));
                    }
                }
                _ => {}
            }
        }
        Scan {
            census,
            acquires,
            views,
            barriers,
        }
    }
}

fn rank(views: FastMap<u64, HotView>, top_n: usize) -> Vec<HotView> {
    let mut out: Vec<HotView> = views.into_values().collect();
    out.sort_by(|a, b| b.wait_ns.cmp(&a.wait_ns).then(a.view.cmp(&b.view)));
    out.truncate(top_n);
    out
}

/// Decade histogram bucket index for a wait, and its label.
const BUCKETS: [(&str, u64); 6] = [
    ("     <10µs", 10_000),
    ("  10-100µs", 100_000),
    (" 100µs-1ms", 1_000_000),
    ("   1-10ms", 10_000_000),
    (" 10-100ms", 100_000_000),
    ("   >100ms", u64::MAX),
];

fn bucket(wait_ns: u64) -> usize {
    BUCKETS
        .iter()
        .position(|(_, lim)| wait_ns < *lim)
        .unwrap_or(BUCKETS.len() - 1)
}

fn fmt_us(ns: u64) -> String {
    format!("{:.1}µs", ns as f64 / 1000.0)
}

/// Render the human-readable trace report.
pub fn report(trace: &Trace, top_n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace report: {} events across {} nodes ({} evicted)",
        trace.events.len(),
        trace.node_count(),
        trace.evicted
    );

    let Scan {
        census,
        acquires: mut waits,
        views,
        barriers: barrier_waits,
    } = Scan::of(trace);

    // Event census, sorted by count descending then name for stability.
    let mut census: Vec<(&str, usize)> = census.into_iter().collect();
    census.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let _ = writeln!(out, "\nevent census:");
    for (name, count) in &census {
        let _ = writeln!(out, "  {count:>8}  {name}");
    }

    // Slowest acquires.
    waits.sort_by(|a, b| b.wait_ns.cmp(&a.wait_ns).then(a.start.cmp(&b.start)));
    let _ = writeln!(
        out,
        "\ntop {} slowest view acquires:",
        top_n.min(waits.len())
    );
    for w in waits.iter().take(top_n) {
        let _ = writeln!(
            out,
            "  {:>12} wait  node {:<3} view {:<4} ({}) at t={}",
            fmt_us(w.wait_ns),
            w.node,
            w.view,
            if w.write { "W" } else { "R" },
            fmt_us(w.start),
        );
    }

    // Hottest views by total acquire-wait time.
    let hot = rank(views, top_n);
    if !hot.is_empty() {
        let _ = writeln!(out, "\nhottest views (by total acquire wait):");
        for h in &hot {
            let _ = writeln!(
                out,
                "  view {:<4} {:>12} total wait  {:>6} acquires  {:>10} grant bytes",
                h.view,
                fmt_us(h.wait_ns),
                h.acquires,
                h.grant_bytes,
            );
        }
    }

    // Per-view wait histograms.
    let mut per_view: FastMap<u64, (u64, u64, [usize; BUCKETS.len()])> = FastMap::default();
    for w in &waits {
        let entry = per_view.entry(w.view).or_insert((0, 0, [0; BUCKETS.len()]));
        entry.0 += 1;
        entry.1 += w.wait_ns;
        entry.2[bucket(w.wait_ns)] += 1;
    }
    let mut views: Vec<u64> = per_view.keys().copied().collect();
    views.sort_unstable();
    let _ = writeln!(out, "\nper-view acquire-wait histogram:");
    for view in views {
        let (count, total, hist) = &per_view[&view];
        let _ = writeln!(
            out,
            "  view {view}: {count} acquires, mean wait {}",
            fmt_us(total / count)
        );
        for (i, (label, _)) in BUCKETS.iter().enumerate() {
            if hist[i] > 0 {
                let _ = writeln!(
                    out,
                    "    {label} {:>6}  {}",
                    hist[i],
                    "#".repeat(hist[i].min(60))
                );
            }
        }
    }

    // Barrier waits.
    if !barrier_waits.is_empty() {
        let total: u64 = barrier_waits.iter().sum();
        let max = *barrier_waits.iter().max().expect("non-empty");
        let _ = writeln!(
            out,
            "\nbarrier waits: {} episodes, mean {}, max {}",
            barrier_waits.len(),
            fmt_us(total / barrier_waits.len() as u64),
            fmt_us(max),
        );
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn report_lists_slowest_acquires_and_histogram() {
        let mut events = Vec::new();
        for (i, wait) in [5_000u64, 50_000, 5_000_000].iter().enumerate() {
            let start = i as u64 * 10_000_000;
            events.push(Event {
                t: start,
                node: i,
                kind: EventKind::AcquireStart {
                    view: 2,
                    write: true,
                },
            });
            events.push(Event {
                t: start + wait,
                node: i,
                kind: EventKind::AcquireEnd {
                    view: 2,
                    write: true,
                    version: i as u64,
                    bytes: 0,
                },
            });
        }
        events.push(Event {
            t: 40_000_000,
            node: 0,
            kind: EventKind::BarrierEnter { id: 0, epoch: 0 },
        });
        events.push(Event {
            t: 41_000_000,
            node: 0,
            kind: EventKind::BarrierExit {
                id: 0,
                epoch: 0,
                notices: 0,
            },
        });
        let trace = Trace { events, evicted: 0 };

        let waits = acquire_waits(&trace);
        assert_eq!(waits.len(), 3);

        let text = report(&trace, 2);
        assert!(text.contains("top 2 slowest view acquires"));
        assert!(text.contains("5000.0µs"), "slowest first:\n{text}");
        assert!(text.contains("view 2: 3 acquires"));
        assert!(text.contains("barrier waits: 1 episodes"));
        assert!(text.contains("hottest views"), "{text}");
    }

    #[test]
    fn hot_views_ranked_by_total_wait() {
        // View 7: one long wait, big grants. View 3: two short waits.
        let mut events = Vec::new();
        let mut acq = |node: usize, view: u64, start: u64, wait: u64, bytes: u64| {
            events.push(Event {
                t: start,
                node,
                kind: EventKind::AcquireStart { view, write: true },
            });
            events.push(Event {
                t: start + wait,
                node,
                kind: EventKind::AcquireEnd {
                    view,
                    write: true,
                    version: 0,
                    bytes,
                },
            });
        };
        acq(0, 7, 0, 900_000, 4096);
        acq(1, 3, 10_000, 100_000, 64);
        acq(2, 3, 20_000, 200_000, 64);
        let trace = Trace { events, evicted: 0 };

        let hot = hot_views(&trace, 10);
        assert_eq!(
            hot,
            vec![
                HotView {
                    view: 7,
                    acquires: 1,
                    wait_ns: 900_000,
                    grant_bytes: 4096,
                },
                HotView {
                    view: 3,
                    acquires: 2,
                    wait_ns: 300_000,
                    grant_bytes: 128,
                },
            ]
        );
        // Truncation respects the ranking.
        assert_eq!(hot_views(&trace, 1)[0].view, 7);
    }
}
