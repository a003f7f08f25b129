//! Spans recorded by the benchmark itself around every call into a layer.
//!
//! Kept in memory and written once, at exit, as Chrome-trace JSON. Recording
//! is off on the runs that produce end-to-end metrics; a separate traced run
//! turns it on. Spans inside `crates/**` are out of scope (ROADMAP 1(c)).

use std::collections::BTreeMap;
use std::time::Instant;

use vopp_trace::json::{num, obj, str, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// The crate the spanned call enters (`sim`, `dsm`, `trace`, ...).
    pub layer: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The rep this span belongs to: spans of one rep share it.
    pub rep: u32,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    open: Vec<usize>,
    pub rep: u32,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            open: Vec::new(),
            rep: 0,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span (or bare, when recording is off).
    pub fn scope<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            parent: self.open.last().copied(),
            rep: self.rep,
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        r
    }

    /// Total duration in seconds of the spans whose name passes `want`.
    pub fn total_s(&self, want: impl Fn(&str) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| want(&s.name))
            .map(|s| (s.end_us - s.start_us) / 1e6)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    }

    /// Chrome-trace JSON (`ph: "X"` complete events), loadable in Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj(vec![
                    ("name", str(&s.name)),
                    ("cat", str(s.layer)),
                    ("ph", str("X")),
                    ("ts", Value::Num(s.start_us)),
                    ("dur", Value::Num(s.end_us - s.start_us)),
                    ("pid", num(1)),
                    ("tid", num(1)),
                    (
                        "args",
                        obj(vec![
                            ("id", num(id as u64)),
                            ("parent", s.parent.map_or(Value::Null, |p| num(p as u64))),
                            ("rep", num(u64::from(s.rep))),
                        ]),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("displayTimeUnit", str("ms")),
            ("traceEvents", Value::Arr(events)),
        ])
        .to_json()
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// children cover (overlapping children are not counted twice).
pub fn self_time_us(spans: &[Span], id: usize) -> f64 {
    let s = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_us.max(s.start_us), c.end_us.min(s.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = s.start_us;
    for (a, b) in kids {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    (s.end_us - s.start_us) - covered
}

/// Self time in seconds summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        *out.entry(s.layer).or_insert(0.0) += self_time_us(spans, id) / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            name: layer.to_string(),
            layer,
            parent,
            rep: 0,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("bench", None, 0.0, 100.0),
            span("apps", Some(0), 10.0, 40.0),  // sibling 1
            span("serve", Some(0), 50.0, 90.0), // sibling 2
            span("trace", Some(2), 60.0, 70.0), // nested under sibling 2
        ];
        assert_eq!(self_time_us(&spans, 0), 100.0 - 30.0 - 40.0);
        assert_eq!(self_time_us(&spans, 1), 30.0);
        assert_eq!(self_time_us(&spans, 2), 40.0 - 10.0);
        assert_eq!(self_time_us(&spans, 3), 10.0);
        let by = self_time_by_layer(&spans);
        let total: f64 = by.values().sum();
        // Self times partition the root: they sum to its duration.
        assert!((total - 100.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_covered_once() {
        let spans = vec![
            span("bench", None, 0.0, 100.0),
            span("a", Some(0), 10.0, 60.0),
            span("b", Some(0), 40.0, 80.0),  // overlaps a
            span("c", Some(0), 90.0, 130.0), // overhangs the parent
            span("d", Some(0), 45.0, 50.0),  // inside a and b
        ];
        assert_eq!(self_time_us(&spans, 0), 100.0 - 70.0 - 10.0);
    }

    #[test]
    fn scope_records_the_tree_and_is_free_when_off() {
        let mut off = Spans::new(false);
        assert_eq!(off.scope("x", "bench", |_| 7), 7);
        assert!(off.spans.is_empty());

        let mut on = Spans::new(true);
        on.rep = 3;
        on.scope("root", "bench", |s| {
            s.scope("kid", "sim", |_| ());
            s.scope("kid", "dsm", |s| s.scope("grandkid", "page", |_| ()));
        });
        let tree: Vec<_> = on
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.layer, s.parent, s.rep))
            .collect();
        assert_eq!(
            tree,
            [
                ("root", "bench", None, 3),
                ("kid", "sim", Some(0), 3),
                ("kid", "dsm", Some(0), 3),
                ("grandkid", "page", Some(2), 3),
            ]
        );
        assert!(on.spans.iter().all(|s| s.end_us >= s.start_us));
        assert!(on.total_s(|n| n == "kid") <= on.total_s(|n| n == "root"));
    }

    #[test]
    fn chrome_json_round_trips_through_the_parser() {
        let mut s = Spans::new(true);
        s.scope("cell:\"quoted\"", "apps", |s| {
            s.scope("inner", "dsm", |_| ())
        });
        let doc = Value::parse(&s.to_chrome_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").and_then(Value::as_str),
            Some("cell:\"quoted\"")
        );
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("parent")),
            Some(&Value::Null)
        );
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_u64),
            Some(0)
        );
    }
}
