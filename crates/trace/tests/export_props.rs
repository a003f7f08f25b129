//! The streaming exporters against the tree builders they replaced, over
//! seeded random input (failures print the seed for replay).

mod support;

use support::gen::{self, Rng};
use support::oracle;
use vopp_trace::json::{num, str, Value, Writer};
use vopp_trace::{to_chrome_json, write_chrome_json_to, Event, Trace};

const CASES: u64 = 64;

fn streamed(ev: &Event, pretty: bool) -> String {
    let mut s = String::new();
    let mut w = if pretty {
        Writer::pretty(&mut s)
    } else {
        Writer::compact(&mut s)
    };
    ev.write_json(&mut w);
    if pretty {
        w.end_document();
    }
    s
}

/// Every variant, compact and pretty, streams the bytes its tree prints, and
/// parses back to itself — tags past 2^53 included.
#[test]
fn every_event_kind_streams_its_tree() {
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        for variant in 0..gen::KINDS {
            let t = rng.next_u64() >> rng.below(64);
            let ev = gen::event(&mut rng, variant, t);
            seen.insert(ev.kind.name());
            let tree = oracle::event_to_value(&ev);
            let what = format!("seed {seed}, {}", ev.kind.name());
            assert_eq!(streamed(&ev, false), oracle::print(&tree), "{what}");
            assert_eq!(streamed(&ev, true), oracle::print_pretty(&tree), "{what}");
            let parsed = Value::parse(&streamed(&ev, false)).expect(&what);
            assert_eq!(Event::from_value(&parsed).expect(&what), ev, "{what}");
        }
    }
    assert_eq!(seen.len() as u64, gen::KINDS, "a variant is never drawn");
}

/// Whole documents: the canonical stream and the Perfetto export (slices
/// with empty `args`, flow pairs, fractional-microsecond timestamps), as a
/// `String` and through `io::Write`, equal the trees'.
#[test]
fn whole_traces_stream_their_trees() {
    for seed in 0..CASES {
        let trace = gen::trace(seed, 400);
        let json = trace.to_json();
        assert_eq!(json, oracle::trace_to_json(&trace), "seed {seed}");
        assert_eq!(Trace::from_json(&json).as_ref(), Ok(&trace), "seed {seed}");
        let chrome = to_chrome_json(&trace);
        assert_eq!(chrome, oracle::to_chrome_json(&trace), "seed {seed}");
        Value::parse(&chrome).unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        let mut bytes = Vec::new();
        trace.write_json_to(&mut bytes).expect("Vec write");
        assert_eq!(bytes, json.as_bytes(), "seed {seed}");
        bytes.clear();
        write_chrome_json_to(&trace, &mut bytes).expect("Vec write");
        assert_eq!(bytes, chrome.as_bytes(), "seed {seed}");
    }
    let empty = Trace::default();
    assert_eq!(empty.to_json(), oracle::trace_to_json(&empty));
    assert_eq!(to_chrome_json(&empty), oracle::to_chrome_json(&empty));
}

fn us_text(t_ns: u64) -> String {
    let mut s = String::new();
    Writer::compact(&mut s).us(t_ns);
    s
}

/// The microsecond writer prints exactly what the `f64` path printed for
/// `t_ns as f64 / 1000.0` (the oracle's number printer): over the whole
/// `u64` range at every shift, and at powers of ten and around 2^50, 2^52
/// and 2^53, where the text is made from integers on one side and from the
/// `f64` on the other, and where `f64` stops holding every nanosecond.
#[test]
fn microseconds_print_as_the_f64_path() {
    let check = |t: u64, what: &str| {
        let want = oracle::print(&Value::Num(t as f64 / 1000.0));
        assert_eq!(us_text(t), want, "{what}: t = {t}");
    };
    for seed in 0..16 * CASES {
        let mut rng = Rng(seed);
        for shift in 0..64 {
            check(
                rng.next_u64() >> shift,
                &format!("seed {seed}, shift {shift}"),
            );
        }
    }
    for k in 0..20 {
        check(10u64.pow(k), "power of ten");
        check(10u64.pow(k) - 1, "power of ten");
    }
    for k in 0..2_000 {
        for edge in [1u64 << 50, 1 << 53] {
            check(edge + k, "edge + k");
            check(edge - k, "edge - k");
        }
        check((1 << 52) + k, "2^52 + k");
    }
    check(u64::MAX, "u64::MAX");
    assert_eq!(us_text(1_500), "1.5");
    assert_eq!(us_text(2_000), "2");
    assert_eq!(us_text(7), "0.007");
}

/// A random tree: every scalar kind, strings that need escapes, floats with
/// fractions, and containers that are often empty.
fn value(rng: &mut Rng, depth: u32) -> Value {
    match rng.below(if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.flip()),
        2 => num(rng.id()),
        3 => Value::Num(rng.next_u64() as f64 / 1000.0),
        4 => Value::Num(-(rng.below(1 << 20) as f64) / 8.0),
        5 => str(&rng.text()),
        6 => Value::Arr((0..rng.below(4)).map(|_| value(rng, depth - 1)).collect()),
        _ => Value::Obj(
            (0..rng.below(4))
                .map(|_| (rng.text(), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// `Value` prints through the streaming writer too: both layouts equal the
/// recursive printer's on arbitrary trees (`[]` / `{}` for empty containers
/// at any depth) and parse back to the tree.
#[test]
fn value_trees_print_as_before() {
    for seed in 0..4 * CASES {
        let v = value(&mut Rng(seed), 4);
        assert_eq!(v.to_json(), oracle::print(&v), "seed {seed}");
        assert_eq!(v.to_json_pretty(), oracle::print_pretty(&v), "seed {seed}");
    }
    for v in [Value::Arr(vec![]), Value::Obj(vec![])] {
        assert_eq!(v.to_json_pretty(), oracle::print_pretty(&v));
    }
}

/// An `io::Write` that fails is reported, not swallowed.
#[test]
fn io_errors_surface() {
    struct Full;
    impl std::io::Write for Full {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let trace = gen::trace(1, 10);
    assert!(trace.write_json_to(&mut Full).is_err());
    assert!(write_chrome_json_to(&trace, &mut Full).is_err());
}
