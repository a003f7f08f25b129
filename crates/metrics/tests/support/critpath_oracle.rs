//! The tree the critical-path exporter built before it streamed, kept as the
//! reference: printed by `print_pretty` of `crates/trace/tests/oracle`, it is
//! the document `vopp_metrics::critpath_to_chrome_json` must equal. Included
//! by path from the root package's `tests/trace_export.rs`.

use vopp_metrics::{CritPath, SegCat};
use vopp_trace::json::{self, Value};

/// Convert ns to the microsecond floats Chrome trace events use.
fn us(t_ns: u64) -> Value {
    Value::Num(t_ns as f64 / 1000.0)
}

/// The tree of [`vopp_metrics::critpath_to_chrome_json`]'s document.
pub fn critpath_to_chrome_value(cp: &CritPath) -> Value {
    let mut out: Vec<Value> = Vec::new();
    out.push(json::obj(vec![
        ("ph", json::str("M")),
        ("pid", json::num(0)),
        ("tid", json::num(0)),
        ("name", json::str("process_name")),
        (
            "args",
            json::obj(vec![("name", json::str("critical path"))]),
        ),
    ]));
    let mut named: Vec<usize> = cp.segs.iter().map(|s| s.node).collect();
    named.sort_unstable();
    named.dedup();
    for node in named {
        out.push(json::obj(vec![
            ("ph", json::str("M")),
            ("pid", json::num(0)),
            ("tid", json::num(node as u64)),
            ("name", json::str("thread_name")),
            (
                "args",
                json::obj(vec![("name", json::str(&format!("node {node}")))]),
            ),
        ]));
    }
    for s in &cp.segs {
        if s.len_ns() == 0 {
            continue;
        }
        let name = format!("{}:{}", s.cat.label(), s.op.label());
        let mut args = vec![("obj", json::num(s.obj))];
        if s.cat == SegCat::Cpu {
            args.push(("app_ns", json::num(s.app_ns)));
            args.push(("overhead_ns", json::num(s.overhead_ns)));
            args.push(("diff_ns", json::num(s.diff_ns)));
        }
        out.push(json::obj(vec![
            ("ph", json::str("X")),
            ("pid", json::num(0)),
            ("tid", json::num(s.node as u64)),
            ("cat", json::str(s.cat.label())),
            ("name", json::str(&name)),
            ("ts", us(s.lo_ns)),
            ("dur", us(s.len_ns())),
            ("args", json::obj(args)),
        ]));
    }
    json::obj(vec![
        ("displayTimeUnit", json::str("ns")),
        ("traceEvents", Value::Arr(out)),
    ])
}
