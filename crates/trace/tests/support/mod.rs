//! Shared by this crate's `tests/export_props.rs`, the root package's
//! `tests/trace_export.rs` and `crates/bench/benches/substrate.rs` (each
//! includes this file by path; none of them uses every function).
#![allow(dead_code)]

pub mod gen;
pub mod oracle;
