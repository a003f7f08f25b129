//! Shared by this crate's `tests/export_props.rs` and the root package's
//! `tests/trace_export.rs` (each includes this file by path; neither uses
//! every function).
#![allow(dead_code)]

pub mod gen;
pub mod oracle;
