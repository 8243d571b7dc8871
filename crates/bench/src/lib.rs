//! # wdoc-bench — experiment harness for the reproduction
//!
//! Shared helpers for the E1–E12 and E18 report binaries and the
//! Criterion benches. See DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for recorded results.

#![warn(clippy::all)]

pub mod report;

pub use report::{emit, write_json_file, Series};
