//! # wdoc-bench — the E18 sweep and the Criterion benches
//!
//! Reporting helpers for the `e18_mvcc_sweep` binary. The paper's
//! claims E1–E12 are `cargo test`s in the root `tests/paper_claims.rs`;
//! EXPERIMENTS.md records every result and names its carrier.

#![warn(clippy::all)]

pub mod report;

pub use report::{emit, write_json_file};
