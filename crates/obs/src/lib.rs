//! # obs — deterministic observability for the reproduction
//!
//! A zero-dependency metrics registry (counters, gauges, fixed-bucket
//! histograms) plus a bounded event-trace ring, shared by every runtime
//! crate of the workspace (`netsim`, `dist`, `relstore`, `wal`).
//!
//! ## Determinism contract
//!
//! Metrics fall into two domains, and only one of them is covered by
//! the byte-for-byte replay guarantee:
//!
//! * **Simulated-time domain** (`netsim.*`, `dist.*`): every value is
//!   derived from [`netsim::SimTime`]-style microsecond ticks or from
//!   event counts, both pure functions of the run inputs. Two runs with
//!   the same seed produce [`Snapshot::to_json`] outputs that are
//!   **byte-identical** — the `determinism_replay` test suite enforces
//!   this.
//! * **Wall-clock domain** (`relstore.*` latency histograms, `wal.*`
//!   flush/recovery timings): these observe real elapsed time on real
//!   threads and are *excluded* from the replay guarantee. Their event
//!   **counts** are still exact; only time-bucket placement varies.
//!
//! Everything that could introduce ambient nondeterminism is kept out
//! by construction: all maps are `BTreeMap` (sorted iteration), the
//! trace ring preserves append order, and the JSON writer emits only
//! integers (no float formatting).
//!
//! ## Cost model
//!
//! By-name registry writes take a mutex and a string-keyed map lookup —
//! fine for slow paths (fsyncs, fault events, new high-water marks).
//! A call site that runs per row, per operation or per commit on
//! threads that share the registry (the storage engines, the router,
//! the log) bumps a pre-registered [`Counter`] / [`HistogramHandle`]
//! instead: no mutex, no lookup, and a cache line per thread (see
//! [`handle`]). Even that is too heavy for a discrete-event simulator
//! processing an event in tens of nanoseconds on one thread: such
//! components accumulate into plain
//! local fields and local [`Histogram`]s and export once per run with
//! the idempotent flush primitives ([`Registry::counter_set`],
//! [`Registry::histogram_set`], [`Registry::merge_histogram`]); rare
//! events trace directly via [`Registry::trace_num`] /
//! [`Registry::trace_pair`], which defer all formatting to snapshot
//! export. The benchmark's `obs.registry_overhead_ratio` measures the
//! end-to-end overhead of this design (a registry enabled against
//! [`Registry::disabled`] on the same tape).
//!
//! ## Metric naming scheme
//!
//! `<crate>.<area>.<name>[_<unit>]`, lowercase, dot-separated, with the
//! unit spelled in the final segment: `_us` (microseconds), `_bytes`,
//! `_pct` (0–100), `_msgs`. Examples: `netsim.drop.bytes`,
//! `dist.broadcast.backoff_us`, `relstore.lock.wait_us`,
//! `wal.commit.batch_commits`.
//!
//! ## Example
//!
//! ```
//! let reg = obs::Registry::new();
//! reg.inc("netsim.deliver.msgs");
//! reg.add("netsim.deliver.bytes", 1500);
//! reg.observe_with("netsim.deliver.latency_us", obs::buckets::TIME_US, 420);
//! reg.trace(420, "deliver", || "src=0 dst=1".to_string());
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("netsim.deliver.msgs"), 1);
//! assert!(snap.to_json().starts_with('{'));
//! ```
//!
//! [`netsim::SimTime`]: https://docs.rs/netsim

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod buckets;
mod cpu;
pub mod handle;
pub mod hist;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use cpu::time_on_cpu;
pub use handle::{Counter, HistogramHandle};
pub use hist::Histogram;
pub use registry::Registry;
pub use snapshot::Snapshot;
pub use trace::{Detail, Event};
