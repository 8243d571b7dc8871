//! # mmu-wdoc — a distributed Web document database
//!
//! Umbrella crate of the reproduction of *"The Design and
//! Implementation of a Distributed Web Document Database"* (Timothy K.
//! Shih, Jianhua Ma, Runhe Huang — ICPP Workshops 1999), the
//! virtual-course database of the Multimedia Micro-University project.
//!
//! Everything is re-exported from the member crates:
//!
//! * [`relstore`] — the relational storage engine substrate (the role
//!   MS SQL Server played in 1999);
//! * [`wal`] — write-ahead logging, group commit, checkpoints and
//!   crash recovery for `relstore` (the durability the 1999 system
//!   delegated to the commercial RDBMS);
//! * [`blobstore`] — the BLOB layer (content-addressed, reference
//!   counted);
//! * [`logstore`] — Bitcask-style log-structured storage: append-only
//!   segments, hint files, crash-safe merge compaction; backs the
//!   page store, the BLOB layer, and segmented-WAL stations;
//! * [`netsim`] — the deterministic network simulator standing in for
//!   the physical campus/Internet;
//! * [`obs`] — deterministic observability: metrics registry and
//!   bounded event tracing, timestamped in simulated time so traces
//!   replay byte-for-byte under a fixed seed;
//! * [`shard`] — hash-partitioned tables over per-shard engines:
//!   consistent-hash placement, a router with exact single-engine
//!   parity, and WAL-backed presumed-abort two-phase commit;
//! * [`core`] — the Web document DBMS: three-layer hierarchy, five
//!   document tables, referential integrity alerts, hierarchical
//!   locking, class/instance/reference objects, SCM, quizzes,
//!   white/black/global-box testing, three-tier roles;
//! * [`dist`] — m-ary tree pre-broadcast, watermark demand
//!   duplication, instance migration, adaptive fan-out;
//! * [`library`] — the virtual library: search, check-in/out,
//!   assessment;
//! * [`collab`] — awareness: presence, discussion, conferencing;
//! * [`workload`] — synthetic courseware generators.
//!
//! See `examples/` for runnable walkthroughs. The paper's claims E1–E12
//! are `cargo test`s in `tests/paper_claims.rs`; EXPERIMENTS.md records
//! every result and names its carrier, and `benchmark/` measures the
//! station end to end.

pub use blobstore;
pub use logstore;
pub use netsim;
pub use obs;
pub use relstore;
pub use shard;
pub use wal;
pub use wdoc_collab as collab;
pub use wdoc_core as core;
pub use wdoc_dist as dist;
pub use wdoc_library as library;
pub use wdoc_workload as workload;
