//! Horizontal partitioning for the web document database.
//!
//! The paper's stations each held a *full* replica fed by broadcast;
//! this crate adds the missing half of "distributed": document tables
//! hash-partitioned across station groups, with
//!
//! * [`map`] — a deterministic consistent-hash [`ShardMap`] from
//!   table keys to shards;
//! * [`router`] — a [`Router`] that executes engine-level operations
//!   against the owning shard (single-shard fast path) or spans shards
//!   with a distributed transaction, preserving single-engine
//!   semantics exactly (proved by the sharded-vs-unsharded
//!   differential tapes);
//! * [`twopc`] — presumed-abort two-phase commit whose coordinator and
//!   participant states are durable `wal` frames, recovered through
//!   the ordinary analysis/redo/undo machinery;
//! * [`wdoc`] — routing specs for the paper's document tables and a
//!   sharded storage backend over them.

pub mod map;
pub mod router;
pub mod twopc;
pub mod wdoc;

pub use map::{hash_bytes, ShardMap};
pub use router::{CommitStage, DistTxn, Router, RoutingSpec, ShardNode, TableRoute};
pub use twopc::{Coordinator, Decision, Gtid, InDoubt};
pub use wdoc::{routing_spec_for, ShardedBackend};
