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
//!   differential tapes). A durable router's shards share the
//!   station's one write-ahead log: a cross-shard commit is one joint
//!   commit frame, so recovery sees it whole or not at all, with no
//!   commit protocol;
//! * [`wdoc`] — routing specs for the paper's document tables and a
//!   sharded storage backend over them.

pub mod map;
pub mod router;
pub mod wdoc;

pub use map::{hash_bytes, ShardMap};
pub use router::{DistTxn, Router, RoutingSpec, TableRoute};
pub use wdoc::{routing_spec_for, ShardedBackend};
