//! The storage contract [`WebDocDb`](crate::dbms::WebDocDb) runs on.
//!
//! [`DocBackend`]/[`DocTxn`] are `relstore`'s engine traits — schema
//! installation, the retrying transaction runner, and the ten
//! data-plane verbs — re-exported here under the names the document
//! layer (and everything built on it) has always used. There is one
//! trait pair in the workspace: a station runs on
//!
//! * a single [`relstore::AnyEngine`] (either engine kind), or
//! * a `shard::ShardedBackend` — a router spanning N engines —
//!
//! through the same `Box<dyn DocBackend>`, and a decorator (the
//! benchmark's tracing backend) wraps either by implementing the same
//! two traits. The contract every implementor must honour is
//! `relstore::testkit::backend_contract`.

//!
//! A durable station on a backend of several engines hands
//! [`WebDocDb::on_durable_backend`](crate::dbms::WebDocDb::on_durable_backend)
//! a [`DurableBackend`]: the engines and the one station log they all
//! write, which the facade checkpoints as it does a single engine's.

use relstore::AnyEngine;
pub use relstore::{DocBackend, DocTxn};
use std::sync::Arc;

/// A [`DocBackend`] whose engines share one station write-ahead log.
pub trait DurableBackend: DocBackend {
    /// The station log and the engines that write it, in shard order;
    /// `None` when the backend runs in memory.
    fn station_log(&self) -> Option<(&Arc<wal::Wal>, &[AnyEngine])>;
}
