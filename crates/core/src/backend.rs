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

pub use relstore::{DocBackend, DocTxn};
