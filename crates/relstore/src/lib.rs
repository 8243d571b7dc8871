//! # relstore — a from-scratch relational storage engine
//!
//! This crate is the "off-the-rack relational database system" substrate
//! of the MMU Web document database reproduction (Shih, Ma & Huang, ICPP
//! 1999). The original system sat on MS SQL Server through ODBC/JDBC;
//! everything the paper needs from that substrate — typed tables,
//! primary/unique/secondary indexes, foreign keys with
//! RESTRICT/CASCADE/SET NULL actions, and transactions — is implemented
//! here from first principles so the reproduction is self-contained.
//!
//! ## Model
//!
//! * [`TableSchema`] declares columns ([`ColumnType`]), a primary key,
//!   secondary [`IndexDef`]s and [`ForeignKey`]s.
//! * [`Database`] owns the catalog. All reads and writes go through a
//!   [`Txn`] obtained from [`Database::begin`] (or the retrying
//!   [`Database::with_txn`] helper).
//! * Concurrency control is strict two-phase locking at two
//!   granularities (table intent locks + row locks; see [`lock`]), with
//!   *wait-die* deadlock avoidance: younger transactions abort with
//!   [`Error::TxnAborted`] and should retry.
//! * Durability is pluggable: the engine itself is in-memory (the 1999
//!   system delegated persistence to the commercial RDBMS), but a
//!   [`wal::WalSink`] installed via [`Database::set_wal_sink`] observes
//!   every mutation with before/after images at the undo-log sites —
//!   the workspace's `wal` crate builds an ARIES-lite durable log,
//!   checkpoints and crash recovery on top of this hook plus the
//!   [`snapshot`] machinery and the `redo_*` replay primitives.
//!
//! ## Example
//!
//! ```
//! use relstore::{ColumnType, Database, Predicate, TableSchema, Value};
//!
//! let db = Database::new();
//! db.create_table(
//!     TableSchema::builder("script")
//!         .column("name", ColumnType::Text)
//!         .column("author", ColumnType::Text)
//!         .primary_key(&["name"])
//!         .index("by_author", &["author"], false)
//!         .build()
//!         .unwrap(),
//! )
//! .unwrap();
//!
//! let txn = db.begin();
//! txn.insert("script", vec!["intro-mm".into(), "shih".into()]).unwrap();
//! let rows = txn.select("script", &Predicate::eq("author", "shih")).unwrap();
//! assert_eq!(rows.len(), 1);
//! txn.commit().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod database;
pub mod engine;
pub mod error;
pub mod lock;
pub mod mvcc;
pub mod pagestore;
pub mod query;
pub mod rules;
pub mod schema;
mod slots;
pub mod snapshot;
pub mod table;
pub mod value;
pub mod wal;

pub use database::{Database, Txn};
pub use engine::{AnyEngine, AnyTxn, DocBackend, DocTxn, EngineKind};
pub use error::{Error, Result};
pub use lock::{Held, LockManager, LockMode, Resource};
pub use mvcc::{MvccDb, MvccTxn};
pub use pagestore::page::RowRef;
pub use pagestore::{
    BufferPool, FlushGate, PageId, PoolBackend, PoolConfig, PoolStats, WritebackObserver,
};
pub use query::{ColRange, Compiled, Predicate};
pub use schema::{ColumnDef, FkAction, ForeignKey, IndexDef, TableSchema};
pub use snapshot::{Snapshot, TableSnapshot};
pub use table::{Row, RowId, Table};
pub use value::{ColumnType, Key, Value};
pub use wal::{Prepared, RowOp, WalSink};
