//! Write-ahead-log hook points.
//!
//! `relstore` itself stays storage-agnostic: it does not know about
//! files, fsync, or log formats. Instead, a [`WalSink`] can be
//! installed on a [`Database`](crate::Database) and is invoked at the
//! exact sites where the engine already records undo information — so
//! the sink sees every logical mutation with both its before and after
//! image, in execution order, tagged with the owning transaction.
//!
//! The `wal` workspace crate implements this trait with an ARIES-lite
//! durable log (group commit, fuzzy checkpoints, crash recovery); tests
//! install in-memory sinks to observe the mutation stream.
//!
//! ## Contract
//!
//! * [`WalSink::on_op`] is called *after* the in-memory mutation
//!   succeeded, while the transaction still holds its exclusive locks.
//!   Returning an error fails the mutating call; the caller is expected
//!   to abort the transaction (dropping it rolls back in memory).
//! * [`WalSink::on_commit`] is called *before* any lock is released.
//!   It must not return until every record of the transaction is
//!   durable — this is the write-ahead rule. An error turns the commit
//!   into a rollback.
//! * [`WalSink::on_abort`] is advisory: in-memory rollback already
//!   restored the tables, so the sink only needs it to discard or mark
//!   the transaction's records. It must not fail.
//! * [`WalSink::on_create_table`] is called for successful DDL, which
//!   is auto-committed and should be made durable immediately.
//!
//! ## Commit in two halves
//!
//! Both engines commit in two halves with the log write between them:
//! `prepare` validates and brings the transaction's records into the
//! log (MVCC logs its buffered ops here, under its commit fence; 2PL
//! has logged every op as it ran), the commit record is written, and
//! `publish` makes the effects visible (MVCC installs its versions and
//! drops the fence; 2PL releases its locks). A single engine's
//! `commit` is exactly prepare → [`Prepared::log_commit`] → publish; a
//! caller that commits several transactions as one unit prepares them
//! all, logs one commit record naming them, then publishes them all.

use crate::lock::TxnId;
use crate::schema::TableSchema;
use crate::table::{Row, RowId};
use parking_lot::MutexGuard;
use std::sync::Arc;

/// One logical row mutation, with the images recovery needs.
///
/// Borrowed views into the engine's state — sinks serialize what they
/// need and return; nothing escapes the call.
#[derive(Debug, Clone, Copy)]
pub enum RowOp<'a> {
    /// A row came into existence (redo needs the after image).
    Insert {
        /// Table the row was inserted into.
        table: &'a str,
        /// The id assigned to the new row.
        id: RowId,
        /// The full row as stored.
        after: &'a Row,
    },
    /// A row was replaced (undo needs before, redo needs after).
    Update {
        /// Table the row lives in.
        table: &'a str,
        /// The id of the updated row.
        id: RowId,
        /// The row as it was before the update.
        before: &'a Row,
        /// The row as stored after the update.
        after: &'a Row,
    },
    /// A row was removed (undo needs the before image).
    Delete {
        /// Table the row was deleted from.
        table: &'a str,
        /// The id of the deleted row.
        id: RowId,
        /// The row as it was before the delete.
        before: &'a Row,
    },
}

impl RowOp<'_> {
    /// The table this operation touches.
    #[must_use]
    pub fn table(&self) -> &str {
        match self {
            RowOp::Insert { table, .. }
            | RowOp::Update { table, .. }
            | RowOp::Delete { table, .. } => table,
        }
    }
}

/// Receiver for the engine's logical mutation stream (see module docs
/// for the exact calling contract).
pub trait WalSink: Send + Sync {
    /// A mutation was applied in memory by transaction `txn`. Returns
    /// the *exclusive end offset* (LSN) of the appended log record —
    /// the engine stamps it onto the dirtied pages so the buffer pool
    /// can flush the log exactly that far before writing a page back
    /// (the ARIES flush rule). Sinks without positions (test doubles)
    /// may return any monotonically non-decreasing value; `0` disables
    /// gating for the op.
    fn on_op(&self, txn: TxnId, op: RowOp<'_>) -> crate::error::Result<u64>;

    /// Transaction `txn` wants to commit; make its records durable
    /// before returning (group commit may batch several callers into
    /// one flush).
    fn on_commit(&self, txn: TxnId) -> crate::error::Result<()>;

    /// Transaction `txn` rolled back; its in-memory effects are already
    /// undone.
    fn on_abort(&self, txn: TxnId);

    /// A table was created (auto-committed DDL).
    fn on_create_table(&self, schema: &TableSchema) -> crate::error::Result<()>;
}

/// A transaction between the two halves of its commit (see the module
/// docs): validated, its records in the log, nothing published. Hand it
/// back to the same transaction's `publish` or `abort`.
#[derive(Default)]
pub struct Prepared<'a> {
    /// The sink that holds this transaction's records, when it logged
    /// any: its commit record is still owed.
    pub(crate) sink: Option<Arc<dyn WalSink>>,
    /// MVCC's commit fence, held from validation until publish or
    /// abort, so no other commit of the engine runs in between.
    pub(crate) fence: Option<MutexGuard<'a, ()>>,
}

impl Prepared<'_> {
    /// Whether the transaction has log records, so a commit record
    /// must follow before it publishes.
    #[must_use]
    pub fn logged(&self) -> bool {
        self.sink.is_some()
    }

    /// Write transaction `txn`'s own commit record and wait until it is
    /// durable; nothing to do when it logged nothing.
    pub fn log_commit(&self, txn: TxnId) -> crate::error::Result<()> {
        self.sink
            .as_ref()
            .map_or(Ok(()), |sink| sink.on_commit(txn))
    }
}
