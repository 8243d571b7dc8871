//! The engine contract: one backend / transaction trait pair, two
//! concurrency-control implementations under it.
//!
//! [`DocBackend`] and [`DocTxn`] are what the document layer
//! (`wdoc_core::WebDocDb`) runs on, and the only transaction
//! abstraction in the workspace:
//!
//! * [`DocTxn`] — the ten data-plane verbs of one transaction
//!   (insert / get / update / update-cols / delete, select / ordered
//!   select / join / sum / count), plus the provided `select_with`,
//!   which visits the rows `select` would return as borrowed views.
//!   Commit and rollback are not on it: the backend's transaction
//!   runner owns the protocol.
//! * [`DocBackend`] — what a station needs from its storage: DDL, the
//!   retrying transaction runner [`DocBackend::with_txn_dyn`]
//!   (object-safe, hence `&mut dyn FnMut`; the facade recovers the
//!   generic `with_txn<T>` form on top), whole-state snapshots, size
//!   accounting and checkpoints. A backend with no answer to a
//!   question says so — [`Error::Unsupported`] from `snapshot` on a
//!   sharded router, `None` from `checkpoint` without a log — rather
//!   than the trait shrinking around it.
//!
//! Implementors: [`AnyEngine`] here (a local engine, either kind) and
//! `shard::ShardedBackend` (a router over N of them; its `DistTxn` is
//! the other [`DocTxn`]). `wdoc_core` re-exports both traits under the
//! same names.
//!
//! [`AnyEngine`]/[`AnyTxn`] are concrete enums over the two engines —
//! [`Database`]/[`Txn`] (strict 2PL, wait-die) and
//! [`MvccDb`]/[`MvccTxn`] (snapshot isolation, first-committer-wins) —
//! carrying the *inherent* method surface of `Database`/`Txn`, so the
//! `wal` crate, the router and the tests pick an engine with one
//! [`EngineKind`] argument instead of at every call site. The rules
//! both engines (and the router) must agree on are not restated per
//! engine: they live in [`crate::rules`]. The cross-engine and
//! cross-backend differentials in the dev-only `testkit` crate hold
//! the implementations to identical observable behaviour; its
//! `backend_contract` runs on both engines here and on the router in
//! `shard` (each crate's `tests/backend_contract.rs`).

use crate::database::{Database, Txn};
use crate::error::{Error, Result};
use crate::lock::TxnId;
use crate::mvcc::{MvccDb, MvccTxn};
use crate::pagestore::page::RowRef;
use crate::pagestore::{FlushGate, PoolConfig};
use crate::query::Predicate;
use crate::schema::TableSchema;
use crate::snapshot::Snapshot;
use crate::table::{Row, RowId};
use crate::value::Value;
use crate::wal::{Prepared, WalSink};
use obs::Registry;
use std::sync::Arc;

/// Which concurrency-control engine backs a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Strict two-phase locking with wait-die deadlock avoidance — the
    /// original engine. Serializable; readers block writers.
    #[default]
    TwoPl,
    /// Multi-version concurrency control — snapshot-isolation reads
    /// over begin/end-timestamped version chains, never taking locks;
    /// buffered writes with first-committer-wins conflict detection.
    Mvcc,
}

impl EngineKind {
    /// Stable lowercase name, for metrics/bench labels and CLI flags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::TwoPl => "2pl",
            EngineKind::Mvcc => "mvcc",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The data-plane verbs of one (local or distributed) transaction.
/// Object-safe; commit and rollback belong to the backend's
/// transaction runner.
pub trait DocTxn {
    /// Insert a row; returns its new id.
    fn insert(&self, table: &str, row: Row) -> Result<RowId>;
    /// Fetch a copy of the row at `id`.
    fn get(&self, table: &str, id: RowId) -> Result<Row>;
    /// Replace the entire row at `id`.
    fn update(&self, table: &str, id: RowId, row: Row) -> Result<()>;
    /// Update only the named columns of the row at `id`.
    fn update_cols(&self, table: &str, id: RowId, cols: &[(&str, Value)]) -> Result<()>;
    /// Delete the row at `id`, honouring reverse foreign keys.
    fn delete(&self, table: &str, id: RowId) -> Result<()>;
    /// All rows matching `pred` (copies), ordered by row id.
    fn select(&self, table: &str, pred: &Predicate) -> Result<Vec<(RowId, Row)>>;
    /// Visit the rows `select` would return, in its order and counting
    /// the rows examined as it does, each as a borrowed [`RowRef`]: the
    /// engines hand over the stored image, so a caller that decodes
    /// straight into its own types pays one decode per row. `f`'s first
    /// error stops the walk and is returned.
    ///
    /// `f` runs under the engine's page pin and table read guard: it
    /// must not call this transaction. Read what is needed, then write
    /// after `select_with` returns.
    ///
    /// The provided method runs `select` and passes each decoded row.
    fn select_with(
        &self,
        table: &str,
        pred: &Predicate,
        f: &mut dyn FnMut(RowId, RowRef<'_>) -> Result<()>,
    ) -> Result<()> {
        for (id, row) in self.select(table, pred)? {
            f(id, RowRef::decoded(&row))?;
        }
        Ok(())
    }
    /// Like `select`, sorted by `order_col` and truncated to `limit`.
    fn select_ordered(
        &self,
        table: &str,
        pred: &Predicate,
        order_col: &str,
        descending: bool,
        limit: Option<usize>,
    ) -> Result<Vec<(RowId, Row)>>;
    /// Equi-join of two pre-filtered tables.
    #[allow(clippy::too_many_arguments)]
    fn join(
        &self,
        left: &str,
        left_col: &str,
        left_pred: &Predicate,
        right: &str,
        right_col: &str,
        right_pred: &Predicate,
    ) -> Result<Vec<(Row, Row)>>;
    /// Sum an integer column over matching rows (NULLs contribute 0).
    fn sum_int(&self, table: &str, pred: &Predicate, col: &str) -> Result<i64>;
    /// Count rows matching `pred` without copying them.
    fn count(&self, table: &str, pred: &Predicate) -> Result<usize>;
}

/// A storage backend a station can run on.
///
/// Implementations own retry semantics: [`DocBackend::with_txn_dyn`]
/// must commit on `Ok`, roll back on `Err`, and transparently retry
/// the closure on the engines' transient aborts (wait-die
/// [`Error::TxnAborted`], first-committer-wins
/// [`Error::WriteConflict`]) — callers never see either variant.
pub trait DocBackend: Send + Sync {
    /// Which concurrency-control engine backs the shards.
    fn engine_kind(&self) -> EngineKind;
    /// How many shards the backend spans (1 for a local engine).
    fn shards(&self) -> usize {
        1
    }
    /// Create a table (auto-committed DDL). Sharded backends install
    /// the table on every shard and register its routing spec; on a
    /// recovered store they adopt pre-existing tables instead.
    fn create_table(&self, schema: TableSchema) -> Result<()>;
    /// Run `f` in a transaction, committing on success, retrying on
    /// transient aborts. Object-safe form; the facade's generic
    /// `with_txn<T>` wraps it.
    fn with_txn_dyn(&self, f: &mut dyn FnMut(&dyn DocTxn) -> Result<()>) -> Result<()>;
    /// Capture the committed state as a [`Snapshot`], when the backend
    /// has a single consistent state to capture
    /// ([`Error::Unsupported`] otherwise).
    fn snapshot(&self) -> Result<Snapshot>;
    /// Approximate payload bytes of the live rows of `table` (summed
    /// across shards; globally replicated tables count once).
    fn heap_bytes(&self, table: &str) -> Result<usize>;
    /// Embed a recovery checkpoint in the backend's log(s); returns the
    /// highest checkpoint LSN (`wal::Lsn`), or `None` if the backend
    /// is not durable (the facade then reports the misuse).
    fn checkpoint(&self) -> Result<Option<u64>> {
        Ok(None)
    }
    /// The single local engine, when that is what this backend is
    /// (escape hatch for tools and tests that inspect engine state).
    fn as_engine(&self) -> Option<&AnyEngine> {
        None
    }
}

// ---------------------------------------------------------------------
// AnyEngine / AnyTxn — the concrete engine-polymorphic front
// ---------------------------------------------------------------------

/// A database backed by either engine. Mirrors the inherent method
/// surface of [`Database`], so callers switch engines by constructor
/// argument instead of by call-site rewrite. Cloning shares the
/// underlying engine (both engines are `Arc`-backed handles).
#[derive(Clone)]
pub enum AnyEngine {
    /// The strict-2PL engine.
    TwoPl(Database),
    /// The MVCC engine.
    Mvcc(MvccDb),
}

/// A transaction on either engine, with [`Txn`]'s inherent surface.
pub enum AnyTxn {
    /// A 2PL transaction.
    TwoPl(Txn),
    /// An MVCC transaction.
    Mvcc(MvccTxn),
}

/// Forward a method through both arms of [`AnyEngine`]/[`AnyTxn`].
macro_rules! both {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            Self::TwoPl($inner) => $body,
            Self::Mvcc($inner) => $body,
        }
    };
}

impl From<Database> for AnyEngine {
    fn from(db: Database) -> Self {
        AnyEngine::TwoPl(db)
    }
}

impl From<MvccDb> for AnyEngine {
    fn from(db: MvccDb) -> Self {
        AnyEngine::Mvcc(db)
    }
}

impl AnyEngine {
    /// Create an empty database on the given engine (default pool for
    /// 2PL; MVCC keeps versions in plain memory).
    #[must_use]
    pub fn new(kind: EngineKind) -> Self {
        match kind {
            EngineKind::TwoPl => AnyEngine::TwoPl(Database::new()),
            EngineKind::Mvcc => AnyEngine::Mvcc(MvccDb::new()),
        }
    }

    /// Create an empty database; the 2PL engine's tables share a buffer
    /// pool built from `cfg` (MVCC has no pool and ignores it).
    pub fn with_pool(kind: EngineKind, cfg: &PoolConfig) -> Result<Self> {
        Ok(match kind {
            EngineKind::TwoPl => AnyEngine::TwoPl(Database::with_pool(cfg)?),
            EngineKind::Mvcc => AnyEngine::Mvcc(MvccDb::new()),
        })
    }

    /// Rebuild a database of the given engine from a snapshot.
    pub fn restore(kind: EngineKind, snapshot: &Snapshot) -> Result<Self> {
        Self::restore_with(kind, snapshot, &PoolConfig::default())
    }

    /// [`AnyEngine::restore`] with an explicit pool configuration for
    /// the 2PL engine (MVCC ignores it).
    pub fn restore_with(kind: EngineKind, snapshot: &Snapshot, cfg: &PoolConfig) -> Result<Self> {
        Ok(match kind {
            EngineKind::TwoPl => AnyEngine::TwoPl(Database::restore_with(snapshot, cfg)?),
            EngineKind::Mvcc => AnyEngine::Mvcc(MvccDb::restore(snapshot)?),
        })
    }

    /// Which engine backs this database.
    #[must_use]
    pub fn kind(&self) -> EngineKind {
        match self {
            AnyEngine::TwoPl(_) => EngineKind::TwoPl,
            AnyEngine::Mvcc(_) => EngineKind::Mvcc,
        }
    }

    /// The 2PL engine, when that is what backs this database.
    #[must_use]
    pub fn as_two_pl(&self) -> Option<&Database> {
        match self {
            AnyEngine::TwoPl(db) => Some(db),
            AnyEngine::Mvcc(_) => None,
        }
    }

    /// The MVCC engine, when that is what backs this database.
    #[must_use]
    pub fn as_mvcc(&self) -> Option<&MvccDb> {
        match self {
            AnyEngine::Mvcc(db) => Some(db),
            AnyEngine::TwoPl(_) => None,
        }
    }

    /// The engine's metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &Registry {
        both!(self, db => db.metrics())
    }

    /// Begin a new transaction.
    #[must_use]
    pub fn begin(&self) -> AnyTxn {
        match self {
            AnyEngine::TwoPl(db) => AnyTxn::TwoPl(db.begin()),
            AnyEngine::Mvcc(db) => AnyTxn::Mvcc(db.begin()),
        }
    }

    fn begin_with_id(&self, id: TxnId) -> AnyTxn {
        match self {
            AnyEngine::TwoPl(db) => AnyTxn::TwoPl(db.begin_with_id(id)),
            AnyEngine::Mvcc(db) => AnyTxn::Mvcc(db.begin_with_id(id)),
        }
    }

    /// Run `f` in a transaction, committing on success. Retries —
    /// keeping the same transaction id, so the transaction ages and
    /// eventually wins — on the engines' transient aborts: wait-die
    /// ([`Error::TxnAborted`]) on 2PL, first-committer-wins
    /// ([`Error::WriteConflict`]) on MVCC (where the retry re-runs `f`
    /// against a fresh snapshot).
    pub fn with_txn<T>(&self, f: impl Fn(&AnyTxn) -> Result<T>) -> Result<T> {
        let id = both!(self, db => db.alloc_txn_id());
        loop {
            let txn = self.begin_with_id(id);
            match f(&txn).and_then(|v| txn.commit().map(|()| v)) {
                Ok(v) => return Ok(v),
                Err(Error::TxnAborted { .. } | Error::WriteConflict { .. }) => {
                    both!(self, db => db.note_retry());
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Create a table (auto-committed DDL).
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        both!(self, db => db.create_table(schema))
    }

    /// Table names in the catalog.
    #[must_use]
    pub fn table_names(&self) -> Vec<String> {
        both!(self, db => db.table_names())
    }

    /// The schema of a table.
    pub fn schema_of(&self, table: &str) -> Result<TableSchema> {
        both!(self, db => db.schema_of(table))
    }

    /// Number of live rows in `table`.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        both!(self, db => db.row_count(table))
    }

    /// Approximate payload bytes of the live rows of `table`.
    pub fn heap_bytes(&self, table: &str) -> Result<usize> {
        both!(self, db => db.heap_bytes(table))
    }

    /// The next transaction id this engine will hand out.
    #[must_use]
    pub fn next_txn_id(&self) -> TxnId {
        both!(self, db => db.next_txn_id())
    }

    /// Ensure future transactions are numbered `next` or higher.
    pub fn resume_txn_ids(&self, next: TxnId) {
        both!(self, db => db.resume_txn_ids(next));
    }

    /// Install (or remove) a write-ahead-log sink.
    pub fn set_wal_sink(&self, sink: Option<Arc<dyn WalSink>>) {
        both!(self, db => db.set_wal_sink(sink));
    }

    /// The currently installed WAL sink, if any.
    #[must_use]
    pub fn wal_sink(&self) -> Option<Arc<dyn WalSink>> {
        both!(self, db => db.wal_sink())
    }

    /// Install (or remove) the WAL flush gate (no-op on MVCC, which has
    /// no page store to gate).
    pub fn set_flush_gate(&self, gate: Option<Arc<dyn FlushGate>>) {
        match self {
            AnyEngine::TwoPl(db) => db.set_flush_gate(gate),
            AnyEngine::Mvcc(_) => {}
        }
    }

    /// The dirty-page table for fuzzy checkpoints (empty on MVCC).
    #[must_use]
    pub fn dirty_page_table(&self) -> Vec<(u64, u64)> {
        match self {
            AnyEngine::TwoPl(db) => db.dirty_page_table(),
            AnyEngine::Mvcc(_) => Vec::new(),
        }
    }

    /// Capture the committed state as a [`Snapshot`].
    pub fn snapshot(&self) -> Result<Snapshot> {
        both!(self, db => db.snapshot())
    }

    /// Re-apply a logged insert (recovery only).
    pub fn redo_insert(&self, table: &str, id: RowId, row: Row) -> Result<()> {
        both!(self, db => db.redo_insert(table, id, row))
    }

    /// Re-apply a logged update (recovery only).
    pub fn redo_update(&self, table: &str, id: RowId, row: Row) -> Result<()> {
        both!(self, db => db.redo_update(table, id, row))
    }

    /// Re-apply a logged delete (recovery only).
    pub fn redo_delete(&self, table: &str, id: RowId) -> Result<()> {
        both!(self, db => db.redo_delete(table, id))
    }

    /// Reclaim dead versions (MVCC; 0 on 2PL).
    pub fn gc(&self) -> usize {
        match self {
            AnyEngine::TwoPl(_) => 0,
            AnyEngine::Mvcc(db) => db.gc(),
        }
    }

    /// Lock-manager diagnostics: currently locked resources (0 on
    /// MVCC, which takes no locks).
    #[must_use]
    pub fn locked_resources(&self) -> usize {
        match self {
            AnyEngine::TwoPl(db) => db.locked_resources(),
            AnyEngine::Mvcc(_) => 0,
        }
    }
}

impl DocBackend for AnyEngine {
    fn engine_kind(&self) -> EngineKind {
        self.kind()
    }
    fn create_table(&self, schema: TableSchema) -> Result<()> {
        AnyEngine::create_table(self, schema)
    }
    fn with_txn_dyn(&self, f: &mut dyn FnMut(&dyn DocTxn) -> Result<()>) -> Result<()> {
        // Delegate to the engine's own retry loop (same-id retries, so
        // the transaction ages under wait-die and eventually wins); the
        // RefCell re-lends the FnMut through with_txn's Fn bound.
        let f = std::cell::RefCell::new(f);
        self.with_txn(|t| (f.borrow_mut())(t as &dyn DocTxn))
    }
    fn snapshot(&self) -> Result<Snapshot> {
        AnyEngine::snapshot(self)
    }
    fn heap_bytes(&self, table: &str) -> Result<usize> {
        AnyEngine::heap_bytes(self, table)
    }
    fn as_engine(&self) -> Option<&AnyEngine> {
        Some(self)
    }
}

impl AnyTxn {
    /// This transaction's id.
    #[must_use]
    pub fn id(&self) -> TxnId {
        both!(self, t => t.id())
    }

    /// Insert a row; returns its new id.
    pub fn insert(&self, table: &str, row: Row) -> Result<RowId> {
        both!(self, t => t.insert(table, row))
    }

    /// Fetch a copy of the row at `id`.
    pub fn get(&self, table: &str, id: RowId) -> Result<Row> {
        both!(self, t => t.get(table, id))
    }

    /// Replace the entire row at `id`.
    pub fn update(&self, table: &str, id: RowId, row: Row) -> Result<()> {
        both!(self, t => t.update(table, id, row))
    }

    /// Update only the named columns of the row at `id`.
    pub fn update_cols(&self, table: &str, id: RowId, cols: &[(&str, Value)]) -> Result<()> {
        both!(self, t => t.update_cols(table, id, cols))
    }

    /// Delete the row at `id`, honouring reverse foreign keys.
    pub fn delete(&self, table: &str, id: RowId) -> Result<()> {
        both!(self, t => t.delete(table, id))
    }

    /// All rows matching `pred` (copies), ordered by row id.
    pub fn select(&self, table: &str, pred: &Predicate) -> Result<Vec<(RowId, Row)>> {
        both!(self, t => t.select(table, pred))
    }

    /// [`DocTxn::select_with`] on the engine's own scan.
    pub fn select_with(
        &self,
        table: &str,
        pred: &Predicate,
        f: &mut dyn FnMut(RowId, RowRef<'_>) -> Result<()>,
    ) -> Result<()> {
        both!(self, t => t.select_with(table, pred, f))
    }

    /// Like [`AnyTxn::select`], sorted by `order_col` and truncated.
    pub fn select_ordered(
        &self,
        table: &str,
        pred: &Predicate,
        order_col: &str,
        descending: bool,
        limit: Option<usize>,
    ) -> Result<Vec<(RowId, Row)>> {
        both!(self, t => t.select_ordered(table, pred, order_col, descending, limit))
    }

    /// Equi-join of two pre-filtered tables.
    pub fn join(
        &self,
        left: &str,
        left_col: &str,
        left_pred: &Predicate,
        right: &str,
        right_col: &str,
        right_pred: &Predicate,
    ) -> Result<Vec<(Row, Row)>> {
        both!(self, t => t.join(left, left_col, left_pred, right, right_col, right_pred))
    }

    /// Sum an integer column over matching rows (NULLs contribute 0).
    pub fn sum_int(&self, table: &str, pred: &Predicate, col: &str) -> Result<i64> {
        both!(self, t => t.sum_int(table, pred, col))
    }

    /// Count rows matching `pred` without copying them.
    pub fn count(&self, table: &str, pred: &Predicate) -> Result<usize> {
        both!(self, t => t.count(table, pred))
    }

    /// Commit the transaction.
    pub fn commit(self) -> Result<()> {
        match self {
            AnyTxn::TwoPl(t) => t.commit(),
            AnyTxn::Mvcc(t) => t.commit(),
        }
    }

    /// First half of commit (see [`crate::wal`]): validate and bring
    /// the transaction's records into the log, publishing nothing.
    pub fn prepare(&self) -> Result<Prepared<'_>> {
        both!(self, t => t.prepare())
    }

    /// Second half of commit, once the commit record is durable.
    pub fn publish(&self, prepared: Prepared<'_>) {
        both!(self, t => t.publish(prepared));
    }

    /// Roll back a prepared transaction.
    pub fn abort(&self, prepared: Prepared<'_>) {
        both!(self, t => t.abort(prepared));
    }

    /// Roll back explicitly (dropping the handle does the same).
    pub fn rollback(self) {
        match self {
            AnyTxn::TwoPl(t) => t.rollback(),
            AnyTxn::Mvcc(t) => t.rollback(),
        }
    }
}

impl DocTxn for AnyTxn {
    fn insert(&self, table: &str, row: Row) -> Result<RowId> {
        AnyTxn::insert(self, table, row)
    }
    fn get(&self, table: &str, id: RowId) -> Result<Row> {
        AnyTxn::get(self, table, id)
    }
    fn update(&self, table: &str, id: RowId, row: Row) -> Result<()> {
        AnyTxn::update(self, table, id, row)
    }
    fn update_cols(&self, table: &str, id: RowId, cols: &[(&str, Value)]) -> Result<()> {
        AnyTxn::update_cols(self, table, id, cols)
    }
    fn delete(&self, table: &str, id: RowId) -> Result<()> {
        AnyTxn::delete(self, table, id)
    }
    fn select(&self, table: &str, pred: &Predicate) -> Result<Vec<(RowId, Row)>> {
        AnyTxn::select(self, table, pred)
    }
    fn select_with(
        &self,
        table: &str,
        pred: &Predicate,
        f: &mut dyn FnMut(RowId, RowRef<'_>) -> Result<()>,
    ) -> Result<()> {
        AnyTxn::select_with(self, table, pred, f)
    }
    fn select_ordered(
        &self,
        table: &str,
        pred: &Predicate,
        order_col: &str,
        descending: bool,
        limit: Option<usize>,
    ) -> Result<Vec<(RowId, Row)>> {
        AnyTxn::select_ordered(self, table, pred, order_col, descending, limit)
    }
    fn join(
        &self,
        left: &str,
        left_col: &str,
        left_pred: &Predicate,
        right: &str,
        right_col: &str,
        right_pred: &Predicate,
    ) -> Result<Vec<(Row, Row)>> {
        AnyTxn::join(
            self, left, left_col, left_pred, right, right_col, right_pred,
        )
    }
    fn sum_int(&self, table: &str, pred: &Predicate, col: &str) -> Result<i64> {
        AnyTxn::sum_int(self, table, pred, col)
    }
    fn count(&self, table: &str, pred: &Predicate) -> Result<usize> {
        AnyTxn::count(self, table, pred)
    }
}
