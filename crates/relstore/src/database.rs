//! The database: catalog, transactions, and cross-table constraints.
//!
//! [`Database`] owns a catalog of tables plus one [`LockManager`]. All
//! data access happens through a [`Txn`], which provides strict
//! two-phase locking (locks accumulate until commit/abort) and a
//! write-ahead undo log for rollback. The foreign-key *policy* (which
//! checks run, in which order, and what RESTRICT / CASCADE / SET NULL
//! do) is [`crate::rules`], shared with the MVCC engine; this module
//! supplies the reads it asks for, each under the locks that keep the
//! answer true until commit.
//!
//! Isolation level: serializable at mixed granularity. Scans take a
//! table-shared lock (blocking writers and preventing phantoms); point
//! operations take intent locks on the table and row locks beneath.

use crate::error::{Error, Result};
use crate::lock::{Held, LockManager, LockMode, Resource, TxnId};
use crate::pagestore::page::{self, RowScratch, TAG_INT};
use crate::pagestore::{BufferPool, FlushGate, PoolConfig};
use crate::query::Predicate;
use crate::rules::{self, AccessPath, RuleTxn};
use crate::schema::{ForeignKey, TableSchema};
use crate::slots::{OwnLine, Slots};
use crate::table::{Row, RowId, Table};
use crate::value::{Key, Value};
use crate::wal::{RowOp, WalSink};
use obs::{Counter, HistogramHandle, Registry};
use parking_lot::{Mutex, RwLock};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One table of the catalog. Everything but the rows is fixed when
/// the table is created, so operations read it without a lock.
struct TableEntry {
    id: u32,
    schema: TableSchema,
    /// The unique indexes — position among the table's indexes
    /// (primary first) and column positions: the keys a writer locks.
    uniques: Vec<(u32, Vec<usize>)>,
    /// The rows, behind the table's lock — whose word every operation
    /// writes, hence apart from the fields above.
    data: OwnLine<RwLock<Table>>,
}

/// The catalog: tables in creation order, appended under `ddl` and
/// looked up — by a scan over the handful of names — without a lock.
/// Tables are never dropped.
struct Catalog {
    tables: Slots<OnceLock<TableEntry>>,
    len: AtomicUsize,
    /// Serializes `create_table`.
    ddl: Mutex<()>,
}

impl Catalog {
    fn new() -> Self {
        Catalog {
            tables: Slots::new(),
            len: AtomicUsize::new(0),
            ddl: Mutex::new(()),
        }
    }

    /// Tables in creation order.
    fn iter(&self) -> impl Iterator<Item = &TableEntry> {
        (0..self.len.load(Ordering::Acquire)).filter_map(|i| self.tables.get(i)?.get())
    }

    fn get(&self, table: &str) -> Result<&TableEntry> {
        self.iter()
            .find(|e| e.schema.name == table)
            .ok_or_else(|| Error::NoSuchTable(table.to_owned()))
    }

    /// Append `entry`; the caller holds `ddl`.
    fn push(&self, entry: TableEntry) {
        let at = self.len.load(Ordering::Relaxed);
        assert!(
            self.tables.ensure(at).set(entry).is_ok(),
            "catalog slots are filled in order, under the DDL mutex"
        );
        self.len.store(at + 1, Ordering::Release);
    }
}

/// Handles on the per-transaction and per-select metrics both engines
/// record under the same names (`relstore.txn.*`,
/// `relstore.select.rows_examined`).
pub(crate) struct TxnMetrics {
    pub(crate) retries: Counter,
    pub(crate) commits: Counter,
    pub(crate) commit_us: HistogramHandle,
    pub(crate) aborts: Counter,
    pub(crate) abort_us: HistogramHandle,
    pub(crate) rows_examined: Counter,
}

impl TxnMetrics {
    pub(crate) fn new(metrics: &Registry) -> Self {
        let time = |name| metrics.histogram_handle(name, obs::buckets::TIME_US);
        TxnMetrics {
            retries: metrics.counter_handle("relstore.txn.retries"),
            commits: metrics.counter_handle("relstore.txn.commits"),
            commit_us: time("relstore.txn.commit_us"),
            aborts: metrics.counter_handle("relstore.txn.aborts"),
            abort_us: time("relstore.txn.abort_us"),
            rows_examined: metrics.counter_handle("relstore.select.rows_examined"),
        }
    }
}

/// Aligned so that the reference counts every `begin` and transaction
/// drop write (they sit just before this in the `Arc` allocation) do
/// not share a line with fields every operation reads.
#[repr(align(64))]
struct DbInner {
    catalog: Catalog,
    locks: LockManager,
    next_txn: OwnLine<AtomicU64>,
    /// Optional write-ahead-log sink (see [`crate::wal`]).
    wal: RwLock<Option<Arc<dyn WalSink>>>,
    /// Whether `wal` holds a sink: unlogged databases skip the lock.
    logged: AtomicBool,
    /// Buffer pool shared by every table's row heap (see
    /// [`crate::pagestore`]).
    pool: Arc<BufferPool>,
    /// `relstore.*` metrics, shared with the lock manager. Latency
    /// histograms here are wall-clock (outside the obs determinism
    /// contract); counters are exact.
    metrics: Registry,
    txn_metrics: TxnMetrics,
    conjuncts_pruned: Counter,
}

impl DbInner {
    fn sink(&self) -> Option<Arc<dyn WalSink>> {
        if !self.logged.load(Ordering::Acquire) {
            return None;
        }
        self.wal.read().clone()
    }
}

/// A shared, thread-safe relational database.
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Create an empty database with the default unbounded in-memory
    /// pool (identical behavior to the pre-paged engine).
    #[must_use]
    pub fn new() -> Self {
        Self::with_pool(&PoolConfig::default()).expect("in-memory pool cannot fail")
    }

    /// Create an empty database whose tables share one buffer pool
    /// built from `cfg` — bound `max_pages` and pick the log backend
    /// to cap resident memory and spill cold pages to disk.
    pub fn with_pool(cfg: &PoolConfig) -> Result<Self> {
        let metrics = Registry::new();
        let pool = BufferPool::new(cfg, metrics.clone())?;
        Ok(Database {
            inner: Arc::new(DbInner {
                catalog: Catalog::new(),
                locks: LockManager::with_metrics(metrics.clone()),
                next_txn: OwnLine(AtomicU64::new(1)),
                wal: RwLock::new(None),
                logged: AtomicBool::new(false),
                pool,
                txn_metrics: TxnMetrics::new(&metrics),
                conjuncts_pruned: metrics.counter_handle("relstore.select.conjuncts_pruned"),
                metrics,
            }),
        })
    }

    /// The `relstore.*` metrics registry of this database (shared with
    /// its lock manager).
    #[must_use]
    pub fn metrics(&self) -> &Registry {
        &self.inner.metrics
    }

    /// The buffer pool shared by this database's tables.
    #[must_use]
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.inner.pool
    }

    /// Install (or remove) the WAL flush gate on the buffer pool, so
    /// dirty pages are never written back ahead of the log (the ARIES
    /// rule `page.rec_lsn <= wal.flushed_lsn`). `wal::open_durable`
    /// does this automatically.
    pub fn set_flush_gate(&self, gate: Option<Arc<dyn FlushGate>>) {
        self.inner.pool.set_gate(gate);
    }

    /// The dirty-page table: `(page id, rec_lsn)` of every dirty
    /// resident page, for fuzzy checkpoints.
    #[must_use]
    pub fn dirty_page_table(&self) -> Vec<(u64, u64)> {
        self.inner.pool.dirty_page_table()
    }

    /// Install (or remove) a write-ahead-log sink. From this point on
    /// every mutation, commit and abort is reported to the sink under
    /// the contract documented in [`crate::wal`]. Installation is not
    /// retroactive: rows already in the database are the sink's problem
    /// to capture (typically via a checkpoint).
    pub fn set_wal_sink(&self, sink: Option<Arc<dyn WalSink>>) {
        let mut wal = self.inner.wal.write();
        self.inner.logged.store(sink.is_some(), Ordering::Release);
        *wal = sink;
    }

    /// The currently installed WAL sink, if any.
    #[must_use]
    pub fn wal_sink(&self) -> Option<Arc<dyn WalSink>> {
        self.inner.sink()
    }

    /// Create a table. Foreign keys must reference existing tables on
    /// columns backed by a unique index there.
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        schema.validate()?;
        let catalog = &self.inner.catalog;
        let _ddl = catalog.ddl.lock();
        if catalog.get(&schema.name).is_ok() {
            return Err(Error::TableExists(schema.name));
        }
        rules::check_fk_targets(&schema, |t| catalog.get(t).ok().map(|e| e.schema.clone()))?;
        let id = catalog.len.load(Ordering::Relaxed) as u32 + 1;
        let table = Table::with_pool(schema.clone(), Arc::clone(&self.inner.pool))?;
        let uniques = table
            .indexes()
            .iter()
            .enumerate()
            .filter(|(_, ix)| ix.is_unique())
            .map(|(pos, ix)| (pos as u32, ix.columns().to_vec()))
            .collect();
        // DDL is auto-committed: make it durable *before* the table
        // becomes visible, so a recovered log never lacks a table that
        // rows later refer to.
        if let Some(sink) = self.inner.sink() {
            sink.on_create_table(&schema)?;
        }
        catalog.push(TableEntry {
            id,
            schema,
            uniques,
            data: OwnLine(RwLock::new(table)),
        });
        Ok(())
    }

    /// Table names in the catalog.
    #[must_use]
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .catalog
            .iter()
            .map(|e| e.schema.name.clone())
            .collect();
        names.sort_unstable();
        names
    }

    /// Number of rows in `table`.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.inner.catalog.get(table)?.data.read().len())
    }

    /// Approximate payload bytes stored in `table`.
    pub fn heap_bytes(&self, table: &str) -> Result<usize> {
        Ok(self.inner.catalog.get(table)?.data.read().heap_bytes())
    }

    /// The next transaction id this engine will hand out.
    #[must_use]
    pub fn next_txn_id(&self) -> TxnId {
        self.inner.next_txn.load(Ordering::Relaxed)
    }

    /// Ensure future transactions are numbered `next` or higher.
    ///
    /// Recovery calls this with one past the highest id found in the
    /// log: transaction ids name transactions *in the log*, so a fresh
    /// engine reattached to an old log must never reissue an id — a
    /// reused id's commit record would retroactively commit the dead
    /// transaction's surviving records on the next recovery.
    pub fn resume_txn_ids(&self, next: TxnId) {
        self.inner.next_txn.fetch_max(next, Ordering::Relaxed);
    }

    /// Begin a new transaction.
    #[must_use]
    pub fn begin(&self) -> Txn {
        let id = self.alloc_txn_id();
        self.begin_with_id(id)
    }

    /// Allocate a fresh transaction id without starting a transaction.
    /// Paired with [`Database::begin_with_id`] so engine-polymorphic
    /// retry loops can re-run a died transaction under its original id
    /// (the wait-die aging guarantee).
    pub(crate) fn alloc_txn_id(&self) -> TxnId {
        self.inner.next_txn.fetch_add(1, Ordering::Relaxed)
    }

    /// Begin a transaction under a caller-supplied id (one previously
    /// returned by [`Database::alloc_txn_id`]).
    pub(crate) fn begin_with_id(&self, id: TxnId) -> Txn {
        Txn::new(Arc::clone(&self.inner), id)
    }

    /// Run `f` in a transaction, committing on success. If the
    /// transaction dies to the wait-die rule it is retried *with the
    /// same transaction id*, so it ages relative to newcomers and is
    /// guaranteed to eventually win (no livelock).
    pub fn with_txn<T>(&self, f: impl Fn(&Txn) -> Result<T>) -> Result<T> {
        let id = self.inner.next_txn.fetch_add(1, Ordering::Relaxed);
        loop {
            let txn = Txn::new(Arc::clone(&self.inner), id);
            match f(&txn) {
                Ok(v) => {
                    txn.commit()?;
                    return Ok(v);
                }
                Err(Error::TxnAborted { .. }) => {
                    self.note_retry();
                    drop(txn); // rolls back
                    std::thread::yield_now();
                }
                Err(e) => {
                    return Err(e);
                }
            }
        }
    }

    /// Count one wait-die retry of a transaction closure.
    pub(crate) fn note_retry(&self) {
        self.inner.txn_metrics.retries.inc();
    }

    /// Lock-manager diagnostics: currently locked resource count.
    #[must_use]
    pub fn locked_resources(&self) -> usize {
        self.inner.locks.locked_resources()
    }

    /// The schema of a table (a clone; schemas are immutable once
    /// created).
    pub fn schema_of(&self, table: &str) -> Result<TableSchema> {
        Ok(self.inner.catalog.get(table)?.schema.clone())
    }

    /// Load rows with explicit ids, bypassing transaction machinery and
    /// foreign-key checks (snapshot restore only — the caller verifies
    /// integrity afterwards). Local constraints (types, uniqueness)
    /// still apply.
    pub(crate) fn bulk_load(&self, table: &str, rows: &[(RowId, Row)]) -> Result<()> {
        let mut t = self.inner.catalog.get(table)?.data.write();
        for (id, row) in rows {
            t.schema().check_row(row)?;
            for ix in t.indexes() {
                let key = ix.key_of(row);
                if ix.is_unique() && !key.has_null() && !ix.get(&key).is_empty() {
                    return Err(Error::UniqueViolation {
                        table: table.to_owned(),
                        index: ix.name().to_owned(),
                    });
                }
            }
            t.restore(*id, row.clone());
        }
        t.sync_next_row();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Recovery primitives (log replay only)
    // ------------------------------------------------------------------
    //
    // These bypass transactions, locks and foreign-key checks: replay
    // repeats history exactly as the engine executed it, so every
    // constraint held when the operation first ran. They are public so
    // the `wal` crate's recovery routine can drive them; applications
    // should never call them on a live database.

    /// Re-apply a logged insert: place `row` at exactly `id`,
    /// maintaining indexes and the id allocator.
    pub fn redo_insert(&self, table: &str, id: RowId, row: Row) -> Result<()> {
        let mut t = self.inner.catalog.get(table)?.data.write();
        t.restore(id, row);
        t.sync_next_row();
        Ok(())
    }

    /// Re-apply a logged update: replace the row at `id` with `row`.
    pub fn redo_update(&self, table: &str, id: RowId, row: Row) -> Result<()> {
        self.inner
            .catalog
            .get(table)?
            .data
            .write()
            .update(id, row)?;
        Ok(())
    }

    /// Re-apply a logged delete: remove the row at `id`.
    pub fn redo_delete(&self, table: &str, id: RowId) -> Result<()> {
        self.inner.catalog.get(table)?.data.write().delete(id)?;
        Ok(())
    }
}

#[derive(Debug)]
enum UndoOp {
    Insert { table: String, id: RowId },
    Update { table: String, id: RowId, old: Row },
    Delete { table: String, id: RowId, old: Row },
}

#[derive(Debug, Default)]
struct TxnState {
    undo: Vec<UndoOp>,
    /// The locks this transaction holds (see [`Held`]).
    held: Held,
    closed: bool,
    /// Whether any mutation of this transaction reached the WAL sink
    /// (commit/abort notifications are skipped for read-only
    /// transactions, so snapshots and scans stay log-silent).
    logged: bool,
}

/// A transaction handle. Dropping an uncommitted transaction rolls it
/// back.
pub struct Txn {
    db: Arc<DbInner>,
    id: TxnId,
    state: Mutex<TxnState>,
    /// Wall-clock birth, for commit/abort latency histograms.
    born: Instant,
}

impl Txn {
    fn new(db: Arc<DbInner>, id: TxnId) -> Self {
        Txn {
            db,
            id,
            state: Mutex::new(TxnState::default()),
            born: Instant::now(),
        }
    }

    /// This transaction's id (its wait-die age).
    #[must_use]
    pub fn id(&self) -> TxnId {
        self.id
    }

    fn check_open(&self) -> Result<()> {
        if self.state.lock().closed {
            Err(Error::TxnClosed)
        } else {
            Ok(())
        }
    }

    fn entry(&self, table: &str) -> Result<&TableEntry> {
        self.db.catalog.get(table)
    }

    fn lock(&self, res: Resource, mode: LockMode) -> Result<()> {
        self.db
            .locks
            .acquire(self.id, &mut self.state.lock().held, res, mode)
    }

    /// Exclusively lock the key `row` has under each unique index of
    /// `e`, except where `same_in` (the other image of an update) has
    /// that very key. The table checks uniqueness against its index as
    /// it stands, uncommitted entries and removals of other
    /// transactions included; holding the key until commit makes each
    /// such entry or removal final before anyone else's check can rest
    /// on it. NULL-containing keys are unique-exempt and lock nothing.
    fn lock_keys(&self, e: &TableEntry, row: &[Value], same_in: Option<&[Value]>) -> Result<()> {
        for (pos, cols) in &e.uniques {
            if cols.iter().any(|&c| row[c].is_null())
                || same_in.is_some_and(|other| cols.iter().all(|&c| row[c] == other[c]))
            {
                continue;
            }
            let mut h = DefaultHasher::new();
            for &c in cols {
                row[c].hash(&mut h);
            }
            self.lock(Resource::Key(e.id, *pos, h.finish()), LockMode::Exclusive)?;
        }
        Ok(())
    }

    /// Report a mutation to the WAL sink and remember that this
    /// transaction has log records. Returns the end LSN of the appended
    /// record, which the caller stamps onto the dirtied page(s) so the
    /// buffer pool honours the flush rule at writeback.
    fn log_op(&self, sink: &Arc<dyn WalSink>, op: RowOp<'_>) -> Result<u64> {
        let lsn = sink.on_op(self.id, op)?;
        self.state.lock().logged = true;
        Ok(lsn)
    }

    /// Insert a row; returns its new id.
    pub fn insert(&self, table: &str, row: Row) -> Result<RowId> {
        self.check_open()?;
        let e = self.entry(table)?;
        self.lock(Resource::Table(e.id), LockMode::IntentExclusive)?;
        // Validate types early (cheap, no locks needed beyond IX).
        e.schema.check_row(&row)?;
        // Forward FK checks: referenced rows must exist; S-lock them so
        // they cannot vanish before we commit.
        self.check_forward_fks(table, &e.schema.foreign_keys, &row)?;
        self.lock_keys(e, &row, None)?;
        let (id, page) = {
            let mut t = e.data.write();
            let id = t.insert_row(&row)?;
            (id, t.page_of(id))
        };
        self.lock(Resource::Row(e.id, id), LockMode::Exclusive)?;
        self.state.lock().undo.push(UndoOp::Insert {
            table: table.to_owned(),
            id,
        });
        if let Some(sink) = self.db.sink() {
            let after = &row;
            let lsn = self.log_op(&sink, RowOp::Insert { table, id, after })?;
            if let Some(page) = page {
                self.db.pool.stamp_lsn(page, lsn);
            }
        }
        Ok(id)
    }

    /// Fetch a copy of the row at `id` (shared-locks it).
    pub fn get(&self, table: &str, id: RowId) -> Result<Row> {
        self.check_open()?;
        let e = self.entry(table)?;
        self.lock(Resource::Table(e.id), LockMode::IntentShared)?;
        self.lock(Resource::Row(e.id, id), LockMode::Shared)?;
        let row = e.data.read().get(id)?;
        Ok(row)
    }

    /// Replace the entire row at `id`.
    pub fn update(&self, table: &str, id: RowId, new_row: Row) -> Result<()> {
        self.check_open()?;
        let e = self.entry(table)?;
        self.lock(Resource::Table(e.id), LockMode::IntentExclusive)?;
        self.lock(Resource::Row(e.id, id), LockMode::Exclusive)?;
        e.schema.check_row(&new_row)?;
        let old = e.data.read().get(id)?;
        self.rewrite(table, e, id, old, new_row)
    }

    /// Update only the named columns of the row at `id`.
    pub fn update_cols(&self, table: &str, id: RowId, cols: &[(&str, Value)]) -> Result<()> {
        self.check_open()?;
        let e = self.entry(table)?;
        // Take the write locks *before* reading the base row, so the
        // unchanged columns cannot be clobbered with stale values read
        // concurrently with another writer (lost update).
        self.lock(Resource::Table(e.id), LockMode::IntentExclusive)?;
        self.lock(Resource::Row(e.id, id), LockMode::Exclusive)?;
        let old = e.data.read().get(id)?;
        let new_row = rules::overlay_cols(&e.schema, old.clone(), cols)?;
        e.schema.check_row(&new_row)?;
        self.rewrite(table, e, id, old, new_row)
    }

    /// The rest of `update` and `update_cols`, under the row's X lock:
    /// `old` is the row's current image, decoded once; `new` is valid.
    fn rewrite(&self, table: &str, e: &TableEntry, id: RowId, old: Row, new: Row) -> Result<()> {
        rules::enforce_update(self, table, &e.schema, &old, &new)?;
        // A key-changing update removes one key and adds another.
        self.lock_keys(e, &old, Some(&new))?;
        self.lock_keys(e, &new, Some(&old))?;
        let pages = {
            let mut t = e.data.write();
            let old_page = t.page_of(id);
            t.rewrite(id, &old, &new)?;
            [old_page, t.page_of(id).filter(|&p| Some(p) != old_page)]
        };
        let logged = self.db.sink().map(|sink| {
            self.log_op(
                &sink,
                RowOp::Update {
                    table,
                    id,
                    before: &old,
                    after: &new,
                },
            )
        });
        // Undo before any log error surfaces, so a rollback reverts the
        // heap either way.
        self.state.lock().undo.push(UndoOp::Update {
            table: table.to_owned(),
            id,
            old,
        });
        if let Some(lsn) = logged.transpose()? {
            // A growing update moves the row: stamp both the page it
            // left and the page it landed on.
            for page in pages.into_iter().flatten() {
                self.db.pool.stamp_lsn(page, lsn);
            }
        }
        Ok(())
    }

    /// Delete the row at `id`, honouring reverse foreign keys
    /// (RESTRICT refuses, CASCADE recurses, SET NULL nulls out).
    pub fn delete(&self, table: &str, id: RowId) -> Result<()> {
        self.check_open()?;
        let e = self.entry(table)?;
        self.lock(Resource::Table(e.id), LockMode::IntentExclusive)?;
        self.lock(Resource::Row(e.id, id), LockMode::Exclusive)?;
        let (old, old_page) = {
            let t = e.data.read();
            (t.get(id)?, t.page_of(id))
        };
        rules::enforce_delete(self, table, &e.schema, &old)?;
        self.lock_keys(e, &old, None)?;
        let sink = self.db.sink();
        let before = sink.as_ref().map(|_| old.clone());
        e.data.write().delete(id)?;
        self.state.lock().undo.push(UndoOp::Delete {
            table: table.to_owned(),
            id,
            old,
        });
        if let (Some(sink), Some(before)) = (sink, before) {
            let lsn = self.log_op(
                &sink,
                RowOp::Delete {
                    table,
                    id,
                    before: &before,
                },
            )?;
            // The row is gone; stamp the page it was removed from (if
            // the page itself survived losing the row).
            if let Some(page) = old_page {
                self.db.pool.stamp_lsn(page, lsn);
            }
        }
        Ok(())
    }

    /// All rows matching `pred` (copies). Takes a table-shared lock, so
    /// results are phantom-stable for the life of the transaction. The
    /// rows come from the access path `rules::plan` picks: an index
    /// probe, a bounded index range scan, or a full scan.
    pub fn select(&self, table: &str, pred: &Predicate) -> Result<Vec<(RowId, Row)>> {
        let mut out = Vec::new();
        let examined = self.scan(table, pred, 0, |id, bytes, _| {
            out.push((id, page::decode_row(bytes)?));
            Ok(())
        })?;
        self.db.txn_metrics.rows_examined.add(examined as u64);
        Ok(out)
    }

    /// The read under `select`, `count` and `sum_int`: table-shared
    /// lock, the planned access path, and each row it reaches tested
    /// raw. `on_match` gets the matches, their first `width` fields at
    /// least walked into the scratch. Returns rows examined.
    fn scan(
        &self,
        table: &str,
        pred: &Predicate,
        width: usize,
        mut on_match: impl FnMut(RowId, &[u8], &RowScratch) -> Result<()>,
    ) -> Result<usize> {
        self.check_open()?;
        let e = self.entry(table)?;
        self.lock(Resource::Table(e.id), LockMode::Shared)?;
        let t = e.data.read();
        let mut compiled = pred.compile(&e.schema)?;
        compiled.widen(width);
        let path = rules::plan(&e.schema, t.indexes(), pred);
        // Each candidate is filed under its current key, so a range
        // scan's hull satisfies the conjuncts it covers.
        if let AccessPath::IndexRange { ix, range } = &path {
            let col = t.indexes()[*ix].columns()[0];
            let pruned = compiled.prune_covered(col, range.lo, range.hi);
            self.db.conjuncts_pruned.add(pruned as u64);
        }
        let ids = path.candidates(t.indexes());
        let mut scratch = RowScratch::default();
        let mut visit = |id, bytes: &[u8]| {
            if compiled.matches_raw(bytes, &mut scratch)? {
                on_match(id, bytes, &scratch)?;
            }
            Ok(())
        };
        let examined = match ids {
            Some(mut ids) => {
                ids.sort_unstable();
                for &id in &ids {
                    t.with_encoded(id, |bytes| visit(id, bytes))?;
                }
                ids.len()
            }
            None => {
                t.scan_encoded(visit)?;
                t.len()
            }
        };
        Ok(examined)
    }

    /// Like [`Txn::select`], but sorted by `order_col` (ascending or
    /// descending, NULLs first) and truncated to `limit` rows.
    pub fn select_ordered(
        &self,
        table: &str,
        pred: &Predicate,
        order_col: &str,
        descending: bool,
        limit: Option<usize>,
    ) -> Result<Vec<(RowId, Row)>> {
        let col = self.entry(table)?.schema.require_column(order_col)?;
        let rows = self.select(table, pred)?;
        Ok(rules::order_and_limit(rows, col, descending, limit))
    }

    /// Equi-join: pairs of rows from `left` and `right` where
    /// `left.left_col = right.right_col`, each side pre-filtered by its
    /// predicate. NULL keys never join (SQL semantics). Implemented as
    /// a hash join over the filtered sides; takes table-shared locks on
    /// both (phantom-stable).
    pub fn join(
        &self,
        left: &str,
        left_col: &str,
        left_pred: &Predicate,
        right: &str,
        right_col: &str,
        right_pred: &Predicate,
    ) -> Result<Vec<(Row, Row)>> {
        let lcol = self.entry(left)?.schema.require_column(left_col)?;
        let rcol = self.entry(right)?.schema.require_column(right_col)?;
        let lrows = self.select(left, left_pred)?;
        let rrows = self.select(right, right_pred)?;
        Ok(rules::hash_join(&lrows, lcol, &rrows, rcol))
    }

    /// Sum an integer column over matching rows (NULLs contribute 0).
    pub fn sum_int(&self, table: &str, pred: &Predicate, col: &str) -> Result<i64> {
        let ci = self.entry(table)?.schema.require_column(col)?;
        let mut sum = 0i64;
        self.scan(table, pred, ci + 1, |_, bytes, scratch| {
            let f = scratch.field(ci);
            if f.tag == TAG_INT {
                sum += i64::from_le_bytes(bytes[f.start..f.end].try_into().expect("8-byte"));
            }
            Ok(())
        })?;
        Ok(sum)
    }

    /// Count rows matching `pred` without copying them.
    pub fn count(&self, table: &str, pred: &Predicate) -> Result<usize> {
        let mut n = 0usize;
        self.scan(table, pred, 0, |_, _, _| {
            n += 1;
            Ok(())
        })?;
        Ok(n)
    }

    /// Commit: force the WAL (write-ahead rule: records durable before
    /// any lock is released), then release all locks and discard the
    /// undo log. A WAL flush failure turns the commit into a rollback.
    pub fn commit(self) -> Result<()> {
        let logged = {
            let st = self.state.lock();
            if st.closed {
                return Err(Error::TxnClosed);
            }
            st.logged
        };
        if logged {
            if let Some(sink) = self.db.sink() {
                if let Err(e) = sink.on_commit(self.id) {
                    self.rollback_inner();
                    return Err(e);
                }
            }
        }
        {
            let mut st = self.state.lock();
            st.closed = true;
            st.undo.clear();
        }
        self.db
            .locks
            .release_all(self.id, &mut self.state.lock().held);
        let m = &self.db.txn_metrics;
        m.commits.inc();
        m.commit_us.observe(self.born.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Roll back explicitly (dropping the handle does the same).
    pub fn rollback(self) {
        self.rollback_inner();
    }

    fn rollback_inner(&self) {
        let (undo, logged) = {
            let mut st = self.state.lock();
            if st.closed {
                return;
            }
            st.closed = true;
            (std::mem::take(&mut st.undo), st.logged)
        };
        for op in undo.into_iter().rev() {
            match op {
                UndoOp::Insert { table, id } => {
                    if let Ok(e) = self.entry(&table) {
                        let _ = e.data.write().delete(id);
                    }
                }
                UndoOp::Update { table, id, old } => {
                    if let Ok(e) = self.entry(&table) {
                        let _ = e.data.write().update(id, old);
                    }
                }
                UndoOp::Delete { table, id, old } => {
                    if let Ok(e) = self.entry(&table) {
                        e.data.write().restore(id, old);
                    }
                }
            }
        }
        if logged {
            if let Some(sink) = self.db.sink() {
                sink.on_abort(self.id);
            }
        }
        self.db
            .locks
            .release_all(self.id, &mut self.state.lock().held);
        let m = &self.db.txn_metrics;
        m.aborts.inc();
        m.abort_us.observe(self.born.elapsed().as_micros() as u64);
    }
}

/// The 2PL engine's side of the foreign-key rules: every answer takes
/// the locks that keep it true until commit.
impl RuleTxn for Txn {
    /// Read off the catalog: tables in creation order, each one's
    /// foreign keys in declaration order.
    fn referrers_of(&self, table: &str) -> Vec<(String, ForeignKey)> {
        self.db
            .catalog
            .iter()
            .flat_map(|e| {
                e.schema
                    .foreign_keys
                    .iter()
                    .filter(|fk| fk.ref_table == table)
                    .map(|fk| (e.schema.name.clone(), fk.clone()))
            })
            .collect()
    }

    /// Referenced rows must exist; they are S-locked so they cannot
    /// vanish before this transaction commits.
    fn check_forward_fks(&self, table: &str, fks: &[ForeignKey], row: &[Value]) -> Result<()> {
        for fk in fks {
            let cols = self.entry(table)?.schema.resolve_columns(&fk.columns)?;
            let key = Key::from_row(row, &cols);
            if key.has_null() {
                continue; // NULL FKs reference nothing
            }
            // For self-referencing FKs the table lock is already held.
            let r = self.entry(&fk.ref_table)?;
            self.lock(Resource::Table(r.id), LockMode::IntentShared)?;
            let hits = {
                let rt = r.data.read();
                let (ix, lookup) =
                    rules::fk_target(&r.schema, rt.indexes(), &fk.ref_columns, &key)?;
                rt.indexes()[ix].get(&lookup)
            };
            let violation = || Error::ForeignKeyViolation {
                table: table.to_owned(),
                references: fk.ref_table.clone(),
            };
            let &hit = hits.first().ok_or_else(violation)?;
            // Pin the referenced row until commit, then re-check it
            // still exists post-lock.
            self.lock(Resource::Row(r.id, hit), LockMode::Shared)?;
            if r.data.read().try_get(hit)?.is_none() {
                return Err(violation());
            }
        }
        Ok(())
    }

    /// Probes the index `rules::plan` picks when it covers exactly
    /// `fk.columns`, else scans.
    fn find_referencing(&self, rtable: &str, fk: &ForeignKey, key: &Key) -> Result<Vec<RowId>> {
        let r = self.entry(rtable)?;
        self.lock(Resource::Table(r.id), LockMode::IntentShared)?;
        let cols = r.schema.resolve_columns(&fk.columns)?;
        let rt = r.data.read();
        let pred = rules::key_predicate(&fk.columns, key);
        if let AccessPath::IndexProbe { ix, key } = rules::plan(&r.schema, rt.indexes(), &pred) {
            let ix = &rt.indexes()[ix];
            if ix.columns().len() == cols.len() {
                return Ok(ix.get(&key));
            }
        }
        // Fall back to a scan (requires a stronger table lock for
        // stability).
        drop(rt);
        self.lock(Resource::Table(r.id), LockMode::Shared)?;
        let rt = r.data.read();
        Ok(rt
            .iter()
            .filter(|(_, row)| &Key::from_row(row, &cols) == key)
            .map(|(id, _)| id)
            .collect())
    }

    fn delete(&self, table: &str, id: RowId) -> Result<()> {
        Txn::delete(self, table, id)
    }

    fn update_cols(&self, table: &str, id: RowId, cols: &[(&str, Value)]) -> Result<()> {
        Txn::update_cols(self, table, id, cols)
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        self.rollback_inner();
    }
}
