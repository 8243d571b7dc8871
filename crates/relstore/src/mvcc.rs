//! The MVCC storage engine: snapshot-isolation reads over versioned
//! rows, first-committer-wins writes.
//!
//! [`MvccDb`] is the second engine behind [`crate::engine::AnyEngine`];
//! the relational rules it enforces are the shared ones in
//! [`crate::rules`]. Where the 2PL engine serializes every hot-row
//! read behind writer locks, this engine keeps each row as a *version
//! chain* — every version stamped with the commit timestamps
//! `[begin, end)` of its validity interval — and gives each transaction
//! a frozen snapshot timestamp at begin. Reads never take locks:
//! a reader sees exactly the versions whose interval covers its
//! snapshot, no matter what writers do concurrently.
//!
//! Writes are buffered privately in the transaction and published
//! atomically at commit under a single commit fence, where the engine
//! enforces **first-committer-wins**: if any row in the write set was
//! committed by someone else after this transaction's snapshot, commit
//! fails with [`Error::WriteConflict`] and the caller retries with a
//! fresh snapshot (exactly how [`Error::TxnAborted`] is retried under
//! wait-die).
//!
//! ## WAL at commit time
//!
//! Unlike the 2PL engine — which reports each mutation to the
//! [`WalSink`] at op time, while holding exclusive locks that keep each
//! transaction's same-row ops ordered in the log — this engine appends
//! its buffered ops *at commit*, under the commit fence. Op-time
//! logging would break repeat-history redo here: two concurrent
//! transactions may write the same row in an order that differs from
//! their commit order, and replaying that interleaving would end at the
//! wrong row image. Commit-time logging keeps each committed
//! transaction's ops contiguous and in commit order; aborted
//! transactions never reach the log at all.
//!
//! ## Indexes
//!
//! Tables keep the 2PL heap's [`Index`] type, but here an index files a
//! row under the key of every version its chain *retains*: commit adds
//! the new version's key, and nothing removes one at update or delete.
//! Reads take the planned candidates plus the transaction's own puts
//! and test the version visible at the snapshot; uniqueness and
//! foreign-key checks test the *live* version instead.
//!
//! ## Garbage collection
//!
//! A version is dead once its `end` timestamp is at or below the
//! *watermark* — the oldest snapshot any live transaction holds (or the
//! current clock when none is active). [`MvccDb::gc`] reclaims dead
//! versions and runs automatically every few commits; reclaimed
//! versions can never resurrect because recovery replays the log, not
//! the version store. Reclaiming a version also drops each of its index
//! entries that no remaining version of the chain holds, so with no
//! snapshot open every index files exactly the live rows.
//!
//! ## Instrumentation
//!
//! `relstore.mvcc.versions_live` (gauge), `.snapshot_reads`,
//! `.write_conflicts` and `.gc_reclaimed` (counters), alongside the
//! engine-neutral `relstore.txn.*` counters the 2PL engine maintains.

use crate::database::TxnMetrics;
use crate::error::{Error, Result};
use crate::lock::TxnId;
use crate::pagestore::page::{self, RowRef, RowScratch, TAG_INT};
use crate::query::{Compiled, Predicate};
use crate::rules::{self, RuleTxn, ScanBufs};
use crate::schema::{ForeignKey, IndexDef, TableSchema, PRIMARY_INDEX};
use crate::snapshot::{Snapshot, TableSnapshot};
use crate::table::{Index, Row, RowId};
use crate::value::{Key, Value};
use crate::wal::{Prepared, RowOp, WalSink};
use obs::{Counter, Registry};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `end` timestamp of a version still visible to new snapshots.
const LIVE: u64 = u64::MAX;

/// Run GC automatically once per this many commits.
const GC_EVERY: u64 = 64;

/// One immutable version of a row, valid for snapshots in
/// `[begin, end)`. The row image is kept *encoded* (see
/// [`page::encode_row`]) so scans evaluate compiled predicates raw,
/// exactly like the 2PL engine's paged heap.
#[derive(Debug)]
struct Version {
    begin: u64,
    end: u64,
    bytes: Vec<u8>,
    /// Payload bytes (Text + Bytes values) of the decoded row, for
    /// `heap_bytes` accounting.
    payload: usize,
}

/// The version chain of one row id, newest version last.
#[derive(Debug, Default)]
struct Chain {
    versions: Vec<Version>,
    /// Commit timestamp of the last committed write (including the
    /// delete that may have ended the row) — the fact first-committer-
    /// wins validation checks against a transaction's snapshot.
    last_write: u64,
}

impl Chain {
    fn visible(&self, snap: u64) -> Option<&Version> {
        self.versions
            .iter()
            .rev()
            .find(|v| v.begin <= snap && snap < v.end)
    }

    fn live(&self) -> Option<&Version> {
        self.versions.iter().rev().find(|v| v.end == LIVE)
    }

    fn live_mut(&mut self) -> Option<&mut Version> {
        self.versions.iter_mut().rev().find(|v| v.end == LIVE)
    }
}

/// One table of the MVCC engine: schema, version chains, and indexes
/// over every retained version.
#[derive(Debug)]
struct MvccTable {
    /// Fixed at creation: writers take a handle, not a copy.
    schema: Arc<TableSchema>,
    chains: BTreeMap<RowId, Chain>,
    next_row: u64,
    /// `indexes[0]` is always the implicit primary index — same order
    /// (and therefore same violated-index error reporting) as the 2PL
    /// engine.
    indexes: Vec<Index>,
    /// Rows live in the latest-committed state.
    live_rows: usize,
    /// Payload bytes of the latest-committed live rows.
    committed_bytes: usize,
}

impl MvccTable {
    fn new(schema: TableSchema) -> Result<Self> {
        schema.validate()?;
        let mut indexes = Vec::with_capacity(1 + schema.indexes.len());
        indexes.push(Index::new(
            IndexDef {
                name: PRIMARY_INDEX.to_owned(),
                columns: schema.primary_key.clone(),
                unique: true,
            },
            &schema,
        )?);
        for def in &schema.indexes {
            indexes.push(Index::new(def.clone(), &schema)?);
        }
        Ok(MvccTable {
            schema: Arc::new(schema),
            chains: BTreeMap::new(),
            next_row: 1,
            indexes,
            live_rows: 0,
            committed_bytes: 0,
        })
    }

    fn alloc_row_id(&mut self) -> RowId {
        let id = RowId(self.next_row);
        self.next_row += 1;
        id
    }

    fn sync_next_row(&mut self) {
        if let Some(max) = self.chains.keys().next_back() {
            self.next_row = self.next_row.max(max.0 + 1);
        }
    }

    fn payload(row: &[Value]) -> usize {
        row.iter().map(Value::heap_size).sum()
    }

    /// Install `row` as a new live version of a fresh row id at commit
    /// timestamp `ts`.
    fn apply_insert(&mut self, id: RowId, row: &Row, ts: u64) {
        let bytes = page::encode_row(row);
        let payload = Self::payload(row);
        let chain = self.chains.entry(id).or_default();
        chain.versions.push(Version {
            begin: ts,
            end: LIVE,
            bytes,
            payload,
        });
        chain.last_write = ts;
        self.index_row(id, row);
        self.live_rows += 1;
        self.committed_bytes += payload;
    }

    /// File `id` under `row`'s key in every index (a no-op where an
    /// older retained version already holds that key).
    fn index_row(&mut self, id: RowId, row: &[Value]) {
        for ix in &mut self.indexes {
            let key = ix.key_of(row);
            ix.insert(key, id);
        }
    }

    /// End the live version of `id` at `ts` and install `row` as the
    /// new one.
    fn apply_update(&mut self, id: RowId, row: &Row, ts: u64) -> Result<()> {
        self.close_live(id, ts)?;
        let payload = Self::payload(row);
        self.index_row(id, row);
        let chain = self.chains.get_mut(&id).expect("chain closed above");
        chain.versions.push(Version {
            begin: ts,
            end: LIVE,
            bytes: page::encode_row(row),
            payload,
        });
        chain.last_write = ts;
        self.committed_bytes += payload;
        Ok(())
    }

    /// End the live version of `id` at `ts` (the row stops existing for
    /// snapshots at or after `ts`).
    fn apply_delete(&mut self, id: RowId, ts: u64) -> Result<()> {
        self.close_live(id, ts)?;
        let chain = self.chains.get_mut(&id).expect("chain closed above");
        chain.last_write = ts;
        self.live_rows -= 1;
        Ok(())
    }

    /// Close the live version of `id` at `ts`; adjusts
    /// `committed_bytes` for the version leaving the live set.
    fn close_live(&mut self, id: RowId, ts: u64) -> Result<()> {
        let missing = || Error::NoSuchRow {
            table: self.schema.name.clone(),
            row: id,
        };
        let chain = self.chains.get_mut(&id).ok_or_else(missing)?;
        let v = chain.live_mut().ok_or_else(missing)?;
        v.end = ts;
        self.committed_bytes -= v.payload;
        Ok(())
    }

    /// Whether a row other than `except` holds `key` under index `ix`
    /// in the latest-committed state overlaid with the caller's own
    /// images (`local`, by id): the index probe, each candidate checked
    /// against its local image or else its live version.
    fn committed_holder<'l>(
        &self,
        ix: usize,
        key: &Key,
        except: Option<RowId>,
        local: impl Fn(RowId) -> Option<&'l LocalRow>,
    ) -> Result<bool> {
        let index = &self.indexes[ix];
        for id in index.get(key).into_iter().filter(|&id| Some(id) != except) {
            let holds = match local(id) {
                Some(LocalRow::Deleted) => false,
                Some(LocalRow::Put(r)) => index.row_holds(r, key),
                None => match self.chains.get(&id).and_then(Chain::live) {
                    Some(v) => index.row_holds(&page::decode_row(&v.bytes)?, key),
                    None => false,
                },
            };
            if holds {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Drop from `indexes` the entries of `id` that only `dead` — versions
/// being reclaimed from its chain — hold, and none of `kept`.
fn unindex(indexes: &mut [Index], id: RowId, dead: &[Version], kept: &[Version]) {
    // A version that fails to decode keeps its entries: a stale entry
    // costs a probe one extra candidate, never a wrong answer.
    let decode = |v: &Version| page::decode_row(&v.bytes).ok();
    let kept: Vec<Row> = kept.iter().filter_map(decode).collect();
    for row in dead.iter().filter_map(decode) {
        for ix in indexes.iter_mut() {
            let key = ix.key_of(&row);
            if !kept.iter().any(|r| ix.row_holds(r, &key)) {
                ix.remove(&key, id);
            }
        }
    }
}

/// A transaction's private image of one row.
#[derive(Debug, Clone)]
enum LocalRow {
    /// The row exists with this image in the transaction's view
    /// (inserted or updated by it).
    Put(Row),
    /// The row is deleted in the transaction's view.
    Deleted,
}

/// One buffered mutation, with the before/after images the WAL needs.
/// Captured at op time (relative to the transaction's own effective
/// view), appended to the log at commit time.
#[derive(Debug)]
enum LoggedOp {
    Insert {
        table: String,
        id: RowId,
        after: Row,
    },
    Update {
        table: String,
        id: RowId,
        before: Row,
        after: Row,
    },
    Delete {
        table: String,
        id: RowId,
        before: Row,
    },
}

struct MvccInner {
    catalog: RwLock<BTreeMap<String, Arc<RwLock<MvccTable>>>>,
    /// Reverse FK map: referenced table → (referencing table, fk).
    referrers: RwLock<BTreeMap<String, Vec<(String, ForeignKey)>>>,
    next_txn: AtomicU64,
    /// The commit clock. Snapshots read it at begin; committers bump it
    /// under the commit fence. Starts at 1 so restored rows (loaded at
    /// timestamp 1) are visible to the very first snapshot.
    clock: AtomicU64,
    /// Snapshot timestamps of live transactions (timestamp → count).
    /// The minimum key is the GC watermark.
    active: Mutex<BTreeMap<u64, usize>>,
    /// The commit fence: serializes validate → log → apply, and fences
    /// checkpoints (see [`MvccDb::fenced_snapshot`]).
    commit_lock: Mutex<()>,
    commits: AtomicU64,
    /// Total versions currently held across all tables (live + dead but
    /// unreclaimed). Mirrored to the `relstore.mvcc.versions_live`
    /// gauge.
    versions: AtomicU64,
    wal: RwLock<Option<Arc<dyn WalSink>>>,
    metrics: Registry,
    txn_metrics: TxnMetrics,
    snapshot_reads: Counter,
    write_conflicts: Counter,
}

impl MvccInner {
    fn sink(&self) -> Option<Arc<dyn WalSink>> {
        self.wal.read().clone()
    }

    fn entry(&self, table: &str) -> Result<Arc<RwLock<MvccTable>>> {
        self.catalog
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| Error::NoSuchTable(table.to_owned()))
    }

    fn release_snapshot(&self, snap: u64) {
        let mut active = self.active.lock();
        if let Some(n) = active.get_mut(&snap) {
            *n -= 1;
            if *n == 0 {
                active.remove(&snap);
            }
        }
    }

    /// The oldest snapshot any live transaction holds, or the current
    /// clock when none is active. Versions ended at or below this are
    /// invisible to every current and future reader.
    fn watermark(&self) -> u64 {
        self.active
            .lock()
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.clock.load(Ordering::SeqCst))
    }

    fn publish_versions_gauge(&self) {
        self.metrics.gauge_set(
            "relstore.mvcc.versions_live",
            self.versions.load(Ordering::Relaxed) as i64,
        );
    }

    /// Reclaim dead versions; returns the count reclaimed.
    fn gc(&self) -> usize {
        let watermark = self.watermark();
        let mut reclaimed = 0usize;
        let catalog = self.catalog.read();
        // Every version is live: nothing to walk for.
        let live: usize = catalog.values().map(|t| t.read().live_rows).sum();
        if self.versions.load(Ordering::Relaxed) as usize == live {
            return 0;
        }
        for data in catalog.values() {
            let t = &mut *data.write();
            t.chains.retain(|&id, chain| {
                // Versions end in chain order, so the dead ones lead.
                let n = chain
                    .versions
                    .iter()
                    .take_while(|v| v.end <= watermark)
                    .count();
                if n > 0 {
                    let (dead, kept) = chain.versions.split_at(n);
                    unindex(&mut t.indexes, id, dead, kept);
                    chain.versions.drain(..n);
                    reclaimed += n;
                }
                // An empty chain is safe to drop: every version ended at
                // or below the watermark, so no live transaction can have
                // the row in its read or write set, and row ids are never
                // reused (`next_row` only grows).
                !chain.versions.is_empty()
            });
        }
        drop(catalog);
        if reclaimed > 0 {
            self.versions.fetch_sub(reclaimed as u64, Ordering::Relaxed);
            self.metrics
                .add("relstore.mvcc.gc_reclaimed", reclaimed as u64);
        }
        self.publish_versions_gauge();
        reclaimed
    }
}

/// A shared, thread-safe MVCC database. See the module docs for the
/// concurrency model; the API mirrors [`crate::Database`] so the two
/// engines are interchangeable behind [`crate::engine::AnyEngine`].
#[derive(Clone)]
pub struct MvccDb {
    inner: Arc<MvccInner>,
}

impl Default for MvccDb {
    fn default() -> Self {
        Self::new()
    }
}

impl MvccDb {
    /// Create an empty MVCC database.
    #[must_use]
    pub fn new() -> Self {
        let metrics = Registry::new();
        MvccDb {
            inner: Arc::new(MvccInner {
                catalog: RwLock::new(BTreeMap::new()),
                referrers: RwLock::new(BTreeMap::new()),
                next_txn: AtomicU64::new(1),
                clock: AtomicU64::new(1),
                active: Mutex::new(BTreeMap::new()),
                commit_lock: Mutex::new(()),
                commits: AtomicU64::new(0),
                versions: AtomicU64::new(0),
                wal: RwLock::new(None),
                txn_metrics: TxnMetrics::new(&metrics),
                snapshot_reads: metrics.counter_handle("relstore.mvcc.snapshot_reads"),
                write_conflicts: metrics.counter_handle("relstore.mvcc.write_conflicts"),
                metrics,
            }),
        }
    }

    /// The `relstore.*` metrics registry of this database.
    #[must_use]
    pub fn metrics(&self) -> &Registry {
        &self.inner.metrics
    }

    /// Count one first-committer-wins retry of a transaction closure.
    pub(crate) fn note_retry(&self) {
        self.inner.txn_metrics.retries.inc();
    }

    /// Install (or remove) a write-ahead-log sink. The sink sees each
    /// committed transaction's ops contiguously at commit time (see the
    /// module docs), plus auto-committed DDL.
    pub fn set_wal_sink(&self, sink: Option<Arc<dyn WalSink>>) {
        *self.inner.wal.write() = sink;
    }

    /// The currently installed WAL sink, if any.
    #[must_use]
    pub fn wal_sink(&self) -> Option<Arc<dyn WalSink>> {
        self.inner.sink()
    }

    /// Create a table. Foreign keys must reference existing tables on
    /// columns backed by a unique index there — the same catalog rules
    /// as the 2PL engine.
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        schema.validate()?;
        let mut catalog = self.inner.catalog.write();
        if catalog.contains_key(&schema.name) {
            return Err(Error::TableExists(schema.name));
        }
        rules::check_fk_targets(&schema, |t| {
            catalog
                .get(t)
                .map(|data| TableSchema::clone(&data.read().schema))
        })?;
        let name = schema.name.clone();
        let fks = schema.foreign_keys.clone();
        // DDL is auto-committed: durable before the table is visible,
        // matching the 2PL engine.
        let sink = self.inner.sink();
        let logged_schema = sink.as_ref().map(|_| schema.clone());
        let table = MvccTable::new(schema)?;
        if let (Some(sink), Some(s)) = (&sink, &logged_schema) {
            sink.on_create_table(s)?;
        }
        catalog.insert(name.clone(), Arc::new(RwLock::new(table)));
        let mut referrers = self.inner.referrers.write();
        for fk in fks {
            referrers
                .entry(fk.ref_table.clone())
                .or_default()
                .push((name.clone(), fk));
        }
        Ok(())
    }

    /// Table names in the catalog.
    #[must_use]
    pub fn table_names(&self) -> Vec<String> {
        self.inner.catalog.read().keys().cloned().collect()
    }

    /// The schema of a table.
    pub fn schema_of(&self, table: &str) -> Result<TableSchema> {
        Ok(TableSchema::clone(&self.inner.entry(table)?.read().schema))
    }

    /// Number of rows live in the latest-committed state of `table`.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.inner.entry(table)?.read().live_rows)
    }

    /// Payload bytes of the latest-committed live rows of `table` —
    /// the same logical-size definition as the 2PL engine, excluding
    /// dead versions awaiting GC.
    pub fn heap_bytes(&self, table: &str) -> Result<usize> {
        Ok(self.inner.entry(table)?.read().committed_bytes)
    }

    /// The next transaction id this engine will hand out.
    #[must_use]
    pub fn next_txn_id(&self) -> TxnId {
        self.inner.next_txn.load(Ordering::Relaxed)
    }

    /// Ensure future transactions are numbered `next` or higher (same
    /// recovery contract as [`crate::Database::resume_txn_ids`]).
    pub fn resume_txn_ids(&self, next: TxnId) {
        self.inner.next_txn.fetch_max(next, Ordering::Relaxed);
    }

    /// Begin a new transaction: its snapshot is frozen at the current
    /// commit clock.
    #[must_use]
    pub fn begin(&self) -> MvccTxn {
        let id = self.alloc_txn_id();
        self.begin_with_id(id)
    }

    pub(crate) fn alloc_txn_id(&self) -> TxnId {
        self.inner.next_txn.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn begin_with_id(&self, id: TxnId) -> MvccTxn {
        // Read the clock under the lock `watermark` takes, so GC can
        // never compute a watermark past a snapshot about to register.
        let snap = {
            let mut active = self.inner.active.lock();
            let snap = self.inner.clock.load(Ordering::SeqCst);
            *active.entry(snap).or_insert(0) += 1;
            snap
        };
        MvccTxn {
            db: Arc::clone(&self.inner),
            id,
            snap,
            state: Mutex::new(MvccTxnState::default()),
            born: Instant::now(),
        }
    }

    /// Run `f` in a transaction, committing on success. Retried with
    /// the same transaction id on [`Error::WriteConflict`] (each retry
    /// re-runs `f` against a fresh snapshot) and on
    /// [`Error::TxnAborted`] for drop-in parity with the 2PL engine.
    pub fn with_txn<T>(&self, f: impl Fn(&MvccTxn) -> Result<T>) -> Result<T> {
        let id = self.alloc_txn_id();
        loop {
            let txn = self.begin_with_id(id);
            match f(&txn).and_then(|v| txn.commit().map(|()| v)) {
                Ok(v) => return Ok(v),
                Err(Error::TxnAborted { .. } | Error::WriteConflict { .. }) => {
                    self.note_retry();
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Reclaim versions dead to every current and future reader;
    /// returns the number reclaimed. Runs automatically every few
    /// commits.
    pub fn gc(&self) -> usize {
        self.inner.gc()
    }

    /// Capture the latest-committed state as a [`Snapshot`]. Taken
    /// under the commit fence, so no transaction is mid-publish.
    pub fn snapshot(&self) -> Result<Snapshot> {
        let _fence = self.inner.commit_lock.lock();
        self.snapshot_locked()
    }

    /// Build a snapshot and hand it to `f` together with the next
    /// transaction id, all under the commit fence — so no commit can
    /// slip between the snapshot capture and whatever `f` persists
    /// (the WAL crate's checkpoint uses this to anchor its log
    /// truncation point).
    pub fn fenced_snapshot<R>(&self, f: impl FnOnce(Snapshot, TxnId) -> R) -> Result<R> {
        let _fence = self.inner.commit_lock.lock();
        let snap = self.snapshot_locked()?;
        Ok(f(snap, self.next_txn_id()))
    }

    fn snapshot_locked(&self) -> Result<Snapshot> {
        let mut tables = BTreeMap::new();
        let catalog = self.inner.catalog.read();
        for (name, data) in catalog.iter() {
            let t = data.read();
            let mut rows = Vec::with_capacity(t.live_rows);
            for (id, chain) in &t.chains {
                if let Some(v) = chain.live() {
                    rows.push((*id, page::decode_row(&v.bytes)?));
                }
            }
            tables.insert(
                name.clone(),
                TableSnapshot {
                    schema: TableSchema::clone(&t.schema),
                    rows,
                },
            );
        }
        Ok(Snapshot { tables })
    }

    /// Rebuild an MVCC database from a snapshot: tables in foreign-key
    /// order, rows loaded as committed versions at timestamp 1, then a
    /// full referential-integrity verification (a corrupted snapshot
    /// fails loudly, same contract as the 2PL engine's restore).
    pub fn restore(snapshot: &Snapshot) -> Result<MvccDb> {
        let db = MvccDb::new();
        for name in crate::snapshot::fk_order(&snapshot.tables)? {
            let snap = &snapshot.tables[name];
            db.create_table(snap.schema.clone())?;
            let data = db.inner.entry(name)?;
            let mut t = data.write();
            let mut loaded = 0u64;
            for (id, row) in &snap.rows {
                t.schema.check_row(row)?;
                for (i, ix) in t.indexes.iter().enumerate() {
                    let key = ix.key_of(row);
                    if ix.is_unique()
                        && !key.has_null()
                        && t.committed_holder(i, &key, None, |_| None)?
                    {
                        return Err(Error::UniqueViolation {
                            table: name.to_owned(),
                            index: ix.name().to_owned(),
                        });
                    }
                }
                t.apply_insert(*id, row, 1);
                loaded += 1;
            }
            t.sync_next_row();
            db.inner.versions.fetch_add(loaded, Ordering::Relaxed);
        }
        // Verify every foreign key of every row: one planned index probe
        // per row.
        let txn = db.begin();
        for (name, snap) in &snapshot.tables {
            for fk in &snap.schema.foreign_keys {
                let cols = snap.schema.resolve_columns(&fk.columns)?;
                for (_, row) in &snap.rows {
                    let key = Key::from_row(row, &cols);
                    if key.has_null() {
                        continue;
                    }
                    let pred = rules::key_predicate(&fk.ref_columns, &key);
                    if txn.count(&fk.ref_table, &pred)? == 0 {
                        return Err(Error::ForeignKeyViolation {
                            table: name.clone(),
                            references: fk.ref_table.clone(),
                        });
                    }
                }
            }
        }
        txn.commit()?;
        db.inner.publish_versions_gauge();
        Ok(db)
    }

    // ------------------------------------------------------------------
    // Recovery primitives (log replay only)
    // ------------------------------------------------------------------

    /// Re-apply a logged insert as a committed version (recovery only;
    /// same contract as [`crate::Database::redo_insert`]).
    pub fn redo_insert(&self, table: &str, id: RowId, row: Row) -> Result<()> {
        let data = self.inner.entry(table)?;
        let ts = self.inner.clock.fetch_add(1, Ordering::SeqCst) + 1;
        let mut t = data.write();
        t.apply_insert(id, &row, ts);
        t.sync_next_row();
        self.inner.versions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Re-apply a logged update (recovery only).
    pub fn redo_update(&self, table: &str, id: RowId, row: Row) -> Result<()> {
        let data = self.inner.entry(table)?;
        let ts = self.inner.clock.fetch_add(1, Ordering::SeqCst) + 1;
        data.write().apply_update(id, &row, ts)?;
        self.inner.versions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Re-apply a logged delete (recovery only).
    pub fn redo_delete(&self, table: &str, id: RowId) -> Result<()> {
        let data = self.inner.entry(table)?;
        let ts = self.inner.clock.fetch_add(1, Ordering::SeqCst) + 1;
        let res = data.write().apply_delete(id, ts);
        res
    }
}

#[derive(Debug, Default)]
struct MvccTxnState {
    closed: bool,
    /// The transaction's private write set: table → row → its image in
    /// this transaction's view. Overlays the snapshot on every read.
    local: BTreeMap<String, Local>,
    /// Buffered mutations in execution order, appended to the WAL and
    /// applied to the version store at commit.
    log: Vec<LoggedOp>,
    /// Whether `prepare` began appending `log` to the WAL sink (a
    /// rollback from then on logs its abort).
    logged: bool,
    /// Reused by every scan of the transaction.
    bufs: ScanBufs,
}

/// One table's part of a transaction's write set.
type Local = BTreeMap<RowId, LocalRow>;

/// The write set of a table the transaction has not written.
static UNWRITTEN: Local = BTreeMap::new();

impl MvccTxnState {
    /// The transaction's own image of row `id` of `table`, if it wrote
    /// the row.
    fn local_row(&self, table: &str, id: RowId) -> Option<&LocalRow> {
        self.local.get(table)?.get(&id)
    }

    /// Record the transaction's own image of row `id` of `table`.
    fn put_local(&mut self, table: &str, id: RowId, row: LocalRow) {
        if let Some(rows) = self.local.get_mut(table) {
            rows.insert(id, row);
        } else {
            self.local
                .insert(table.to_owned(), BTreeMap::from([(id, row)]));
        }
    }
}

/// An MVCC transaction: lock-free snapshot reads, buffered writes,
/// first-committer-wins commit. Dropping an uncommitted transaction
/// discards its buffered writes.
pub struct MvccTxn {
    db: Arc<MvccInner>,
    id: TxnId,
    /// The frozen snapshot timestamp: this transaction sees exactly the
    /// versions whose `[begin, end)` covers it.
    snap: u64,
    state: Mutex<MvccTxnState>,
    /// Wall-clock birth, for commit/abort latency histograms.
    born: Instant,
}

impl MvccTxn {
    /// This transaction's id.
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

    fn entry(&self, table: &str) -> Result<Arc<RwLock<MvccTable>>> {
        self.db.entry(table)
    }

    /// The transaction's view of row `id`: local overlay first, then
    /// the version visible at the snapshot.
    fn effective_get(
        &self,
        table: &str,
        data: &RwLock<MvccTable>,
        id: RowId,
    ) -> Result<Option<Row>> {
        if let Some(local) = self.state.lock().local_row(table, id) {
            return Ok(match local {
                LocalRow::Put(row) => Some(row.clone()),
                LocalRow::Deleted => None,
            });
        }
        let t = data.read();
        match t.chains.get(&id).and_then(|c| c.visible(self.snap)) {
            Some(v) => Ok(Some(page::decode_row(&v.bytes)?)),
            None => Ok(None),
        }
    }

    /// Uniqueness check against the *latest-committed* state overlaid
    /// with this transaction's writes — the same facts the 2PL engine
    /// checks under locks, so sequential workloads reject identically.
    /// Concurrent collisions that slip past this check are caught again
    /// at commit, under the fence.
    fn check_unique(
        &self,
        table: &str,
        data: &RwLock<MvccTable>,
        row: &[Value],
        except: Option<RowId>,
    ) -> Result<()> {
        let t = data.read();
        // Iterated in place under the txn-state mutex: that mutex is
        // private to this transaction (no other thread can hold it
        // while waiting on a table lock), and cloning the whole write
        // buffer here made batch writes quadratic in batch size — this
        // check runs on every insert/update.
        let st = self.state.lock();
        let local = st.local.get(table).unwrap_or(&UNWRITTEN);
        for (i, ix) in t.indexes.iter().enumerate() {
            if !ix.is_unique() {
                continue;
            }
            let key = ix.key_of(row);
            if key.has_null() {
                continue;
            }
            // A locally deleted or re-keyed row no longer holds the key.
            let committed_hit = t.committed_holder(i, &key, except, |cid| local.get(&cid))?;
            // Any local Put holding the key counts: fresh inserts, but
            // also committed rows this transaction re-keyed *into* the
            // key (the index need not file those under it, so
            // `committed_hit` can miss them).
            let local_hit = local.iter().any(|(id, lr)| {
                Some(*id) != except && matches!(lr, LocalRow::Put(r) if ix.row_holds(r, &key))
            });
            if committed_hit || local_hit {
                return Err(Error::UniqueViolation {
                    table: table.to_owned(),
                    index: ix.name().to_owned(),
                });
            }
        }
        Ok(())
    }

    /// The scan under `select`, `select_with`, `count` and `sum_int`:
    /// a pure snapshot read over the planned access path, under the
    /// table's read guard and this transaction's state mutex (the write
    /// set is read in place). Committed versions are tested *raw*
    /// through the compiled predicate (the 2PL heap's hot path), this
    /// transaction's own rows decoded; `on_match` gets the matches in
    /// id order, their first `width` fields at least (capped at the
    /// table's arity) walked into the scratch. Returns rows examined.
    #[inline]
    fn scan(
        &self,
        table: &str,
        pred: &Predicate,
        width: usize,
        mut on_match: impl FnMut(RowId, Seen<'_>, &RowScratch) -> Result<()>,
    ) -> Result<usize> {
        self.check_open()?;
        let data = self.entry(table)?;
        self.db.snapshot_reads.inc();
        let t = data.read();
        let mut compiled = pred.compile(&t.schema)?;
        compiled.widen(width.min(t.schema.columns.len()));
        // Table guard first, then the state mutex, as `check_unique`.
        let mut st = self.state.lock();
        let MvccTxnState { local, bufs, .. } = &mut *st;
        let local = local.get(table).unwrap_or(&UNWRITTEN);
        let ScanBufs { ids, scratch } = bufs;
        // Every candidate is re-filtered in full: none is pruned, since
        // a candidate may be filed under a key its visible version lacks.
        let planned = rules::plan(&t.schema, &t.indexes, pred).candidates(&t.indexes, ids);
        effective_view(&t, local, self.snap, planned.then_some(ids), |id, seen| {
            if seen.matches(&compiled, scratch)? {
                on_match(id, seen, scratch)?;
            }
            Ok(())
        })
    }

    /// Insert a row; returns its new id. The row is invisible to other
    /// transactions until commit.
    pub fn insert(&self, table: &str, row: Row) -> Result<RowId> {
        self.check_open()?;
        let data = self.entry(table)?;
        let schema = Arc::clone(&data.read().schema);
        schema.check_row(&row)?;
        self.check_forward_fks(table, &schema.foreign_keys, &row)?;
        self.check_unique(table, &data, &row, None)?;
        let id = data.write().alloc_row_id();
        let mut st = self.state.lock();
        st.put_local(table, id, LocalRow::Put(row.clone()));
        st.log.push(LoggedOp::Insert {
            table: table.to_owned(),
            id,
            after: row,
        });
        Ok(id)
    }

    /// Fetch a copy of the row at `id` from the snapshot (no locks).
    pub fn get(&self, table: &str, id: RowId) -> Result<Row> {
        self.check_open()?;
        let data = self.entry(table)?;
        self.db.snapshot_reads.inc();
        self.effective_get(table, &data, id)?
            .ok_or_else(|| Error::NoSuchRow {
                table: table.to_owned(),
                row: id,
            })
    }

    /// Replace the entire row at `id`.
    pub fn update(&self, table: &str, id: RowId, new_row: Row) -> Result<()> {
        self.check_open()?;
        let data = self.entry(table)?;
        let schema = Arc::clone(&data.read().schema);
        schema.check_row(&new_row)?;
        let old = self
            .effective_get(table, &data, id)?
            .ok_or_else(|| Error::NoSuchRow {
                table: table.to_owned(),
                row: id,
            })?;
        rules::enforce_update(self, table, &schema, &old, &new_row)?;
        self.check_unique(table, &data, &new_row, Some(id))?;
        let mut st = self.state.lock();
        st.put_local(table, id, LocalRow::Put(new_row.clone()));
        st.log.push(LoggedOp::Update {
            table: table.to_owned(),
            id,
            before: old,
            after: new_row,
        });
        Ok(())
    }

    /// Update only the named columns of the row at `id`.
    pub fn update_cols(&self, table: &str, id: RowId, cols: &[(&str, Value)]) -> Result<()> {
        self.check_open()?;
        let data = self.entry(table)?;
        let row = self
            .effective_get(table, &data, id)?
            .ok_or_else(|| Error::NoSuchRow {
                table: table.to_owned(),
                row: id,
            })?;
        let row = rules::overlay_cols(&data.read().schema, row, cols)?;
        self.update(table, id, row)
    }

    /// Delete the row at `id`, honouring reverse foreign keys
    /// (RESTRICT refuses, CASCADE recurses, SET NULL nulls out).
    pub fn delete(&self, table: &str, id: RowId) -> Result<()> {
        self.check_open()?;
        let data = self.entry(table)?;
        let old = self
            .effective_get(table, &data, id)?
            .ok_or_else(|| Error::NoSuchRow {
                table: table.to_owned(),
                row: id,
            })?;
        let schema = Arc::clone(&data.read().schema);
        rules::enforce_delete(self, table, &schema, &old)?;
        let mut st = self.state.lock();
        st.put_local(table, id, LocalRow::Deleted);
        st.log.push(LoggedOp::Delete {
            table: table.to_owned(),
            id,
            before: old,
        });
        Ok(())
    }

    /// All rows matching `pred` (copies), in row-id order.
    pub fn select(&self, table: &str, pred: &Predicate) -> Result<Vec<(RowId, Row)>> {
        let mut out = Vec::new();
        let examined = self.scan(table, pred, 0, |id, seen, _| {
            out.push((id, seen.to_row()?));
            Ok(())
        })?;
        self.db.txn_metrics.rows_examined.add(examined as u64);
        Ok(out)
    }

    /// Visit each row matching `pred` as a borrowed [`RowRef`] — of the
    /// stored version, or of this transaction's own buffered image — in
    /// the order [`MvccTxn::select`] returns them. Nothing is decoded
    /// unless `f` reads it.
    ///
    /// `f` runs under the table's read guard and this transaction's
    /// state mutex, so it must not call this transaction.
    pub fn select_with(
        &self,
        table: &str,
        pred: &Predicate,
        f: &mut dyn FnMut(RowId, RowRef<'_>) -> Result<()>,
    ) -> Result<()> {
        let examined = self.scan(table, pred, usize::MAX, |id, seen, scratch| {
            f(id, seen.view(scratch))
        })?;
        self.db.txn_metrics.rows_examined.add(examined as u64);
        Ok(())
    }

    /// Like [`MvccTxn::select`], but sorted by `order_col` (ascending
    /// or descending, NULLs first) and truncated to `limit` rows.
    pub fn select_ordered(
        &self,
        table: &str,
        pred: &Predicate,
        order_col: &str,
        descending: bool,
        limit: Option<usize>,
    ) -> Result<Vec<(RowId, Row)>> {
        let data = self.entry(table)?;
        let col = data.read().schema.require_column(order_col)?;
        let rows = self.select(table, pred)?;
        Ok(rules::order_and_limit(rows, col, descending, limit))
    }

    /// Equi-join of two pre-filtered tables; NULL keys never join.
    /// Identical plan to the 2PL engine (hash join over the filtered
    /// sides) minus the table locks.
    pub fn join(
        &self,
        left: &str,
        left_col: &str,
        left_pred: &Predicate,
        right: &str,
        right_col: &str,
        right_pred: &Predicate,
    ) -> Result<Vec<(Row, Row)>> {
        let ldata = self.entry(left)?;
        let rdata = self.entry(right)?;
        let lcol = ldata.read().schema.require_column(left_col)?;
        let rcol = rdata.read().schema.require_column(right_col)?;
        let lrows = self.select(left, left_pred)?;
        let rrows = self.select(right, right_pred)?;
        Ok(rules::hash_join(&lrows, lcol, &rrows, rcol))
    }

    /// Sum an integer column over matching rows (NULLs contribute 0).
    pub fn sum_int(&self, table: &str, pred: &Predicate, col: &str) -> Result<i64> {
        let ci = self.entry(table)?.read().schema.require_column(col)?;
        let mut sum = 0i64;
        self.scan(table, pred, ci + 1, |_, seen, scratch| {
            sum += match seen {
                Seen::Local(r) => r[ci].as_int().unwrap_or(0),
                Seen::Stored(bytes) => {
                    let f = scratch.field(ci);
                    if f.tag == TAG_INT {
                        i64::from_le_bytes(bytes[f.start..f.end].try_into().expect("8-byte"))
                    } else {
                        0
                    }
                }
            };
            Ok(())
        })?;
        Ok(sum)
    }

    /// Count rows matching `pred` without copying them.
    pub fn count(&self, table: &str, pred: &Predicate) -> Result<usize> {
        let mut n = 0usize;
        let examined = self.scan(table, pred, 0, |_, _, _| {
            n += 1;
            Ok(())
        })?;
        self.db.txn_metrics.count_rows_examined.add(examined as u64);
        Ok(n)
    }

    /// Commit: [`MvccTxn::prepare`], force the commit record
    /// (write-ahead rule: durable before the versions publish), then
    /// [`MvccTxn::publish`]. Read-only transactions commit without
    /// touching the fence, the clock, or the log.
    pub fn commit(self) -> Result<()> {
        let prepared = self.prepare()?;
        if let Err(e) = prepared.log_commit(self.id) {
            self.abort(prepared);
            return Err(e);
        }
        self.publish(prepared);
        Ok(())
    }

    /// First half of commit: take the commit fence, validate
    /// first-committer-wins, and append the buffered ops to the WAL
    /// with no commit record. The fence stays held until
    /// [`MvccTxn::publish`] or [`MvccTxn::abort`], so no other commit
    /// of this engine can log or publish in between. A transaction that
    /// fails here is rolled back.
    pub fn prepare(&self) -> Result<Prepared<'_>> {
        let has_writes = {
            let st = self.state.lock();
            if st.closed {
                return Err(Error::TxnClosed);
            }
            !st.log.is_empty()
        };
        if !has_writes {
            return Ok(Prepared::default());
        }
        let fence = self.db.commit_lock.lock();
        if let Err(e) = self.validate() {
            drop(fence);
            self.db.write_conflicts.inc();
            self.rollback_inner();
            return Err(e);
        }
        let sink = self.db.sink();
        if let Some(sink) = &sink {
            if let Err(e) = self.append_to_wal(sink) {
                // Still under the fence: the abort lands before any
                // later committer's records.
                self.rollback_inner();
                return Err(e);
            }
        }
        Ok(Prepared {
            sink,
            fence: Some(fence),
        })
    }

    /// Second half of commit, once the commit record is durable:
    /// install the new versions at a fresh commit timestamp, then drop
    /// the fence.
    pub fn publish(&self, prepared: Prepared<'_>) {
        if prepared.fence.is_none() {
            self.close_and_release();
            self.note_commit();
            return;
        }
        // Install at `clock + 1` first and publish the clock after: a
        // snapshot taken mid-install must not cover versions that are
        // not there yet (it would read the old rows and still pass
        // first-committer-wins). The fence makes this the only writer
        // of the clock.
        let ts = self.db.clock.load(Ordering::SeqCst) + 1;
        let added = {
            let st = self.state.lock();
            let mut added = 0u64;
            for op in &st.log {
                let data = self.db.entry(op.table()).expect("table existed at op time");
                let mut t = data.write();
                match op {
                    LoggedOp::Insert { id, after, .. } => t.apply_insert(*id, after, ts),
                    LoggedOp::Update { id, after, .. } => t
                        .apply_update(*id, after, ts)
                        .expect("validated write set present"),
                    LoggedOp::Delete { id, .. } => {
                        t.apply_delete(*id, ts)
                            .expect("validated write set present");
                    }
                }
                if !matches!(op, LoggedOp::Delete { .. }) {
                    added += 1;
                }
            }
            added
        };
        self.db.clock.store(ts, Ordering::SeqCst);
        self.db.versions.fetch_add(added, Ordering::Relaxed);
        self.close_and_release();
        drop(prepared);
        self.note_commit();
        self.db.publish_versions_gauge();
        if (self.db.commits.fetch_add(1, Ordering::Relaxed) + 1) % GC_EVERY == 0 {
            self.db.gc();
        }
    }

    /// Give up a prepared transaction: roll it back (logging its abort
    /// when its ops reached the log), then drop the fence.
    pub fn abort(&self, prepared: Prepared<'_>) {
        self.rollback_inner();
        drop(prepared);
    }

    /// First-committer-wins validation, under the commit fence:
    /// 1. every pre-existing row in the write set must not have been
    ///    committed to after this transaction's snapshot;
    /// 2. every unique key this transaction publishes must still be
    ///    free in the latest-committed state (a concurrent committer
    ///    may have claimed it after the op-time check passed).
    fn validate(&self) -> Result<()> {
        let st = self.state.lock();
        for op in &st.log {
            let (table, id) = match op {
                LoggedOp::Insert { .. } => continue,
                LoggedOp::Update { table, id, .. } | LoggedOp::Delete { table, id, .. } => {
                    (table.as_str(), *id)
                }
            };
            let data = self.db.entry(table)?;
            let conflicted = data
                .read()
                .chains
                .get(&id)
                .is_some_and(|c| c.last_write > self.snap);
            if conflicted {
                return Err(Error::WriteConflict {
                    table: table.to_owned(),
                    row: id,
                });
            }
        }
        for (table, local) in &st.local {
            let data = self.db.entry(table)?;
            let t = data.read();
            for (id, lr) in local {
                let LocalRow::Put(row) = lr else { continue };
                for (i, ix) in t.indexes.iter().enumerate() {
                    if !ix.is_unique() {
                        continue;
                    }
                    let key = ix.key_of(row);
                    if key.has_null() {
                        continue;
                    }
                    let clash = t.committed_holder(i, &key, Some(*id), |cid| local.get(&cid))?;
                    if clash {
                        return Err(Error::WriteConflict {
                            table: table.clone(),
                            row: *id,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Append the buffered ops, without the commit record. Called under
    /// the commit fence, so this transaction's records land
    /// contiguously.
    fn append_to_wal(&self, sink: &Arc<dyn WalSink>) -> Result<()> {
        let mut st = self.state.lock();
        st.logged = true;
        for op in &st.log {
            let view = match op {
                LoggedOp::Insert { table, id, after } => RowOp::Insert {
                    table,
                    id: *id,
                    after,
                },
                LoggedOp::Update {
                    table,
                    id,
                    before,
                    after,
                } => RowOp::Update {
                    table,
                    id: *id,
                    before,
                    after,
                },
                LoggedOp::Delete { table, id, before } => RowOp::Delete {
                    table,
                    id: *id,
                    before,
                },
            };
            sink.on_op(self.id, view)?;
        }
        Ok(())
    }

    fn close_and_release(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        st.local.clear();
        st.log.clear();
        drop(st);
        self.db.release_snapshot(self.snap);
    }

    /// Roll back explicitly (dropping the handle does the same):
    /// buffered writes are simply discarded — nothing reached the
    /// version store, and the WAL only if `prepare` logged them.
    pub fn rollback(self) {
        self.rollback_inner();
    }

    fn rollback_inner(&self) {
        let logged = {
            let st = self.state.lock();
            if st.closed {
                return;
            }
            st.logged
        };
        if let Some(sink) = logged.then(|| self.db.sink()).flatten() {
            sink.on_abort(self.id);
        }
        self.close_and_release();
        let m = &self.db.txn_metrics;
        m.aborts.inc();
        m.abort_us.observe(self.born.elapsed().as_micros() as u64);
    }

    fn note_commit(&self) {
        let m = &self.db.txn_metrics;
        m.commits.inc();
        m.commit_us.observe(self.born.elapsed().as_micros() as u64);
    }
}

impl Drop for MvccTxn {
    fn drop(&mut self) {
        self.rollback_inner();
    }
}

impl LoggedOp {
    fn table(&self) -> &str {
        match self {
            LoggedOp::Insert { table, .. }
            | LoggedOp::Update { table, .. }
            | LoggedOp::Delete { table, .. } => table,
        }
    }
}

/// A transaction's effective view of `t`: the versions visible at
/// `snap`, overlaid with its own puts (`local`) minus its deletes — the
/// one walk under `select`, `select_with`, `count`, `sum_int` and
/// `find_referencing`, always in id order. Given `ids` (a plan's
/// candidates, reordered here), visits those and the local puts, each
/// once; else every row. Returns rows examined: every candidate, or
/// every row a full walk visits.
fn effective_view<'a>(
    t: &'a MvccTable,
    local: &'a Local,
    snap: u64,
    ids: Option<&mut Vec<RowId>>,
    mut f: impl FnMut(RowId, Seen<'a>) -> Result<()>,
) -> Result<usize> {
    let seen = move |id: &RowId| match local.get(id) {
        Some(LocalRow::Deleted) => None,
        Some(LocalRow::Put(r)) => Some(Seen::Local(r)),
        None => t
            .chains
            .get(id)?
            .visible(snap)
            .map(|v| Seen::Stored(&v.bytes)),
    };
    let Some(ids) = ids else {
        // Stored rows, then the rows only this transaction inserted: in
        // id order, since ids are allocated in order and a row another
        // transaction got a higher id for committed after this one's
        // snapshot, so it is not seen.
        let mut examined = 0;
        let inserted = local.keys().filter(|id| !t.chains.contains_key(id));
        for id in t.chains.keys().chain(inserted) {
            if let Some(row) = seen(id) {
                examined += 1;
                f(*id, row)?;
            }
        }
        return Ok(examined);
    };
    ids.extend(
        local
            .iter()
            .filter_map(|(id, lr)| matches!(lr, LocalRow::Put(_)).then_some(*id)),
    );
    ids.sort_unstable();
    ids.dedup();
    for id in ids.iter() {
        if let Some(row) = seen(id) {
            f(*id, row)?;
        }
    }
    Ok(ids.len())
}

/// One row of a transaction's effective view.
#[derive(Clone, Copy)]
enum Seen<'a> {
    /// Written by the transaction itself (its buffered image).
    Local(&'a Row),
    /// The committed version visible at the snapshot, still encoded.
    Stored(&'a [u8]),
}

impl<'a> Seen<'a> {
    fn matches(self, compiled: &Compiled, scratch: &mut RowScratch) -> Result<bool> {
        match self {
            Seen::Local(r) => Ok(compiled.eval(r)),
            Seen::Stored(bytes) => compiled.matches_raw(bytes, scratch),
        }
    }

    fn to_row(self) -> Result<Row> {
        match self {
            Seen::Local(r) => Ok(r.clone()),
            Seen::Stored(bytes) => page::decode_row(bytes),
        }
    }

    /// The row as a view; a stored image must have been walked into
    /// `scratch`.
    fn view(self, scratch: &'a RowScratch) -> RowRef<'a> {
        match self {
            Seen::Local(r) => RowRef::decoded(r),
            Seen::Stored(bytes) => scratch.view(bytes),
        }
    }
}

/// The MVCC engine's side of the foreign-key rules: every answer comes
/// from the transaction's effective view, no locks taken.
impl RuleTxn for MvccTxn {
    fn referrers_of(&self, table: &str) -> Vec<(String, ForeignKey)> {
        self.db
            .referrers
            .read()
            .get(table)
            .cloned()
            .unwrap_or_default()
    }

    fn check_forward_fks(&self, table: &str, fks: &[ForeignKey], row: &[Value]) -> Result<()> {
        for fk in fks {
            let data = self.entry(table)?;
            let cols = data.read().schema.resolve_columns(&fk.columns)?;
            let key = Key::from_row(row, &cols);
            if key.has_null() {
                continue; // NULL FKs reference nothing
            }
            let rdata = self.entry(&fk.ref_table)?;
            let rt = rdata.read();
            let (i, lookup) = rules::fk_target(&rt.schema, &rt.indexes, &fk.ref_columns, &key)?;
            let ix = &rt.indexes[i];
            // In place under the txn-state mutex, as in `check_unique`.
            let st = self.state.lock();
            let local = st.local.get(&fk.ref_table).unwrap_or(&UNWRITTEN);
            let committed_hit = rt.committed_holder(i, &lookup, None, |cid| local.get(&cid))?;
            // As in `check_unique`: local Puts cover both fresh inserts
            // and committed rows re-keyed into the looked-up key.
            let local_hit = local
                .values()
                .any(|lr| matches!(lr, LocalRow::Put(r) if ix.row_holds(r, &lookup)));
            drop(st);
            if !committed_hit && !local_hit {
                return Err(Error::ForeignKeyViolation {
                    table: table.to_owned(),
                    references: fk.ref_table.clone(),
                });
            }
        }
        Ok(())
    }

    fn find_referencing(&self, rtable: &str, fk: &ForeignKey, key: &Key) -> Result<Vec<RowId>> {
        let rdata = self.entry(rtable)?;
        let rt = rdata.read();
        let pred = rules::key_predicate(&fk.columns, key);
        let compiled = pred.compile(&rt.schema)?;
        let mut st = self.state.lock();
        let MvccTxnState { local, bufs, .. } = &mut *st;
        let local = local.get(rtable).unwrap_or(&UNWRITTEN);
        let ScanBufs { ids, scratch } = bufs;
        let planned = rules::plan(&rt.schema, &rt.indexes, &pred).candidates(&rt.indexes, ids);
        let mut hits = Vec::new();
        effective_view(&rt, local, self.snap, planned.then_some(ids), |id, seen| {
            if seen.matches(&compiled, scratch)? {
                hits.push(id);
            }
            Ok(())
        })?;
        Ok(hits)
    }

    fn delete(&self, table: &str, id: RowId) -> Result<()> {
        MvccTxn::delete(self, table, id)
    }

    fn update_cols(&self, table: &str, id: RowId, cols: &[(&str, Value)]) -> Result<()> {
        MvccTxn::update_cols(self, table, id, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FkAction;
    use crate::value::ColumnType;

    /// `t(id, grp)` with a non-unique index on `grp`, rows `0..n` in
    /// groups of `i % 10`.
    fn grouped(n: i64) -> (MvccDb, Vec<RowId>) {
        let db = MvccDb::new();
        db.create_table(
            TableSchema::builder("t")
                .column("id", ColumnType::Int)
                .column("grp", ColumnType::Int)
                .primary_key(&["id"])
                .index("by_grp", &["grp"], false)
                .build()
                .unwrap(),
        )
        .unwrap();
        let t = db.begin();
        let ids = (0..n)
            .map(|i| {
                t.insert("t", vec![Value::Int(i), Value::Int(i % 10)])
                    .unwrap()
            })
            .collect();
        t.commit().unwrap();
        (db, ids)
    }

    fn filed(db: &MvccDb, ix: usize) -> Vec<RowId> {
        let data = db.inner.entry("t").unwrap();
        let t = data.read();
        t.indexes[ix].scan_first_column(None, None)
    }

    #[test]
    fn indexed_select_examines_exactly_its_candidates() {
        let (db, ids) = grouped(100);
        // A reader pins the old versions, so the ten rows moved from
        // group 3 to group 4 stay filed under both keys.
        let reader = db.begin();
        for i in (3..100).step_by(10) {
            let w = db.begin();
            w.update("t", ids[i], vec![Value::Int(i as i64), Value::Int(4)])
                .unwrap();
            w.commit().unwrap();
        }
        let examined = || db.metrics().counter("relstore.select.rows_examined");
        let candidates = |grp: i64| {
            let data = db.inner.entry("t").unwrap();
            let n = data.read().indexes[1]
                .get(&Key::from(Value::Int(grp)))
                .len();
            n as u64
        };
        assert_eq!((candidates(3), candidates(4)), (10, 20));

        let t = db.begin();
        let before = examined();
        assert_eq!(
            t.select("t", &Predicate::eq("grp", 4i64)).unwrap().len(),
            20
        );
        assert_eq!(examined() - before, candidates(4));
        let before = examined();
        assert!(t
            .select("t", &Predicate::eq("grp", 3i64))
            .unwrap()
            .is_empty());
        assert_eq!(examined() - before, candidates(3));
        t.commit().unwrap();

        // The reader's snapshot still sees the rows under their old key.
        let before = examined();
        assert_eq!(
            reader
                .select("t", &Predicate::eq("grp", 3i64))
                .unwrap()
                .len(),
            10
        );
        assert_eq!(examined() - before, candidates(3));
        // Its own puts are candidates too, each once.
        reader
            .update("t", ids[5], vec![Value::Int(5), Value::Int(3)])
            .unwrap();
        let before = examined();
        assert_eq!(
            reader
                .select("t", &Predicate::eq("grp", 3i64))
                .unwrap()
                .len(),
            11
        );
        assert_eq!(examined() - before, candidates(3) + 1);
        reader.rollback();
    }

    #[test]
    fn gc_leaves_one_index_entry_per_live_row() {
        let (db, ids) = grouped(50);
        let reader = db.begin();
        for round in 1..=4i64 {
            for (i, &id) in ids.iter().enumerate() {
                let i = i as i64;
                let w = db.begin();
                match (i + round) % 7 {
                    // Deleted rows stay deleted in later rounds.
                    0 if round == 1 => w.delete("t", id).unwrap(),
                    _ if round > 1 && (i + 1) % 7 == 0 => continue,
                    // Re-key the primary key as well as the group.
                    1 => w
                        .update(
                            "t",
                            id,
                            vec![Value::Int(i + 100 * round), Value::Int(round)],
                        )
                        .unwrap(),
                    _ => w
                        .update_cols("t", id, &[("grp", Value::Int(i * round % 10))])
                        .unwrap(),
                }
                w.commit().unwrap();
            }
        }
        assert!(filed(&db, 1).len() > db.row_count("t").unwrap());
        reader.commit().unwrap();
        db.gc();
        let live = db.row_count("t").unwrap();
        assert_eq!(live, 43);
        let data = db.inner.entry("t").unwrap();
        let t = data.read();
        for ix in &t.indexes {
            let mut entries = ix.scan_first_column(None, None);
            assert_eq!(entries.len(), live, "{}", ix.name());
            entries.sort_unstable();
            entries.dedup();
            assert_eq!(entries.len(), live, "{}: one entry per row", ix.name());
            for id in entries {
                let row = page::decode_row(&t.chains[&id].live().unwrap().bytes).unwrap();
                assert_eq!(
                    ix.get(&ix.key_of(&row))
                        .iter()
                        .filter(|&&r| r == id)
                        .count(),
                    1
                );
            }
        }
    }

    /// Restore checks every foreign key with one planned probe, so
    /// restoring twice the rows takes about twice as long, not four
    /// times (each check used to walk the whole referenced table).
    #[test]
    fn restore_is_linear_in_rows() {
        fn snapshot(n: i64) -> Snapshot {
            let db = MvccDb::new();
            db.create_table(
                TableSchema::builder("parent")
                    .column("id", ColumnType::Int)
                    .primary_key(&["id"])
                    .build()
                    .unwrap(),
            )
            .unwrap();
            db.create_table(
                TableSchema::builder("child")
                    .column("id", ColumnType::Int)
                    .column("parent", ColumnType::Int)
                    .primary_key(&["id"])
                    .foreign_key(&["parent"], "parent", &["id"], FkAction::Cascade)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            for i in 0..n {
                let t = db.begin();
                t.insert("parent", vec![Value::Int(i)]).unwrap();
                t.insert("child", vec![Value::Int(i), Value::Int(i)])
                    .unwrap();
                t.commit().unwrap();
            }
            db.snapshot().unwrap()
        }
        let (small, large) = (snapshot(2_000), snapshot(4_000));
        // Exactly: each child's foreign key probes one parent row.
        let examined = |snap: &Snapshot| {
            let db = MvccDb::restore(snap).unwrap();
            db.metrics().counter("relstore.count.rows_examined")
        };
        assert_eq!((examined(&small), examined(&large)), (2_000, 4_000));
        // By the restoring thread's own run time, so a test thread that
        // shares the core cannot make the larger restore look slow; the
        // n and 2n samples alternate, so a slow stretch of the host
        // (a build beside the tests) lands on both sizes, and the
        // minimum of each is kept.
        let time = |snap: &Snapshot| obs::time_on_cpu(|| MvccDb::restore(snap).unwrap()).1;
        let (mut t1, mut t2) = (time(&small), time(&large));
        for _ in 1..7 {
            t1 = t1.min(time(&small));
            t2 = t2.min(time(&large));
        }
        assert!(
            t2 < t1 * 3,
            "restore of 2n rows took {t2:?}, of n rows {t1:?}"
        );
    }
}
