//! The routing layer: engine-level operations over hash-partitioned
//! tables, with single-engine semantics preserved *exactly*.
//!
//! A [`Router`] owns one [`AnyEngine`] per shard plus the directories
//! that make the partitioned whole look like one engine:
//!
//! * a **global row-id directory** — callers see global [`RowId`]s
//!   (gids) allocated with precisely the single-engine burn semantics
//!   (ids are consumed by successful inserts and by inserts of
//!   rolled-back transactions, never by failed inserts), so the
//!   sharded-vs-unsharded differential can demand `gid == RowId`
//!   equality, byte for byte;
//! * a **homes directory** — for every routed row, the shard its
//!   primary key lives on. [`RoutingSpec::ByParent`] tables consult it
//!   to co-locate children with parents. Entries are *refreshed* by
//!   every insert, move and key-changing update and never eagerly
//!   deleted; a stale entry is harmless because the engine on the
//!   stale shard produces exactly the error (usually a foreign-key
//!   violation) the single engine would, and a key whose entry is
//!   stale has no live parent, hence no children to read.
//!
//! # Co-location invariants
//!
//! Exact parity rests on routing specs that keep every foreign-key
//! edge intra-shard (or targeting a [`RoutingSpec::Global`] table,
//! replicated everywhere):
//!
//! * a table's FK target is either Global, or routed such that the
//!   referencing row hashes to the referenced row's shard (route a
//!   child `ByColumn` over its FK column, or `ByParent` through the
//!   homes directory);
//! * when an update changes a row's routing value the row **moves**
//!   shards, dragging its `ByParent` dependents along; referrers that
//!   are *not* `ByParent`-routed must be unaffected by the move (their
//!   own routing value keeps them co-located, as with the wdoc
//!   schema's `test_record.url → implementation` edge, where both
//!   tables route by `script`);
//! * `ByParent` chains are depth 1: a dragged dependent has no
//!   dependents of its own.
//!
//! The `testkit` schemas used by the differential satisfy all three by
//! construction; [`crate::wdoc`] documents how the paper's tables do.
//!
//! # Reads go where the rows are
//!
//! A select, count or sum whose predicate fixes the routing column by
//! a top-level equality reads one shard. For `ByColumn` that is the
//! value's hash. For `ByParent` it is the parent's home: a child with
//! a non-NULL parent key lives with its parent (its FK held there when
//! it was written, and a move drags it along), so the home holds every
//! match. The home is looked up again after the read; a move that
//! published a new home in between sends the read to every shard.
//! Everything else scatters to all shards and merges gid-ascending.
//!
//! # The directory lock
//!
//! The gid and homes directories sit behind one reader-writer lock.
//! Translating ids and looking up homes share it; reserving a gid, DDL
//! and publishing a commit's directory changes write. A commit that
//! changes the directories (inserts, deletes, moves, key changes)
//! takes the write guard *before* its engine commits and drops it
//! after publishing, so a reader that sees one of its rows waits for
//! the row's gid, and a routed read's second home lookup sees a move
//! that committed under it. A commit that changes nothing there —
//! read-only, or in-place updates — takes no guard at all. The guard
//! is never held across an engine call that can block on a row lock.
//!
//! # Cross-shard checks
//!
//! Two constraint classes cannot be decided by one shard's engine:
//!
//! * **global uniqueness** — a unique index whose key does not
//!   determine the routing shard is *scattered*: after (or, on the
//!   move path, before) the local write, the router probes the other
//!   shards in engine index order and, on a hit, compensates the local
//!   write and reports the [`Error::UniqueViolation`] the single
//!   engine would have reported — including picking the *earliest*
//!   violated index when local and remote conflicts coexist;
//! * **distributed atomicity** — every dirty part of a commit
//!   prepares first, in shard order (it validates, and MVCC takes its
//!   commit fence and logs its ops), before anything is logged as
//!   committed or published. A durable router's shards share one
//!   station log, so a commit touching two or more logged shards is
//!   one joint commit frame naming its parts, flushed once: recovery
//!   finds all of it or none. A commit with at most one dirty shard is
//!   counted by `shard.router.single_shard_commits`, the rest by
//!   `shard.router.cross_shard_commits`.

use crate::map::ShardMap;
use obs::{Counter, Registry};
use relstore::schema::PRIMARY_INDEX;
use relstore::{
    rules, AnyEngine, AnyTxn, DocTxn, EngineKind, Error, ForeignKey, Key, PoolBackend, Predicate,
    Prepared, Result, Row, RowId, TableSchema, Value,
};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use wal::{Wal, WalError, WalOptions};

/// A local row id no real row can have: engine ids start at 1 and
/// count up, so `u64::MAX` is unreachable. Operations on unknown gids
/// are delegated to shard 0 under this id, which makes the engine
/// itself produce the right error *in the right order* (e.g. a
/// malformed row still fails `check_row` before `NoSuchRow`, exactly
/// as on a single engine); the router then rewrites the reported row
/// id back to the caller's gid.
const BOGUS_LID: RowId = RowId(u64::MAX);

/// How a table's rows are placed across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingSpec {
    /// Fully replicated: every shard holds every row, writes apply to
    /// all shards, reads are served by shard 0. For small hub tables
    /// every partition references (the paper's `wdoc_database`).
    Global,
    /// Shard by the hash of the named column's value. Co-location
    /// follows from hashing *values*, not `(table, value)`: a child
    /// routed `ByColumn` over its FK column lands exactly where the
    /// parent routed `ByColumn` over its primary key does.
    ByColumn(String),
    /// Shard where the parent row lives: `col` holds the parent
    /// table's primary-key value and the homes directory maps it to a
    /// shard. When `col` is NULL, or the parent was never seen, fall
    /// back to hashing the `fallback` column (any engine-level error —
    /// e.g. the FK violation for a nonexistent parent — then surfaces
    /// from the fallback shard, identical to the single engine's).
    ByParent {
        /// Column holding the parent's primary-key value.
        col: String,
        /// Parent table (must be registered first, single-column PK).
        parent: String,
        /// Column hashed when `col` gives no placement.
        fallback: String,
    },
}

/// One unique constraint in engine check order.
#[derive(Debug, Clone)]
struct UniqueIx {
    name: String,
    cols: Vec<usize>,
    /// True when the index key determines the routing shard (the key
    /// *contains* the routing column: equal keys then hash to the same
    /// shard), so the local engine's own uniqueness check is already
    /// global and no scatter is needed.
    local: bool,
}

/// Bits in one unique-probe Bloom filter (8 KiB per non-local unique
/// index). Saturation only degrades skips back to full scatters —
/// correctness never depends on the filter being roomy.
const BLOOM_BITS: usize = 1 << 16;

/// A Bloom filter over the keys of one non-local unique index.
///
/// Fed on every *attempted* insert/update/move — before the engine
/// write, so a concurrent writer of the same key can never probe the
/// filter between our write and our feed and wrongly skip its scatter.
/// Keys are never removed: phantoms from rollbacks and deletes are
/// safe (a false positive costs one redundant scatter), and definite
/// absence means no shard can hold the key, so the probe is skipped.
#[derive(Debug, Clone)]
struct Bloom {
    words: Vec<u64>,
}

impl Bloom {
    fn new() -> Self {
        Bloom {
            words: vec![0; BLOOM_BITS / 64],
        }
    }

    /// Two bit positions per key: the key hash and a remix of it.
    fn slots(h: u64) -> [usize; 2] {
        let h2 = crate::map::hash_bytes(&h.to_le_bytes());
        [(h as usize) % BLOOM_BITS, (h2 as usize) % BLOOM_BITS]
    }

    fn add(&mut self, h: u64) {
        for s in Self::slots(h) {
            self.words[s / 64] |= 1 << (s % 64);
        }
    }

    fn may_contain(&self, h: u64) -> bool {
        Self::slots(h)
            .iter()
            .all(|&s| self.words[s / 64] & (1 << (s % 64)) != 0)
    }
}

/// Canonical hash of one unique-index key (length-framed so adjacent
/// values cannot alias).
fn unique_key_hash(vals: &[Value]) -> u64 {
    let mut buf = Vec::new();
    for v in vals {
        let b = value_bytes(v);
        buf.extend_from_slice(&u32::try_from(b.len()).unwrap_or(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&b);
    }
    crate::map::hash_bytes(&buf)
}

/// Everything the router caches about one table.
#[derive(Debug, Clone)]
pub struct TableRoute {
    /// The schema, as registered on every shard.
    pub schema: TableSchema,
    /// Placement rule.
    pub spec: RoutingSpec,
    /// Unique indexes in the engine's check order (`__primary` first,
    /// then declared indexes in declaration order).
    uniques: Vec<UniqueIx>,
    /// Primary-key column positions (homes directory key).
    pk_cols: Vec<usize>,
}

/// Committed directory state for one table.
#[derive(Debug)]
struct TableDir {
    /// Next gid to hand out; mirrors the single engine's `next_row`.
    next_gid: u64,
    /// gid → (shard, local id).
    fwd: BTreeMap<u64, (usize, RowId)>,
    /// (shard, local id) → gid.
    rev: BTreeMap<(usize, u64), u64>,
    /// primary key → shard that last hosted it (never eagerly pruned;
    /// see the module docs on stale safety).
    homes: BTreeMap<Key, usize>,
}

impl Default for TableDir {
    fn default() -> Self {
        TableDir {
            next_gid: 1,
            fwd: BTreeMap::new(),
            rev: BTreeMap::new(),
            homes: BTreeMap::new(),
        }
    }
}

impl TableDir {
    fn new() -> Self {
        TableDir::default()
    }
}

/// Handles on the router's `shard.router.*` counters.
struct RouterCounters {
    cross_shard_commits: Counter,
    moves: Counter,
    ops: Counter,
    retries: Counter,
    routed_selects: Counter,
    scatter_batched: Counter,
    scatter_checks: Counter,
    single_shard_commits: Counter,
    single_shard_ops: Counter,
    txns: Counter,
    unique_probe_skips: Counter,
}

impl RouterCounters {
    fn new(metrics: &Registry) -> Self {
        let c = |name: &str| metrics.counter_handle(&format!("shard.router.{name}"));
        RouterCounters {
            cross_shard_commits: c("cross_shard_commits"),
            moves: c("moves"),
            ops: c("ops"),
            retries: c("retries"),
            routed_selects: c("routed_selects"),
            scatter_batched: c("scatter_batched"),
            scatter_checks: c("scatter_checks"),
            single_shard_commits: c("single_shard_commits"),
            single_shard_ops: c("single_shard_ops"),
            txns: c("txns"),
            unique_probe_skips: c("unique_probe_skips"),
        }
    }
}

/// What DDL fixes about the registered tables. Published whole — a
/// registration builds the next value and swaps it in — so a
/// transaction reads the one it picked up without locking.
#[derive(Default, Clone)]
struct Registered {
    routes: BTreeMap<String, Arc<TableRoute>>,
    /// table → referencing (table, FK) pairs, in table-creation order
    /// (mirrors the engine's referrer registry, which fixes the order
    /// reverse-FK checks and cascades observe).
    referrers: BTreeMap<String, Vec<(String, ForeignKey)>>,
}

/// A hash-partitioned database: per-shard engines behind a single
/// engine-shaped interface. See the module docs.
pub struct Router {
    /// One engine per shard, in shard order.
    engines: Vec<AnyEngine>,
    /// The station log every shard's engine writes, when durable.
    wal: Option<Arc<Wal>>,
    map: ShardMap,
    registered: Mutex<Arc<Registered>>,
    /// Gid and homes directories. Readers share it; only gid
    /// allocation, publish and DDL write (see the module docs).
    dirs: RwLock<BTreeMap<String, TableDir>>,
    /// table → one [`Bloom`] per unique index (engine check order;
    /// local indexes keep an unfed filter as a placeholder).
    blooms: Mutex<BTreeMap<String, Vec<Bloom>>>,
    metrics: Registry,
    counters: RouterCounters,
}

impl Router {
    /// In-memory router: one engine of `kind` per shard of `map`, no
    /// log.
    #[must_use]
    pub fn new(kind: EngineKind, map: ShardMap, metrics: Registry) -> Self {
        let engines = (0..map.shards()).map(|_| AnyEngine::new(kind)).collect();
        Self::build(engines, None, map, metrics)
    }

    fn build(
        engines: Vec<AnyEngine>,
        wal: Option<Arc<Wal>>,
        map: ShardMap,
        metrics: Registry,
    ) -> Self {
        Router {
            engines,
            wal,
            map,
            registered: Mutex::default(),
            dirs: RwLock::new(BTreeMap::new()),
            blooms: Mutex::new(BTreeMap::new()),
            counters: RouterCounters::new(&metrics),
            metrics,
        }
    }

    /// Open (or reopen after a crash) a durable router rooted at
    /// `dir`: every shard's engine writes the one station log at
    /// `dir/wal.d`, and recovery splits that log into one stream per
    /// shard ([`wal::recover_shards`]). On a fresh directory every
    /// report is empty.
    ///
    /// Every shard opens with a clone of `opts` (engine kind, segment
    /// size, metrics); a log-backed [`WalOptions::pool`] gets one
    /// subdirectory per shard.
    ///
    /// A directory in the earlier layout, one `shard-<i>.wal.d` log per
    /// shard, is refused with [`WalError::UnsupportedLayout`]; nothing
    /// in it is read, rewritten or deleted.
    ///
    /// The returned router has no tables registered — mount each table
    /// with [`Router::mount_table`], which creates it where missing and
    /// rebuilds the gid and homes directories from the recovered rows.
    pub fn recover(
        map: ShardMap,
        dir: &Path,
        opts: WalOptions,
    ) -> std::result::Result<(Self, Vec<wal::RecoveryReport>), WalError> {
        let old = dir.join("shard-0.wal.d");
        if old.exists() {
            return Err(WalError::UnsupportedLayout { path: old });
        }
        let pools: Vec<_> = (0..map.shards())
            .map(|i| {
                let mut pool = opts.pool.clone();
                if let PoolBackend::Log(pages, _) = &mut pool.backend {
                    pages.push(format!("shard-{i}"));
                }
                pool
            })
            .collect();
        let metrics = opts.metrics.clone();
        let (engines, wal, reports) = wal::open_durable_shards(&dir.join("wal.d"), opts, &pools)?;
        Ok((Self::build(engines, Some(wal), map, metrics), reports))
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.engines.len()
    }

    /// Shard `s`'s engine (tests and benchmarks reach through for
    /// snapshots and per-shard metrics).
    #[must_use]
    pub fn engine(&self, s: usize) -> &AnyEngine {
        &self.engines[s]
    }

    /// Every shard's engine, in shard order.
    #[must_use]
    pub fn engines(&self) -> &[AnyEngine] {
        &self.engines
    }

    /// The station log all shards write, when running durably.
    #[must_use]
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// The shard map.
    #[must_use]
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The router's metric registry (`shard.router.*`).
    #[must_use]
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The tables as registered right now.
    fn registered(&self) -> Arc<Registered> {
        Arc::clone(&self.registered_guard())
    }

    /// The registration slot, through poison: it only ever holds an
    /// `Arc` that is swapped whole, so no panic leaves it half-written.
    fn registered_guard(&self) -> std::sync::MutexGuard<'_, Arc<Registered>> {
        self.registered
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The Bloom filters, through poison: a filter only ever gains
    /// bits, and a stray bit costs one extra scatter probe.
    fn blooms(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Vec<Bloom>>> {
        self.blooms.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The directories, shared for a lookup.
    fn dirs(&self) -> Result<RwLockReadGuard<'_, BTreeMap<String, TableDir>>> {
        self.dirs.read().map_err(|_| poisoned())
    }

    /// The directories, exclusive for a gid allocation or DDL.
    fn dirs_mut(&self) -> Result<RwLockWriteGuard<'_, BTreeMap<String, TableDir>>> {
        self.dirs.write().map_err(|_| poisoned())
    }

    /// The registered route for `table`, if any.
    #[must_use]
    pub fn route_of(&self, table: &str) -> Option<Arc<TableRoute>> {
        self.registered().routes.get(table).cloned()
    }

    /// Validate `spec` against `schema` and the registered parents.
    fn check_spec(&self, schema: &TableSchema, spec: &RoutingSpec) -> Result<()> {
        match spec {
            RoutingSpec::Global => {}
            RoutingSpec::ByColumn(col) => {
                schema.require_column(col)?;
            }
            RoutingSpec::ByParent {
                col,
                parent,
                fallback,
            } => {
                schema.require_column(col)?;
                schema.require_column(fallback)?;
                let registered = self.registered();
                let proute = registered
                    .routes
                    .get(parent)
                    .ok_or_else(|| Error::NoSuchTable(parent.clone()))?;
                if proute.schema.primary_key.len() != 1 {
                    return Err(Error::BadSchema(format!(
                        "ByParent parent `{parent}` must have a single-column primary key"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Register the route, referrer entries and Bloom filters for a
    /// table whose schema already exists on every shard.
    fn register_route(&self, schema: TableSchema, spec: RoutingSpec) -> Result<Arc<TableRoute>> {
        let pk_cols = schema.resolve_columns(&schema.primary_key)?;
        let route_col = match &spec {
            RoutingSpec::ByColumn(c) => Some(schema.require_column(c)?),
            _ => None,
        };
        let mut uniques = vec![UniqueIx {
            name: PRIMARY_INDEX.to_owned(),
            cols: pk_cols.clone(),
            local: route_col.is_some_and(|rc| pk_cols.contains(&rc)),
        }];
        for ix in schema.indexes.iter().filter(|ix| ix.unique) {
            let cols = schema.resolve_columns(&ix.columns)?;
            uniques.push(UniqueIx {
                name: ix.name.clone(),
                local: route_col.is_some_and(|rc| cols.contains(&rc)),
                cols,
            });
        }
        self.blooms()
            .insert(schema.name.clone(), vec![Bloom::new(); uniques.len()]);
        let route = Arc::new(TableRoute {
            schema,
            spec,
            uniques,
            pk_cols,
        });
        let mut registered = self.registered_guard();
        let mut next = Registered::clone(&registered);
        for fk in &route.schema.foreign_keys {
            next.referrers
                .entry(fk.ref_table.clone())
                .or_default()
                .push((route.schema.name.clone(), fk.clone()));
        }
        next.routes.insert(route.schema.name.clone(), route.clone());
        *registered = Arc::new(next);
        Ok(route)
    }

    /// Atomically probe-then-feed `row`'s non-local unique keys.
    /// Returns, per unique index, whether the key was *definitely
    /// absent* from the whole cluster before this call — the caller may
    /// then skip its scatter probe for that index. Probing and feeding
    /// under one lock hold means at most one in-flight writer is ever
    /// told "absent" for a given key; every later writer (even one
    /// racing before the first's engine write lands) sees the feed and
    /// scatters. Local and NULL keys are never fed and never skippable.
    fn bloom_check_add(&self, route: &TableRoute, row: &[Value]) -> Vec<bool> {
        let mut fresh = vec![false; route.uniques.len()];
        if row.len() != route.schema.columns.len() {
            return fresh; // malformed row: let the engine report it
        }
        let mut blooms = self.blooms();
        let Some(filters) = blooms.get_mut(&route.schema.name) else {
            return fresh;
        };
        for (i, ix) in route.uniques.iter().enumerate() {
            if ix.local {
                continue;
            }
            let vals: Vec<Value> = ix.cols.iter().map(|&c| row[c].clone()).collect();
            if vals.iter().any(Value::is_null) {
                continue;
            }
            let h = unique_key_hash(&vals);
            fresh[i] = !filters[i].may_contain(h);
            filters[i].add(h);
        }
        fresh
    }

    /// Create `schema` on every shard and register its placement.
    ///
    /// `ByParent` parents must be registered first and have a
    /// single-column primary key; spec columns must exist.
    pub fn create_table(&self, schema: TableSchema, spec: RoutingSpec) -> Result<()> {
        self.check_spec(&schema, &spec)?;
        for engine in &self.engines {
            engine.create_table(schema.clone())?;
        }
        self.dirs_mut()?
            .insert(schema.name.clone(), TableDir::new());
        self.register_route(schema, spec)?;
        Ok(())
    }

    /// Create-or-adopt `schema` on every shard and register its
    /// placement, rebuilding the router's directories from whatever
    /// rows already exist — the reopen path for durable routers, where
    /// each shard's engine was recovered from its WAL but the gid and
    /// homes directories (memory-only) were lost. Shards missing the
    /// table get it created (a crash can tear the initial DDL between
    /// shards), so mounting on a fresh router is exactly
    /// [`Router::create_table`].
    ///
    /// Rebuilt gid numbering is deterministic — live rows sorted by
    /// (local id, shard) — but not insert-ordered; callers that compare
    /// gids across routers must mount both sides the same way.
    pub fn mount_table(&self, schema: TableSchema, spec: RoutingSpec) -> Result<()> {
        self.check_spec(&schema, &spec)?;
        for engine in &self.engines {
            match engine.schema_of(&schema.name) {
                Ok(_) => {}
                Err(Error::NoSuchTable(_)) => engine.create_table(schema.clone())?,
                Err(e) => return Err(e),
            }
        }
        let route = self.register_route(schema, spec)?;
        let table = route.schema.name.clone();
        // Global replicas hold identical rows under identical local
        // ids; reading shard 0 alone rebuilds the shared mapping.
        let read_shards = if route.spec == RoutingSpec::Global {
            1
        } else {
            self.engines.len()
        };
        let mut rows: Vec<(u64, usize, Row)> = Vec::new();
        for (s, engine) in self.engines.iter().enumerate().take(read_shards) {
            for (lid, row) in engine.with_txn(|t| t.select(&table, &Predicate::True))? {
                rows.push((lid.0, s, row));
            }
        }
        rows.sort_by_key(|r| (r.0, r.1));
        let mut dir = TableDir::new();
        for (lid, s, row) in &rows {
            let gid = dir.next_gid;
            dir.next_gid += 1;
            dir.fwd.insert(gid, (*s, RowId(*lid)));
            dir.rev.insert((*s, *lid), gid);
            dir.homes.insert(Key::from_row(row, &route.pk_cols), *s);
            self.bloom_check_add(&route, row);
        }
        self.dirs_mut()?.insert(table, dir);
        Ok(())
    }

    /// Approximate payload bytes of `table`'s live rows: summed across
    /// shards for routed tables, shard 0 alone for Global tables
    /// (every replica holds the same rows; counting one keeps storage
    /// accounting identical at every shard count).
    pub fn heap_bytes(&self, table: &str) -> Result<usize> {
        let route = self
            .route_of(table)
            .ok_or_else(|| Error::NoSuchTable(table.to_owned()))?;
        if route.spec == RoutingSpec::Global {
            return self.engines[0].heap_bytes(table);
        }
        let mut total = 0;
        for engine in &self.engines {
            total += engine.heap_bytes(table)?;
        }
        Ok(total)
    }

    /// Begin a distributed transaction. Per-shard engine transactions
    /// open lazily on first touch.
    #[must_use]
    pub fn begin(&self) -> DistTxn<'_> {
        self.counters.txns.inc();
        DistTxn {
            router: self,
            registered: OnceCell::new(),
            txns: (0..self.engines.len()).map(|_| OnceCell::new()).collect(),
            dirty: (0..self.engines.len()).map(|_| Cell::new(false)).collect(),
            overlay: RefCell::new(BTreeMap::new()),
        }
    }

    /// Make the prepared parts `logged` — `(shard, txn)`, shards
    /// ascending — durable together: one joint commit frame in the
    /// station log, flushed once.
    fn log_commit(&self, logged: &[(usize, u64)]) -> Result<()> {
        match (logged, &self.wal) {
            ([], _) => Ok(()),
            (_, Some(wal)) => Ok(wal.commit_parts(logged)?),
            (_, None) => Err(Error::Unsupported(
                "a router without a station log has no commit to write".to_owned(),
            )),
        }
    }

    /// Run `f` in a distributed transaction, committing on success and
    /// retrying on the engines' transient aborts — the distributed
    /// mirror of [`AnyEngine::with_txn`].
    pub fn with_txn<T>(&self, f: impl Fn(&DistTxn<'_>) -> Result<T>) -> Result<T> {
        loop {
            let txn = self.begin();
            match f(&txn).and_then(|v| txn.commit().map(|()| v)) {
                Ok(v) => return Ok(v),
                Err(Error::TxnAborted { .. } | Error::WriteConflict { .. }) => {
                    self.counters.retries.inc();
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Canonical bytes of a value for routing. Tagged so e.g. `Int(1)` and
/// `Text("1")` cannot collide; *not* tagged with the table, so a child
/// hashing its FK column lands with its parent hashing its key column.
fn value_bytes(v: &Value) -> Vec<u8> {
    match v {
        Value::Null => b"n".to_vec(),
        Value::Bool(x) => vec![b'o', u8::from(*x)],
        Value::Int(i) => {
            let mut b = vec![b'i'];
            b.extend_from_slice(&i.to_le_bytes());
            b
        }
        Value::Float(f) => {
            let mut b = vec![b'f'];
            b.extend_from_slice(&f.to_bits().to_le_bytes());
            b
        }
        Value::Text(s) => {
            let mut b = vec![b't'];
            b.extend_from_slice(s.as_bytes());
            b
        }
        Value::Bytes(x) => {
            let mut b = vec![b'b'];
            b.extend_from_slice(x);
            b
        }
        Value::Timestamp(t) => {
            let mut b = vec![b's'];
            b.extend_from_slice(&t.to_le_bytes());
            b
        }
    }
}

/// The shard a routing value hashes to.
fn shard_of_value(map: &ShardMap, v: &Value) -> usize {
    map.shard_of(&value_bytes(v))
}

/// Conjunction of `column = value` over the given columns.
fn eq_pred(schema: &TableSchema, cols: &[usize], vals: &[Value]) -> Predicate {
    let mut pred: Option<Predicate> = None;
    for (&c, v) in cols.iter().zip(vals) {
        let e = Predicate::Eq(schema.columns[c].name.clone(), v.clone());
        pred = Some(match pred {
            None => e,
            Some(p) => p.and(e),
        });
    }
    pred.unwrap_or(Predicate::True)
}

/// Rewrite an engine-reported `NoSuchRow` on `table` to carry the
/// caller's gid instead of the shard-local row id.
fn regid(table: &str, gid: u64, e: Error) -> Error {
    match e {
        Error::NoSuchRow { table: t, .. } if t == table => Error::NoSuchRow {
            table: t,
            row: RowId(gid),
        },
        other => other,
    }
}

/// The error for a directory lock a panicking writer left poisoned.
fn poisoned() -> Error {
    Error::Unsupported("router directory lock poisoned by a panicked writer".to_owned())
}

/// The error for a shard row the directory cannot name. A reader that
/// sees a newly committed row finds its gid: the committer holds the
/// directory write guard from before its engine commit until it has
/// published, so the reader's lookup waits for the publish. An MVCC part's
/// snapshot, though, can still show a row that a newer commit deleted
/// or moved away. Retrying at a fresh snapshot is the remedy, so the
/// error is the retryable abort.
fn unowned(table: &str, shard: usize, lid: RowId) -> Error {
    Error::TxnAborted {
        reason: format!(
            "router directory has no gid for `{table}` row {} on shard {shard}",
            lid.0
        ),
    }
}

/// Per-table transaction-local directory changes, merged into the
/// committed [`TableDir`] at commit and simply dropped at rollback
/// (the gids themselves were reserved eagerly in `alloc_gid`, so a
/// rollback burns them — exactly the single engine's id-burn
/// behavior).
#[derive(Debug, Default)]
struct TableOverlay {
    /// gid → new location (inserts and moves).
    added: BTreeMap<u64, (usize, RowId)>,
    /// location → gid for `added`.
    added_rev: BTreeMap<(usize, u64), u64>,
    /// gids deleted by this transaction.
    removed: BTreeSet<u64>,
    /// homes refreshes.
    homes: BTreeMap<Key, usize>,
}

impl TableOverlay {
    /// Whether merging this overlay changes the committed directory.
    fn publishes(&self) -> bool {
        !(self.added.is_empty() && self.removed.is_empty() && self.homes.is_empty())
    }
}

type Overlay = BTreeMap<String, TableOverlay>;

/// Where the scatter uniqueness probe runs, relative to the local
/// engine's own check.
enum ScatterMode {
    /// The engine on `home` already ran its local checks (insert and
    /// in-place update): skip `home` and skip locally-sufficient
    /// indexes.
    AfterLocal { home: usize },
    /// Nothing has been checked yet (move path): probe every shard and
    /// every index, excluding the moving row itself.
    PreCheck { exclude: (usize, RowId) },
}

/// A distributed transaction over a [`Router`]. Mirrors [`AnyTxn`]'s
/// surface; row ids are global. Dropping rolls back (burning the gids
/// this transaction allocated, as the single engine burns row ids of
/// rolled-back inserts).
pub struct DistTxn<'r> {
    router: &'r Router,
    /// The tables as registered when this transaction first looked.
    registered: OnceCell<Arc<Registered>>,
    txns: Vec<OnceCell<AnyTxn>>,
    dirty: Vec<Cell<bool>>,
    overlay: RefCell<Overlay>,
}

impl<'r> DistTxn<'r> {
    fn txn(&self, s: usize) -> &AnyTxn {
        self.txns[s].get_or_init(|| self.router.engines[s].begin())
    }

    fn registered(&self) -> &Registered {
        self.registered.get_or_init(|| self.router.registered())
    }

    fn route(&self, table: &str) -> Result<&TableRoute> {
        self.registered()
            .routes
            .get(table)
            .map(|r| &**r)
            .ok_or_else(|| Error::NoSuchTable(table.to_owned()))
    }

    fn referrers_of(&self, table: &str) -> &[(String, ForeignKey)] {
        self.registered()
            .referrers
            .get(table)
            .map_or(&[], Vec::as_slice)
    }

    /// This transaction's view of gid → location.
    fn to_local(&self, table: &str, gid: u64) -> Result<Option<(usize, RowId)>> {
        let ov = self.overlay.borrow();
        if let Some(t) = ov.get(table) {
            if let Some(&loc) = t.added.get(&gid) {
                return Ok(Some(loc));
            }
            if t.removed.contains(&gid) {
                return Ok(None);
            }
        }
        drop(ov);
        Ok(self
            .router
            .dirs()?
            .get(table)
            .and_then(|d| d.fwd.get(&gid).copied()))
    }

    /// This transaction's gid for a row the router must own.
    fn to_gid(&self, table: &str, shard: usize, lid: RowId) -> Result<u64> {
        let ov = self.overlay.borrow();
        if let Some(t) = ov.get(table) {
            if let Some(&gid) = t.added_rev.get(&(shard, lid.0)) {
                return Ok(gid);
            }
        }
        drop(ov);
        self.router
            .dirs()?
            .get(table)
            .and_then(|d| d.rev.get(&(shard, lid.0)).copied())
            .ok_or_else(|| unowned(table, shard, lid))
    }

    /// This transaction's view of the homes directory.
    fn home_of(&self, table: &str, key: &Key) -> Result<Option<usize>> {
        let ov = self.overlay.borrow();
        if let Some(t) = ov.get(table) {
            if let Some(&s) = t.homes.get(key) {
                return Ok(Some(s));
            }
        }
        drop(ov);
        Ok(self
            .router
            .dirs()?
            .get(table)
            .and_then(|d| d.homes.get(key).copied()))
    }

    /// Target shard for a (valid-enough) row of `table`. Defensive on
    /// malformed rows: routing falls back to shard 0, whose engine
    /// then produces the same validation error a single engine would.
    fn route_row(&self, route: &TableRoute, row: &[Value]) -> Result<usize> {
        Ok(match &route.spec {
            RoutingSpec::Global => 0,
            RoutingSpec::ByColumn(col) => match route.schema.column_index(col) {
                Some(c) if c < row.len() => shard_of_value(&self.router.map, &row[c]),
                _ => 0,
            },
            RoutingSpec::ByParent {
                col,
                parent,
                fallback,
            } => {
                let ci = route.schema.column_index(col);
                let fi = route.schema.column_index(fallback);
                match (ci, fi) {
                    (Some(c), Some(f)) if c < row.len() && f < row.len() => {
                        if row[c].is_null() {
                            shard_of_value(&self.router.map, &row[f])
                        } else {
                            self.home_of(parent, &Key(vec![row[c].clone()]))?
                                .unwrap_or_else(|| shard_of_value(&self.router.map, &row[f]))
                        }
                    }
                    _ => 0,
                }
            }
        })
    }

    /// Record a fresh gid for a row that landed at `loc`, refreshing
    /// the homes directory. Returns the gid.
    fn alloc_gid(&self, route: &TableRoute, row: &[Value], loc: (usize, RowId)) -> Result<u64> {
        let mut ov = self.overlay.borrow_mut();
        let t = ov.entry(route.schema.name.clone()).or_default();
        // Reserve the gid eagerly: `next_gid` advances the moment the
        // insert runs, exactly like the single engine's `next_row`, so
        // a rolled-back transaction burns its ids with no further
        // bookkeeping — and two *concurrent* inserting transactions
        // can never mint the same gid (a lazy commit-time burn would
        // let both read the same base and collide).
        let gid = {
            let mut dirs = self.router.dirs_mut()?;
            let dir = dirs.entry(route.schema.name.clone()).or_default();
            let gid = dir.next_gid;
            dir.next_gid += 1;
            gid
        };
        t.added.insert(gid, loc);
        t.added_rev.insert((loc.0, (loc.1).0), gid);
        t.homes.insert(Key::from_row(row, &route.pk_cols), loc.0);
        Ok(gid)
    }

    /// Move `gid`'s mapping to `loc` and refresh its home.
    fn remap_gid(&self, route: &TableRoute, gid: u64, row: &[Value], loc: (usize, RowId)) {
        let mut ov = self.overlay.borrow_mut();
        let t = ov.entry(route.schema.name.clone()).or_default();
        if let Some(old) = t.added.insert(gid, loc) {
            t.added_rev.remove(&(old.0, (old.1).0));
        }
        t.added_rev.insert((loc.0, (loc.1).0), gid);
        t.removed.remove(&gid);
        t.homes.insert(Key::from_row(row, &route.pk_cols), loc.0);
    }

    /// Mark `gid` deleted.
    fn drop_gid(&self, table: &str, gid: u64) {
        let mut ov = self.overlay.borrow_mut();
        let t = ov.entry(table.to_owned()).or_default();
        if let Some(old) = t.added.remove(&gid) {
            t.added_rev.remove(&(old.0, (old.1).0));
        }
        t.removed.insert(gid);
    }

    /// First unique index of `route` (engine order, positions below
    /// `limit`) whose key for `row` collides on another shard. See
    /// [`ScatterMode`].
    fn scatter_conflict(
        &self,
        table: &str,
        route: &TableRoute,
        row: &[Value],
        mode: &ScatterMode,
        limit: usize,
        fresh: &[bool],
    ) -> Result<Option<usize>> {
        for (i, ix) in route.uniques.iter().enumerate() {
            if i >= limit {
                break;
            }
            if let ScatterMode::AfterLocal { .. } = mode {
                if ix.local {
                    continue;
                }
            }
            let vals: Vec<Value> = ix.cols.iter().map(|&c| row[c].clone()).collect();
            if vals.iter().any(Value::is_null) {
                continue; // NULL keys are unique-exempt, as in SQL
            }
            if fresh.get(i).copied().unwrap_or(false) {
                // The Bloom filter saw every key ever attempted;
                // definite absence means no shard can hold a collision.
                self.router.counters.unique_probe_skips.inc();
                continue;
            }
            let pred = eq_pred(&route.schema, &ix.cols, &vals);
            for s in 0..self.router.shards() {
                let hit = match *mode {
                    ScatterMode::AfterLocal { home } => {
                        if s == home {
                            continue;
                        }
                        self.txn(s).count(table, &pred)? > 0
                    }
                    ScatterMode::PreCheck { exclude: (es, eid) } => {
                        if s == es {
                            self.txn(s)
                                .select(table, &pred)?
                                .iter()
                                .any(|&(id, _)| id != eid)
                        } else {
                            self.txn(s).count(table, &pred)? > 0
                        }
                    }
                };
                self.router.counters.scatter_checks.inc();
                if hit {
                    return Ok(Some(i));
                }
            }
        }
        Ok(None)
    }

    /// Position of `name` in `route.uniques` (engine check order).
    fn unique_pos(route: &TableRoute, name: &str) -> usize {
        route
            .uniques
            .iter()
            .position(|ix| ix.name == name)
            .unwrap_or(usize::MAX)
    }

    /// Insert a row; returns its global id.
    pub fn insert(&self, table: &str, row: Row) -> Result<RowId> {
        self.router.counters.ops.inc();
        let route = self.route(table)?;
        if route.spec == RoutingSpec::Global {
            let lid0 = self.txn(0).insert(table, row.clone())?;
            self.dirty[0].set(true);
            for s in 1..self.router.shards() {
                let lid = self.txn(s).insert(table, row.clone())?;
                self.dirty[s].set(true);
                debug_assert_eq!(lid, lid0, "replicas of a Global table diverged");
            }
            let gid = self.alloc_gid(route, &row, (0, lid0))?;
            return Ok(RowId(gid));
        }
        let target = self.route_row(route, &row)?;
        // Probe-and-feed before the write: a prober racing between our
        // write and a later feed could wrongly see a clean filter.
        let fresh = self.router.bloom_check_add(route, &row);
        let local = self.txn(target).insert(table, row.clone());
        let limit = match &local {
            Ok(_) => usize::MAX,
            Err(Error::UniqueViolation { index, .. }) => Self::unique_pos(route, index),
            Err(_) => return local,
        };
        let remote = self.scatter_conflict(
            table,
            route,
            &row,
            &ScatterMode::AfterLocal { home: target },
            limit,
            &fresh,
        )?;
        match (local, remote) {
            (Ok(lid), None) => {
                self.dirty[target].set(true);
                let gid = self.alloc_gid(route, &row, (target, lid))?;
                self.router.counters.single_shard_ops.inc();
                Ok(RowId(gid))
            }
            (Ok(lid), Some(i)) => {
                // The single engine would have refused before writing:
                // compensate the local insert (the brand-new row has no
                // referrers, so this is a plain delete) and report the
                // earliest violated index.
                self.txn(target).delete(table, lid)?;
                self.dirty[target].set(true);
                Err(Error::UniqueViolation {
                    table: table.to_owned(),
                    index: route.uniques[i].name.clone(),
                })
            }
            (Err(e), None) => Err(e),
            (Err(_), Some(i)) => Err(Error::UniqueViolation {
                table: table.to_owned(),
                index: route.uniques[i].name.clone(),
            }),
        }
    }

    /// Fetch a copy of the row at `gid`.
    pub fn get(&self, table: &str, gid: RowId) -> Result<Row> {
        self.router.counters.ops.inc();
        let route = self.route(table)?;
        let loc = if route.spec == RoutingSpec::Global {
            self.to_local(table, gid.0)?.map(|(_, lid)| (0, lid))
        } else {
            self.to_local(table, gid.0)?
        };
        match loc {
            Some((s, lid)) => self
                .txn(s)
                .get(table, lid)
                .map_err(|e| regid(table, gid.0, e)),
            None => self
                .txn(0)
                .get(table, BOGUS_LID)
                .map_err(|e| regid(table, gid.0, e)),
        }
    }

    /// Replace the entire row at `gid`.
    pub fn update(&self, table: &str, gid: RowId, new_row: Row) -> Result<()> {
        self.router.counters.ops.inc();
        let route = self.route(table)?;
        if route.spec == RoutingSpec::Global {
            let Some((_, lid)) = self.to_local(table, gid.0)? else {
                return self
                    .txn(0)
                    .update(table, BOGUS_LID, new_row)
                    .map_err(|e| regid(table, gid.0, e));
            };
            for s in 0..self.router.shards() {
                self.txn(s).update(table, lid, new_row.clone())?;
                self.dirty[s].set(true);
            }
            let mut ov = self.overlay.borrow_mut();
            ov.entry(table.to_owned())
                .or_default()
                .homes
                .insert(Key::from_row(&new_row, &route.pk_cols), 0);
            return Ok(());
        }
        let Some((shard, lid)) = self.to_local(table, gid.0)? else {
            return self
                .txn(0)
                .update(table, BOGUS_LID, new_row)
                .map_err(|e| regid(table, gid.0, e));
        };
        let target = self.route_row(route, &new_row)?;
        if target == shard {
            return self.update_in_place(table, route, gid.0, shard, lid, new_row);
        }
        self.move_row(table, route, gid.0, shard, lid, new_row, target)
    }

    /// Update whose new routing value keeps the row on its shard: the
    /// local engine does the full single-engine check sequence; only
    /// global uniqueness needs the scatter probe afterwards.
    fn update_in_place(
        &self,
        table: &str,
        route: &TableRoute,
        gid: u64,
        shard: usize,
        lid: RowId,
        new_row: Row,
    ) -> Result<()> {
        let old = self
            .txn(shard)
            .get(table, lid)
            .map_err(|e| regid(table, gid, e))?;
        let fresh = self.router.bloom_check_add(route, &new_row);
        let local = self.txn(shard).update(table, lid, new_row.clone());
        let limit = match &local {
            Ok(()) => usize::MAX,
            Err(Error::UniqueViolation { index, .. }) => Self::unique_pos(route, index),
            Err(_) => return local.map_err(|e| regid(table, gid, e)),
        };
        let remote = self.scatter_conflict(
            table,
            route,
            &new_row,
            &ScatterMode::AfterLocal { home: shard },
            limit,
            &fresh,
        )?;
        match (local, remote) {
            (Ok(()), None) => {
                self.dirty[shard].set(true);
                // The row's key already has this home unless the update
                // changed the key: only a new key has a home to publish.
                let key = Key::from_row(&new_row, &route.pk_cols);
                if key != Key::from_row(&old, &route.pk_cols) {
                    let mut ov = self.overlay.borrow_mut();
                    ov.entry(table.to_owned())
                        .or_default()
                        .homes
                        .insert(key, shard);
                }
                Ok(())
            }
            (Ok(()), Some(i)) => {
                // Undo the applied update; the reverse restore cannot
                // itself violate (the old values just held).
                self.txn(shard).update(table, lid, old)?;
                self.dirty[shard].set(true);
                Err(Error::UniqueViolation {
                    table: table.to_owned(),
                    index: route.uniques[i].name.clone(),
                })
            }
            (Err(e), None) => Err(regid(table, gid, e)),
            (Err(_), Some(i)) => Err(Error::UniqueViolation {
                table: table.to_owned(),
                index: route.uniques[i].name.clone(),
            }),
        }
    }

    /// Update whose new routing value re-homes the row: replicate the
    /// engine's check sequence (`check_row` → forward FKs on changed
    /// columns, probed on the *target* shard → reverse key-change on
    /// the old shard → uniqueness, scattered) *before* mutating, then
    /// delete the row and its `ByParent` dependents from the old shard
    /// and re-insert them on the target, preserving every gid.
    #[allow(clippy::too_many_arguments)]
    fn move_row(
        &self,
        table: &str,
        route: &TableRoute,
        gid: u64,
        shard: usize,
        lid: RowId,
        new_row: Row,
        target: usize,
    ) -> Result<()> {
        self.router.counters.moves.inc();
        route.schema.check_row(&new_row)?;
        let old = self
            .txn(shard)
            .get(table, lid)
            .map_err(|e| regid(table, gid, e))?;
        let changed = rules::changed_columns(&route.schema, &old, &new_row);
        // Forward FKs whose columns changed, existence-checked where
        // the row is headed (its FK targets are co-located there).
        for fk in route
            .schema
            .foreign_keys
            .iter()
            .filter(|fk| fk.columns.iter().any(|c| changed.contains(&c.as_str())))
        {
            let cols = route.schema.resolve_columns(&fk.columns)?;
            let key = Key::from_row(&new_row, &cols);
            if key.has_null() {
                continue;
            }
            let ref_route = self.route(&fk.ref_table)?;
            let ref_cols = ref_route.schema.resolve_columns(&fk.ref_columns)?;
            // Global targets exist on every shard, so probing `target`
            // is right for them too.
            let pred = eq_pred(&ref_route.schema, &ref_cols, &key.0);
            if self.txn(target).count(&fk.ref_table, &pred)? == 0 {
                return Err(Error::ForeignKeyViolation {
                    table: table.to_owned(),
                    references: fk.ref_table.clone(),
                });
            }
        }
        // Reverse FKs: refuse changing a referenced key while rows
        // reference it (they are co-located with the old placement).
        for (rtable, fk) in self.referrers_of(table) {
            if !fk.ref_columns.iter().any(|c| changed.contains(&c.as_str())) {
                continue;
            }
            let ref_cols = route.schema.resolve_columns(&fk.ref_columns)?;
            let key = Key::from_row(&old, &ref_cols);
            if key.has_null() {
                continue;
            }
            let rroute = self.route(rtable)?;
            let rcols = rroute.schema.resolve_columns(&fk.columns)?;
            let pred = eq_pred(&rroute.schema, &rcols, &key.0);
            if self.txn(shard).count(rtable, &pred)? > 0 {
                return Err(Error::RestrictViolation {
                    table: table.to_owned(),
                    referenced_by: rtable.clone(),
                });
            }
        }
        let fresh = self.router.bloom_check_add(route, &new_row);
        if let Some(i) = self.scatter_conflict(
            table,
            route,
            &new_row,
            &ScatterMode::PreCheck {
                exclude: (shard, lid),
            },
            usize::MAX,
            &fresh,
        )? {
            return Err(Error::UniqueViolation {
                table: table.to_owned(),
                index: route.uniques[i].name.clone(),
            });
        }
        // All checks passed — the single engine would have applied the
        // update. Mutate: drag dependents, then the row itself.
        let old_pk = Key::from_row(&old, &route.pk_cols);
        let mut drags: Vec<(String, u64, Row)> = Vec::new();
        if old_pk.0.len() == 1 {
            for (dname, droute) in &self.registered().routes {
                let RoutingSpec::ByParent { col, parent, .. } = &droute.spec else {
                    continue;
                };
                if parent != table {
                    continue;
                }
                let ci = droute.schema.require_column(col)?;
                let pred = eq_pred(&droute.schema, &[ci], &old_pk.0);
                for (dlid, drow) in self.txn(shard).select(dname, &pred)? {
                    let dgid = self.to_gid(dname, shard, dlid)?;
                    self.txn(shard).delete(dname, dlid)?;
                    drags.push((dname.clone(), dgid, drow));
                }
            }
        }
        self.txn(shard).delete(table, lid)?;
        let new_lid = self.txn(target).insert(table, new_row.clone())?;
        self.remap_gid(route, gid, &new_row, (target, new_lid));
        for (dname, dgid, drow) in drags {
            let droute = self.route(&dname)?;
            let dlid = self.txn(target).insert(&dname, drow.clone())?;
            self.remap_gid(droute, dgid, &drow, (target, dlid));
        }
        self.dirty[shard].set(true);
        self.dirty[target].set(true);
        Ok(())
    }

    /// Update only the named columns of the row at `gid`.
    pub fn update_cols(&self, table: &str, gid: RowId, cols: &[(&str, Value)]) -> Result<()> {
        self.router.counters.ops.inc();
        let route = self.route(table)?;
        let loc = if route.spec == RoutingSpec::Global {
            self.to_local(table, gid.0)?.map(|(_, lid)| (0usize, lid))
        } else {
            self.to_local(table, gid.0)?
        };
        let Some((shard, lid)) = loc else {
            return self
                .txn(0)
                .update_cols(table, BOGUS_LID, cols)
                .map_err(|e| regid(table, gid.0, e));
        };
        // Mirror the engine's order: fetch the base row (NoSuchRow
        // first), then resolve each named column, then a full update.
        let row = self
            .txn(shard)
            .get(table, lid)
            .map_err(|e| regid(table, gid.0, e))?;
        self.update(table, gid, rules::overlay_cols(&route.schema, row, cols)?)
    }

    /// Walk the cascade closure of deleting `(table, lid)` on `shard`
    /// *before* deleting, mirroring the engine's referrer order, so
    /// the directory can forget every row the engine will remove.
    /// Read-only; `SetNull` referrers keep their rows (and gids).
    fn cascade_closure(
        &self,
        shard: usize,
        table: &str,
        lid: RowId,
    ) -> Result<Vec<(String, RowId)>> {
        let mut out = Vec::new();
        let mut seen: BTreeSet<(String, u64)> = BTreeSet::new();
        let mut stack = vec![(table.to_owned(), lid)];
        while let Some((t, id)) = stack.pop() {
            if !seen.insert((t.clone(), id.0)) {
                continue;
            }
            let row = match self.txn(shard).get(&t, id) {
                Ok(r) => r,
                Err(Error::NoSuchRow { .. }) => continue,
                Err(e) => return Err(e),
            };
            let troute = self.route(&t)?;
            for (rtable, fk) in self.referrers_of(&t) {
                if fk.on_delete != relstore::FkAction::Cascade {
                    continue;
                }
                let ref_cols = troute.schema.resolve_columns(&fk.ref_columns)?;
                let key = Key::from_row(&row, &ref_cols);
                if key.has_null() {
                    continue;
                }
                let rroute = self.route(rtable)?;
                let rcols = rroute.schema.resolve_columns(&fk.columns)?;
                let pred = eq_pred(&rroute.schema, &rcols, &key.0);
                for (rid, _) in self.txn(shard).select(rtable, &pred)? {
                    stack.push((rtable.clone(), rid));
                }
            }
            out.push((t, id));
        }
        Ok(out)
    }

    /// Delete the row at `gid`, honouring reverse foreign keys exactly
    /// as the engine does (cascades and SET NULLs stay intra-shard by
    /// the co-location invariants).
    pub fn delete(&self, table: &str, gid: RowId) -> Result<()> {
        self.router.counters.ops.inc();
        let route = self.route(table)?;
        if route.spec == RoutingSpec::Global {
            let Some((_, lid)) = self.to_local(table, gid.0)? else {
                return self
                    .txn(0)
                    .delete(table, BOGUS_LID)
                    .map_err(|e| regid(table, gid.0, e));
            };
            // Each shard cascades into its own routed rows; gather the
            // per-shard closures first for directory bookkeeping.
            let mut closures = Vec::with_capacity(self.router.shards());
            for s in 0..self.router.shards() {
                closures.push(self.cascade_closure(s, table, lid)?);
            }
            for s in 0..self.router.shards() {
                self.txn(s)
                    .delete(table, lid)
                    .map_err(|e| regid(table, gid.0, e))?;
                self.dirty[s].set(true);
            }
            for (s, closure) in closures.into_iter().enumerate() {
                for (t, id) in closure {
                    if t == table {
                        if s == 0 {
                            self.drop_gid(&t, gid.0);
                        }
                        continue;
                    }
                    let g = self.to_gid(&t, s, id)?;
                    self.drop_gid(&t, g);
                }
            }
            return Ok(());
        }
        let Some((shard, lid)) = self.to_local(table, gid.0)? else {
            return self
                .txn(0)
                .delete(table, BOGUS_LID)
                .map_err(|e| regid(table, gid.0, e));
        };
        let closure = self.cascade_closure(shard, table, lid)?;
        self.txn(shard)
            .delete(table, lid)
            .map_err(|e| regid(table, gid.0, e))?;
        self.dirty[shard].set(true);
        for (t, id) in closure {
            let g = self.to_gid(&t, shard, id)?;
            self.drop_gid(&t, g);
        }
        Ok(())
    }

    /// All rows matching `pred`, gid-ascending — the scatter-gather
    /// mirror of the engine's id-ascending select.
    pub fn select(&self, table: &str, pred: &Predicate) -> Result<Vec<(RowId, Row)>> {
        self.router.counters.ops.inc();
        let route = self.route(table)?;
        let read = |s: usize| self.txn(s).select(table, pred);
        // Two phases: collect every read shard's raw rows first, then
        // translate all local ids under ONE overlay borrow and ONE
        // directory read guard instead of a lock round-trip per row.
        let raw = if route.spec == RoutingSpec::Global {
            vec![(0, read(0)?)]
        } else {
            let raw = self.read_owners(route, pred, read)?;
            self.router.counters.scatter_batched.inc();
            raw
        };
        let ov = self.overlay.borrow();
        let ovt = ov.get(table);
        let dirs = self.router.dirs()?;
        let dir = dirs.get(table);
        let mut out: Vec<(RowId, Row)> = Vec::new();
        for (s, rows) in raw {
            for (lid, row) in rows {
                let gid = ovt
                    .and_then(|t| t.added_rev.get(&(s, lid.0)).copied())
                    .or_else(|| dir.and_then(|d| d.rev.get(&(s, lid.0)).copied()))
                    .ok_or_else(|| unowned(table, s, lid))?;
                out.push((RowId(gid), row));
            }
        }
        out.sort_by_key(|&(id, _)| id);
        Ok(out)
    }

    /// Run `read` on every shard that can hold a row of `route`'s
    /// (non-Global) table matching `pred`, as `(shard, result)` pairs.
    ///
    /// A top-level equality conjunct on the routing column pins the
    /// read to one shard:
    /// * `ByColumn`: rows route by the column's value, NULL included,
    ///   so the value's hash names the only shard that can match;
    /// * `ByParent`: a non-NULL parent key whose home is known reads
    ///   that home only — a row with a non-NULL parent key lives with
    ///   its parent, and a move drags it along.
    ///
    /// Everything else reads every shard.
    fn read_owners<T>(
        &self,
        route: &TableRoute,
        pred: &Predicate,
        read: impl Fn(usize) -> Result<T>,
    ) -> Result<Vec<(usize, T)>> {
        // Walks `And`/`Eq` only — any other connective could widen the
        // match set beyond one routing value.
        fn conjunct_eq<'p>(pred: &'p Predicate, col: &str) -> Option<&'p Value> {
            match pred {
                Predicate::Eq(c, v) if c == col => Some(v),
                Predicate::And(a, b) => conjunct_eq(a, col).or_else(|| conjunct_eq(b, col)),
                _ => None,
            }
        }
        match &route.spec {
            RoutingSpec::ByColumn(col) => {
                if let Some(v) = conjunct_eq(pred, col) {
                    let s = shard_of_value(&self.router.map, v);
                    self.router.counters.routed_selects.inc();
                    return Ok(vec![(s, read(s)?)]);
                }
            }
            RoutingSpec::ByParent { col, parent, .. } => {
                if let Some(v) = conjunct_eq(pred, col).filter(|v| !v.is_null()) {
                    let key = Key(vec![v.clone()]);
                    if let Some(s) = self.home_of(parent, &key)? {
                        let got = read(s)?;
                        // A move that published a new home between the
                        // lookup and the read took the rows with it, so
                        // scatter instead. Its commit holds the
                        // directory write guard across its engine
                        // commits, so this second lookup sees the move.
                        if self.home_of(parent, &key)? == Some(s) {
                            self.router.counters.routed_selects.inc();
                            return Ok(vec![(s, got)]);
                        }
                    }
                }
            }
            RoutingSpec::Global => {}
        }
        (0..self.router.shards())
            .map(|s| Ok((s, read(s)?)))
            .collect()
    }

    /// Like [`DistTxn::select`], sorted by `order_col` and truncated —
    /// the same stable sort over the same gid-ascending base order as
    /// the engine's.
    pub fn select_ordered(
        &self,
        table: &str,
        pred: &Predicate,
        order_col: &str,
        descending: bool,
        limit: Option<usize>,
    ) -> Result<Vec<(RowId, Row)>> {
        self.router.counters.ops.inc();
        let route = self.route(table)?;
        let col = route.schema.require_column(order_col)?;
        let rows = self.select(table, pred)?;
        Ok(rules::order_and_limit(rows, col, descending, limit))
    }

    /// Equi-join, mirroring the engine's hash join over the same row
    /// orders (both sides gid-ascending, NULL keys never join).
    pub fn join(
        &self,
        left: &str,
        left_col: &str,
        left_pred: &Predicate,
        right: &str,
        right_col: &str,
        right_pred: &Predicate,
    ) -> Result<Vec<(Row, Row)>> {
        self.router.counters.ops.inc();
        let lroute = self.route(left)?;
        let rroute = self.route(right)?;
        let lcol = lroute.schema.require_column(left_col)?;
        let rcol = rroute.schema.require_column(right_col)?;
        let lrows = self.select(left, left_pred)?;
        let rrows = self.select(right, right_pred)?;
        Ok(rules::hash_join(&lrows, lcol, &rrows, rcol))
    }

    /// Sum an integer column over matching rows (NULLs contribute 0).
    pub fn sum_int(&self, table: &str, pred: &Predicate, col: &str) -> Result<i64> {
        self.router.counters.ops.inc();
        let route = self.route(table)?;
        if route.spec == RoutingSpec::Global {
            return self.txn(0).sum_int(table, pred, col);
        }
        let sums = self.read_owners(route, pred, |s| self.txn(s).sum_int(table, pred, col))?;
        Ok(sums.into_iter().map(|(_, n)| n).sum())
    }

    /// Count rows matching `pred`.
    pub fn count(&self, table: &str, pred: &Predicate) -> Result<usize> {
        self.router.counters.ops.inc();
        let route = self.route(table)?;
        if route.spec == RoutingSpec::Global {
            return self.txn(0).count(table, pred);
        }
        let counts = self.read_owners(route, pred, |s| self.txn(s).count(table, pred))?;
        Ok(counts.into_iter().map(|(_, n)| n).sum())
    }

    /// Shards this transaction has written to.
    #[must_use]
    pub fn dirty_shards(&self) -> Vec<usize> {
        self.dirty
            .iter()
            .enumerate()
            .filter_map(|(s, d)| d.get().then_some(s))
            .collect()
    }

    /// Commit. Every dirty part prepares, in shard order, so MVCC parts
    /// take their commit fences in one global order: it validates and
    /// has its records in the log, and nothing is published. Then one
    /// joint commit frame naming every part that logged makes them
    /// durable together, and only then does any part publish. A part
    /// that fails to prepare, or a failed log write, aborts them all.
    pub fn commit(self) -> Result<()> {
        let dirty = self.dirty_shards();
        let router = self.router;
        let overlay = self.overlay.into_inner();
        // Publish the overlay into the committed directories. A commit
        // that adds, removes or re-homes rows holds the `dirs` write
        // guard across the engine commit(s) AND this merge: an engine
        // commit is what makes the new rows visible to concurrent
        // transactions, so any reader that observes one then blocks on
        // the directory until its gid is published. Every other commit
        // (reads, in-place updates that keep the key) publishes nothing
        // and takes no guard. (Rollback needs no directory work at all — the gids
        // were reserved eagerly in `alloc_gid`, so they burn on their
        // own.)
        let publishes = overlay.values().any(TableOverlay::publishes);
        let publish = |dirs: &mut BTreeMap<String, TableDir>| {
            for (table, ov) in &overlay {
                let dir = dirs.entry(table.clone()).or_default();
                for (&gid, &loc) in &ov.added {
                    if let Some(old) = dir.fwd.insert(gid, loc) {
                        dir.rev.remove(&(old.0, (old.1).0));
                    }
                    dir.rev.insert((loc.0, (loc.1).0), gid);
                }
                for &gid in &ov.removed {
                    if let Some(old) = dir.fwd.remove(&gid) {
                        dir.rev.remove(&(old.0, (old.1).0));
                    }
                }
                for (key, &s) in &ov.homes {
                    dir.homes.insert(key.clone(), s);
                }
            }
        };
        let mut parts = Vec::with_capacity(dirty.len());
        for (s, txn) in self
            .txns
            .into_iter()
            .enumerate()
            .filter_map(|(s, t)| Some((s, t.into_inner()?)))
        {
            if dirty.contains(&s) {
                parts.push((s, txn));
            } else {
                txn.rollback();
            }
        }
        let counter = &router.counters;
        match parts.len() {
            0 | 1 => counter.single_shard_commits.inc(),
            _ => counter.cross_shard_commits.inc(),
        }
        let mut prepared = Vec::with_capacity(parts.len());
        for (_, txn) in &parts {
            match txn.prepare() {
                Ok(p) => prepared.push(p),
                Err(e) => {
                    abort(&parts, prepared);
                    return Err(e);
                }
            }
        }
        let logged: Vec<(usize, u64)> = parts
            .iter()
            .zip(&prepared)
            .filter(|(_, p)| p.logged())
            .map(|((s, txn), _)| (*s, txn.id()))
            .collect();
        if let Err(e) = router.log_commit(&logged) {
            abort(&parts, prepared);
            return Err(e);
        }
        // Publishing makes the rows visible shard by shard; hold the
        // directory write guard across it (see `publish`). Past the
        // commit point even a poisoned guard must not stop the parts
        // from publishing; it is reported after.
        let dirs = publishes.then(|| router.dirs.write());
        for ((_, txn), p) in parts.iter().zip(prepared) {
            txn.publish(p);
        }
        if let Some(dirs) = dirs {
            publish(&mut *dirs.map_err(|_| poisoned())?);
        }
        Ok(())
    }

    /// Roll back explicitly (dropping the handle does the same): every
    /// engine transaction rolls back and the gids this transaction
    /// allocated were reserved eagerly, so they burn, exactly like
    /// rolled-back single-engine inserts.
    pub fn rollback(self) {}
}

/// Roll back every prepared part, in shard order.
fn abort(parts: &[(usize, AnyTxn)], prepared: Vec<Prepared<'_>>) {
    for ((_, txn), p) in parts.iter().zip(prepared) {
        txn.abort(p);
    }
}

/// The router's transaction is the other [`DocTxn`] in the workspace
/// (beside `AnyTxn`): the typed station and `testkit`'s op tapes both
/// drive it through the trait, the verbs themselves are the inherent
/// methods above.
impl DocTxn for DistTxn<'_> {
    fn insert(&self, table: &str, row: Row) -> Result<RowId> {
        DistTxn::insert(self, table, row)
    }
    fn get(&self, table: &str, id: RowId) -> Result<Row> {
        DistTxn::get(self, table, id)
    }
    fn update(&self, table: &str, id: RowId, row: Row) -> Result<()> {
        DistTxn::update(self, table, id, row)
    }
    fn update_cols(&self, table: &str, id: RowId, cols: &[(&str, Value)]) -> Result<()> {
        DistTxn::update_cols(self, table, id, cols)
    }
    fn delete(&self, table: &str, id: RowId) -> Result<()> {
        DistTxn::delete(self, table, id)
    }
    fn select(&self, table: &str, pred: &Predicate) -> Result<Vec<(RowId, Row)>> {
        DistTxn::select(self, table, pred)
    }
    fn select_ordered(
        &self,
        table: &str,
        pred: &Predicate,
        order_col: &str,
        descending: bool,
        limit: Option<usize>,
    ) -> Result<Vec<(RowId, Row)>> {
        DistTxn::select_ordered(self, table, pred, order_col, descending, limit)
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
        DistTxn::join(
            self, left, left_col, left_pred, right, right_col, right_pred,
        )
    }
    fn sum_int(&self, table: &str, pred: &Predicate, col: &str) -> Result<i64> {
        DistTxn::sum_int(self, table, pred, col)
    }
    fn count(&self, table: &str, pred: &Predicate) -> Result<usize> {
        DistTxn::count(self, table, pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::ColumnType;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Panic while holding `lock`, as a bug in code under it would.
    fn poison<T>(lock: &Mutex<T>) {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _held = lock.lock();
            panic!("poisoned on purpose");
        }));
        assert!(lock.is_poisoned());
    }

    #[test]
    fn commits_and_ddl_go_through_poisoned_locks() {
        let dir = std::env::temp_dir().join(format!("shard-router-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (router, _) =
            Router::recover(ShardMap::uniform(4), &dir, WalOptions::default()).unwrap();
        let schema = |name: &str| {
            TableSchema::builder(name)
                .column("id", ColumnType::Int)
                .column("k", ColumnType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap()
        };
        // Routed off its key, so the primary key is global and fed to a
        // Bloom filter on every insert.
        let spec = || RoutingSpec::ByColumn("k".into());
        router.create_table(schema("t"), spec()).unwrap();
        poison(&router.registered);
        poison(&router.blooms);

        // A cross-shard commit reads the registration and feeds the
        // filter.
        let txn = router.begin();
        for i in 0..8i64 {
            txn.insert("t", vec![Value::Int(i), Value::Int(i)]).unwrap();
        }
        assert!(txn.dirty_shards().len() > 1, "the commit must span shards");
        txn.commit().unwrap();
        // DDL swaps the registration and adds filters.
        router.create_table(schema("u"), spec()).unwrap();
        router
            .with_txn(|t| t.insert("u", vec![Value::Int(1), Value::Int(1)]))
            .unwrap();

        let rows = router
            .with_txn(|t| t.select("t", &Predicate::True))
            .unwrap();
        assert_eq!(rows.len(), 8);
        let dup = router.with_txn(|t| t.insert("t", vec![Value::Int(3), Value::Int(99)]));
        assert!(dup.is_err(), "the filter still reports every fed key");
        drop(router);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
