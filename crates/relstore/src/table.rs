//! Paged table heap with index maintenance.
//!
//! A [`Table`] stores rows as encoded images on slotted pages owned by
//! a [`BufferPool`] (see [`crate::pagestore`]), with a row directory
//! mapping stable [`RowId`]s to `(page, slot)` addresses — so scans
//! stay deterministic (id order) while residency is bounded by the
//! pool. It keeps the implicit primary-key index plus any declared
//! secondary indexes, and enforces *local* constraints: arity, types,
//! NULLs, and uniqueness. Cross-table (foreign-key) constraints are
//! enforced one level up, in [`crate::database::Database`].
//!
//! Indexes are keyed by logical [`RowId`], not by page address: ids are
//! baked into the WAL record format and the public API, and keeping
//! them stable means a row migrating between pages (a growing update,
//! page compaction) never touches an index entry. An update whose image
//! fits its slot rewrites it in place: one page dirtied, address kept.

use crate::error::{Error, Result};
use crate::pagestore::{page, BufferPool, PageId, PoolConfig};
use crate::schema::{IndexDef, TableSchema, PRIMARY_INDEX};
use crate::value::{Key, Value};
use obs::Registry;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Stable identifier of a row within its table. Never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RowId(pub u64);

/// A row is a vector of values, positionally matching the schema.
pub type Row = Vec<Value>;

/// One B-tree index over a table, the same type under both engines.
/// The 2PL heap files each live row under its current key. The MVCC
/// engine files each row under the key of every version it still
/// retains, so a probe there is a superset that the caller checks
/// against the version it can see (see [`crate::mvcc`]).
#[derive(Debug, Clone)]
pub struct Index {
    def: IndexDef,
    cols: Vec<usize>,
    map: BTreeMap<Key, Ids>,
}

/// The rows filed under one key. Most keys file one row, which is held
/// inline: an id set only for keys that file more.
#[derive(Debug, Clone)]
enum Ids {
    One(RowId),
    Many(BTreeSet<RowId>),
}

impl Ids {
    fn iter(&self) -> impl Iterator<Item = RowId> + '_ {
        let (one, many) = match self {
            Ids::One(id) => (Some(*id), None),
            Ids::Many(ids) => (None, Some(ids)),
        };
        one.into_iter().chain(many.into_iter().flatten().copied())
    }
}

impl Index {
    pub(crate) fn new(def: IndexDef, schema: &TableSchema) -> Result<Self> {
        let cols = schema.resolve_columns(&def.columns)?;
        Ok(Index {
            def,
            cols,
            map: BTreeMap::new(),
        })
    }

    /// Key of `row` under this index.
    #[must_use]
    pub fn key_of(&self, row: &[Value]) -> Key {
        Key::from_row(row, &self.cols)
    }

    /// Row ids with exactly this key.
    #[must_use]
    pub fn get(&self, key: &Key) -> Vec<RowId> {
        self.map
            .get(key)
            .map(|ids| ids.iter().collect())
            .unwrap_or_default()
    }

    /// Row ids whose key lies in `[lo, hi]` (inclusive), in key order.
    #[must_use]
    pub fn range(&self, lo: &Key, hi: &Key) -> Vec<RowId> {
        self.map
            .range(lo.clone()..=hi.clone())
            .flat_map(|(_, ids)| ids.iter())
            .collect()
    }

    /// Row ids whose key's *first* component lies in the inclusive
    /// hull `[lo, hi]` (either side optionally unbounded), in key
    /// order. Works for composite indexes because keys compare
    /// lexicographically: `Key([v])` sorts at the front of every key
    /// starting with `v`. Backs the planner's bounded range scans for
    /// `<`/`<=`/`>`/`>=` conjuncts.
    #[must_use]
    pub fn scan_first_column(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<RowId> {
        use std::ops::Bound;
        let start = match lo {
            Some(v) => Bound::Included(Key(vec![v.clone()])),
            None => Bound::Unbounded,
        };
        self.map
            .range((start, Bound::Unbounded))
            .take_while(|(key, _)| match hi {
                Some(h) => key.0.first().is_some_and(|first| first <= h),
                None => true,
            })
            .flat_map(|(_, ids)| ids.iter())
            .collect()
    }

    /// True if inserting `key` would violate uniqueness (ignoring rows in
    /// `except`). NULL-containing keys are exempt, as in SQL.
    fn would_violate(&self, key: &Key, except: Option<RowId>) -> bool {
        if !self.def.unique || key.has_null() {
            return false;
        }
        self.map
            .get(key)
            .is_some_and(|ids| ids.iter().any(|id| Some(id) != except))
    }

    /// True iff `row`'s key columns equal `key`, without allocating a
    /// [`Key`].
    pub(crate) fn row_holds(&self, row: &[Value], key: &Key) -> bool {
        self.cols.len() == key.0.len() && self.cols.iter().zip(&key.0).all(|(&c, v)| &row[c] == v)
    }

    pub(crate) fn insert(&mut self, key: Key, id: RowId) {
        let ids = self.map.entry(key).or_insert(Ids::One(id));
        match ids {
            Ids::One(one) if *one != id => *ids = Ids::Many(BTreeSet::from([*one, id])),
            Ids::Many(set) => {
                set.insert(id);
            }
            Ids::One(_) => {}
        }
    }

    pub(crate) fn remove(&mut self, key: &Key, id: RowId) {
        let Some(ids) = self.map.get_mut(key) else {
            return;
        };
        match ids {
            Ids::One(one) if *one == id => {
                self.map.remove(key);
            }
            Ids::Many(set) => {
                set.remove(&id);
                if let (1, Some(&one)) = (set.len(), set.first()) {
                    *ids = Ids::One(one);
                }
            }
            Ids::One(_) => {}
        }
    }

    /// Name of this index.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.def.name
    }

    /// Indexed column positions.
    #[must_use]
    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// Whether this index enforces uniqueness.
    #[must_use]
    pub fn is_unique(&self) -> bool {
        self.def.unique
    }
}

/// Physical address of a row image: which page, which slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowAddr {
    page: PageId,
    slot: u32,
}

/// Per-page bookkeeping for the heap's placement decisions.
#[derive(Debug, Clone, Copy)]
struct PageInfo {
    live: usize,
    /// Reclaimable free bytes after the last operation on the page
    /// (contiguous gap + removed-row holes; see [`page::total_free`]).
    free: usize,
}

/// The paged row heap of one table: a row directory over buffer-pool
/// pages. Placement is first-fit in page-id order (deterministic);
/// oversized rows get a dedicated page sized to fit; pages are freed
/// as soon as their last row dies.
#[derive(Debug)]
struct RowHeap {
    pool: Arc<BufferPool>,
    dir: BTreeMap<RowId, RowAddr>,
    pages: BTreeMap<PageId, PageInfo>,
    /// Owned pages grouped by their last-known reclaimable free bytes —
    /// the same facts as `pages`, inverted. First-fit placement queries
    /// `range(need..)` here instead of scanning every owned page, so an
    /// insert costs O(log pages + candidates) rather than O(pages)
    /// (which made bulk loads quadratic in table size).
    by_free: BTreeMap<usize, BTreeSet<PageId>>,
    /// Exact payload bytes (Text + Bytes values) of all live rows,
    /// maintained incrementally. This is *logical* size — the resident
    /// footprint is the pool's business.
    heap_bytes: usize,
}

impl RowHeap {
    fn new(pool: Arc<BufferPool>) -> Self {
        RowHeap {
            pool,
            dir: BTreeMap::new(),
            pages: BTreeMap::new(),
            by_free: BTreeMap::new(),
            heap_bytes: 0,
        }
    }

    fn payload(row: &[Value]) -> usize {
        row.iter().map(Value::heap_size).sum()
    }

    /// Keep `by_free` mirroring a page's free-class move. `None` means
    /// the page is not (or no longer) owned.
    fn track_free(&mut self, pid: PageId, old: Option<usize>, new: Option<usize>) {
        if old == new {
            return;
        }
        if let Some(o) = old {
            let set = self.by_free.get_mut(&o).expect("page in its free class");
            set.remove(&pid);
            if set.is_empty() {
                self.by_free.remove(&o);
            }
        }
        if let Some(n) = new {
            self.by_free.entry(n).or_default().insert(pid);
        }
    }

    /// Place an encoded row, preferring the lowest-id owned page with
    /// room, else allocating. Returns the address.
    fn place(&mut self, bytes: &[u8]) -> Result<RowAddr> {
        let need = bytes.len() + page::SLOT;
        let mut candidates: Vec<PageId> = self
            .by_free
            .range(need..)
            .flat_map(|(_, pids)| pids.iter().copied())
            .collect();
        candidates.sort_unstable();
        for pid in candidates {
            let (slot, free) = self.pool.pin(pid)?.with_mut(|buf| {
                let slot = page::insert(buf, bytes);
                (slot, page::total_free(buf))
            });
            let info = self.pages.get_mut(&pid).expect("owned page");
            let old_free = info.free;
            info.free = free;
            if slot.is_some() {
                info.live += 1;
            }
            self.track_free(pid, Some(old_free), Some(free));
            if let Some(slot) = slot {
                return Ok(RowAddr { page: pid, slot });
            }
        }
        let pid = self.pool.alloc(page::capacity_needed(bytes.len()))?;
        let (slot, free) = self.pool.pin(pid)?.with_mut(|buf| {
            let slot = page::insert(buf, bytes).expect("fresh page fits its row");
            (slot, page::total_free(buf))
        });
        self.pages.insert(pid, PageInfo { live: 1, free });
        self.track_free(pid, None, Some(free));
        Ok(RowAddr { page: pid, slot })
    }

    /// Store `row` under `id` (which must be unused).
    fn insert(&mut self, id: RowId, row: &[Value]) -> Result<()> {
        debug_assert!(!self.dir.contains_key(&id), "row id reuse");
        let addr = self.place(&page::encode_row(row))?;
        self.dir.insert(id, addr);
        self.heap_bytes += Self::payload(row);
        Ok(())
    }

    /// Decode the row at `id`, or `None` if it does not exist.
    fn read(&self, id: RowId) -> Result<Option<Row>> {
        let Some(addr) = self.dir.get(&id) else {
            return Ok(None);
        };
        let guard = self.pool.pin(addr.page)?;
        guard.with(|buf| {
            let bytes = page::get(buf, addr.slot)
                .ok_or_else(|| Error::Page(format!("row {id:?} missing from {}", addr.page)))?;
            page::decode_row(bytes).map(Some)
        })
    }

    /// Drop the slot at `addr` (which must be live): decode its prior
    /// image, remove it from its page, and free the page if that was
    /// its last row. Touches neither the directory nor `heap_bytes` —
    /// callers own those — and leaves the slot intact on any error.
    fn erase(&mut self, id: RowId, addr: RowAddr) -> Result<Row> {
        let guard = self.pool.pin(addr.page)?;
        let (row, free) = guard.with_mut(|buf| -> Result<(Row, usize)> {
            let bytes = page::get(buf, addr.slot)
                .ok_or_else(|| Error::Page(format!("row {id:?} missing from {}", addr.page)))?;
            let row = page::decode_row(bytes)?;
            page::remove(buf, addr.slot);
            Ok((row, page::total_free(buf)))
        })?;
        drop(guard);
        let info = self.pages.get_mut(&addr.page).expect("owned page");
        info.live -= 1;
        let old_free = info.free;
        info.free = free;
        if info.live == 0 {
            self.pages.remove(&addr.page);
            self.track_free(addr.page, Some(old_free), None);
            self.pool.free(addr.page);
        } else {
            self.track_free(addr.page, Some(old_free), Some(free));
        }
        Ok(row)
    }

    /// Remove and return the row at `id`, freeing its page if that was
    /// the last row on it. A pool/backend failure leaves the row (and
    /// all accounting) untouched.
    fn remove(&mut self, id: RowId) -> Result<Option<Row>> {
        let Some(&addr) = self.dir.get(&id) else {
            return Ok(None);
        };
        let row = self.erase(id, addr)?;
        self.dir.remove(&id);
        self.heap_bytes -= Self::payload(&row);
        Ok(Some(row))
    }

    /// Replace the row at `id`, whose current image is `old`, with
    /// `row`: in place if the new image fits the row's slot (which
    /// leaves the page's reclaimable bytes as they were), else placed
    /// first-fit *before* the old slot is dropped. Pinning comes first,
    /// so a pool/backend failure at any point leaves the previous image
    /// — and every index entry pointing at `id` — valid.
    fn replace(&mut self, id: RowId, old: &[Value], row: &[Value]) -> Result<()> {
        let Some(&old_addr) = self.dir.get(&id) else {
            return Err(Error::Page(format!("replace of missing row {id:?}")));
        };
        let bytes = page::encode_row(row);
        let pinned = self.pool.pin(old_addr.page)?;
        if !pinned.with_mut(|buf| page::overwrite(buf, old_addr.slot, &bytes)) {
            drop(pinned);
            let new_addr = self.place(&bytes)?;
            if let Err(e) = self.erase(id, old_addr) {
                // The old slot is untouched; drop the freshly placed
                // copy (best effort) so the heap returns to exactly the
                // pre-call state.
                let _ = self.erase(id, new_addr);
                return Err(e);
            }
            self.dir.insert(id, new_addr);
        }
        self.heap_bytes += Self::payload(row);
        self.heap_bytes -= Self::payload(old);
        Ok(())
    }

    /// Run `f` over the encoded image of row `id` under the page pin,
    /// or return `Ok(None)` if the row does not exist.
    fn with_encoded<R>(&self, id: RowId, f: impl FnOnce(&[u8]) -> Result<R>) -> Result<Option<R>> {
        let Some(addr) = self.dir.get(&id) else {
            return Ok(None);
        };
        let guard = self.pool.pin(addr.page)?;
        guard.with(|buf| {
            let bytes = page::get(buf, addr.slot)
                .ok_or_else(|| Error::Page(format!("row {id:?} missing from {}", addr.page)))?;
            f(bytes).map(Some)
        })
    }

    /// Visit every live row's encoded image in id order without
    /// decoding. Consecutive directory entries that live on the same
    /// page are served under a single pin — rows are placed first-fit
    /// in insertion order, so append-heavy tables scan with one pin per
    /// *page* rather than one per row.
    fn scan_encoded(&self, mut f: impl FnMut(RowId, &[u8]) -> Result<()>) -> Result<()> {
        let mut it = self.dir.iter().peekable();
        let mut run: Vec<(RowId, u32)> = Vec::new();
        while let Some((&id, addr)) = it.next() {
            let pid = addr.page;
            run.clear();
            run.push((id, addr.slot));
            while let Some((_, next)) = it.peek() {
                if next.page != pid {
                    break;
                }
                let (&nid, naddr) = it.next().expect("just peeked");
                run.push((nid, naddr.slot));
            }
            let guard = self.pool.pin(pid)?;
            guard.with(|buf| {
                for &(rid, slot) in &run {
                    let bytes = page::get(buf, slot)
                        .ok_or_else(|| Error::Page(format!("row {rid:?} missing from {pid}")))?;
                    f(rid, bytes)?;
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.dir.len()
    }

    fn max_id(&self) -> Option<RowId> {
        self.dir.keys().next_back().copied()
    }

    fn page_of(&self, id: RowId) -> Option<PageId> {
        self.dir.get(&id).map(|a| a.page)
    }

    /// All rows in id order, decoding lazily (one page pinned at a
    /// time, so a scan never needs more than one resident page beyond
    /// the pool's working set).
    ///
    /// # Panics
    /// If the spill backend fails or a row image does not decode — both
    /// mean the storage below the pool is gone or corrupt, which the
    /// infallible iterator contract (inherited from the pre-paged
    /// engine) cannot report.
    fn iter(&self) -> impl Iterator<Item = (RowId, Row)> + '_ {
        self.dir.keys().map(|id| {
            let row = self
                .read(*id)
                .expect("page store healthy")
                .expect("directory row present");
            (*id, row)
        })
    }
}

/// A table: schema + paged row heap + indexes.
#[derive(Debug)]
pub struct Table {
    schema: TableSchema,
    heap: RowHeap,
    next_row: u64,
    /// `indexes[0]` is always the implicit primary index.
    indexes: Vec<Index>,
}

impl Table {
    /// Create an empty table with its own private unbounded in-memory
    /// pool — behaviorally identical to the pre-paged engine. Tables
    /// inside a [`Database`](crate::Database) share the database's pool
    /// instead (see [`Table::with_pool`]).
    pub fn new(schema: TableSchema) -> Result<Self> {
        let pool = BufferPool::new(&PoolConfig::default(), Registry::disabled())?;
        Self::with_pool(schema, pool)
    }

    /// Create an empty table whose rows live on pages of `pool`.
    pub fn with_pool(schema: TableSchema, pool: Arc<BufferPool>) -> Result<Self> {
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
        Ok(Table {
            schema,
            heap: RowHeap::new(pool),
            next_row: 1,
            indexes,
        })
    }

    /// The table's schema.
    #[must_use]
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.len() == 0
    }

    /// Exact payload bytes stored (Text and Bytes values). This is the
    /// *logical* data size, independent of pool residency — the byte
    /// count a caller's rows account for, matching the pre-paged
    /// engine. Resident memory is reported by the buffer pool.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.heap.heap_bytes
    }

    /// Insert a validated row, enforcing uniqueness; returns the new id.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        self.insert_row(&row)
    }

    /// [`Table::insert`] of a borrowed row, which the caller keeps (the
    /// transaction logs it).
    pub(crate) fn insert_row(&mut self, row: &[Value]) -> Result<RowId> {
        self.schema.check_row(row)?;
        for ix in &self.indexes {
            let key = ix.key_of(row);
            if ix.would_violate(&key, None) {
                return Err(Error::UniqueViolation {
                    table: self.schema.name.clone(),
                    index: ix.name().to_owned(),
                });
            }
        }
        let id = RowId(self.next_row);
        self.next_row += 1;
        for ix in &mut self.indexes {
            let key = ix.key_of(row);
            ix.insert(key, id);
        }
        self.heap.insert(id, row)?;
        Ok(id)
    }

    /// Advance the id allocator past every existing row (bulk load).
    pub(crate) fn sync_next_row(&mut self) {
        if let Some(max) = self.heap.max_id() {
            self.next_row = self.next_row.max(max.0 + 1);
        }
    }

    /// Re-insert a row under a specific id (transaction undo and
    /// snapshot restore).
    pub(crate) fn restore(&mut self, id: RowId, row: Row) {
        for ix in &mut self.indexes {
            let key = ix.key_of(&row);
            ix.insert(key, id);
        }
        self.heap
            .insert(id, &row)
            .expect("page store healthy during restore");
    }

    /// Fetch a row by id (decoded from its page).
    pub fn get(&self, id: RowId) -> Result<Row> {
        self.heap.read(id)?.ok_or_else(|| Error::NoSuchRow {
            table: self.schema.name.clone(),
            row: id,
        })
    }

    /// Fetch a row by id if it exists. `Ok(None)` means the row is
    /// genuinely absent; a page-store I/O or decode failure is an
    /// error, never a silent miss.
    pub fn try_get(&self, id: RowId) -> Result<Option<Row>> {
        self.heap.read(id)
    }

    /// The page currently holding row `id` (for LSN stamping; see
    /// [`BufferPool::stamp_lsn`]).
    #[must_use]
    pub fn page_of(&self, id: RowId) -> Option<PageId> {
        self.heap.page_of(id)
    }

    /// Replace the whole row at `id`; returns the previous row.
    pub fn update(&mut self, id: RowId, new_row: Row) -> Result<Row> {
        self.schema.check_row(&new_row)?;
        let old = self.get(id)?;
        self.rewrite(id, &old, &new_row)?;
        Ok(old)
    }

    /// [`Table::update`] from `old`, the row's current image, to the
    /// validated `new_row`. An index whose key is unchanged is neither
    /// probed (the row holds the key already) nor rewritten.
    pub(crate) fn rewrite(&mut self, id: RowId, old: &[Value], new_row: &[Value]) -> Result<()> {
        let moved = |ix: &Index| ix.cols.iter().any(|&c| old[c] != new_row[c]);
        for ix in &self.indexes {
            if moved(ix) && ix.would_violate(&ix.key_of(new_row), Some(id)) {
                return Err(Error::UniqueViolation {
                    table: self.schema.name.clone(),
                    index: ix.name().to_owned(),
                });
            }
        }
        // Heap first, indexes after: `replace` leaves the old image in
        // place on any pool/backend failure, so an error here returns
        // with the row, the indexes, and the byte accounting exactly as
        // they were. The index rewrite below is infallible.
        self.heap.replace(id, old, new_row)?;
        for ix in &mut self.indexes {
            if moved(ix) {
                ix.remove(&ix.key_of(old), id);
                ix.insert(ix.key_of(new_row), id);
            }
        }
        Ok(())
    }

    /// Delete the row at `id`; returns it.
    pub fn delete(&mut self, id: RowId) -> Result<Row> {
        let row = self.heap.remove(id)?.ok_or_else(|| Error::NoSuchRow {
            table: self.schema.name.clone(),
            row: id,
        })?;
        for ix in &mut self.indexes {
            let key = ix.key_of(&row);
            ix.remove(&key, id);
        }
        Ok(row)
    }

    /// All (id, row) pairs in id order, decoded from their pages as the
    /// iterator advances (at most one transient pin at a time).
    ///
    /// # Panics
    /// If the page-store backend fails or a row image does not decode
    /// mid-scan — both mean the storage below the pool is gone or
    /// corrupt, which this infallible iterator (matching the pre-paged
    /// engine's contract) cannot report.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, Row)> + '_ {
        self.heap.iter()
    }

    /// Visit every live row's *encoded* image in id order without
    /// decoding it, pinning each page once per run of consecutive rows
    /// stored on it (one pin per page for append-heavy tables, versus
    /// one pin **and** one full decode per row for [`Table::iter`]).
    /// This is the hot full-scan path: evaluate predicates against the
    /// image via [`crate::query::Compiled::matches_raw`] and decode
    /// (via [`page::decode_row`]) only the matches.
    pub fn scan_encoded(&self, f: impl FnMut(RowId, &[u8]) -> Result<()>) -> Result<()> {
        self.heap.scan_encoded(f)
    }

    /// Run `f` over the encoded image of row `id` under its page pin,
    /// or return `Ok(None)` if no such row exists. The point-lookup
    /// analogue of [`Table::scan_encoded`]: index candidates can be
    /// tested raw and decoded only on match, all under one pin.
    pub fn with_encoded<R>(
        &self,
        id: RowId,
        f: impl FnOnce(&[u8]) -> Result<R>,
    ) -> Result<Option<R>> {
        self.heap.with_encoded(id, f)
    }

    /// The index named `name` (`__primary` for the PK index).
    pub fn index(&self, name: &str) -> Result<&Index> {
        self.indexes
            .iter()
            .find(|i| i.name() == name)
            .ok_or_else(|| Error::NoSuchIndex {
                table: self.schema.name.clone(),
                index: name.to_owned(),
            })
    }

    /// All indexes, primary first.
    #[must_use]
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::ColumnType;

    fn people() -> Table {
        Table::new(
            TableSchema::builder("people")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .nullable_column("email", ColumnType::Text)
                .primary_key(&["id"])
                .index("by_name", &["name"], false)
                .index("by_email", &["email"], true)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    fn row(id: i64, name: &str, email: Option<&str>) -> Row {
        vec![Value::Int(id), Value::from(name), Value::from(email)]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = people();
        let id = t.insert(row(1, "ada", Some("a@x"))).unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::from("ada"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn arity_checked() {
        let mut t = people();
        let err = t.insert(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, Error::ArityMismatch { .. }));
    }

    #[test]
    fn types_checked() {
        let mut t = people();
        let err = t
            .insert(vec![Value::from("one"), Value::from("ada"), Value::Null])
            .unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
    }

    #[test]
    fn null_in_non_nullable_rejected() {
        let mut t = people();
        let err = t
            .insert(vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, Error::NullViolation { .. }));
    }

    #[test]
    fn primary_key_unique() {
        let mut t = people();
        t.insert(row(1, "ada", None)).unwrap();
        let err = t.insert(row(1, "bob", None)).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
    }

    #[test]
    fn unique_index_allows_nulls() {
        let mut t = people();
        t.insert(row(1, "ada", None)).unwrap();
        t.insert(row(2, "bob", None)).unwrap(); // two NULL emails OK
        let err = {
            t.insert(row(3, "cyd", Some("a@x"))).unwrap();
            t.insert(row(4, "dee", Some("a@x"))).unwrap_err()
        };
        assert!(matches!(err, Error::UniqueViolation { .. }));
    }

    #[test]
    fn secondary_index_lookup() {
        let mut t = people();
        let a = t.insert(row(1, "ada", None)).unwrap();
        let b = t.insert(row(2, "ada", None)).unwrap();
        t.insert(row(3, "bob", None)).unwrap();
        let ix = t.index("by_name").unwrap();
        let mut ids = ix.get(&Key::from(Value::from("ada")));
        ids.sort_unstable();
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn update_moves_index_entries() {
        let mut t = people();
        let id = t.insert(row(1, "ada", None)).unwrap();
        t.update(id, row(1, "ada lovelace", None)).unwrap();
        assert!(t
            .index("by_name")
            .unwrap()
            .get(&Key::from(Value::from("ada")))
            .is_empty());
        assert_eq!(
            t.index("by_name")
                .unwrap()
                .get(&Key::from(Value::from("ada lovelace"))),
            vec![id]
        );
    }

    #[test]
    fn update_uniqueness_excludes_self() {
        let mut t = people();
        let id = t.insert(row(1, "ada", Some("a@x"))).unwrap();
        // Re-writing the same unique email on the same row is fine.
        t.update(id, row(1, "ada2", Some("a@x"))).unwrap();
        let _other = t.insert(row(2, "bob", Some("b@x"))).unwrap();
        let err = t.update(id, row(1, "ada3", Some("b@x"))).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
    }

    #[test]
    fn delete_removes_from_indexes() {
        let mut t = people();
        let id = t.insert(row(1, "ada", Some("a@x"))).unwrap();
        t.delete(id).unwrap();
        assert!(t.is_empty());
        assert!(t
            .index("by_email")
            .unwrap()
            .get(&Key::from(Value::from("a@x")))
            .is_empty());
        assert!(matches!(t.get(id), Err(Error::NoSuchRow { .. })));
        // Row ids are never reused.
        let id2 = t.insert(row(1, "ada", Some("a@x"))).unwrap();
        assert_ne!(id, id2);
    }

    #[test]
    fn range_scan_in_key_order() {
        let mut t = people();
        for i in 1..=9 {
            t.insert(row(i, &format!("p{i}"), None)).unwrap();
        }
        let ix = t.index(PRIMARY_INDEX).unwrap();
        let ids = ix.range(&Key::from(Value::Int(3)), &Key::from(Value::Int(6)));
        let keys: Vec<i64> = ids
            .iter()
            .map(|id| t.get(*id).unwrap()[0].as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![3, 4, 5, 6]);
    }

    /// On full pages, an update whose image fits its slot stays where it
    /// is: same page, same slot, no page allocated, two pins (the read
    /// of the old row and the overwrite). Only a growing update moves.
    #[test]
    fn update_rewrites_in_place_unless_the_row_grows() {
        let mut t = Table::new(
            TableSchema::builder("docs")
                .column("id", ColumnType::Int)
                .column("body", ColumnType::Text)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let doc = |i: i64, len: usize| vec![Value::Int(i), Value::from("x".repeat(len))];
        // A 100-byte body encodes to 118 bytes: 32 rows fill a 4 KiB
        // page, leaving 56 bytes no further row fits in.
        let ids: Vec<RowId> = (0..96).map(|i| t.insert(doc(i, 100)).unwrap()).collect();
        let pages: BTreeSet<PageId> = ids.iter().map(|&id| t.page_of(id).unwrap()).collect();
        assert_eq!(pages.len(), 3);
        let target = ids[40];
        let (home, dir) = (t.page_of(target).unwrap(), t.heap.dir.clone());
        let before = t.heap.pool.stats();
        for k in 0..10 {
            let body = format!("{k:<100}");
            t.update(target, vec![Value::Int(40), Value::from(body.as_str())])
                .unwrap();
            assert_eq!(t.get(target).unwrap()[1], Value::from(body.as_str()));
            assert_eq!(t.page_of(target), Some(home));
        }
        let after = t.heap.pool.stats();
        assert_eq!(t.heap.dir, dir, "no row changed address");
        assert_eq!(after.resident_pages, before.resident_pages);
        // Per round: the update's read and overwrite, the check's read.
        assert_eq!(after.hits - before.hits, 3 * 10);
        // Shrinking stays on the page too.
        t.update(target, doc(40, 60)).unwrap();
        assert_eq!(t.heap.dir, dir);
        assert_eq!(t.heap_bytes(), 95 * 100 + 60);
        // Growing past the slot relocates to a fresh page; nobody else
        // moves.
        t.update(target, doc(40, 100)).unwrap();
        let moved = t.page_of(target).unwrap();
        assert!(moved != home && !pages.contains(&moved));
        assert_eq!(
            t.heap.pool.stats().resident_pages,
            before.resident_pages + 1
        );
        for &id in ids.iter().filter(|&&id| id != target) {
            assert_eq!(t.heap.dir[&id], dir[&id]);
        }
        assert_eq!(t.get(target).unwrap(), doc(40, 100));
        assert_eq!(t.heap_bytes(), 96 * 100);
    }

    #[test]
    fn heap_bytes_tracks_payload() {
        let mut t = people();
        assert_eq!(t.heap_bytes(), 0);
        let id = t.insert(row(1, "abcd", Some("xy"))).unwrap();
        assert_eq!(t.heap_bytes(), 6);
        t.update(id, row(1, "ab", None)).unwrap();
        assert_eq!(t.heap_bytes(), 2);
        t.delete(id).unwrap();
        assert_eq!(t.heap_bytes(), 0);
    }
}
