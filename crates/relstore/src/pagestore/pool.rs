//! The pinning buffer pool.
//!
//! At most `max_pages` pages stay resident; access goes through
//! [`PageRef`] pin guards so a page can never be evicted while a
//! reader or writer holds it. Eviction is strict LRU over unpinned
//! frames with `PageId` as tie-break on a logical access tick, which
//! makes eviction order a pure function of the access sequence (see
//! the determinism carve-out in [`super`]). Dirty frames are written
//! back through the [`FlushGate`] first, enforcing the WAL rule that
//! the log covering a page's changes is durable before the page image
//! can reach the backend.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, RwLock};

use obs::Registry;

use super::store::{self, MemStore, PageId, PageStore};
use super::{page, PoolBackend, PoolConfig};
use crate::error::Result;

/// Lets the pool ask the write-ahead log how far it has flushed, and
/// force a flush before dirty-page writeback. Implemented by
/// `wal::Wal`; absent (the default) the pool behaves as if the whole
/// log were always durable, which is correct for non-durable databases.
pub trait FlushGate: Send + Sync {
    /// Exclusive end offset of the log (next record lands here).
    fn log_end_lsn(&self) -> u64;
    /// Exclusive end offset of the durable prefix.
    fn flushed_lsn(&self) -> u64;
    /// Block until everything below `lsn` is durable.
    fn ensure_flushed(&self, lsn: u64) -> Result<()>;
}

/// Test/instrumentation hook invoked on every dirty-page writeback,
/// *after* the flush-rule wait, with the LSNs the decision was based
/// on. Must not call back into the pool (it runs under the pool lock).
pub trait WritebackObserver: Send + Sync {
    /// `flushed_lsn` is the durable horizon at writeback time; the
    /// flush rule promises `rec_lsn <= flushed_lsn`.
    fn on_writeback(&self, id: PageId, rec_lsn: u64, page_lsn: u64, flushed_lsn: u64);
}

struct Frame {
    buf: Arc<Mutex<Vec<u8>>>,
    pin: u32,
    dirty: bool,
    /// LSN of (a conservative lower bound on) the record that first
    /// dirtied this page since it was last clean. Zero when clean.
    rec_lsn: u64,
    /// Highest LSN whose record touched this page.
    page_lsn: u64,
    /// Logical access tick for LRU.
    used: u64,
}

#[derive(Default)]
struct PoolState {
    frames: BTreeMap<PageId, Frame>,
    /// Unpinned resident frames ordered by `(used, id)` — the eviction
    /// policy's victim order, maintained incrementally so picking a
    /// victim is a `first()` instead of a full frame-table scan.
    evictable: BTreeSet<(u64, PageId)>,
    tick: u64,
    next_page: u64,
    resident_bytes: u64,
    resident_peak: u64,
    /// Frames with `pin > 0`, maintained incrementally on every pin
    /// transition so the hot pin path never walks the frame table.
    pinned: u64,
    pinned_peak: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    flushes: u64,
    writeback_bytes: u64,
    pin_overflows: u64,
}

/// Point-in-time pool statistics (also mirrored into the registry as
/// `relstore.pool.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Pins satisfied from a resident frame.
    pub hits: u64,
    /// Pins that had to load the page from the backend.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back to the backend.
    pub flushes: u64,
    /// Bytes written back to the backend by the pool.
    pub writeback_bytes: u64,
    /// Times the pool exceeded its budget because every frame was
    /// pinned.
    pub pin_overflows: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Highest resident-bytes watermark observed.
    pub resident_peak: u64,
    /// Highest count of simultaneously pinned frames observed.
    pub pinned_peak: u64,
    /// Frames currently resident.
    pub resident_pages: u64,
}

/// The buffer pool. One per [`Database`](crate::Database) (shared by
/// all its tables), or one per standalone [`Table`](crate::Table).
pub struct BufferPool {
    store: Arc<dyn PageStore>,
    page_size: usize,
    max_pages: Option<usize>,
    metrics: Registry,
    gate: RwLock<Option<Arc<dyn FlushGate>>>,
    observer: RwLock<Option<Arc<dyn WritebackObserver>>>,
    state: Mutex<PoolState>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap();
        f.debug_struct("BufferPool")
            .field("resident", &st.frames.len())
            .field("max_pages", &self.max_pages)
            .field("page_size", &self.page_size)
            .finish()
    }
}

impl BufferPool {
    /// Build a pool (and its backend) from `cfg`. `metrics` receives
    /// the `relstore.pool.*` counters; pass `Registry::disabled()` to
    /// opt out.
    pub fn new(cfg: &PoolConfig, metrics: Registry) -> Result<Arc<BufferPool>> {
        let store: Arc<dyn PageStore> = match &cfg.backend {
            PoolBackend::Memory => Arc::new(MemStore::default()),
            PoolBackend::Log(dir, log_cfg) => Arc::new(store::LogPageStore::open(
                dir,
                log_cfg.clone(),
                metrics.clone(),
            )?),
        };
        Ok(Arc::new(BufferPool {
            store,
            page_size: cfg.page_size.max(page::HEADER + page::SLOT),
            max_pages: cfg.max_pages,
            metrics,
            gate: RwLock::new(None),
            observer: RwLock::new(None),
            state: Mutex::new(PoolState::default()),
        }))
    }

    /// The configured page size.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The configured resident-page budget.
    #[must_use]
    pub fn max_pages(&self) -> Option<usize> {
        self.max_pages
    }

    /// Attach (or detach) the WAL flush gate.
    pub fn set_gate(&self, gate: Option<Arc<dyn FlushGate>>) {
        *self.gate.write().unwrap() = gate;
    }

    /// Attach (or detach) the writeback instrumentation hook.
    pub fn set_observer(&self, obs: Option<Arc<dyn WritebackObserver>>) {
        *self.observer.write().unwrap() = obs;
    }

    /// Allocate a fresh page big enough for `capacity` bytes of slotted
    /// content (at least one page-size page), pinned-free and dirty
    /// (it exists only in the pool until first written back).
    pub fn alloc(self: &Arc<Self>, capacity: usize) -> Result<PageId> {
        let size = self.page_size.max(capacity);
        let mut st = self.state.lock().unwrap();
        self.make_room(&mut st)?;
        st.next_page += 1;
        let id = PageId(st.next_page);
        let mut buf = Vec::new();
        page::init(&mut buf, size);
        let rec_lsn = self.log_hint();
        st.resident_bytes += buf.len() as u64;
        st.frames.insert(
            id,
            Frame {
                buf: Arc::new(Mutex::new(buf)),
                pin: 0,
                dirty: true,
                rec_lsn,
                page_lsn: rec_lsn,
                used: 0,
            },
        );
        st.evictable.insert((0, id));
        self.note_usage(&mut st, id);
        self.note_resident(&mut st);
        Ok(id)
    }

    /// Pin a page, loading it from the backend on a miss. The returned
    /// guard keeps the page resident until dropped.
    pub fn pin(self: &Arc<Self>, id: PageId) -> Result<PageRef> {
        let mut st = self.state.lock().unwrap();
        let buf = if let Some(frame) = st.frames.get_mut(&id) {
            frame.pin += 1;
            let newly_pinned = frame.pin == 1;
            let used = frame.used;
            let buf = frame.buf.clone();
            if newly_pinned {
                st.pinned += 1;
                st.evictable.remove(&(used, id));
            }
            st.hits += 1;
            self.metrics.inc("relstore.pool.hits");
            buf
        } else {
            st.misses += 1;
            self.metrics.inc("relstore.pool.misses");
            self.make_room(&mut st)?;
            let bytes = self.store.load(id)?;
            st.resident_bytes += bytes.len() as u64;
            let buf = Arc::new(Mutex::new(bytes));
            st.frames.insert(
                id,
                Frame {
                    buf: buf.clone(),
                    pin: 1,
                    dirty: false,
                    rec_lsn: 0,
                    page_lsn: 0,
                    used: 0,
                },
            );
            st.pinned += 1;
            self.note_resident(&mut st);
            buf
        };
        self.note_usage(&mut st, id);
        if st.pinned > st.pinned_peak {
            st.pinned_peak = st.pinned;
            self.metrics
                .gauge_max("relstore.pool.pinned_peak", st.pinned_peak as i64);
        }
        drop(st);
        Ok(PageRef {
            pool: Arc::clone(self),
            id,
            buf,
        })
    }

    fn unpin(&self, id: PageId) {
        let mut st = self.state.lock().unwrap();
        if let Some(frame) = st.frames.get_mut(&id) {
            debug_assert!(frame.pin > 0, "unpin of unpinned {id}");
            frame.pin = frame.pin.saturating_sub(1);
            let (now_unpinned, used) = (frame.pin == 0, frame.used);
            if now_unpinned {
                st.pinned = st.pinned.saturating_sub(1);
                st.evictable.insert((used, id));
            }
        }
        // If pins forced the pool over budget, shrink back now that one
        // is released. Writeback errors cannot surface from a guard
        // drop; the frame simply stays resident and the next explicit
        // pool operation reports them.
        if let Some(max) = self.max_pages {
            let _ = self.evict_down_to(&mut st, max.max(1));
        }
    }

    /// Record that the log record ending at `lsn` modified `id`.
    /// Called by the transaction layer right after appending the
    /// record, so the flush gate can be asked for exactly this offset
    /// at writeback time.
    pub fn stamp_lsn(&self, id: PageId, lsn: u64) {
        let mut st = self.state.lock().unwrap();
        if let Some(frame) = st.frames.get_mut(&id) {
            frame.page_lsn = frame.page_lsn.max(lsn);
            if frame.dirty && frame.rec_lsn == 0 {
                frame.rec_lsn = lsn;
            }
        }
    }

    /// Drop a page from the pool and the backend (the page is gone,
    /// not spilled). The page must not be pinned.
    pub fn free(&self, id: PageId) {
        let mut st = self.state.lock().unwrap();
        if let Some(frame) = st.frames.remove(&id) {
            debug_assert!(frame.pin == 0, "free of pinned {id}");
            if frame.pin > 0 {
                st.pinned = st.pinned.saturating_sub(1);
            }
            st.evictable.remove(&(frame.used, id));
            st.resident_bytes -= frame.buf.lock().unwrap().len() as u64;
        }
        drop(st);
        self.store.free(id);
    }

    /// Write every dirty frame back to the backend (respecting the
    /// flush gate) and mark it clean. Frames stay resident.
    pub fn flush_all(&self) -> Result<()> {
        let mut st = self.state.lock().unwrap();
        let ids: Vec<PageId> = st
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            self.writeback(&mut st, id)?;
        }
        Ok(())
    }

    /// The dirty-page table: `(page id, rec_lsn)` for every dirty
    /// resident frame, in page order. Fuzzy checkpoints log this so
    /// recovery bounds stay meaningful under a bounded pool.
    #[must_use]
    pub fn dirty_page_table(&self) -> Vec<(u64, u64)> {
        let st = self.state.lock().unwrap();
        st.frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(id, f)| (id.0, f.rec_lsn))
            .collect()
    }

    /// Point-in-time statistics.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let st = self.state.lock().unwrap();
        PoolStats {
            hits: st.hits,
            misses: st.misses,
            evictions: st.evictions,
            flushes: st.flushes,
            writeback_bytes: st.writeback_bytes,
            pin_overflows: st.pin_overflows,
            resident_bytes: st.resident_bytes,
            resident_peak: st.resident_peak,
            pinned_peak: st.pinned_peak,
            resident_pages: st.frames.len() as u64,
        }
    }

    /// Cumulative bytes the backend has ever been asked to store.
    #[must_use]
    pub fn store_bytes_written(&self) -> u64 {
        self.store.bytes_written()
    }

    /// Bytes currently held by the backend.
    #[must_use]
    pub fn store_bytes_stored(&self) -> u64 {
        self.store.bytes_stored()
    }

    /// Pages currently held by the backend.
    #[must_use]
    pub fn store_page_count(&self) -> usize {
        self.store.page_count()
    }

    /// Ask the backend to reclaim dead space (a merge on the
    /// log-structured backend; a no-op elsewhere). Returns bytes
    /// reclaimed.
    pub fn compact_backend(&self) -> Result<u64> {
        self.store.compact()
    }

    fn log_hint(&self) -> u64 {
        self.gate
            .read()
            .unwrap()
            .as_ref()
            .map_or(0, |g| g.log_end_lsn())
    }

    fn note_usage(&self, st: &mut PoolState, id: PageId) {
        st.tick += 1;
        let tick = st.tick;
        if let Some(frame) = st.frames.get_mut(&id) {
            let (old, pin) = (frame.used, frame.pin);
            frame.used = tick;
            if pin == 0 {
                st.evictable.remove(&(old, id));
                st.evictable.insert((tick, id));
            }
        }
    }

    fn note_resident(&self, st: &mut PoolState) {
        if st.resident_bytes > st.resident_peak {
            st.resident_peak = st.resident_bytes;
            self.metrics.gauge_max(
                "relstore.pool.resident_peak_bytes",
                st.resident_bytes as i64,
            );
        }
    }

    /// Make room for one incoming frame: evict down to `max - 1`
    /// residents so the newcomer lands within budget. If every frame is
    /// pinned the pool overshoots temporarily (counted) rather than
    /// deadlocking against its own guards; [`unpin`](Self::unpin)
    /// shrinks it back.
    fn make_room(&self, st: &mut PoolState) -> Result<()> {
        let Some(max) = self.max_pages else {
            return Ok(());
        };
        let target = max.max(1) - 1;
        self.evict_down_to(st, target)?;
        if st.frames.len() > target {
            st.pin_overflows += 1;
            self.metrics.inc("relstore.pool.pin_overflows");
        }
        Ok(())
    }

    /// Evict LRU unpinned frames until at most `target` stay resident
    /// (or every remaining frame is pinned). The victim is the unpinned
    /// frame with the lowest `(used, PageId)` — deterministic by
    /// construction under a single-threaded access sequence.
    fn evict_down_to(&self, st: &mut PoolState, target: usize) -> Result<()> {
        debug_assert_eq!(
            st.evictable.len() as u64 + st.pinned,
            st.frames.len() as u64,
            "evictable index out of sync with frame table"
        );
        while st.frames.len() > target {
            let Some(&(used, victim)) = st.evictable.first() else {
                return Ok(());
            };
            if st.frames[&victim].dirty {
                self.writeback(st, victim)?;
            }
            let frame = st.frames.remove(&victim).expect("victim resident");
            st.evictable.remove(&(used, victim));
            st.resident_bytes -= frame.buf.lock().unwrap().len() as u64;
            st.evictions += 1;
            self.metrics.inc("relstore.pool.evictions");
        }
        Ok(())
    }

    /// Write one dirty frame back: flush the log through
    /// `max(page_lsn, rec_lsn)` first, then hand the image to the
    /// backend and mark the frame clean. `page_lsn` is the ARIES rule;
    /// `rec_lsn` additionally covers a page dirtied *before* its record
    /// was appended and stamped (the engine logs after mutating, so an
    /// eviction can race the stamp) — its conservative end-of-log hint
    /// keeps `rec_lsn <= flushed_lsn` an invariant either way.
    fn writeback(&self, st: &mut PoolState, id: PageId) -> Result<()> {
        let (page_lsn, rec_lsn, buf) = {
            let frame = &st.frames[&id];
            (frame.page_lsn, frame.rec_lsn, frame.buf.clone())
        };
        let gate = self.gate.read().unwrap().clone();
        let flushed = if let Some(gate) = gate {
            gate.ensure_flushed(page_lsn.max(rec_lsn))?;
            gate.flushed_lsn()
        } else {
            u64::MAX
        };
        debug_assert!(rec_lsn <= flushed, "flush rule violated for {id}");
        if let Some(obs) = self.observer.read().unwrap().as_ref() {
            obs.on_writeback(id, rec_lsn, page_lsn, flushed);
        }
        let bytes = buf.lock().unwrap();
        self.store.save(id, &bytes)?;
        st.flushes += 1;
        st.writeback_bytes += bytes.len() as u64;
        self.metrics.inc("relstore.pool.flushes");
        self.metrics
            .add("relstore.pool.writeback_bytes", bytes.len() as u64);
        drop(bytes);
        if let Some(frame) = st.frames.get_mut(&id) {
            frame.dirty = false;
            frame.rec_lsn = 0;
        }
        Ok(())
    }

    pub(crate) fn mark_dirty(&self, id: PageId) {
        let hint = self.log_hint();
        let mut st = self.state.lock().unwrap();
        if let Some(frame) = st.frames.get_mut(&id) {
            if !frame.dirty {
                frame.dirty = true;
                // Conservative: the record describing this mutation has
                // not been appended yet, so it starts at or after the
                // current end of log.
                frame.rec_lsn = hint;
            }
        }
    }
}

/// Pin guard: keeps one page resident while held. Access the bytes
/// with [`with`](PageRef::with) / [`with_mut`](PageRef::with_mut); the
/// latter marks the page dirty.
pub struct PageRef {
    pool: Arc<BufferPool>,
    id: PageId,
    buf: Arc<Mutex<Vec<u8>>>,
}

impl PageRef {
    /// The pinned page's id.
    #[must_use]
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Read the page bytes.
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.buf.lock().unwrap())
    }

    /// Mutate the page bytes; marks the page dirty.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        self.pool.mark_dirty(self.id);
        f(&mut self.buf.lock().unwrap())
    }
}

impl Drop for PageRef {
    fn drop(&mut self) {
        self.pool.unpin(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(max_pages: Option<usize>) -> Arc<BufferPool> {
        BufferPool::new(
            &PoolConfig {
                backend: PoolBackend::Memory,
                max_pages,
                page_size: 64,
            },
            Registry::new(),
        )
        .unwrap()
    }

    fn fill(p: &Arc<BufferPool>, id: PageId, text: &[u8]) {
        let g = p.pin(id).unwrap();
        g.with_mut(|buf| page::insert(buf, text).unwrap());
    }

    #[test]
    fn eviction_is_lru_and_deterministic() {
        let p = pool(Some(2));
        let a = p.alloc(0).unwrap();
        let b = p.alloc(0).unwrap();
        fill(&p, a, b"a-row");
        fill(&p, b, b"b-row");
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        p.pin(a).unwrap();
        let c = p.alloc(0).unwrap();
        fill(&p, c, b"c-row");
        let stats = p.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.flushes, 1, "victim b was dirty");
        assert_eq!(stats.resident_pages, 2);
        // `b` faults back in from the store, intact, evicting `a`.
        let g = p.pin(b).unwrap();
        g.with(|buf| assert_eq!(page::get(buf, 0).unwrap(), b"b-row"));
        let stats = p.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let p = pool(Some(1));
        let a = p.alloc(0).unwrap();
        fill(&p, a, b"pinned");
        let guard = p.pin(a).unwrap();
        // With `a` pinned, allocating overflows the budget instead of
        // evicting it.
        let b = p.alloc(0).unwrap();
        assert_eq!(p.stats().pin_overflows, 1);
        assert_eq!(p.stats().resident_pages, 2);
        guard.with(|buf| assert_eq!(page::get(buf, 0).unwrap(), b"pinned"));
        drop(guard);
        // Pressure resolves once the pin is gone.
        p.pin(b).unwrap();
        assert_eq!(p.stats().resident_pages, 1);
    }

    #[test]
    fn flush_rule_consults_gate() {
        struct Gate {
            flushed: Mutex<u64>,
            asked: Mutex<Vec<u64>>,
        }
        impl FlushGate for Gate {
            fn log_end_lsn(&self) -> u64 {
                77
            }
            fn flushed_lsn(&self) -> u64 {
                *self.flushed.lock().unwrap()
            }
            fn ensure_flushed(&self, lsn: u64) -> Result<()> {
                self.asked.lock().unwrap().push(lsn);
                let mut f = self.flushed.lock().unwrap();
                *f = (*f).max(lsn);
                Ok(())
            }
        }
        struct Check;
        impl WritebackObserver for Check {
            fn on_writeback(&self, id: PageId, rec_lsn: u64, page_lsn: u64, flushed: u64) {
                assert!(rec_lsn <= flushed, "flush rule broken for {id}");
                assert!(page_lsn <= flushed);
            }
        }
        let p = pool(Some(1));
        let gate = Arc::new(Gate {
            flushed: Mutex::new(0),
            asked: Mutex::new(Vec::new()),
        });
        p.set_gate(Some(gate.clone()));
        p.set_observer(Some(Arc::new(Check)));
        let a = p.alloc(0).unwrap();
        fill(&p, a, b"logged");
        p.stamp_lsn(a, 123);
        p.alloc(0).unwrap(); // evicts `a`, must flush through 123
        assert_eq!(gate.asked.lock().unwrap().as_slice(), &[123]);
    }

    #[test]
    fn eviction_racing_the_stamp_flushes_through_rec_lsn() {
        // A page dirtied *before* its record is appended carries only
        // the conservative end-of-log hint in `rec_lsn`; its `page_lsn`
        // is the stale stamp of the previous record. Writeback must
        // flush through the hint too — flushing `page_lsn` alone would
        // leave `rec_lsn > flushed_lsn` (and panic the debug assert).
        struct Gate {
            end: Mutex<u64>,
            flushed: Mutex<u64>,
        }
        impl FlushGate for Gate {
            fn log_end_lsn(&self) -> u64 {
                *self.end.lock().unwrap()
            }
            fn flushed_lsn(&self) -> u64 {
                *self.flushed.lock().unwrap()
            }
            fn ensure_flushed(&self, lsn: u64) -> Result<()> {
                // Flush exactly to the requested offset — a minimal
                // gate (the real WAL may flush further, which would
                // mask an under-asking pool).
                let mut f = self.flushed.lock().unwrap();
                *f = (*f).max(lsn);
                Ok(())
            }
        }
        struct Check;
        impl WritebackObserver for Check {
            fn on_writeback(&self, id: PageId, rec_lsn: u64, _page_lsn: u64, flushed: u64) {
                assert!(rec_lsn <= flushed, "flush rule broken for {id}");
            }
        }
        let p = pool(Some(2));
        let gate = Arc::new(Gate {
            end: Mutex::new(10),
            flushed: Mutex::new(10),
        });
        p.set_gate(Some(gate.clone()));
        p.set_observer(Some(Arc::new(Check)));
        let a = p.alloc(0).unwrap();
        fill(&p, a, b"first");
        p.stamp_lsn(a, 10);
        p.flush_all().unwrap(); // `a` clean, page_lsn = 10
                                // The log grows past the durable horizon (records of other
                                // transactions, appended but unflushed), then `a` is dirtied
                                // again — before its own record exists, so only the hint
                                // covers the change.
        *gate.end.lock().unwrap() = 50;
        fill(&p, a, b"second"); // rec_lsn = 50, page_lsn still 10
        let _b = p.alloc(0).unwrap();
        let _c = p.alloc(0).unwrap(); // evicts `a`
        assert!(p.stats().evictions >= 1, "victim a must be evicted");
        assert_eq!(
            gate.flushed_lsn(),
            50,
            "writeback must flush through the rec_lsn hint, not the stale stamp"
        );
    }

    #[test]
    fn dirty_page_table_tracks_rec_lsn() {
        let p = pool(None);
        let a = p.alloc(0).unwrap();
        let b = p.alloc(0).unwrap();
        fill(&p, a, b"x");
        fill(&p, b, b"y");
        p.stamp_lsn(a, 10);
        p.stamp_lsn(b, 20);
        assert_eq!(p.dirty_page_table(), vec![(a.0, 10), (b.0, 20)]);
        p.flush_all().unwrap();
        assert!(p.dirty_page_table().is_empty());
        assert_eq!(p.stats().flushes, 2);
    }
}
