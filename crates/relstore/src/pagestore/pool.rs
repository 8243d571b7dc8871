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
//!
//! # Who takes which lock
//!
//! Every page ever allocated has a frame — pin count, LRU stamp,
//! residency flag and the page image under the *page's* mutex — in a
//! table read without locks (`crate::slots`). Pinning a resident page and
//! dropping the pin touch only that frame:
//!
//! * **pin** — increment the frame's pin count, *then* check that the
//!   frame is still published as resident; if not, take the increment
//!   back and go the slow way.
//! * **evict** (under the pool mutex) — pick an unpinned victim,
//!   un-publish it, *then* re-check its pin count; if a pin slipped
//!   in, re-publish and pick another.
//!
//! Both sides write first and read second (all `SeqCst`), so a pinner
//! and an evictor of the same frame cannot both win. The pool mutex
//! guards what is left: page allocation and free, a miss (load and
//! publish), eviction and writeback (held across the backend I/O, as
//! before), the victim order, and the slow-path statistics. Dirty
//! state and LSN stamps sit with the image under the page mutex.
//!
//! The victim order is kept lazily: a pin only stamps the frame, and
//! the evictor re-files a frame whose stamp moved since it was listed
//! before it trusts the order's head. An unbounded pool never evicts,
//! so it does not stamp at all.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use obs::{Counter, Registry};

use super::store::{self, MemStore, PageId, PageStore};
use super::{page, PoolBackend, PoolConfig};
use crate::error::Result;
use crate::slots::{OwnLine, Slots};

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

/// A page image and what writeback needs to know about it.
#[derive(Default)]
struct PageBuf {
    /// Empty while the page is not resident.
    bytes: Vec<u8>,
    dirty: bool,
    /// LSN of (a conservative lower bound on) the record that first
    /// dirtied this page since it was last clean. Zero when clean.
    rec_lsn: u64,
    /// Highest LSN whose record touched this page.
    page_lsn: u64,
}

/// Everything the pool knows about one page id, resident or not.
#[derive(Default)]
#[repr(align(64))]
struct Frame {
    /// Outstanding [`PageRef`]s.
    pin: AtomicU32,
    /// Published: the image is in `page` and a pin may rely on it.
    /// Changed only under the pool mutex.
    resident: AtomicBool,
    /// Logical access tick for LRU (bounded pools only).
    used: AtomicU64,
    /// The `used` value this frame is filed under in the victim order.
    /// Read and written only under the pool mutex.
    listed: AtomicU64,
    /// Pins served without the pool mutex since the frame was loaded.
    hits: AtomicU64,
    page: Mutex<PageBuf>,
}

impl Frame {
    fn page(&self) -> MutexGuard<'_, PageBuf> {
        self.page
            .lock()
            .expect("a panic while mutating a page leaves its image suspect")
    }
}

#[derive(Default)]
struct PoolState {
    /// Every resident frame, once, as `(frame.listed, id)`: the
    /// eviction policy's victim order up to stamps that moved since
    /// (see [`BufferPool::pick_victim`]).
    order: BTreeSet<(u64, PageId)>,
    next_page: u64,
    resident_bytes: u64,
    resident_peak: u64,
    /// Hits of frames since evicted or freed.
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
    /// Most frames any one thread had pinned at once.
    pub pinned_peak: u64,
    /// Frames currently resident.
    pub resident_pages: u64,
}

/// Handles on the pool's `relstore.pool.*` counters.
struct PoolCounters {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    flushes: Counter,
    writeback_bytes: Counter,
    pin_overflows: Counter,
}

impl PoolCounters {
    fn new(metrics: &Registry) -> Self {
        let c = |name: &str| metrics.counter_handle(&format!("relstore.pool.{name}"));
        PoolCounters {
            hits: c("hits"),
            misses: c("misses"),
            evictions: c("evictions"),
            flushes: c("flushes"),
            writeback_bytes: c("writeback_bytes"),
            pin_overflows: c("pin_overflows"),
        }
    }
}

thread_local! {
    /// Frames this thread took from unpinned to pinned and has not
    /// released yet (in any pool).
    static PINNED: Cell<u64> = const { Cell::new(0) };
}

/// The buffer pool. One per [`Database`](crate::Database) (shared by
/// all its tables), or one per standalone [`Table`](crate::Table).
pub struct BufferPool {
    store: Arc<dyn PageStore>,
    page_size: usize,
    max_pages: Option<usize>,
    /// Receives the peak gauges (by name: a new peak is rare).
    metrics: Registry,
    counters: PoolCounters,
    gate: RwLock<Option<Arc<dyn FlushGate>>>,
    observer: RwLock<Option<Arc<dyn WritebackObserver>>>,
    /// Frame of page `id` at index `id.0`.
    frames: Slots<Frame>,
    /// Source of LRU stamps (bounded pools only, where every pin
    /// writes it).
    tick: OwnLine<AtomicU64>,
    pinned_peak: AtomicU64,
    /// More frames are resident than the budget allows (every eviction
    /// candidate was pinned); the next dropped pin shrinks the pool.
    over_budget: AtomicBool,
    state: Mutex<PoolState>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("resident", &self.state().order.len())
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
        Ok(Arc::new(Self::over(store, cfg, metrics)))
    }

    fn over(store: Arc<dyn PageStore>, cfg: &PoolConfig, metrics: Registry) -> BufferPool {
        BufferPool {
            store,
            page_size: cfg.page_size.max(page::HEADER + page::SLOT),
            max_pages: cfg.max_pages,
            counters: PoolCounters::new(&metrics),
            metrics,
            gate: RwLock::new(None),
            observer: RwLock::new(None),
            frames: Slots::new(),
            tick: OwnLine(AtomicU64::new(0)),
            pinned_peak: AtomicU64::new(0),
            over_budget: AtomicBool::new(false),
            state: Mutex::new(PoolState::default()),
        }
    }

    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state
            .lock()
            .expect("a panic under the pool mutex leaves its accounting suspect")
    }

    /// The frame of a page the pool has published at some point.
    fn frame(&self, id: PageId) -> Option<&Frame> {
        self.frames.get(usize::try_from(id.0).ok()?)
    }

    /// The frame of a resident page (listed in the victim order).
    fn listed(&self, id: PageId) -> &Frame {
        self.frame(id).expect("listed page has a frame")
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
    pub fn alloc(&self, capacity: usize) -> Result<PageId> {
        let size = self.page_size.max(capacity);
        let mut st = self.state();
        self.make_room(&mut st)?;
        st.next_page += 1;
        let id = PageId(st.next_page);
        let mut bytes = Vec::new();
        page::init(&mut bytes, size);
        let rec_lsn = self.log_hint();
        self.publish(
            &mut st,
            id,
            PageBuf {
                bytes,
                dirty: true,
                rec_lsn,
                page_lsn: rec_lsn,
            },
        );
        Ok(id)
    }

    /// Pin a page, loading it from the backend on a miss. The returned
    /// guard keeps the page resident until dropped.
    pub fn pin(&self, id: PageId) -> Result<PageRef<'_>> {
        if let Some(frame) = self.frame(id) {
            let was = frame.pin.fetch_add(1, Ordering::SeqCst);
            if frame.resident.load(Ordering::SeqCst) {
                return Ok(self.hit(id, frame, was));
            }
            frame.pin.fetch_sub(1, Ordering::SeqCst);
        }
        // Not resident, or being evicted: settle it under the mutex.
        let mut st = self.state();
        if let Some(frame) = self.frame(id).filter(|f| f.resident.load(Ordering::SeqCst)) {
            let was = frame.pin.fetch_add(1, Ordering::SeqCst);
            return Ok(self.hit(id, frame, was));
        }
        st.misses += 1;
        self.counters.misses.inc();
        self.make_room(&mut st)?;
        let bytes = self.store.load(id)?;
        let frame = self.publish(
            &mut st,
            id,
            PageBuf {
                bytes,
                ..PageBuf::default()
            },
        );
        let was = frame.pin.fetch_add(1, Ordering::SeqCst);
        drop(st);
        self.note_pinned(was);
        Ok(PageRef {
            pool: self,
            frame,
            id,
        })
    }

    /// Bookkeeping of a pin that found its frame resident.
    fn hit<'p>(&'p self, id: PageId, frame: &'p Frame, pins_before: u32) -> PageRef<'p> {
        frame.hits.fetch_add(1, Ordering::Relaxed);
        self.counters.hits.inc();
        if self.max_pages.is_some() {
            frame.used.store(self.next_tick(), Ordering::Relaxed);
        }
        self.note_pinned(pins_before);
        PageRef {
            pool: self,
            frame,
            id,
        }
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Count a frame this thread took from unpinned to pinned, and
    /// raise the peak if this is the most it has held at once.
    fn note_pinned(&self, pins_before: u32) {
        if pins_before > 0 {
            return;
        }
        let held = PINNED.with(|p| {
            p.set(p.get() + 1);
            p.get()
        });
        if held > self.pinned_peak.load(Ordering::Relaxed) {
            self.pinned_peak.fetch_max(held, Ordering::Relaxed);
            self.metrics
                .gauge_max("relstore.pool.pinned_peak", held as i64);
        }
    }

    fn unpin(&self, frame: &Frame) {
        let was = frame.pin.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(was > 0, "unpin of an unpinned frame");
        if was == 1 {
            PINNED.with(|p| p.set(p.get().saturating_sub(1)));
        }
        // If pins forced the pool over budget, shrink back now that one
        // is released. Writeback errors cannot surface from a guard
        // drop; the frame simply stays resident and the next explicit
        // pool operation reports them.
        if self.over_budget.load(Ordering::Relaxed) {
            if let Some(max) = self.max_pages {
                let _ = self.evict_down_to(&mut self.state(), max.max(1));
            }
        }
    }

    /// Record that the log record ending at `lsn` modified `id`.
    /// Called by the transaction layer right after appending the
    /// record, so the flush gate can be asked for exactly this offset
    /// at writeback time.
    pub fn stamp_lsn(&self, id: PageId, lsn: u64) {
        let Some(frame) = self.frame(id) else { return };
        let mut page = frame.page();
        if frame.resident.load(Ordering::Relaxed) {
            page.page_lsn = page.page_lsn.max(lsn);
            if page.dirty && page.rec_lsn == 0 {
                page.rec_lsn = lsn;
            }
        }
    }

    /// Drop a page from the pool and the backend (the page is gone,
    /// not spilled). The page must not be pinned.
    pub fn free(&self, id: PageId) {
        let mut st = self.state();
        if let Some(frame) = self.frame(id).filter(|f| f.resident.load(Ordering::SeqCst)) {
            debug_assert!(frame.pin.load(Ordering::SeqCst) == 0, "free of pinned {id}");
            self.retire(&mut st, id, frame);
        }
        drop(st);
        self.store.free(id);
    }

    /// Write every dirty frame back to the backend (respecting the
    /// flush gate) and mark it clean. Frames stay resident.
    pub fn flush_all(&self) -> Result<()> {
        let mut st = self.state();
        for id in Self::resident_ids(&st) {
            let frame = self.listed(id);
            if frame.page().dirty {
                self.writeback(&mut st, id, frame)?;
            }
        }
        Ok(())
    }

    /// The dirty-page table: `(page id, rec_lsn)` for every dirty
    /// resident frame, in page order. Fuzzy checkpoints log this so
    /// recovery bounds stay meaningful under a bounded pool.
    #[must_use]
    pub fn dirty_page_table(&self) -> Vec<(u64, u64)> {
        let st = self.state();
        Self::resident_ids(&st)
            .into_iter()
            .filter_map(|id| {
                let page = self.listed(id).page();
                page.dirty.then_some((id.0, page.rec_lsn))
            })
            .collect()
    }

    /// Resident page ids in page order.
    fn resident_ids(st: &PoolState) -> Vec<PageId> {
        let mut ids: Vec<PageId> = st.order.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// Point-in-time statistics.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let st = self.state();
        let live_hits: u64 = st
            .order
            .iter()
            .map(|&(_, id)| self.listed(id).hits.load(Ordering::Relaxed))
            .sum();
        PoolStats {
            hits: st.hits + live_hits,
            misses: st.misses,
            evictions: st.evictions,
            flushes: st.flushes,
            writeback_bytes: st.writeback_bytes,
            pin_overflows: st.pin_overflows,
            resident_bytes: st.resident_bytes,
            resident_peak: st.resident_peak,
            pinned_peak: self.pinned_peak.load(Ordering::Relaxed),
            resident_pages: st.order.len() as u64,
        }
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

    /// Make `page` the resident image of `id`: file it in the victim
    /// order under a fresh stamp and open it to optimistic pins.
    fn publish(&self, st: &mut PoolState, id: PageId, page: PageBuf) -> &Frame {
        let index = usize::try_from(id.0).expect("page ids are allocated from 1 upwards");
        let frame = self.frames.ensure(index);
        st.resident_bytes += page.bytes.len() as u64;
        if st.resident_bytes > st.resident_peak {
            st.resident_peak = st.resident_bytes;
            self.metrics.gauge_max(
                "relstore.pool.resident_peak_bytes",
                st.resident_bytes as i64,
            );
        }
        *frame.page() = page;
        let stamp = if self.max_pages.is_some() {
            self.next_tick()
        } else {
            0
        };
        frame.used.store(stamp, Ordering::Relaxed);
        frame.listed.store(stamp, Ordering::Relaxed);
        st.order.insert((stamp, id));
        self.note_budget(st);
        frame.resident.store(true, Ordering::SeqCst);
        frame
    }

    /// Take an un-pinned frame out of the pool: its image is dropped
    /// and its hits move to the pool's total.
    fn retire(&self, st: &mut PoolState, id: PageId, frame: &Frame) {
        frame.resident.store(false, Ordering::SeqCst);
        let page = std::mem::take(&mut *frame.page());
        st.resident_bytes -= page.bytes.len() as u64;
        st.hits += frame.hits.swap(0, Ordering::Relaxed);
        st.order.remove(&(frame.listed.load(Ordering::Relaxed), id));
        self.note_budget(st);
    }

    fn note_budget(&self, st: &PoolState) {
        let over = self
            .max_pages
            .is_some_and(|max| st.order.len() > max.max(1));
        self.over_budget.store(over, Ordering::Relaxed);
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
        if st.order.len() > target {
            st.pin_overflows += 1;
            self.counters.pin_overflows.inc();
        }
        Ok(())
    }

    /// The unpinned resident frame with the lowest `(used, PageId)`,
    /// if any. The order lists each frame under the stamp it had when
    /// last filed; stamps only grow, so a frame's true place is at or
    /// after its listed one, and the first unpinned entry whose stamp
    /// still matches is the true minimum. One that does not match is
    /// re-filed under its current stamp and the search starts over.
    fn pick_victim(&self, st: &mut PoolState) -> Option<(PageId, &Frame)> {
        loop {
            let (listed, id, frame) = st
                .order
                .iter()
                .map(|&(listed, id)| (listed, id, self.listed(id)))
                .find(|(_, _, f)| f.pin.load(Ordering::SeqCst) == 0)?;
            let used = frame.used.load(Ordering::Relaxed);
            if used == listed {
                return Some((id, frame));
            }
            st.order.remove(&(listed, id));
            st.order.insert((used, id));
            frame.listed.store(used, Ordering::Relaxed);
        }
    }

    /// Evict LRU unpinned frames until at most `target` stay resident
    /// (or every remaining frame is pinned) — deterministic by
    /// construction under a single-threaded access sequence.
    fn evict_down_to(&self, st: &mut PoolState, target: usize) -> Result<()> {
        while st.order.len() > target {
            let Some((victim, frame)) = self.pick_victim(st) else {
                return Ok(());
            };
            // Un-publish, then look at the pin count again: a pin that
            // got in before the flag fell keeps the frame.
            frame.resident.store(false, Ordering::SeqCst);
            if frame.pin.load(Ordering::SeqCst) != 0 {
                frame.resident.store(true, Ordering::SeqCst);
                continue;
            }
            if frame.page().dirty {
                if let Err(e) = self.writeback(st, victim, frame) {
                    frame.resident.store(true, Ordering::SeqCst);
                    return Err(e);
                }
            }
            self.retire(st, victim, frame);
            st.evictions += 1;
            self.counters.evictions.inc();
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
    fn writeback(&self, st: &mut PoolState, id: PageId, frame: &Frame) -> Result<()> {
        let (page_lsn, rec_lsn) = {
            let page = frame.page();
            (page.page_lsn, page.rec_lsn)
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
        let mut page = frame.page();
        self.store.save(id, &page.bytes)?;
        st.flushes += 1;
        st.writeback_bytes += page.bytes.len() as u64;
        self.counters.flushes.inc();
        self.counters.writeback_bytes.add(page.bytes.len() as u64);
        page.dirty = false;
        page.rec_lsn = 0;
        Ok(())
    }
}

/// Pin guard: keeps one page resident while held. Access the bytes
/// with [`with`](PageRef::with) / [`with_mut`](PageRef::with_mut); the
/// latter marks the page dirty.
pub struct PageRef<'p> {
    pool: &'p BufferPool,
    frame: &'p Frame,
    id: PageId,
}

impl PageRef<'_> {
    /// The pinned page's id.
    #[must_use]
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Read the page bytes.
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.frame.page().bytes)
    }

    /// Mutate the page bytes; marks the page dirty.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let mut page = self.frame.page();
        if !page.dirty {
            // Conservative: the record describing this mutation has not
            // been appended yet, so it starts at or after the current
            // end of log. The log is asked with no page held (the gate
            // takes the log's own lock), then the page is looked at
            // again — a writeback may have cleaned it, a racing writer
            // dirtied it.
            drop(page);
            let hint = self.pool.log_hint();
            page = self.frame.page();
            if !page.dirty {
                page.dirty = true;
                page.rec_lsn = hint;
            }
        }
        f(&mut page.bytes)
    }
}

impl Drop for PageRef<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.frame);
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

    fn fill(p: &BufferPool, id: PageId, text: &[u8]) {
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

    /// A fixed pin/mutate/free sequence over 12 pages on a pool of 4.
    fn scripted_churn(p: &Arc<BufferPool>) {
        let mut ids: Vec<PageId> = (0..12).map(|_| p.alloc(0).unwrap()).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..3000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % ids.len();
            match step % 7 {
                // Mostly reads, skewed to the low pages.
                0..=3 => {
                    let g = p.pin(ids[i / 2]).unwrap();
                    g.with(|b| assert!(b.len() >= page::HEADER));
                }
                4 | 5 => {
                    let g = p.pin(ids[i]).unwrap();
                    g.with_mut(|b| {
                        if page::insert(b, &step.to_le_bytes()).is_none() {
                            page::init(b, 64);
                        }
                    });
                }
                // Two pins at once, then a page dies and another is born.
                _ => {
                    let a = p.pin(ids[i]).unwrap();
                    let b = p.pin(ids[(i + 5) % ids.len()]).unwrap();
                    drop(a);
                    drop(b);
                    if step % 49 == 6 {
                        p.free(ids[i]);
                        ids[i] = p.alloc(0).unwrap();
                    }
                    // More pins than the pool has room for.
                    if step % 91 == 6 {
                        let held: Vec<_> = ids[..5].iter().map(|&id| p.pin(id).unwrap()).collect();
                        drop(held);
                    }
                }
            }
        }
        p.flush_all().unwrap();
    }

    /// The pool before pins stopped taking its mutex gave exactly these
    /// numbers for this sequence: hits, victim order (hence misses,
    /// evictions and flushes), overflows and peaks are a function of
    /// the access sequence alone.
    #[test]
    fn one_thread_sequence_reproduces_the_locked_pools_stats() {
        let p = pool(Some(4));
        scripted_churn(&p);
        assert_eq!(
            p.stats(),
            PoolStats {
                hits: 1260,
                misses: 2333,
                evictions: 2341,
                flushes: 856,
                writeback_bytes: 54784,
                pin_overflows: 33,
                resident_bytes: 256,
                resident_peak: 320,
                pinned_peak: 5,
                resident_pages: 4,
            }
        );
        // The registry saw the same run.
        let m = &p.metrics;
        assert_eq!(m.counter("relstore.pool.hits"), 1260);
        assert_eq!(m.counter("relstore.pool.misses"), 2333);
        assert_eq!(m.counter("relstore.pool.evictions"), 2341);
        assert_eq!(m.gauge("relstore.pool.pinned_peak"), Some(5));
    }

    /// A backend that counts what the pool asks of it.
    #[derive(Debug, Default)]
    struct CountingStore {
        inner: MemStore,
        loads: AtomicU64,
        saves: AtomicU64,
    }

    impl PageStore for CountingStore {
        fn load(&self, id: PageId) -> Result<Vec<u8>> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            self.inner.load(id)
        }
        fn save(&self, id: PageId, bytes: &[u8]) -> Result<()> {
            self.saves.fetch_add(1, Ordering::Relaxed);
            self.inner.save(id, bytes)
        }
        fn free(&self, id: PageId) {
            self.inner.free(id);
        }
        fn page_count(&self) -> usize {
            self.inner.page_count()
        }
    }

    fn counter_of(buf: &[u8]) -> u64 {
        u64::from_le_bytes(page::get(buf, 0).unwrap().try_into().unwrap())
    }

    /// Four threads pin, bump and unpin sixteen counter pages through a
    /// pool of four: every bump must survive the evictions in between,
    /// a page must stay put while a guard is out on it, and every pin
    /// must be counted as exactly one hit or one miss.
    #[test]
    fn concurrent_pins_lose_no_image_and_evict_no_pinned_frame() {
        const THREADS: u64 = 4;
        const STEPS: u64 = 50_000;
        let store = Arc::new(CountingStore::default());
        let cfg = PoolConfig {
            backend: PoolBackend::Memory,
            max_pages: Some(4),
            page_size: 64,
        };
        let p = BufferPool::over(store.clone(), &cfg, Registry::new());
        let ids: Vec<PageId> = (0..16).map(|_| p.alloc(0).unwrap()).collect();
        for &id in &ids {
            fill(&p, id, &0u64.to_le_bytes());
        }
        let before = p.stats();
        let bumps: Vec<Vec<u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (p, ids) = (&p, &ids);
                    s.spawn(move || {
                        let mut mine = vec![0u64; ids.len()];
                        let mut x = t + 1;
                        for _ in 0..STEPS {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let i = (x >> 33) as usize % ids.len();
                            let guard = p.pin(ids[i]).unwrap();
                            let seen = guard.with_mut(|buf| {
                                let n = counter_of(buf) + 1;
                                page::init(buf, 64);
                                page::insert(buf, &n.to_le_bytes()).unwrap();
                                n
                            });
                            mine[i] += 1;
                            // Churn the pool while the guard is out.
                            let other = p.pin(ids[(i + 7) % ids.len()]).unwrap();
                            drop(other);
                            assert!(guard.frame.resident.load(Ordering::SeqCst));
                            assert!(guard.with(counter_of) >= seen);
                        }
                        mine
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (i, &id) in ids.iter().enumerate() {
            let want: u64 = bumps.iter().map(|mine| mine[i]).sum();
            assert_eq!(p.pin(id).unwrap().with(counter_of), want, "page {i}");
        }
        let after = p.stats();
        let pins = 2 * THREADS * STEPS + ids.len() as u64;
        assert_eq!(
            (after.hits - before.hits) + (after.misses - before.misses),
            pins
        );
        assert_eq!(after.misses, store.loads.load(Ordering::Relaxed));
        assert_eq!(after.flushes, store.saves.load(Ordering::Relaxed));
        assert!(after.misses > before.misses, "the pool of 4 had to evict");
        assert!(after.resident_pages <= 4);
        assert_eq!(after.hits, p.metrics.counter("relstore.pool.hits"));
        assert_eq!(after.misses, p.metrics.counter("relstore.pool.misses"));
    }

    /// The hit path holds no pool-wide lock: a thread is parked *inside*
    /// a writeback — under the pool mutex, as writebacks run — and a pin
    /// of another, resident page still completes.
    #[test]
    fn concurrent_resident_pin_completes_during_a_writeback() {
        use std::sync::mpsc;
        struct Park {
            parked: Mutex<mpsc::Sender<()>>,
            release: Mutex<mpsc::Receiver<()>>,
        }
        impl WritebackObserver for Park {
            fn on_writeback(&self, _: PageId, _: u64, _: u64, _: u64) {
                self.parked.lock().unwrap().send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
            }
        }
        let p = pool(Some(2));
        let a = p.alloc(0).unwrap();
        let b = p.alloc(0).unwrap();
        fill(&p, a, b"victim");
        fill(&p, b, b"resident");
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        p.set_observer(Some(Arc::new(Park {
            parked: Mutex::new(parked_tx),
            release: Mutex::new(release_rx),
        })));
        std::thread::scope(|s| {
            // `a` is the LRU victim; it is dirty, so making room for a
            // third page writes it back first.
            let p = &*p;
            let evictor = s.spawn(move || p.alloc(0).unwrap());
            parked_rx.recv().unwrap();
            let (done_tx, done_rx) = mpsc::channel();
            let pinner = s.spawn(move || {
                let got = p
                    .pin(b)
                    .unwrap()
                    .with(|buf| page::get(buf, 0).unwrap().to_vec());
                done_tx.send(got).unwrap();
            });
            let got = done_rx.recv_timeout(std::time::Duration::from_secs(20));
            release_tx.send(()).unwrap();
            evictor.join().unwrap();
            pinner.join().unwrap();
            assert_eq!(
                got.expect("pin of a resident page waited for the writeback"),
                b"resident"
            );
        });
        p.set_observer(None);
        let stats = p.stats();
        assert_eq!((stats.evictions, stats.flushes), (1, 1));
        p.pin(a)
            .unwrap()
            .with(|buf| assert_eq!(page::get(buf, 0).unwrap(), b"victim"));
    }
}
