//! Page-store backends: where evicted pages go.
//!
//! The store under the buffer pool is a *cache spill*, not a recovery
//! authority — durability lives entirely in the write-ahead log, which
//! re-materializes pages from the last checkpoint snapshot plus redo.
//! That is why the pool never syncs its store: a torn or stale spill
//! is superseded wholesale on recovery. The WAL flush rule (no dirty page
//! writes back until its first-dirtying record is durable; see
//! [`super::pool`]) is still enforced so the on-disk state never runs
//! ahead of the log, which the crash-point suite asserts.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::sync::Mutex;

use crate::error::{Error, Result};

const POISONED: &str = "a panic while updating the page set leaves it suspect";

/// Identifies one page within a [`PageStore`]. Allocated densely by the
/// buffer pool, never reused within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Backing storage for pages evicted from the buffer pool.
///
/// Pages are variable-size (`>=` the configured page size; oversized
/// rows get a dedicated page sized to fit), so backends address by
/// [`PageId`], not by offset arithmetic.
pub trait PageStore: Send + Sync + fmt::Debug {
    /// Read back a page previously [`save`](PageStore::save)d.
    fn load(&self, id: PageId) -> Result<Vec<u8>>;
    /// Persist a page image (overwrites any previous image).
    fn save(&self, id: PageId, bytes: &[u8]) -> Result<()>;
    /// Drop a page image, if present.
    fn free(&self, id: PageId);
    /// Pages currently held by the store.
    fn page_count(&self) -> usize;
    /// Reclaim dead space, if the backend supports it. Returns bytes
    /// reclaimed; the default (the memory backend) is a no-op.
    fn compact(&self) -> Result<u64> {
        Ok(0)
    }
}

/// In-memory backend: the default, preserving the pre-pagestore
/// behavior where every row lives on the heap. With an unbounded pool
/// nothing is ever evicted into it, so it usually stays empty.
#[derive(Debug, Default)]
pub struct MemStore {
    pages: Mutex<BTreeMap<PageId, Vec<u8>>>,
}

impl PageStore for MemStore {
    fn load(&self, id: PageId) -> Result<Vec<u8>> {
        self.pages
            .lock()
            .expect(POISONED)
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::Page(format!("{id} missing from memory store")))
    }

    fn save(&self, id: PageId, bytes: &[u8]) -> Result<()> {
        self.pages
            .lock()
            .expect(POISONED)
            .insert(id, bytes.to_vec());
        Ok(())
    }

    fn free(&self, id: PageId) {
        self.pages.lock().expect(POISONED).remove(&id);
    }

    fn page_count(&self) -> usize {
        self.pages.lock().expect(POISONED).len()
    }
}

/// Log-structured backend: pages live in a `logstore::LogStore`
/// keyed by big-endian page id. Merge compaction rewrites live page
/// images into fresh segments and deletes the garbage, so a
/// long-lived, high-churn spill stays bounded by its live pages.
/// [`compact`](PageStore::compact) runs a full merge; the store also
/// self-compacts by policy as segments seal.
pub struct LogPageStore {
    store: logstore::LogStore,
    /// Pages the store holds a live image of.
    pages: Mutex<BTreeSet<PageId>>,
}

impl fmt::Debug for LogPageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogPageStore")
            .field("root", &self.store.root())
            .finish()
    }
}

fn page_key(id: PageId) -> [u8; 8] {
    id.0.to_be_bytes()
}

fn log_err(e: logstore::LogError) -> Error {
    Error::Page(format!("log backend: {e}"))
}

impl LogPageStore {
    /// Open (or create) the log-structured spill rooted at `dir`.
    pub fn open(
        dir: &Path,
        cfg: logstore::LogConfig,
        metrics: obs::Registry,
    ) -> Result<LogPageStore> {
        let store = logstore::LogStore::open_with_metrics(dir, cfg, metrics).map_err(log_err)?;
        // A reopened spill may carry pages from a previous process.
        let pages = store
            .entries()
            .map_err(log_err)?
            .into_iter()
            .filter_map(|(k, _)| <[u8; 8]>::try_from(k.as_slice()).ok())
            .map(|key| PageId(u64::from_be_bytes(key)))
            .collect();
        Ok(LogPageStore {
            store,
            pages: Mutex::new(pages),
        })
    }

    /// The underlying log store (segment reports, merge control).
    #[must_use]
    pub fn log(&self) -> &logstore::LogStore {
        &self.store
    }
}

impl PageStore for LogPageStore {
    fn load(&self, id: PageId) -> Result<Vec<u8>> {
        self.store
            .get(&page_key(id))
            .map_err(log_err)?
            .ok_or_else(|| Error::Page(format!("{id} missing from log store")))
    }

    fn save(&self, id: PageId, bytes: &[u8]) -> Result<()> {
        self.store.put(&page_key(id), bytes).map_err(log_err)?;
        self.pages.lock().expect(POISONED).insert(id);
        Ok(())
    }

    fn free(&self, id: PageId) {
        // A failed tombstone append leaves the page behind — harmless
        // for a cache spill (it is dead weight the next merge drops).
        let _ = self.store.remove(&page_key(id));
        self.pages.lock().expect(POISONED).remove(&id);
    }

    fn page_count(&self) -> usize {
        self.pages.lock().expect(POISONED).len()
    }

    fn compact(&self) -> Result<u64> {
        let report = self.store.merge().map_err(log_err)?;
        Ok(report.reclaimed_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn PageStore) {
        let a = PageId(1);
        let b = PageId(2);
        store.save(a, b"aaaa").unwrap();
        store.save(b, b"bbbbbbbb").unwrap();
        assert_eq!(store.load(a).unwrap(), b"aaaa");
        assert_eq!(store.load(b).unwrap(), b"bbbbbbbb");
        assert_eq!(store.page_count(), 2);
        // Shrink in place, then grow.
        store.save(a, b"aa").unwrap();
        assert_eq!(store.load(a).unwrap(), b"aa");
        store.save(a, b"aaaaaaaaaaaaaaaa").unwrap();
        assert_eq!(store.load(a).unwrap(), b"aaaaaaaaaaaaaaaa");
        assert_eq!(store.page_count(), 2);
        store.free(a);
        assert!(store.load(a).is_err());
        assert_eq!(store.page_count(), 1);
    }

    #[test]
    fn mem_store_round_trips() {
        exercise(&MemStore::default());
    }

    #[test]
    fn log_store_round_trips() {
        let dir = std::env::temp_dir().join(format!("relstore-ls-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise(
            &LogPageStore::open(
                &dir,
                logstore::LogConfig::default(),
                obs::Registry::disabled(),
            )
            .unwrap(),
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_store_compacts_churned_pages() {
        let dir = std::env::temp_dir().join(format!("relstore-lc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = LogPageStore::open(
            &dir,
            logstore::LogConfig::small_for_tests(1024),
            obs::Registry::disabled(),
        )
        .unwrap();
        let image = vec![0xabu8; 200];
        for round in 0..50u64 {
            for p in 0..4u64 {
                let mut img = image.clone();
                img[0] = round as u8;
                store.save(PageId(p), &img).unwrap();
            }
        }
        let before = store.log().stats().disk_bytes;
        let reclaimed = store.compact().unwrap();
        assert!(reclaimed > 0);
        assert!(store.log().stats().disk_bytes < before / 2);
        for p in 0..4u64 {
            assert_eq!(store.load(PageId(p)).unwrap()[0], 49);
        }
        // Reopen: the directory survives.
        drop(store);
        let store = LogPageStore::open(
            &dir,
            logstore::LogConfig::small_for_tests(1024),
            obs::Registry::disabled(),
        )
        .unwrap();
        assert_eq!(store.page_count(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
