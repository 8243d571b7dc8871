//! Paged row storage: slotted pages, pluggable backends, and a
//! pinning buffer pool.
//!
//! The paper's storage claims — the design "avoids the abuse of disk
//! storage" and "buffer spaces are used only" when data is actually
//! needed — require the engine to *bound* memory, not merely report
//! it. This module puts every table row behind a fixed-size slotted
//! page ([`page`]), a [`PageStore`] backend the pages spill to
//! ([`MemStore`] by default, [`LogPageStore`] for real disk economy),
//! and a [`BufferPool`] that keeps at most `max_pages` pages resident,
//! pins pages during access, and evicts least-recently-used unpinned
//! pages deterministically.
//!
//! # Interaction with the write-ahead log
//!
//! The pool enforces the ARIES flush rule through an optional
//! [`FlushGate`] (implemented by `wal::Wal`): before a dirty page is
//! written back, the log is flushed through the page's `page_lsn`,
//! which implies `rec_lsn <= flushed_lsn` at writeback — the invariant
//! the crash-point suite asserts via a [`WritebackObserver`]. The
//! backend itself is a *cache spill*, not a recovery authority (see
//! [`store`]), so it is never synced.
//!
//! # Determinism carve-out
//!
//! Eviction order is deterministic *by construction* (strict LRU with
//! `PageId` tie-break on a logical tick) rather than seeded: under a
//! single-threaded workload the same op sequence always touches, and
//! therefore evicts, the same pages in the same order. Under
//! concurrent workloads tick assignment follows thread interleaving,
//! so pool *counters* (hits/misses/evictions) join wall-clock metrics
//! outside the byte-identical determinism contract; logical results
//! are unaffected.

pub mod page;
pub mod pool;
pub mod store;

pub use pool::{BufferPool, FlushGate, PageRef, PoolStats, WritebackObserver};
pub use store::{LogPageStore, MemStore, PageId, PageStore};

use std::path::PathBuf;

/// Which [`PageStore`] backend a pool spills to.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PoolBackend {
    /// Keep evicted pages in memory (the default; preserves the
    /// original all-resident behavior when the pool is unbounded).
    #[default]
    Memory,
    /// Spill evicted pages into a log-structured store rooted at this
    /// directory — append-only segments with merge compaction, so a
    /// long-lived spill reclaims dead page images.
    Log(PathBuf, logstore::LogConfig),
}

/// Buffer-pool configuration, accepted by `Database::with_pool` and
/// carried by `wal::WalOptions`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolConfig {
    /// Where evicted pages go.
    pub backend: PoolBackend,
    /// Maximum resident pages; `None` (default) means unbounded, i.e.
    /// nothing is ever evicted and behavior matches the pre-paged
    /// engine exactly.
    pub max_pages: Option<usize>,
    /// Page size in bytes. Rows larger than a page get a dedicated
    /// page sized to fit.
    pub page_size: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            backend: PoolBackend::Memory,
            max_pages: None,
            page_size: page::DEFAULT_PAGE_SIZE,
        }
    }
}

impl PoolConfig {
    /// Convenience: a log-structured pool bounded to `max_pages`, with
    /// the default compaction policy.
    #[must_use]
    pub fn log(dir: impl Into<PathBuf>, max_pages: usize) -> Self {
        PoolConfig {
            backend: PoolBackend::Log(dir.into(), logstore::LogConfig::default()),
            max_pages: Some(max_pages),
            ..PoolConfig::default()
        }
    }
}
