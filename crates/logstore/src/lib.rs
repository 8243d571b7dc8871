//! # logstore — Bitcask-style log-structured key/value storage
//!
//! The space-reclaim answer to ROADMAP item 2: an append-only,
//! segmented log with an in-memory key directory, in the lineage of
//! Bitcask (Riak's log-structured hash table). Where the paper's 1999
//! system delegated "avoiding the abuse of disk storage" to a
//! commercial RDBMS, this crate provides the discipline explicitly:
//!
//! * **Append-only segments** — every `put`/`remove` appends a
//!   CRC-framed record (`seg-<id>.log`); nothing is updated in place,
//!   so a crash can only tear the tail of the newest segment.
//! * **Key directory** — an in-memory map from key to
//!   `(segment, offset, length, version)`; reads are one seek.
//! * **Hint files** — each sealed segment gets a `seg-<id>.hint`
//!   digest of its surviving entries (tombstones included), so reopen
//!   reads directories, not data.
//! * **Merge compaction** — [`LogStore::merge`], the one compaction
//!   path, rewrites live entries into fresh segments without holding
//!   the store lock while it copies, then deletes the merged segments
//!   in ascending order of the highest record version each holds, so a
//!   crash at any point can neither resurrect a deleted key nor shadow
//!   a live one (see `store.rs` module docs). A `put` or `remove` that
//!   seals a segment runs the policy ([`LogStore::maybe_merge`]) on its
//!   own thread after releasing the lock.
//!
//! Upstack, `relstore` mounts this as its third `PageStore` backend,
//! `blobstore` as a durable blob backend, and `wal` writes its log
//! segments through the same framed-segment layer ([`segfile`]: header,
//! frame, scan, segment files). The crash and equivalence batteries
//! live in `tests/`.

mod format;
pub mod segfile;
mod store;

pub use format::{DATA_MAGIC, HINT_MAGIC};
pub use segfile::{crc32, FILE_HEADER, FRAME_HEADER};
pub use store::{data_path, hint_path, LogStats, LogStore, MergeReport, SegmentInfo};

/// Errors a [`LogStore`] can surface.
#[derive(Debug)]
pub enum LogError {
    /// The underlying filesystem failed.
    Io(std::io::Error),
    /// A complete frame or header failed validation — distinct from a
    /// torn tail, which recovery tolerates silently.
    Corrupt {
        /// Segment id the defect was found in.
        seg: u64,
        /// Byte offset of the offending frame or header.
        off: u64,
        /// Human-readable diagnosis.
        reason: String,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "logstore I/O error: {e}"),
            LogError::Corrupt { seg, off, reason } => {
                write!(
                    f,
                    "logstore corruption in segment {seg} at offset {off}: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Io(e) => Some(e),
            LogError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LogError>;

/// Tuning knobs for a [`LogStore`]. All-integer so the config can sit
/// inside `Eq` types (e.g. `relstore`'s `PoolBackend`). An append is
/// written, not synced: the store syncs at segment seal, at merge and
/// in [`LogStore::sync`], and layers with their own WAL (the paged
/// backend) need no more.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogConfig {
    /// Seal the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Compaction trigger: merge when at least this percentage of the
    /// sealed segments' payload bytes is dead (0–100).
    pub dead_ratio_pct: u8,
    /// Compaction trigger: require at least this many sealed segments
    /// before a merge is worth its rewrite cost.
    pub min_sealed_segments: usize,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_bytes: 1 << 20,
            dead_ratio_pct: 40,
            min_sealed_segments: 2,
        }
    }
}

impl LogConfig {
    /// A small-segment config for tests: rotation fires after a
    /// handful of records, and a merge is never due
    /// (`min_sealed_segments` is `usize::MAX`), so tests control merge
    /// timing.
    #[must_use]
    pub fn small_for_tests(segment_bytes: u64) -> Self {
        LogConfig {
            segment_bytes,
            dead_ratio_pct: 30,
            min_sealed_segments: usize::MAX,
        }
    }
}
