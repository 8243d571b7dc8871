//! # wal — durable write-ahead logging for `relstore`
//!
//! The 1999 system delegated durability to the commercial RDBMS behind
//! ODBC; this crate supplies the equivalent for the reproduction's
//! from-scratch engine, in the ARIES spirit scaled to `relstore`'s
//! in-place, strict-2PL design:
//!
//! * an **append-only binary log** ([`record`]) — length + CRC-32
//!   framed records with byte-offset LSNs, payloads in the page store's
//!   row codec: begin/commit/abort, insert/update/delete with
//!   before+after images, DDL, checkpoints, and the shard prefix and
//!   joint commit that let several engines share one log;
//! * **group commit** ([`log`]) — concurrent committers share one
//!   write + fsync per batch instead of paying one each;
//! * **segments** ([`segments`]) — the log is a directory of rotating
//!   segment files, the one on-disk layout, each a framed segment file
//!   of [`logstore::segfile`] (the same header, frame and scan as every
//!   `logstore` file);
//! * **checkpoints** ([`Wal::checkpoint_any`]) — a
//!   transaction-consistent snapshot captured through the engine's own
//!   concurrency control and embedded in the log, bounding how much
//!   tail recovery must replay and deleting every segment it covers;
//! * **crash recovery** ([`recover`]) — analysis → redo → undo over
//!   the surviving prefix: repeat history, then roll dead transactions
//!   back from their before images, yielding exactly the committed
//!   prefix.
//!
//! The crash-point injector the recovery property tests run on (cut
//! the log at any byte offset, torn tails included, across segment
//! files, or flip bits) is test code: `testkit::crash`.
//!
//! ## Quick start
//!
//! ```
//! use relstore::{ColumnType, TableSchema, Value, Predicate};
//! let dir = std::env::temp_dir().join(format!("waldoc-{}.wal.d", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! {
//!     let (db, _wal, _report) = wal::open_durable_any(&dir, wal::WalOptions::default()).unwrap();
//!     db.create_table(
//!         TableSchema::builder("course")
//!             .column("name", ColumnType::Text)
//!             .primary_key(&["name"])
//!             .build()
//!             .unwrap(),
//!     )
//!     .unwrap();
//!     // Durable once `with_txn` returns: it commits on `Ok`.
//!     db.with_txn(|t| t.insert("course", vec!["intro-mm".into()]).map(|_| ()))
//!         .unwrap();
//! }
//! // "Crash", then reopen: the committed row is back.
//! let (db, _wal, report) = wal::open_durable_any(&dir, wal::WalOptions::default()).unwrap();
//! assert_eq!(db.row_count("course").unwrap(), 1);
//! assert!(report.winners.len() == 1);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod log;
pub mod record;
pub mod recover;
pub mod segments;

pub use crate::log::{Wal, WalOptions, WalStats};
pub use crate::record::WalRecord;
pub use crate::recover::{recover_shards, RecoveryReport};
/// The frame checksum: CRC-32 (IEEE 802.3, reflected, zlib/PNG), shared
/// with every framed segment file.
pub use logstore::crc32;

use relstore::{AnyEngine, PoolConfig};
use std::path::Path;
use std::sync::Arc;

/// A byte offset into the log's virtual stream — the address of a
/// record's frame.
pub type Lsn = u64;

/// Everything that can go wrong in the durability layer.
#[derive(Debug)]
pub enum WalError {
    /// The underlying file I/O failed.
    Io(std::io::Error),
    /// A complete record failed its checksum or did not decode — bit
    /// rot, external truncation mid-file, or a writer bug. Never
    /// produced by a clean crash (those tear only the tail).
    Corrupt {
        /// Frame offset of the bad record.
        lsn: Lsn,
        /// What exactly failed.
        reason: String,
    },
    /// The log was written in an older on-disk format (version 0, magic
    /// `wdocwal0` or `wdocseg0`: JSON payloads); it is refused, never
    /// rewritten or deleted.
    UnsupportedFormat {
        /// Offset of the header that carries the old magic.
        lsn: Lsn,
        /// The magic found.
        magic: String,
    },
    /// The directory holds a log in an earlier on-disk layout (one
    /// `shard-<i>.wal.d` log per shard, before a station kept one log);
    /// it is refused, never rewritten or deleted.
    UnsupportedLayout {
        /// The old log directory found.
        path: std::path::PathBuf,
    },
    /// The storage engine refused a recovery operation.
    Store(relstore::Error),
    /// A previous I/O failure left the log tail unknown; the handle
    /// refuses further work.
    Poisoned,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "log I/O failed: {e}"),
            WalError::Corrupt { lsn, reason } => {
                write!(f, "log corrupt at LSN {lsn}: {reason}")
            }
            WalError::UnsupportedFormat { lsn, magic } => write!(
                f,
                "log at LSN {lsn} is in the unsupported format {magic}; this build reads {}",
                String::from_utf8_lossy(record::MAGIC)
            ),
            WalError::UnsupportedLayout { path } => write!(
                f,
                "{} is a per-shard log of an earlier layout; this build keeps one log per station in wal.d",
                path.display()
            ),
            WalError::Store(e) => write!(f, "storage engine: {e}"),
            WalError::Poisoned => write!(f, "log poisoned by an earlier I/O failure"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<WalError> for relstore::Error {
    fn from(e: WalError) -> Self {
        relstore::Error::Wal(e.to_string())
    }
}

/// Open a durable database: read the segment directory `dir`
/// (creating it if missing), run crash recovery over the surviving
/// stream onto the storage engine named by [`WalOptions::engine`],
/// cut any torn tail, and attach the log as the engine's WAL sink so
/// every further transaction is logged. A pruned prefix is legal (the
/// surviving stream then starts at a checkpoint). The log format is
/// engine-agnostic, so a log written under 2PL reopens under MVCC and
/// vice versa — recovery replays the same committed prefix either way.
///
/// The recovered engine sits on a buffer pool built from
/// [`WalOptions::pool`]; the log is installed as that pool's flush
/// gate, so a dirty page can only be written back to the page store
/// once the log is durable past everything that dirtied it (the
/// write-ahead rule, enforced at the eviction path rather than on
/// trust). Recovery itself runs ungated — every record it replays is
/// already durable by definition. For MVCC the flush-gate installation
/// is a no-op (there is no buffer pool to gate); the write-ahead rule
/// is upheld by the engine logging a transaction's operations
/// contiguously at commit time, under its commit fence, before the new
/// versions publish.
///
/// Returns the recovered engine, the live [`Wal`] handle (for
/// checkpoints, flushes and stats) and the [`RecoveryReport`].
pub fn open_durable_any(
    dir: &Path,
    opts: WalOptions,
) -> Result<(AnyEngine, Arc<Wal>, RecoveryReport), WalError> {
    let pool = opts.pool.clone();
    let (mut engines, wal, mut reports) = open_durable_shards(dir, opts, &[pool])?;
    match (engines.pop(), reports.pop()) {
        (Some(db), Some(report)) => Ok((db, wal, report)),
        _ => unreachable!("one pool, one engine"),
    }
}

/// [`open_durable_any`] for a station whose engines share one log: one
/// engine per entry of `pools` (engine `i` is shard `i`, on pool
/// `pools[i]`; the rest of the configuration is `opts`). Recovery
/// splits the log into one stream per engine ([`recover_shards`]);
/// each engine then logs through its own shard of the log, and the
/// log is every pool's flush gate. Returns the engines in shard order,
/// the log, and one report per engine.
#[allow(clippy::type_complexity)]
pub fn open_durable_shards(
    dir: &Path,
    opts: WalOptions,
    pools: &[PoolConfig],
) -> Result<(Vec<AnyEngine>, Arc<Wal>, Vec<RecoveryReport>), WalError> {
    let scan = segments::read_segments(dir)?;
    let raw = record::scan_raw_from(&scan.bytes, scan.base)?;
    let recovered = recover_shards(&raw, scan.base, &opts.metrics, pools, opts.engine)?;
    let wal = Wal::open_at(dir, opts, raw.end)?;
    let (engines, reports): (Vec<_>, Vec<_>) = recovered.into_iter().unzip();
    for (shard, db) in engines.iter().enumerate() {
        db.set_wal_sink(Some(wal.sink(shard)));
        db.set_flush_gate(Some(wal.clone()));
    }
    Ok((engines, wal, reports))
}
