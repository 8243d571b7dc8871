//! The append-only log writer: buffered appends, group commit, and
//! fuzzy checkpoints.
//!
//! ## Group commit
//!
//! Records are appended to an in-memory buffer under the state mutex;
//! nothing touches the disk until a commit (or an explicit flush)
//! forces durability. The first committer to find no flush in progress
//! becomes the *flusher*: it takes the whole pending buffer — its own
//! records plus those of every transaction that appended meanwhile —
//! writes it, syncs once, and wakes all waiters whose commit LSN is now
//! durable. Committers arriving mid-flush append to the next batch and
//! wait; N concurrent writers therefore share one fsync per batch
//! instead of paying one each. (A per-commit-flush baseline is this
//! same path with committers serialised by the caller: one commit per
//! flush, as `tests/group_commit.rs` checks.)
//!
//! ## Checkpoints
//!
//! [`Wal::checkpoint_any`] captures a transaction-consistent snapshot using
//! the engine's own table-shared locks (readers keep running; writers
//! drain), appends it as a [`WalRecord::Checkpoint`] *while still
//! holding those locks and the append mutex*, and then flushes. The
//! lock/append ordering guarantees that every transaction whose commit
//! record precedes the checkpoint in the log is fully contained in the
//! snapshot, and every later committer appears wholly after it — so
//! recovery may restore the snapshot and replay only the tail.
//!
//! ## One log per station
//!
//! A station that runs several engines (the router's shards) writes
//! them all into one `Wal`: engine `s` logs through a sink that tags its
//! frames with `s` (engine 0's frames carry no tag), and a router
//! transaction commits with one [`Wal::commit_parts`] frame naming its
//! parts, flushed once. [`Wal::checkpoint_station`] writes every
//! engine's checkpoint frame and prunes only below the oldest of them.

use crate::record::{checkpoint_frame, encode, joint_commit_frame, op_frame, WalRecord, MAGIC};
use crate::segments::{self, SEG_HEADER};
use crate::{Lsn, WalError};
use obs::Registry;
use parking_lot::{Condvar, Mutex};
use relstore::lock::TxnId;
use relstore::wal::{RowOp, WalSink};
use relstore::{
    AnyEngine, Database, EngineKind, FlushGate, PoolConfig, Predicate, Snapshot, TableSchema,
    TableSnapshot,
};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for the log writer.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Call `File::sync_data` on every flush (default). Disable only
    /// for tests that do not care about real durability.
    pub sync_data: bool,
    /// Model a slower storage device by sleeping this long per flush
    /// (on top of the real sync). `tests/group_commit.rs` uses it to
    /// give fsync a 1999-spinning-disk cost profile on modern hardware;
    /// `None` (default) adds nothing.
    pub simulated_disk_latency: Option<Duration>,
    /// Registry the log (and recovery, via
    /// [`open_durable_any`](crate::open_durable_any)) records `wal.*`
    /// metrics into. Defaults to a fresh enabled registry; share one across
    /// components by cloning it in here.
    pub metrics: Registry,
    /// Buffer-pool configuration for the database
    /// [`open_durable_any`](crate::open_durable_any) recovers: backend
    /// (memory or log-structured spill), resident-page budget, page
    /// size. The default is an unbounded in-memory pool.
    pub pool: PoolConfig,
    /// Storage engine [`open_durable_any`](crate::open_durable_any)
    /// recovers onto and logs for: strict-2PL (default) or MVCC. The
    /// log format is engine-agnostic — a log written under one engine
    /// replays onto the other.
    pub engine: EngineKind,
    /// Rotate segment files (see [`crate::segments`]) at ~this many
    /// payload bytes; `None` (default) means
    /// [`DEFAULT_SEGMENT_BYTES`](segments::DEFAULT_SEGMENT_BYTES).
    /// Each checkpoint deletes every segment it fully covers, so disk
    /// footprint and recovery work are bounded by the checkpoint
    /// interval. LSNs do not depend on the value.
    pub segment_bytes: Option<u64>,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            sync_data: true,
            simulated_disk_latency: None,
            metrics: Registry::new(),
            pool: PoolConfig::default(),
            engine: EngineKind::TwoPl,
            segment_bytes: None,
        }
    }
}

/// Counters exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (any kind).
    pub records: u64,
    /// Commit records appended.
    pub commits: u64,
    /// Physical flushes (write + sync) performed.
    pub flushes: u64,
    /// Bytes written to the file, excluding the magic header.
    pub bytes_written: u64,
    /// Checkpoint records appended.
    pub checkpoints: u64,
}

struct LogState {
    /// Pending bytes not yet handed to a flusher.
    buf: Vec<u8>,
    /// Everything at offsets `< durable_lsn` is on disk and synced.
    durable_lsn: Lsn,
    /// `durable_lsn` + bytes currently being flushed + `buf.len()`.
    end_lsn: Lsn,
    /// A flusher is between "took the buffer" and "synced it".
    flushing: bool,
    /// `(shard, txn)` of the transactions that have a `Begin` record
    /// appended.
    active: HashSet<(usize, TxnId)>,
    /// Set after an I/O failure: the file contents are suspect, so all
    /// further appends and commits are refused.
    poisoned: bool,
    /// Commit records appended since the last flush took the buffer —
    /// the group-commit batch size the next flush will amortize.
    pending_commits: u64,
    stats: WalStats,
}

/// Where the bytes physically land: a directory of rotating segment
/// files ([`crate::segments`]). Sealed ones are durable in full and
/// become deletable once a checkpoint covers them.
struct Segments {
    dir: PathBuf,
    segment_bytes: u64,
    /// `(base, payload len)` of every sealed segment, ascending.
    sealed: Vec<(Lsn, u64)>,
    active_base: Lsn,
    active_len: u64,
    active: File,
}

impl Segments {
    fn live(&self) -> u64 {
        self.sealed.len() as u64 + 1
    }
}

/// Handles on the metrics the log records per commit and per flush.
struct WalCounters {
    commits: obs::Counter,
    flushes: obs::Counter,
    fsyncs: obs::Counter,
    flush_bytes: obs::HistogramHandle,
    batch_commits: obs::HistogramHandle,
}

impl WalCounters {
    fn new(metrics: &Registry) -> Self {
        WalCounters {
            commits: metrics.counter_handle("wal.commits"),
            flushes: metrics.counter_handle("wal.flushes"),
            fsyncs: metrics.counter_handle("wal.fsyncs"),
            flush_bytes: metrics.histogram_handle("wal.flush.bytes", obs::buckets::BYTES),
            batch_commits: metrics
                .histogram_handle("wal.commit.batch_commits", obs::buckets::COUNT),
        }
    }
}

/// A durable write-ahead log bound to one segment directory, which
/// every engine of a station writes through its own sink;
/// [`open_durable_any`](crate::open_durable_any) and
/// [`open_durable_shards`](crate::open_durable_shards) open, recover
/// and attach it.
pub struct Wal {
    path: PathBuf,
    counters: WalCounters,
    opts: WalOptions,
    state: Mutex<LogState>,
    file: Mutex<Segments>,
    durable: Condvar,
    /// Cumulative bytes reclaimed by segment pruning.
    reclaimed: std::sync::atomic::AtomicU64,
    /// Segments deleted by pruning.
    pruned: std::sync::atomic::AtomicU64,
    /// How many engines write this log: a checkpoint must cover them
    /// all before it may prune.
    engines: std::sync::atomic::AtomicUsize,
}

impl Wal {
    /// Open (creating if missing) the segment directory `dir`, cut
    /// back to `durable_len` — the valid-prefix length a prior scan
    /// of [`read_segments`](segments::read_segments) reported: find
    /// the segment holding `durable_len`, cut the torn tail out of it,
    /// delete anything beyond it, and make it the active segment. That
    /// scan has checked every header and read every payload, so this
    /// only lists the files.
    pub fn open_at(dir: &Path, opts: WalOptions, durable_len: u64) -> Result<Arc<Wal>, WalError> {
        std::fs::create_dir_all(dir)?;
        let segment_bytes = opts
            .segment_bytes
            .unwrap_or(segments::DEFAULT_SEGMENT_BYTES);
        let mut sealed: Vec<(Lsn, u64)> = Vec::new();
        let mut last: Option<(Lsn, u64)> = None;
        for seg in segments::NAMES.list(dir)? {
            if seg.id < durable_len {
                let payload = seg.len.saturating_sub(SEG_HEADER as u64);
                if let Some(prev) = last.replace((seg.id, (durable_len - seg.id).min(payload))) {
                    sealed.push(prev);
                }
            } else {
                // Every frame of this segment is beyond the valid
                // prefix (torn or superseded): drop the whole file.
                segments::NAMES.remove(dir, seg.id)?;
            }
        }
        let (active_base, active_len, active) = match last {
            Some((base, len)) => {
                let mut file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(segments::segment_path(dir, base))?;
                file.set_len(SEG_HEADER as u64 + len)?;
                file.sync_data()?;
                use std::io::Seek;
                file.seek(std::io::SeekFrom::End(0))?;
                (base, len, file)
            }
            None => {
                let base = MAGIC.len() as u64;
                (base, 0, segments::create_segment(dir, base)?)
            }
        };
        let durable_lsn = active_base + active_len;
        let sink = Segments {
            dir: dir.to_owned(),
            segment_bytes,
            sealed,
            active_base,
            active_len,
            active,
        };
        opts.metrics
            .gauge_set("wal.segments_live", sink.live() as i64);
        Ok(Self::build(dir, opts, durable_lsn, sink))
    }

    fn build(path: &Path, opts: WalOptions, durable_lsn: u64, sink: Segments) -> Arc<Wal> {
        Arc::new(Wal {
            path: path.to_owned(),
            counters: WalCounters::new(&opts.metrics),
            opts,
            state: Mutex::new(LogState {
                buf: Vec::new(),
                durable_lsn,
                end_lsn: durable_lsn,
                flushing: false,
                active: HashSet::new(),
                poisoned: false,
                pending_commits: 0,
                stats: WalStats::default(),
            }),
            file: Mutex::new(sink),
            durable: Condvar::new(),
            reclaimed: std::sync::atomic::AtomicU64::new(0),
            pruned: std::sync::atomic::AtomicU64::new(0),
            engines: std::sync::atomic::AtomicUsize::new(1),
        })
    }

    /// The segment directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> WalStats {
        self.state.lock().stats
    }

    /// Offset one past the last appended byte (durable or pending).
    #[must_use]
    pub fn end_lsn(&self) -> Lsn {
        self.state.lock().end_lsn
    }

    /// Offset up to which the file is written *and synced*.
    #[must_use]
    pub fn durable_lsn(&self) -> Lsn {
        self.state.lock().durable_lsn
    }

    /// Append an encoded frame to the pending buffer (no durability
    /// yet). Returns the frame's LSN. Callers encode before they take
    /// the state lock, so the lock covers only this copy.
    fn append(&self, state: &mut LogState, frame: &[u8]) -> Result<Lsn, WalError> {
        if state.poisoned {
            return Err(WalError::Poisoned);
        }
        let lsn = state.end_lsn;
        state.buf.extend_from_slice(frame);
        state.end_lsn += frame.len() as u64;
        state.stats.records += 1;
        Ok(lsn)
    }

    /// Append a checkpoint frame; the caller holds the engine's
    /// concurrency control, so no commit slips in between.
    fn append_checkpoint(&self, frame: &[u8]) -> Result<Lsn, WalError> {
        let mut st = self.state.lock();
        let lsn = self.append(&mut st, frame)?;
        st.stats.checkpoints += 1;
        self.opts.metrics.inc("wal.checkpoints");
        self.opts
            .metrics
            .add("wal.checkpoint.bytes", st.end_lsn - lsn);
        Ok(lsn)
    }

    /// Perform one physical flush of `chunk`.
    fn write_chunk(&self, chunk: &[u8]) -> Result<(), WalError> {
        let mut guard = self.file.lock();
        let seg = &mut *guard;
        // Rotate *between* chunks only: a chunk is whole frames, so
        // segment boundaries stay frame boundaries and recovery can
        // concatenate payloads blindly.
        if seg.active_len >= seg.segment_bytes && !chunk.is_empty() {
            // Seal durably regardless of `sync_data`: pruning and
            // hint-free recovery both rely on sealed segments being
            // complete on disk.
            seg.active.sync_data()?;
            seg.sealed.push((seg.active_base, seg.active_len));
            let base = seg.active_base + seg.active_len;
            seg.active = segments::create_segment(&seg.dir, base)?;
            seg.active_base = base;
            seg.active_len = 0;
            self.opts
                .metrics
                .gauge_set("wal.segments_live", seg.live() as i64);
        }
        seg.active.write_all(chunk)?;
        seg.active_len += chunk.len() as u64;
        if self.opts.sync_data {
            seg.active.sync_data()?;
            self.counters.fsyncs.inc();
        }
        if let Some(d) = self.opts.simulated_disk_latency {
            std::thread::sleep(d);
        }
        Ok(())
    }

    /// Delete every sealed segment fully covered by a durable
    /// checkpoint at `covered` (segment end `<=` the checkpoint LSN:
    /// everything in it is superseded by the snapshot). Returns bytes
    /// reclaimed. Called automatically at the end of every checkpoint;
    /// callers only need it directly if they append checkpoints by
    /// hand.
    pub fn prune_segments(&self, covered: Lsn) -> Result<u64, WalError> {
        let mut seg = self.file.lock();
        let mut reclaimed = 0u64;
        let mut dropped = 0u64;
        // The drop set is a strict prefix: ends are ascending.
        while let Some(&(base, len)) = seg.sealed.first() {
            if base + len > covered {
                break;
            }
            segments::NAMES.remove(&seg.dir, base)?;
            seg.sealed.remove(0);
            reclaimed += len + SEG_HEADER as u64;
            dropped += 1;
        }
        if dropped > 0 {
            use std::sync::atomic::Ordering;
            self.reclaimed.fetch_add(reclaimed, Ordering::Relaxed);
            self.pruned.fetch_add(dropped, Ordering::Relaxed);
            self.opts.metrics.add("wal.bytes_reclaimed", reclaimed);
            self.opts.metrics.add("wal.segments_pruned", dropped);
        }
        self.opts
            .metrics
            .gauge_set("wal.segments_live", seg.live() as i64);
        Ok(reclaimed)
    }

    /// Segment files currently on disk.
    #[must_use]
    pub fn segments_live(&self) -> u64 {
        self.file.lock().live()
    }

    /// Cumulative bytes reclaimed by checkpoint-driven segment
    /// pruning.
    #[must_use]
    pub fn bytes_reclaimed(&self) -> u64 {
        self.reclaimed.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total log bytes currently on disk (headers included) — the
    /// number a checkpoint should shrink.
    #[must_use]
    pub fn disk_bytes(&self) -> u64 {
        let seg = self.file.lock();
        let header = SEG_HEADER as u64;
        seg.sealed.iter().map(|(_, len)| len + header).sum::<u64>() + seg.active_len + header
    }

    /// Record the metrics of one completed flush: the flush itself, its
    /// size, and the group-commit batch it made durable (batch size 0 —
    /// a checkpoint or explicit flush with no commits aboard — is not a
    /// batch and is skipped).
    fn record_flush(&self, bytes: u64, batch_commits: u64) {
        self.counters.flushes.inc();
        self.counters.flush_bytes.observe(bytes);
        if batch_commits > 0 {
            self.counters.batch_commits.observe(batch_commits);
        }
    }

    /// Block until everything at offsets `< target` is durable,
    /// participating in (or waiting on) the shared group flush.
    fn wait_durable(&self, target: Lsn) -> Result<(), WalError> {
        let mut st = self.state.lock();
        loop {
            if st.poisoned {
                return Err(WalError::Poisoned);
            }
            if st.durable_lsn >= target {
                return Ok(());
            }
            if !st.flushing {
                st.flushing = true;
                let chunk = std::mem::take(&mut st.buf);
                let batch_commits = std::mem::take(&mut st.pending_commits);
                drop(st);
                let res = self.write_chunk(&chunk);
                st = self.state.lock();
                st.flushing = false;
                match res {
                    Ok(()) => {
                        st.durable_lsn += chunk.len() as u64;
                        st.stats.flushes += 1;
                        st.stats.bytes_written += chunk.len() as u64;
                        self.record_flush(chunk.len() as u64, batch_commits);
                    }
                    Err(e) => {
                        // The tail of the file is now unknown: refuse
                        // all further work on this handle.
                        st.poisoned = true;
                        self.durable.notify_all();
                        return Err(e);
                    }
                }
                self.durable.notify_all();
            } else {
                self.durable.wait(&mut st);
            }
        }
    }

    /// Force every pending byte to disk (one flush, shared).
    pub fn flush(&self) -> Result<(), WalError> {
        let target = self.state.lock().end_lsn;
        self.wait_durable(target)
    }

    /// Commit a router transaction, whose parts may span the station's
    /// engines: append one [`WalRecord::JointCommit`] naming every
    /// `(shard, txn)` part (shards ascending) and wait until it is
    /// durable, sharing the group flush like any commit. Every part's
    /// records must already be in the log.
    pub fn commit_parts(&self, parts: &[(usize, TxnId)]) -> Result<(), WalError> {
        self.append_commit(&joint_commit_frame(parts)?, parts)
    }

    /// Append a commit frame that ends the transactions `parts`, then
    /// wait until it is durable.
    fn append_commit(&self, frame: &[u8], parts: &[(usize, TxnId)]) -> Result<(), WalError> {
        let target = {
            let mut st = self.state.lock();
            for part in parts {
                st.active.remove(part);
            }
            self.append(&mut st, frame)?;
            st.stats.commits += 1;
            st.pending_commits += 1;
            self.counters.commits.inc();
            st.end_lsn
        };
        self.wait_durable(target)
    }

    /// The 2PL arm of [`Wal::checkpoint_station`]: snapshot under table
    /// locks and append engine `shard`'s checkpoint frame. Retries
    /// internally if the snapshot transaction loses wait-die races with
    /// concurrent writers.
    fn checkpoint_two_pl(&self, shard: usize, db: &Database) -> Result<Lsn, WalError> {
        loop {
            let txn = db.begin();
            let mut tables = std::collections::BTreeMap::new();
            let mut failed = None;
            for name in db.table_names() {
                // Table-shared locks: writers drain, readers continue.
                match txn.select(&name, &Predicate::True) {
                    Ok(rows) => {
                        let schema = db.schema_of(&name).map_err(WalError::Store)?;
                        tables.insert(name, TableSnapshot { schema, rows });
                    }
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            match failed {
                Some(relstore::Error::TxnAborted { .. }) => {
                    drop(txn); // release, back off, retry the snapshot
                    std::thread::yield_now();
                    continue;
                }
                Some(e) => return Err(WalError::Store(e)),
                None => {}
            }
            let snapshot = Snapshot { tables };
            // Fuzzy-checkpoint bookkeeping: which pages are dirty in
            // the pool right now, with the LSN that first dirtied each.
            // Recovery does not need it (the snapshot is complete), but
            // it makes the buffer/WAL coupling observable.
            //
            // Snapshot it *before* taking the WAL state lock: reading
            // the dirty-page table takes the pool state mutex, and
            // dirty-page writeback holds that mutex while the flush
            // gate waits on the WAL state lock. Taking pool-after-WAL
            // here would invert that order and deadlock against a
            // concurrent eviction.
            let dirty_pages = db.dirty_page_table();
            // Encode before taking the state lock, which then covers
            // only the append. Reading `next_txn` here rather than at
            // the append loses nothing: while the snapshot transaction
            // holds every table's shared lock no transaction can log a
            // row op, so every id logged before the checkpoint record
            // is below this value, and analysis bumps past any id in
            // the tail.
            let frame = checkpoint_frame(shard, &snapshot, db.next_txn_id(), &dirty_pages)?;
            // Append while the table locks are held: no commit record
            // can slip between the snapshot's serialization point and
            // the checkpoint record.
            let lsn = self.append_checkpoint(&frame)?;
            txn.commit().map_err(WalError::Store)?;
            return Ok(lsn);
        }
    }

    /// Write a checkpoint of a log that hosts one engine:
    /// [`Wal::checkpoint_station`] of `db` alone. Returns the
    /// checkpoint's LSN.
    pub fn checkpoint_any(&self, db: &AnyEngine) -> Result<Lsn, WalError> {
        self.checkpoint_station(std::slice::from_ref(db))
    }

    /// Write a checkpoint of every engine of the station (engine `i`
    /// logs as shard `i`): each engine's consistent snapshot in its own
    /// checkpoint frame (see module docs), each flushed, then prune
    /// every segment below the *oldest* of those frames — each engine's
    /// stream from its own checkpoint on survives. Returns the newest
    /// frame's LSN. A checkpoint that leaves out an engine of the log
    /// is refused. The 2PL engine checkpoints through its table locks;
    /// the MVCC engine under its commit fence —
    /// [`MvccDb::fenced_snapshot`] holds the commit lock across
    /// snapshot capture *and* the log append. MVCC has no buffer pool,
    /// so its checkpoints carry an empty dirty-page table.
    ///
    /// Lock order note: an MVCC committer takes its commit fence(s) and
    /// then the WAL state lock (to append); this path takes one fence at
    /// a time and then the state lock, so the two cannot deadlock.
    ///
    /// [`MvccDb::fenced_snapshot`]: relstore::MvccDb::fenced_snapshot
    pub fn checkpoint_station(&self, engines: &[AnyEngine]) -> Result<Lsn, WalError> {
        let hosted = self.engines.load(std::sync::atomic::Ordering::Relaxed);
        if engines.len() != hosted {
            return Err(WalError::Store(relstore::Error::Unsupported(format!(
                "a checkpoint of {} engines on a log {hosted} engines write would prune the others' records",
                engines.len()
            ))));
        }
        let mut lsns = Vec::with_capacity(engines.len());
        for (shard, db) in engines.iter().enumerate() {
            lsns.push(match db {
                AnyEngine::TwoPl(db) => self.checkpoint_two_pl(shard, db)?,
                AnyEngine::Mvcc(db) => db
                    .fenced_snapshot(|snapshot, next_txn| {
                        self.append_checkpoint(&checkpoint_frame(shard, &snapshot, next_txn, &[])?)
                    })
                    .map_err(WalError::Store)??,
            });
            self.flush()?;
        }
        // The checkpoints are durable: every segment below the oldest
        // is dead weight to every engine.
        if let Some(&oldest) = lsns.iter().min() {
            self.prune_segments(oldest)?;
        }
        Ok(lsns.last().copied().unwrap_or_else(|| self.end_lsn()))
    }

    /// The sink engine `shard` of the station logs through; the log
    /// counts every engine handed one.
    pub(crate) fn sink(self: &Arc<Self>, shard: usize) -> Arc<dyn WalSink> {
        self.engines
            .fetch_max(shard + 1, std::sync::atomic::Ordering::Relaxed);
        Arc::new(ShardSink {
            wal: self.clone(),
            shard,
        })
    }
}

/// Engine `shard`'s sink into the station log: each frame it writes
/// carries the shard's prefix, which shard 0's frames omit, so a log
/// that one engine writes holds exactly the one-engine bytes.
struct ShardSink {
    wal: Arc<Wal>,
    shard: usize,
}

impl WalSink for ShardSink {
    fn on_op(&self, txn: TxnId, op: RowOp<'_>) -> relstore::Result<u64> {
        let (wal, shard) = (&self.wal, self.shard);
        let frame = op_frame(shard, txn, &op)?;
        let mut st = wal.state.lock();
        if st.active.insert((shard, txn)) {
            wal.append(&mut st, &encode(shard, &WalRecord::Begin { txn })?)?;
        }
        wal.append(&mut st, &frame)?;
        // The record's exclusive end offset: the engine stamps it as
        // the dirtied page's `page_lsn`, so the pool's flush rule
        // ("flush the log through page_lsn before writeback") covers
        // this whole record.
        Ok(st.end_lsn)
    }

    fn on_commit(&self, txn: TxnId) -> relstore::Result<()> {
        let frame = encode(self.shard, &WalRecord::Commit { txn })?;
        Ok(self.wal.append_commit(&frame, &[(self.shard, txn)])?)
    }

    fn on_abort(&self, txn: TxnId) {
        let Ok(frame) = encode(self.shard, &WalRecord::Abort { txn }) else {
            return;
        };
        let mut st = self.wal.state.lock();
        if st.active.remove(&(self.shard, txn)) {
            // Advisory only: in-memory rollback already ran, and
            // recovery treats any commit-less transaction as a loser
            // whether or not the abort record survived.
            let _ = self.wal.append(&mut st, &frame);
        }
    }

    fn on_create_table(&self, schema: &TableSchema) -> relstore::Result<()> {
        let schema = schema.clone();
        let frame = encode(self.shard, &WalRecord::CreateTable { schema })?;
        self.wal.append(&mut self.wal.state.lock(), &frame)?;
        // DDL is auto-committed: make it durable immediately.
        self.wal.flush()?;
        Ok(())
    }
}

/// The WAL as the buffer pool's flush gate: before a dirty page may be
/// written back to the page store, the log must be durable through that
/// page's `page_lsn`. Because `page_lsn >= rec_lsn` by construction,
/// honoring this gate enforces the classic ARIES rule
/// `rec_lsn <= flushed_lsn` at every writeback.
impl FlushGate for Wal {
    fn log_end_lsn(&self) -> u64 {
        self.end_lsn()
    }

    fn flushed_lsn(&self) -> u64 {
        self.durable_lsn()
    }

    fn ensure_flushed(&self, lsn: u64) -> relstore::Result<()> {
        self.wait_durable(lsn).map_err(relstore::Error::from)
    }
}
