//! Crash recovery: analysis → redo → undo.
//!
//! Recovery is a pure function of the log bytes. The three classic
//! phases, adapted to `relstore`'s in-place + logical-log design:
//!
//! 1. **Analysis** — scan every complete, checksum-valid frame (the
//!    [`scan`](crate::record::scan) step), locate the last complete
//!    checkpoint, and partition the transactions that appear after it
//!    into *winners* (a `Commit` record made it to disk) and *losers*
//!    (no commit — whether the transaction was still in flight at the
//!    crash or had aborted, its effects must not survive). A retried
//!    transaction reuses its id, so an id is classified by its *last*
//!    `Commit` or `Abort` record.
//! 2. **Redo** — restore the checkpoint snapshot (or an empty database
//!    when none exists), then repeat history: re-apply every logged
//!    mutation after the checkpoint, winners and losers alike, exactly
//!    as the engine first executed it. Repeating history reproduces
//!    the precise row-id allocation of the original run, which is what
//!    lets the undo images line up. An `Abort` record is replayed as
//!    the rollback it stands for: the engine undid that transaction in
//!    memory *before* appending the record and *before* releasing its
//!    locks, so no later record can depend on the un-rolled-back state
//!    — undoing at exactly that point repeats history faithfully. Every
//!    id keeps an undo stack during redo: `Abort` unwinds it, `Commit`
//!    drops it, so an aborted attempt is undone even when a later
//!    attempt under the same id commits.
//! 3. **Undo** — walk the remaining losers' (in flight at the crash,
//!    neither committed nor aborted) operations in reverse log order
//!    and invert each one from its before image: un-insert, un-update,
//!    un-delete. What remains is exactly the committed prefix.
//!
//! Torn final frames (a crash mid-write) terminate replay cleanly; a
//! checksum failure anywhere else is surfaced as
//! [`WalError::Corrupt`] — a corrupted record is *never* applied.
//!
//! A station log shared by several engines is first split into one
//! stream per engine: each frame goes to the shard its prefix names,
//! and a joint commit becomes a `Commit` of its part in every shard it
//! names, at its own place in the log. Only frames from the oldest of
//! the engines' last checkpoints on are split. The three phases then
//! run on each stream exactly as on a one-engine log: one frame
//! commits every part of a cross-shard transaction, so each stream
//! sees it committed or none does.

use crate::record::{
    checkpoint_shard, decode, is_checkpoint, route, scan_raw, RawScan, Route, WalRecord, MAGIC,
};
use crate::{Lsn, WalError};
use obs::Registry;
use relstore::lock::TxnId;
use relstore::{AnyEngine, EngineKind, PoolConfig, RowOp};
use std::collections::BTreeMap;
use std::time::Instant;

/// What recovery found and did — reported for logging and tests, and
/// mirrored into the `wal.recover.*` counters.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Complete records scanned (the whole log, including
    /// pre-checkpoint frames and, on a station log, every engine's).
    pub records_scanned: usize,
    /// LSN of the checkpoint that was restored, if any.
    pub checkpoint_lsn: Option<Lsn>,
    /// Transactions re-applied and kept (commit record on disk).
    pub winners: Vec<TxnId>,
    /// Transactions in flight at the crash (neither commit nor abort
    /// record on disk), rolled back by the undo phase.
    pub losers: Vec<TxnId>,
    /// Transactions the engine had already aborted (abort record on
    /// disk), replayed and rolled back at their abort point.
    pub aborted: Vec<TxnId>,
    /// Mutations re-applied during redo.
    pub redone_ops: usize,
    /// Mutations inverted during undo.
    pub undone_ops: usize,
    /// One past the highest transaction id named by the log (or
    /// recorded in the checkpoint): the id the recovered engine must
    /// resume allocation at, so a post-recovery commit record can
    /// never alias a dead transaction from an earlier life of the log.
    pub next_txn: TxnId,
    /// Number of dirty pages the restored checkpoint recorded in its
    /// dirty-page table — how far the buffer pool lagged the log at
    /// checkpoint time. Zero when there was no checkpoint (or the pool
    /// was clean).
    pub checkpoint_dirty_pages: usize,
    /// Offset of the torn final frame, when the crash tore one.
    pub torn_tail: Option<Lsn>,
    /// Length of the valid prefix; the log should be truncated here
    /// before new records are appended.
    pub durable_len: u64,
}

/// Rebuild an [`AnyEngine`] of the requested kind, on a buffer pool
/// configured by `cfg`, from the log's virtual byte stream (magic
/// header + every frame since LSN 8 — what
/// [`crash::read_log`](crate::crash::read_log) returns for an unpruned
/// directory). Records `wal.recover.*` metrics into `metrics`:
/// per-phase wall-clock durations (gauges, outside the obs determinism
/// contract) and exact counters mirroring the [`RecoveryReport`].
///
/// The returned engine has **no WAL sink installed** and recovery runs
/// ungated (every record being replayed is, by definition, already
/// durable); [`open_durable_any`](crate::open_durable_any) attaches
/// the live log as sink and flush gate afterwards.
///
/// The log format is engine-agnostic — begin /
/// mutation / commit / abort records with before+after images — so a
/// log written under one engine replays onto the other. Redo repeats
/// history through the engine's `redo_*` primitives (for MVCC each
/// redo installs a fresh committed version; superseded ones are
/// ordinary GC fodder afterwards), and undo inverts loser mutations
/// from their before images exactly as on the 2PL engine.
pub fn recover_bytes_any(
    bytes: &[u8],
    metrics: &Registry,
    cfg: &PoolConfig,
    kind: EngineKind,
) -> Result<(AnyEngine, RecoveryReport), WalError> {
    let scanned = scan_raw(bytes)?;
    recover_scan_any(&scanned, MAGIC.len() as Lsn, metrics, cfg, kind)
}

/// Recovery over an already-scanned frame stream whose first byte sits
/// at absolute LSN `base` — the entry point for a log directory, where
/// checkpoint-driven truncation may have deleted the log's prefix. When `base` shows the prefix was pruned, the surviving
/// stream **must** contain a checkpoint (pruning only ever deletes
/// segments a checkpoint covers); its absence is corruption, never a
/// silently-empty database.
pub fn recover_scan_any(
    scanned: &RawScan<'_>,
    base: Lsn,
    metrics: &Registry,
    cfg: &PoolConfig,
    kind: EngineKind,
) -> Result<(AnyEngine, RecoveryReport), WalError> {
    let mut engines = recover_shards(scanned, base, metrics, std::slice::from_ref(cfg), kind)?;
    Ok(engines.pop().expect("one pool, one engine"))
}

/// [`recover_scan_any`] for a station log that one engine per entry of
/// `pools` shares: the frames are split into one stream per engine
/// (see the module docs) and each stream recovers onto its own engine,
/// on its own pool, in shard order. A frame naming a shard the station
/// does not have is corruption.
pub fn recover_shards(
    scanned: &RawScan<'_>,
    base: Lsn,
    metrics: &Registry,
    pools: &[PoolConfig],
    kind: EngineKind,
) -> Result<Vec<(AnyEngine, RecoveryReport)>, WalError> {
    // Each engine replays from its own last checkpoint: route nothing
    // before the oldest of those, found by one reverse pass.
    let mut last = vec![None; pools.len()];
    for (i, &(_, payload)) in scanned.frames.iter().enumerate().rev() {
        if let Some(slot) = checkpoint_shard(payload).and_then(|s| last.get_mut(s)) {
            slot.get_or_insert(i);
            if last.iter().all(Option::is_some) {
                break;
            }
        }
    }
    let from = last.iter().map(|i| i.unwrap_or(0)).min().unwrap_or(0);
    let mut streams: Vec<Vec<(Lsn, Entry<'_>)>> = vec![Vec::new(); pools.len()];
    for &(lsn, payload) in &scanned.frames[from..] {
        let mut to = |shard: usize, entry| {
            let stream = streams.get_mut(shard).ok_or_else(|| WalError::Corrupt {
                lsn,
                reason: format!("a frame names shard {shard} of {} engines", pools.len()),
            })?;
            stream.push((lsn, entry));
            Ok::<_, WalError>(())
        };
        match route(lsn, payload)? {
            Route::Shard(shard, record) => to(shard, Entry::Frame(record))?,
            Route::Joint(parts) => {
                for (shard, txn) in parts {
                    to(shard, Entry::Commit(txn))?;
                }
            }
        }
    }
    metrics.add("wal.recover.records_scanned", scanned.frames.len() as u64);
    streams
        .iter()
        .zip(pools)
        .map(|(stream, cfg)| recover_stream(stream, scanned, base, metrics, cfg, kind))
        .collect()
}

/// One frame of an engine's stream: its own record, prefix stripped,
/// or its part of a joint commit.
#[derive(Clone, Copy)]
enum Entry<'a> {
    Frame(&'a [u8]),
    Commit(TxnId),
}

/// Analysis, redo and undo over one engine's stream of `scanned`.
fn recover_stream(
    stream: &[(Lsn, Entry<'_>)],
    scanned: &RawScan<'_>,
    base: Lsn,
    metrics: &Registry,
    cfg: &PoolConfig,
    kind: EngineKind,
) -> Result<(AnyEngine, RecoveryReport), WalError> {
    let phase_start = Instant::now();
    let mut report = RecoveryReport {
        records_scanned: scanned.frames.len(),
        torn_tail: scanned.torn_at,
        durable_len: scanned.end,
        ..RecoveryReport::default()
    };

    // --- Analysis -----------------------------------------------------
    // Find the last complete checkpoint; replay starts right after it.
    // Everything earlier stays checksum-verified but *undecoded*: the
    // checkpoint image supersedes it, which is what keeps recovery time
    // proportional to the checkpoint interval rather than to history.
    let checkpoint_idx = stream
        .iter()
        .rposition(|(_, e)| matches!(e, Entry::Frame(p) if is_checkpoint(p)));
    if checkpoint_idx.is_none() && base > MAGIC.len() as Lsn {
        return Err(WalError::Corrupt {
            lsn: base,
            reason: format!(
                "log prefix pruned (stream starts at LSN {base}) but no checkpoint survives"
            ),
        });
    }
    let decode_from = match checkpoint_idx {
        Some(i) => {
            report.checkpoint_lsn = Some(stream[i].0);
            i
        }
        None => 0,
    };
    let mut decoded: Vec<(Lsn, WalRecord)> = Vec::with_capacity(stream.len() - decode_from);
    for &(lsn, entry) in &stream[decode_from..] {
        decoded.push((
            lsn,
            match entry {
                Entry::Frame(payload) => decode(lsn, payload)?,
                Entry::Commit(txn) => WalRecord::Commit { txn },
            },
        ));
    }
    let tail = if checkpoint_idx.is_some() {
        &decoded[1..]
    } else {
        &decoded[..]
    };
    // An id's *last* outcome classifies it: a wait-die retry reuses
    // its id, so one id can log an `Abort` and later a `Commit`.
    let mut last: BTreeMap<TxnId, Option<bool>> = BTreeMap::new();
    report.next_txn = 1;
    for (_, rec) in tail {
        if let Some(txn) = rec.txn() {
            report.next_txn = report.next_txn.max(txn + 1);
            last.insert(
                txn,
                match rec {
                    WalRecord::Commit { .. } => Some(true),
                    WalRecord::Abort { .. } => Some(false),
                    _ => None,
                },
            );
        }
    }
    let with = |o: Option<bool>| -> Vec<TxnId> {
        last.iter()
            .filter(|&(_, &l)| l == o)
            .map(|(&t, _)| t)
            .collect()
    };
    report.winners = with(Some(true));
    report.aborted = with(Some(false));
    report.losers = with(None);
    metrics.gauge_set(
        "wal.recover.analysis_us",
        phase_start.elapsed().as_micros() as i64,
    );

    // --- Redo ---------------------------------------------------------
    // Start from the checkpoint image (schemas included) or from
    // nothing, then repeat history.
    let db = if checkpoint_idx.is_some() {
        match &decoded[0].1 {
            WalRecord::Checkpoint {
                snapshot,
                next_txn,
                dirty_pages,
            } => {
                // Ids issued before the checkpoint are invisible to
                // replay; the checkpoint carries the counter for them.
                report.next_txn = report.next_txn.max(*next_txn);
                report.checkpoint_dirty_pages = dirty_pages.len();
                AnyEngine::restore_with(kind, snapshot, cfg).map_err(WalError::Store)?
            }
            _ => unreachable!("the tag byte identified a checkpoint"),
        }
    } else {
        AnyEngine::with_pool(kind, cfg).map_err(WalError::Store)?
    };
    db.resume_txn_ids(report.next_txn);
    // One undo stack per id, filled while redoing: `Commit` clears it,
    // `Abort` unwinds it, and what is left at the end is the losers'.
    let mut undo: BTreeMap<TxnId, Vec<RowOp<'_>>> = BTreeMap::new();
    for (lsn, rec) in tail {
        if let Some((txn, op)) = rec.op() {
            match op {
                RowOp::Insert { table, id, after } => db.redo_insert(table, id, after.clone()),
                RowOp::Update {
                    table, id, after, ..
                } => db.redo_update(table, id, after.clone()),
                RowOp::Delete { table, id, .. } => db.redo_delete(table, id),
            }
            .map_err(|e| redo_fail(*lsn, e))?;
            report.redone_ops += 1;
            undo.entry(txn).or_default().push(op);
            continue;
        }
        match rec {
            WalRecord::CreateTable { schema } => {
                db.create_table(schema.clone()).map_err(WalError::Store)?;
            }
            WalRecord::Commit { txn } => {
                undo.remove(txn);
            }
            WalRecord::Abort { txn } => {
                // Repeat the rollback where history performed it: the
                // engine undid this transaction (still holding its
                // locks) immediately before this record hit the log.
                if let Some(ops) = undo.remove(txn) {
                    report.undone_ops += undo_txn(&db, ops)?;
                }
            }
            // Row operations were replayed above; `Begin` and the
            // checkpoint restored first change nothing here.
            _ => {}
        }
    }
    let redo_done = Instant::now();
    metrics.gauge_set(
        "wal.recover.redo_us",
        (redo_done - phase_start).as_micros() as i64,
    );

    // --- Undo ---------------------------------------------------------
    // Strict two-phase locking means no two in-flight transactions ever
    // touched the same row, so per-transaction reverse order suffices;
    // iterate losers deterministically (id order) all the same.
    for ops in undo.into_values() {
        report.undone_ops += undo_txn(&db, ops)?;
    }
    metrics.gauge_set(
        "wal.recover.undo_us",
        redo_done.elapsed().as_micros() as i64,
    );
    metrics.add("wal.recover.redone_ops", report.redone_ops as u64);
    metrics.add("wal.recover.undone_ops", report.undone_ops as u64);
    metrics.add("wal.recover.winners", report.winners.len() as u64);
    metrics.add("wal.recover.losers", report.losers.len() as u64);
    metrics.add("wal.recover.aborted", report.aborted.len() as u64);

    Ok((db, report))
}

/// Invert one transaction's replayed mutations, newest first.
fn undo_txn(db: &AnyEngine, ops: Vec<RowOp<'_>>) -> Result<usize, WalError> {
    let n = ops.len();
    for op in ops.into_iter().rev() {
        match op {
            RowOp::Insert { table, id, .. } => db.redo_delete(table, id),
            RowOp::Update {
                table, id, before, ..
            } => db.redo_update(table, id, before.clone()),
            RowOp::Delete { table, id, before } => db.redo_insert(table, id, before.clone()),
        }
        .map_err(WalError::Store)?;
    }
    Ok(n)
}

fn redo_fail(lsn: Lsn, e: relstore::Error) -> WalError {
    WalError::Corrupt {
        lsn,
        reason: format!("redo failed — log inconsistent with itself: {e}"),
    }
}
