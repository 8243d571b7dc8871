//! Two-phase commit with durable, presumed-abort state.
//!
//! The protocol state machines are textbook (Mohan/Lindsay presumed
//! abort), made concrete over the `wal` crate's log:
//!
//! **Participant** (one per shard touched by a distributed txn):
//!
//! ```text
//! working ──prepare()──▶ PREPARED ──commit──▶ committed
//!    │                       │
//!    └──abort──▶ aborted ◀───┘ (decision = abort, or presumed)
//! ```
//!
//! `prepare` forces a [`WalRecord::Prepare`] frame — and, transitively,
//! every op frame of the local transaction before it — to disk, then
//! the participant may vote yes. The local `Commit`/`Abort` frame that
//! later resolves the transaction doubles as the 2PC resolution record:
//! a prepared transaction with neither is **in doubt**.
//!
//! **Coordinator**:
//!
//! ```text
//! collecting votes ──all yes──▶ log CommitDecision (forced) ──▶ committed
//!         │
//!         └─any no / timeout──▶ aborted (AbortDecision logged lazily)
//! ```
//!
//! The forced `CommitDecision` is the commit point. Under presumed
//! abort, a gtid absent from the coordinator's log *is* aborted — an
//! abort needs no forced write, which is the optimization's point.
//!
//! **Recovery** reuses the WAL's ordinary analysis/redo/undo pipeline:
//! [`resolve_log`] scans a participant log for in-doubt prepared
//! transactions, asks a decision oracle (the decision table
//! [`read_decisions`] recovers from the coordinator's log), and
//! appends the decided `Commit`/`Abort` frame to the log. After the
//! patch, plain [`wal::open_durable_any`] recovery
//! classifies the transaction as an ordinary winner or loser — no
//! second redo/undo implementation exists.
//!
//! **Decision retention.** The coordinator's log (shard 0's) is pruned
//! by checkpoints like any other, and a checkpoint snapshot says
//! nothing about 2PC state. A `CommitDecision` must therefore stay on
//! disk until every participant has durably logged its own `Commit` —
//! otherwise a crash in between would find a prepared participant, no
//! decision, and presume abort. The coordinator tracks each *open*
//! decision (logged, not yet resolved everywhere) and holds its log's
//! [prune floor](Wal::set_prune_floor) at the oldest one.

use obs::Registry;
use relstore::engine::AnyEngine;
use relstore::lock::TxnId;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use wal::{Lsn, RecoveryReport, Wal, WalError, WalOptions, WalRecord};

/// Global (distributed) transaction id.
pub type Gtid = u64;

/// A coordinator's verdict on one distributed transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Every participant prepared; the decision record is durable.
    Commit,
    /// At least one participant refused, or the gtid is unknown
    /// (presumed abort).
    Abort,
}

/// Force a participant's prepared state durable: the local
/// transaction's op frames, then the `Prepare` frame, all on disk
/// before this returns — only then may the participant vote yes.
pub fn prepare(wal: &Wal, gtid: Gtid, txn: TxnId, metrics: &Registry) -> Result<Lsn, WalError> {
    let lsn = wal.log_dist(&WalRecord::Prepare { gtid, txn })?;
    metrics.inc("shard.2pc.prepares");
    Ok(lsn)
}

/// The coordinator side: gtid allocation and the durable decision
/// log. The write-ahead log is optional so purely in-memory routers
/// (differential tests) can run the same commit path; when present,
/// every commit decision is forced before it is revealed. Decisions
/// live only in the log: recovery reads them back with
/// [`read_decisions`].
pub struct Coordinator {
    wal: Option<Arc<Wal>>,
    next_gtid: std::sync::atomic::AtomicU64,
    /// Commit decisions some participant has not yet resolved, each
    /// with an LSN at or below its `CommitDecision` frame.
    pub(crate) open: Mutex<BTreeMap<Gtid, Lsn>>,
    metrics: Registry,
}

impl Coordinator {
    /// A fresh coordinator. `wal` is the log decisions are forced to
    /// (share the hosting station's shard log — decision frames
    /// interleave harmlessly with row traffic).
    #[must_use]
    pub fn new(wal: Option<Arc<Wal>>, metrics: Registry) -> Self {
        Self::resume(wal, &BTreeMap::new(), metrics)
    }

    /// Restore a coordinator after recovery: gtids continue past the
    /// highest one in `decisions` ([`read_decisions`] over the log it
    /// previously wrote). No decision is open: recovery resolved every
    /// participant first.
    #[must_use]
    pub fn resume(
        wal: Option<Arc<Wal>>,
        decisions: &BTreeMap<Gtid, Decision>,
        metrics: Registry,
    ) -> Self {
        let next = decisions.keys().next_back().map_or(1, |g| g + 1);
        Coordinator {
            wal,
            next_gtid: std::sync::atomic::AtomicU64::new(next),
            open: Mutex::new(BTreeMap::new()),
            metrics,
        }
    }

    /// Allocate the next distributed transaction id.
    pub fn begin(&self) -> Gtid {
        self.next_gtid
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Commit point: force the decision durable. After
    /// this returns, every participant must eventually commit `gtid`,
    /// crash or no crash — so the decision is *open*, and pinned in
    /// the log, until [`Coordinator::resolved`] closes it.
    pub fn decide_commit(&self, gtid: Gtid, participants: &[u64]) -> Result<(), WalError> {
        if let Some(wal) = &self.wal {
            // Pin before logging: the frame lands at or after today's
            // end of log, so no checkpoint can prune it in between.
            self.hold(wal, |open| {
                open.insert(gtid, wal.end_lsn());
            });
            if let Err(e) = wal.log_dist(&WalRecord::CommitDecision {
                gtid,
                participants: participants.to_vec(),
            }) {
                self.resolved(gtid);
                return Err(e);
            }
        }
        self.metrics.inc("shard.2pc.commit_decisions");
        Ok(())
    }

    /// Every participant of `gtid` has durably logged its outcome: the
    /// decision frame is dead weight a checkpoint may now prune.
    pub fn resolved(&self, gtid: Gtid) {
        if let Some(wal) = &self.wal {
            self.hold(wal, |open| {
                open.remove(&gtid);
            });
        }
    }

    /// Edit the open set and move the log's prune floor to its oldest
    /// entry, atomically with respect to other edits.
    fn hold(&self, wal: &Wal, edit: impl FnOnce(&mut BTreeMap<Gtid, Lsn>)) {
        // Through poison: every edit is one whole insert or remove and
        // the floor is recomputed from the whole set, so a panic leaves
        // at worst an entry holding the floor low (more log kept).
        let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        edit(&mut open);
        wal.set_prune_floor(open.values().min().copied());
    }

    /// Record an abort. Lazy by design: presumed abort means losing
    /// this record changes nothing, so I/O errors are swallowed.
    pub fn decide_abort(&self, gtid: Gtid) {
        if let Some(wal) = &self.wal {
            let _ = wal.log_dist(&WalRecord::AbortDecision { gtid });
        }
        self.metrics.inc("shard.2pc.abort_decisions");
    }
}

/// Every complete record surviving in the log under `dir`, plus the
/// length of its valid prefix. A missing directory is an empty log;
/// torn tails are fine (they are the crash being recovered from);
/// corruption is not.
fn read_records(dir: &Path) -> Result<(Vec<(Lsn, WalRecord)>, u64), WalError> {
    let scan = wal::segments::read_segments(dir)?;
    let raw = wal::record::scan_raw_from(&scan.bytes, scan.base)?;
    let mut records = Vec::with_capacity(raw.frames.len());
    for &(lsn, payload) in &raw.frames {
        records.push((lsn, wal::record::decode(lsn, payload)?));
    }
    Ok((records, raw.end))
}

/// Rebuild a coordinator's decision table from its log directory:
/// every durable `CommitDecision`/`AbortDecision` frame a checkpoint
/// has not pruned, later frames winning.
pub fn read_decisions(dir: &Path) -> Result<BTreeMap<Gtid, Decision>, WalError> {
    let mut out = BTreeMap::new();
    for (_, rec) in read_records(dir)?.0 {
        match rec {
            WalRecord::CommitDecision { gtid, .. } => {
                out.insert(gtid, Decision::Commit);
            }
            WalRecord::AbortDecision { gtid } => {
                out.insert(gtid, Decision::Abort);
            }
            _ => {}
        }
    }
    Ok(out)
}

/// One prepared-but-unresolved transaction found in a participant log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InDoubt {
    /// The distributed transaction.
    pub gtid: Gtid,
    /// Its local transaction id on this participant.
    pub txn: TxnId,
}

/// The in-doubt set of the participant log under `dir`: transactions
/// with a durable `Prepare` frame but no local `Commit`/`Abort`
/// resolution.
pub fn in_doubt(dir: &Path) -> Result<Vec<InDoubt>, WalError> {
    Ok(in_doubt_among(&read_records(dir)?.0))
}

fn in_doubt_among(records: &[(Lsn, WalRecord)]) -> Vec<InDoubt> {
    let mut prepared: BTreeMap<TxnId, Gtid> = BTreeMap::new();
    for (_, rec) in records {
        match rec {
            WalRecord::Prepare { gtid, txn } => {
                prepared.insert(*txn, *gtid);
            }
            WalRecord::Commit { txn } | WalRecord::Abort { txn } => {
                prepared.remove(txn);
            }
            _ => {}
        }
    }
    prepared
        .into_iter()
        .map(|(txn, gtid)| InDoubt { gtid, txn })
        .collect()
}

/// Resolve a participant log's in-doubt transactions against a
/// decision oracle by *appending to the log*: open it as a writer
/// (which cuts the torn tail off the active segment), then force the
/// decided `Commit`/`Abort` frame for every in-doubt local transaction
/// through the log's own append path. Nothing already on disk is
/// rewritten, so a crash at any byte of the patch loses no committed
/// transaction and a second pass resolves whatever is still in doubt.
/// Returns the resolved set (with the decisions applied).
///
/// After this, the log is self-describing — ordinary recovery
/// classifies each patched transaction as a winner (redo keeps its
/// effects) or loser (undo reverses them), and a second crash before
/// the engine even opens needs no second oracle round-trip.
pub fn resolve_log(
    dir: &Path,
    opts: WalOptions,
    decide: impl Fn(Gtid) -> Decision,
) -> Result<Vec<(InDoubt, Decision)>, WalError> {
    let (records, durable_len) = read_records(dir)?;
    let doubts = in_doubt_among(&records);
    if doubts.is_empty() {
        return Ok(Vec::new());
    }
    let log = Wal::open_at(dir, opts, durable_len)?;
    let mut out = Vec::with_capacity(doubts.len());
    for d in doubts {
        let decision = decide(d.gtid);
        log.log_dist(&match decision {
            Decision::Commit => WalRecord::Commit { txn: d.txn },
            Decision::Abort => WalRecord::Abort { txn: d.txn },
        })?;
        out.push((d, decision));
    }
    Ok(out)
}

/// Full participant recovery: resolve in-doubt transactions against
/// `decide`, then run the ordinary WAL recovery pipeline. Returns the
/// recovered engine/log plus the resolutions that were applied.
#[allow(clippy::type_complexity)]
pub fn recover_participant(
    path: &Path,
    opts: WalOptions,
    metrics: &Registry,
    decide: impl Fn(Gtid) -> Decision,
) -> Result<
    (
        AnyEngine,
        Arc<Wal>,
        RecoveryReport,
        Vec<(InDoubt, Decision)>,
    ),
    WalError,
> {
    let resolved = resolve_log(path, opts.clone(), decide)?;
    for (_, d) in &resolved {
        match d {
            Decision::Commit => metrics.inc("shard.2pc.resolved_commit"),
            Decision::Abort => metrics.inc("shard.2pc.resolved_abort"),
        }
    }
    let (engine, wal, report) = wal::open_durable_any(path, opts)?;
    Ok((engine, wal, report, resolved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use wal::record::encode_frame;

    /// A one-segment log directory holding `frames`, then `torn` bytes
    /// of a frame that never finished.
    fn write_log(tag: &str, frames: &[WalRecord], torn: &[u8]) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shard-2pc-{}-{tag}.wal.d", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut seg = wal::segments::create_segment(&dir, 8).unwrap();
        for f in frames {
            seg.write_all(&encode_frame(f).unwrap()).unwrap();
        }
        seg.write_all(torn).unwrap();
        dir
    }

    #[test]
    fn in_doubt_detection() {
        let dir = write_log(
            "doubt",
            &[
                WalRecord::Begin { txn: 3 },
                WalRecord::Prepare { gtid: 10, txn: 3 },
                WalRecord::Begin { txn: 4 },
                WalRecord::Prepare { gtid: 11, txn: 4 },
                WalRecord::Commit { txn: 4 },
            ],
            &[],
        );
        assert_eq!(in_doubt(&dir).unwrap(), vec![InDoubt { gtid: 10, txn: 3 }]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resolve_log_patches_commit_and_abort() {
        // A torn tail (half a frame) on top: must be cut away.
        let dir = write_log(
            "resolve",
            &[
                WalRecord::Begin { txn: 1 },
                WalRecord::Prepare { gtid: 7, txn: 1 },
                WalRecord::Begin { txn: 2 },
                WalRecord::Prepare { gtid: 8, txn: 2 },
            ],
            &[9, 0, 0, 0],
        );
        let resolved = resolve_log(&dir, WalOptions::default(), |g| {
            if g == 7 {
                Decision::Commit
            } else {
                Decision::Abort
            }
        })
        .unwrap();
        assert_eq!(resolved.len(), 2);
        assert!(
            in_doubt(&dir).unwrap().is_empty(),
            "patched log is self-describing"
        );
        let scan = wal::scan(&wal::crash::read_log(&dir)).unwrap();
        assert!(matches!(scan.tail, wal::Tail::Clean));
        assert!(scan
            .records
            .iter()
            .any(|(_, r)| matches!(r, WalRecord::Commit { txn: 1 })));
        assert!(scan
            .records
            .iter()
            .any(|(_, r)| matches!(r, WalRecord::Abort { txn: 2 })));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
