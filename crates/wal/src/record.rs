//! Log records and their on-disk framing.
//!
//! The log's virtual byte stream is an 8-byte magic header followed by
//! a sequence of *frames* (on disk the frames live in segment files,
//! see [`crate::segments`]):
//!
//! ```text
//! ┌─────────────┬─────────────┬───────────────────┐
//! │ len: u32 LE │ crc: u32 LE │ payload (len B)   │
//! └─────────────┴─────────────┴───────────────────┘
//! ```
//!
//! `crc` is the CRC-32 of the payload; the payload is one serialized
//! [`WalRecord`]. An [`Lsn`] is simply the byte offset of a frame's
//! first header byte — monotonic, stable across restarts, and directly
//! usable to truncate or cut the log.
//!
//! [`scan`] walks a byte slice and classifies the tail: a frame cut
//! short by the end of the file is a **torn tail** (the normal shape of
//! a crash mid-write — replay stops there), while a *complete* frame
//! whose CRC does not match is **corruption** (bit rot or a bug) and is
//! reported as a hard error rather than silently applied or skipped.

use crate::crc::crc32;
use crate::{Lsn, WalError};
use relstore::lock::TxnId;
use relstore::{Row, RowId, Snapshot, TableSchema};
use serde::{Deserialize, Serialize};

/// Stream magic: identifies a wdoc WAL, version 0.
pub const MAGIC: &[u8; 8] = b"wdocwal0";

/// Frame header size (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single frame payload; anything larger in a header
/// is treated as corruption (a torn write cannot invent bytes, so an
/// absurd length can only come from bit rot).
pub const MAX_FRAME: u32 = 1 << 30;

/// One logical log record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WalRecord {
    /// Transaction `txn` wrote its first record.
    Begin {
        /// The transaction id.
        txn: TxnId,
    },
    /// Transaction `txn` committed; every record of it precedes this.
    Commit {
        /// The transaction id.
        txn: TxnId,
    },
    /// Transaction `txn` rolled back (its in-memory effects were
    /// undone before the abort was logged).
    Abort {
        /// The transaction id.
        txn: TxnId,
    },
    /// Redo image of an insert.
    Insert {
        /// Owning transaction.
        txn: TxnId,
        /// Table written.
        table: String,
        /// Row id assigned.
        row: RowId,
        /// Full row as stored.
        after: Row,
    },
    /// Before/after images of an update.
    Update {
        /// Owning transaction.
        txn: TxnId,
        /// Table written.
        table: String,
        /// Row id updated.
        row: RowId,
        /// Row before the update (undo image).
        before: Row,
        /// Row after the update (redo image).
        after: Row,
    },
    /// Before image of a delete.
    Delete {
        /// Owning transaction.
        txn: TxnId,
        /// Table written.
        table: String,
        /// Row id deleted.
        row: RowId,
        /// Row before the delete (undo image).
        before: Row,
    },
    /// Auto-committed DDL: a table was created.
    CreateTable {
        /// The schema, verbatim.
        schema: TableSchema,
    },
    /// A checkpoint: the full committed state at a write-quiescent
    /// point. Recovery restores the *last complete* checkpoint and
    /// replays only the log tail after it, which is what bounds
    /// recovery time by checkpoint interval.
    Checkpoint {
        /// Consistent snapshot of every table.
        snapshot: Snapshot,
        /// The engine's next transaction id at the checkpoint. Replay
        /// starts after the checkpoint, so ids issued before it are
        /// invisible to recovery — this field keeps the recovered
        /// engine from ever reissuing one.
        next_txn: TxnId,
        /// The buffer pool's dirty-page table at checkpoint time:
        /// `(page id, rec_lsn)` for every resident dirty page, where
        /// `rec_lsn` is the LSN that first dirtied the page since its
        /// last writeback. ARIES would use this to bound redo; here the
        /// snapshot already carries full state, so the table is
        /// informational — it records how far the pool lagged the log,
        /// which the recovery report surfaces.
        ///
        /// `default` so checkpoint records written before this field
        /// existed still decode (as an empty table) — the WAL frame
        /// format itself is unchanged.
        #[serde(default)]
        dirty_pages: Vec<(u64, u64)>,
    },
    /// Two-phase commit, participant side: local transaction `txn` is
    /// *prepared* on behalf of distributed transaction `gtid` — all of
    /// its op records precede this frame and are durable, and the
    /// participant has promised to commit or abort exactly as the
    /// coordinator decides. Under presumed abort, a prepared
    /// transaction with no later `Commit`/`Abort` frame is **in
    /// doubt**: recovery must resolve it against the coordinator's
    /// decision log before the usual loser-undo may run
    /// (`shard::recovery` patches the log with the resolved outcome and
    /// then reuses the ordinary analysis/redo/undo machinery).
    Prepare {
        /// The distributed (global) transaction id.
        gtid: u64,
        /// The participant's local transaction being prepared.
        txn: TxnId,
    },
    /// Two-phase commit, coordinator side: the commit decision for
    /// `gtid` is durable. Forced to disk *before* any participant is
    /// told to commit — the decision is the commit point of the
    /// distributed transaction. Under presumed abort this is the only
    /// record a coordinator must force; a `gtid` absent from the
    /// decision log is, by definition, aborted.
    CommitDecision {
        /// The distributed transaction id.
        gtid: u64,
        /// Participant shards (informational: lets recovery and the
        /// scenario tests enumerate who must converge).
        participants: Vec<u64>,
    },
    /// Two-phase commit, coordinator side: `gtid` was aborted. Never
    /// *required* under presumed abort (absence means abort); logged
    /// lazily so operators and tests can distinguish "decided abort"
    /// from "never heard of it".
    AbortDecision {
        /// The distributed transaction id.
        gtid: u64,
    },
}

impl WalRecord {
    /// The owning transaction, for transactional records.
    #[must_use]
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            WalRecord::Begin { txn }
            | WalRecord::Commit { txn }
            | WalRecord::Abort { txn }
            | WalRecord::Insert { txn, .. }
            | WalRecord::Update { txn, .. }
            | WalRecord::Delete { txn, .. } => Some(*txn),
            // `Prepare` carries a local txn id, but deliberately does
            // not *own* the transaction for analysis purposes: the
            // local txn's own Begin/op/Commit frames drive the ordinary
            // winner/loser classification, and the 2PC layer resolves
            // in-doubt outcomes before that classification runs.
            WalRecord::CreateTable { .. }
            | WalRecord::Checkpoint { .. }
            | WalRecord::Prepare { .. }
            | WalRecord::CommitDecision { .. }
            | WalRecord::AbortDecision { .. } => None,
        }
    }
}

/// Serialize `record` into a framed byte vector.
pub fn encode_frame(record: &WalRecord) -> Result<Vec<u8>, WalError> {
    let payload = serde_json::to_string(record)
        .map_err(|e| WalError::Corrupt {
            lsn: 0,
            reason: format!("record failed to serialize: {e}"),
        })?
        .into_bytes();
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("frame < 4 GiB")
            .to_le_bytes(),
    );
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Why the scan stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// The byte stream ended exactly on a frame boundary.
    Clean,
    /// The final frame (or the magic header) was cut short — the
    /// normal signature of a crash mid-write. Replay stops at `at`;
    /// everything before it is intact.
    Torn {
        /// Offset of the first byte of the incomplete frame.
        at: Lsn,
    },
}

/// Result of scanning a log byte stream.
#[derive(Debug)]
pub struct Scan {
    /// Every complete, checksum-valid record with its LSN, in order.
    pub records: Vec<(Lsn, WalRecord)>,
    /// How the stream ended.
    pub tail: Tail,
    /// Length of the valid prefix (magic + complete frames) — the
    /// offset a reopened log should be truncated to before appending.
    pub durable_len: u64,
}

/// A checksum-verified but not-yet-decoded log: frame payloads are
/// borrowed slices. Decoding is the expensive part of a scan, and
/// recovery only needs it from the last checkpoint on — everything
/// earlier is superseded by the checkpoint image.
#[derive(Debug)]
pub struct RawScan<'a> {
    /// `(lsn, payload)` of every complete, checksum-valid frame.
    pub frames: Vec<(Lsn, &'a [u8])>,
    /// How the stream ended.
    pub tail: Tail,
    /// Length of the valid prefix (magic + complete frames).
    pub durable_len: u64,
}

/// JSON prefix of a serialized [`WalRecord::Checkpoint`] — external
/// enum tagging makes the variant name the first object key, so a
/// byte-prefix test identifies checkpoints without decoding.
const CHECKPOINT_PREFIX: &[u8] = b"{\"Checkpoint\"";

impl RawScan<'_> {
    /// Index into `frames` of the last checkpoint record, if any.
    #[must_use]
    pub fn last_checkpoint(&self) -> Option<usize> {
        self.frames
            .iter()
            .rposition(|(_, payload)| payload.starts_with(CHECKPOINT_PREFIX))
    }
}

/// Decode one frame payload.
pub fn decode(lsn: Lsn, payload: &[u8]) -> Result<WalRecord, WalError> {
    let text = std::str::from_utf8(payload).map_err(|e| WalError::Corrupt {
        lsn,
        reason: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| WalError::Corrupt {
        lsn,
        reason: format!("payload failed to decode: {e}"),
    })
}

/// Walk `bytes` (a whole virtual log stream: magic header, then every
/// frame since LSN 8), verify every frame's checksum, and return the
/// frame payloads undecoded.
///
/// Returns `Err(WalError::Corrupt)` for a *complete* frame that fails
/// its CRC and for a wrong magic header — a cut can only shorten the
/// stream, so those states imply corruption, not a crash.
pub fn scan_raw(bytes: &[u8]) -> Result<RawScan<'_>, WalError> {
    if bytes.len() < MAGIC.len() {
        // A crash before the header finished: an empty log.
        return Ok(RawScan {
            frames: Vec::new(),
            tail: if bytes.is_empty() {
                Tail::Clean
            } else {
                Tail::Torn { at: 0 }
            },
            durable_len: 0,
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(WalError::Corrupt {
            lsn: 0,
            reason: "bad magic: not a wdoc WAL".into(),
        });
    }
    scan_raw_from(&bytes[MAGIC.len()..], MAGIC.len() as Lsn)
}

/// Walk a headerless frame stream whose first byte sits at absolute
/// offset `base` in the LSN space. This is how a log directory is
/// scanned: segment payloads concatenate into one stream whose base is
/// the first surviving segment's base LSN (the magic header is
/// per-file there, not part of the stream). `scan_raw` is the
/// unpruned special case with `base = MAGIC.len()`.
pub fn scan_raw_from(bytes: &[u8], base: Lsn) -> Result<RawScan<'_>, WalError> {
    let mut frames = Vec::new();
    let mut off = 0usize;
    loop {
        if off == bytes.len() {
            return Ok(RawScan {
                frames,
                tail: Tail::Clean,
                durable_len: base + off as u64,
            });
        }
        let lsn = base + off as Lsn;
        if bytes.len() - off < FRAME_HEADER {
            return Ok(RawScan {
                frames,
                tail: Tail::Torn { at: lsn },
                durable_len: lsn,
            });
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
        if len > MAX_FRAME {
            return Err(WalError::Corrupt {
                lsn,
                reason: format!("frame length {len} exceeds limit"),
            });
        }
        let start = off + FRAME_HEADER;
        let end = start.saturating_add(len as usize);
        if end > bytes.len() {
            return Ok(RawScan {
                frames,
                tail: Tail::Torn { at: lsn },
                durable_len: lsn,
            });
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            return Err(WalError::Corrupt {
                lsn,
                reason: "CRC mismatch".into(),
            });
        }
        frames.push((lsn, payload));
        off = end;
    }
}

/// Walk `bytes` (a whole virtual log stream) and decode every frame: [`scan_raw`]
/// plus full decoding. Recovery proper uses the raw scan and decodes
/// only from the last checkpoint on; this is the convenience form for
/// tools and tests.
pub fn scan(bytes: &[u8]) -> Result<Scan, WalError> {
    let raw = scan_raw(bytes)?;
    let mut records = Vec::with_capacity(raw.frames.len());
    for (lsn, payload) in raw.frames {
        records.push((lsn, decode(lsn, payload)?));
    }
    Ok(Scan {
        records,
        tail: raw.tail,
        durable_len: raw.durable_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let rec = WalRecord::Begin { txn: 7 };
        let frame = encode_frame(&rec).unwrap();
        let mut log = MAGIC.to_vec();
        log.extend_from_slice(&frame);
        let scan = scan(&log).unwrap();
        assert_eq!(scan.tail, Tail::Clean);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].0, 8);
        assert!(matches!(scan.records[0].1, WalRecord::Begin { txn: 7 }));
        assert_eq!(scan.durable_len, log.len() as u64);
    }

    #[test]
    fn torn_tail_at_every_cut_inside_final_frame() {
        let mut log = MAGIC.to_vec();
        let first = encode_frame(&WalRecord::Begin { txn: 1 }).unwrap();
        let second = encode_frame(&WalRecord::Commit { txn: 1 }).unwrap();
        log.extend_from_slice(&first);
        let second_lsn = log.len() as Lsn;
        log.extend_from_slice(&second);
        for cut in second_lsn as usize + 1..log.len() {
            let scan = scan(&log[..cut]).unwrap();
            assert_eq!(scan.records.len(), 1, "cut {cut}");
            assert_eq!(scan.tail, Tail::Torn { at: second_lsn });
            assert_eq!(scan.durable_len, second_lsn);
        }
    }

    #[test]
    fn corrupt_payload_is_detected_not_skipped() {
        let mut log = MAGIC.to_vec();
        log.extend_from_slice(&encode_frame(&WalRecord::Begin { txn: 1 }).unwrap());
        log.extend_from_slice(&encode_frame(&WalRecord::Commit { txn: 1 }).unwrap());
        // Flip one payload byte of the first frame.
        log[MAGIC.len() + FRAME_HEADER + 2] ^= 0x40;
        match scan(&log) {
            Err(WalError::Corrupt { lsn, .. }) => assert_eq!(lsn, MAGIC.len() as Lsn),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_prefix_assumption_holds() {
        // The lazy recovery scan identifies checkpoints by payload
        // prefix; this pins the serialization shape it relies on.
        let ckpt = WalRecord::Checkpoint {
            snapshot: relstore::Database::new().snapshot().unwrap(),
            next_txn: 1,
            dirty_pages: vec![(3, 42)],
        };
        let payload = serde_json::to_string(&ckpt).unwrap();
        assert!(payload.as_bytes().starts_with(CHECKPOINT_PREFIX));
        let other = serde_json::to_string(&WalRecord::Begin { txn: 1 }).unwrap();
        assert!(!other.as_bytes().starts_with(CHECKPOINT_PREFIX));
    }

    #[test]
    fn checkpoint_without_dirty_page_table_still_decodes() {
        // Logs written before the buffer pool existed have checkpoint
        // records with no `dirty_pages` key; they must keep decoding
        // (as an empty table) so old WALs stay recoverable.
        let ckpt = WalRecord::Checkpoint {
            snapshot: relstore::Database::new().snapshot().unwrap(),
            next_txn: 9,
            dirty_pages: vec![(3, 42)],
        };
        let old_format = serde_json::to_string(&ckpt)
            .unwrap()
            .replace(",\"dirty_pages\":[[3,42]]", "");
        assert!(!old_format.contains("dirty_pages"), "field really removed");
        match serde_json::from_str::<WalRecord>(&old_format).unwrap() {
            WalRecord::Checkpoint {
                next_txn,
                dirty_pages,
                ..
            } => {
                assert_eq!(next_txn, 9);
                assert!(dirty_pages.is_empty());
            }
            other => panic!("expected checkpoint, got {other:?}"),
        }
    }

    #[test]
    fn twopc_records_roundtrip_and_own_no_txn() {
        let records = [
            WalRecord::Prepare { gtid: 40, txn: 7 },
            WalRecord::CommitDecision {
                gtid: 40,
                participants: vec![0, 2, 5],
            },
            WalRecord::AbortDecision { gtid: 41 },
        ];
        let mut log = MAGIC.to_vec();
        for rec in &records {
            assert_eq!(rec.txn(), None, "2PC frames drive no analysis");
            log.extend_from_slice(&encode_frame(rec).unwrap());
        }
        let scan = scan(&log).unwrap();
        assert_eq!(scan.tail, Tail::Clean);
        match &scan.records[0].1 {
            WalRecord::Prepare { gtid, txn } => assert_eq!((*gtid, *txn), (40, 7)),
            other => panic!("expected prepare, got {other:?}"),
        }
        match &scan.records[1].1 {
            WalRecord::CommitDecision { gtid, participants } => {
                assert_eq!(*gtid, 40);
                assert_eq!(participants, &[0, 2, 5]);
            }
            other => panic!("expected commit decision, got {other:?}"),
        }
        match &scan.records[2].1 {
            WalRecord::AbortDecision { gtid } => assert_eq!(*gtid, 41),
            other => panic!("expected abort decision, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let log = b"notawal!".to_vec();
        assert!(matches!(scan(&log), Err(WalError::Corrupt { .. })));
    }
}
