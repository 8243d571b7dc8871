//! Log records and their encoding.
//!
//! The log's virtual byte stream is an 8-byte magic header followed by
//! a sequence of frames, `len u32 | crc u32 | payload`. On disk the
//! frames live in segment files (see [`crate::segments`]), and
//! [`logstore::segfile`] owns the frame format, its CRC-32 and its
//! scan, as it does for the `logstore` files. An [`Lsn`] is simply the
//! byte offset of a frame's first header byte — monotonic, stable
//! across restarts, and directly usable to truncate or cut the log.
//!
//! The payload is one [`WalRecord`] in the page store's row codec: a
//! tag byte naming the variant, then its fields in declaration order.
//! Transaction ids, row ids, shards, page ids, LSNs and counts are LEB128
//! varints; a name is a varint length plus UTF-8; a row is a `u32` LE
//! length plus its [`encode_row`](relstore::pagestore::page::encode_row)
//! image. A schema is its name, then its columns (name, type code,
//! nullable), primary key, indexes and foreign keys, each list a count
//! followed by its items; a checkpoint is `next_txn`, the dirty-page
//! table, then every table's schema followed by its `(row id, row)`
//! pairs. The decoder trusts no byte: every length and count is checked
//! against what remains of the payload before anything is allocated for
//! it, and leftover bytes are corruption.
//!
//! One log serves a whole station, however many engines (shards) it
//! runs. A record of engine 0 is framed as above; a record of engine
//! `s >= 1` is a [`WalRecord::Shard`]: the payload starts with the
//! shard-prefix tag and `s` as a varint, then the record's own tag and
//! fields. A log that hosts one engine therefore holds exactly the
//! bytes it always did. A router transaction, whose parts may span
//! engines, commits with one [`WalRecord::JointCommit`] naming its
//! `(shard, txn)` parts — a count, then each pair as two varints,
//! shards ascending — which is never prefixed: it belongs to every
//! shard it names.
//!
//! [`scan`] walks a byte slice and classifies the tail: a frame cut
//! short by the end of the file is a **torn tail** (the normal shape of
//! a crash mid-write — replay stops there), while a *complete* frame
//! whose CRC does not match is **corruption** (bit rot or a bug) and is
//! reported as a hard error rather than silently applied or skipped.

use crate::{Lsn, WalError};
use logstore::segfile::{self, frame_buf, seal_frame};
pub use logstore::segfile::{FRAME_HEADER, MAX_FRAME};
use relstore::lock::TxnId;
use relstore::pagestore::page::{decode_row, encode_row_into};
use relstore::{
    ColumnDef, ColumnType, FkAction, ForeignKey, IndexDef, Row, RowId, RowOp, Snapshot,
    TableSchema, TableSnapshot, Value,
};
use std::collections::BTreeMap;

/// Stream and segment magic: identifies a wdoc WAL, version 1 (binary
/// payloads).
pub const MAGIC: &[u8; 8] = b"wdocwal1";

/// Stream and segment magics of version 0, whose payloads were JSON.
/// A log that starts with one is refused with
/// [`WalError::UnsupportedFormat`], never misread or deleted.
pub(crate) const OLD_MAGICS: [&[u8; 8]; 2] = [b"wdocwal0", b"wdocseg0"];

/// One logical log record.
#[derive(Debug, Clone)]
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
        dirty_pages: Vec<(u64, u64)>,
    },
    /// The commit of a router transaction, whose parts may span the
    /// station's engines: one frame, so recovery finds every part
    /// committed or none. Each named part's records precede it.
    JointCommit {
        /// `(shard, txn)` of every part, shards strictly ascending.
        parts: Vec<(usize, TxnId)>,
    },
    /// A record of engine `shard` (1 or above) of the station: the
    /// shard prefix. Engine 0's records carry none.
    Shard {
        /// The engine the record belongs to.
        shard: usize,
        /// The record itself: never a `Shard` or a `JointCommit`.
        record: Box<WalRecord>,
    },
}

impl WalRecord {
    /// The owning transaction, for transactional records.
    #[must_use]
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            WalRecord::Begin { txn } | WalRecord::Commit { txn } | WalRecord::Abort { txn } => {
                Some(*txn)
            }
            // `JointCommit` and `Shard` own no transaction of their
            // own: recovery splits them into each engine's records
            // before it classifies anything.
            _ => self.op().map(|(txn, _)| txn),
        }
    }

    /// The row mutation an `Insert`/`Update`/`Delete` record logs, as
    /// the engine reported it, with its transaction.
    pub(crate) fn op(&self) -> Option<(TxnId, RowOp<'_>)> {
        Some(match self {
            WalRecord::Insert {
                txn,
                table,
                row,
                after,
            } => (
                *txn,
                RowOp::Insert {
                    table,
                    id: *row,
                    after,
                },
            ),
            WalRecord::Update {
                txn,
                table,
                row,
                before,
                after,
            } => (
                *txn,
                RowOp::Update {
                    table,
                    id: *row,
                    before,
                    after,
                },
            ),
            WalRecord::Delete {
                txn,
                table,
                row,
                before,
            } => (
                *txn,
                RowOp::Delete {
                    table,
                    id: *row,
                    before,
                },
            ),
            _ => return None,
        })
    }
}

// Payload tag bytes, one per `WalRecord` variant.
const BEGIN: u8 = 1;
const COMMIT: u8 = 2;
const ABORT: u8 = 3;
const INSERT: u8 = 4;
const UPDATE: u8 = 5;
const DELETE: u8 = 6;
const CREATE_TABLE: u8 = 7;
const CHECKPOINT: u8 = 8;
const JOINT_COMMIT: u8 = 12;
/// Not a record: the prefix of an engine-`s >= 1` record.
const SHARD: u8 = 13;

/// Column types and foreign-key actions, indexed by their byte codes.
const COLUMN_TYPES: [ColumnType; 6] = [
    ColumnType::Bool,
    ColumnType::Int,
    ColumnType::Float,
    ColumnType::Text,
    ColumnType::Bytes,
    ColumnType::Timestamp,
];
const FK_ACTIONS: [FkAction; 3] = [FkAction::Restrict, FkAction::Cascade, FkAction::SetNull];

/// A frame under construction: header space reserved, then the tag and
/// the payload fields; [`Enc::finish`] fills in length and CRC.
struct Enc(Vec<u8>);

impl Enc {
    /// A frame of engine `shard`'s record `tag`: shard 0 unprefixed.
    fn new(shard: usize, tag: u8) -> Enc {
        let mut buf = frame_buf(56);
        let mut e = if shard == 0 {
            Enc(buf)
        } else {
            buf.push(SHARD);
            Enc(buf).varint(shard as u64)
        };
        e.0.push(tag);
        e
    }

    fn varint(mut self, mut v: u64) -> Enc {
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
        self
    }

    fn str(self, s: &str) -> Enc {
        let mut e = self.varint(s.len() as u64);
        e.0.extend_from_slice(s.as_bytes());
        e
    }

    fn names(self, names: &[String]) -> Enc {
        let e = self.varint(names.len() as u64);
        names.iter().fold(e, |e, n| e.str(n))
    }

    fn code<T: PartialEq>(self, all: &[T], v: &T) -> Enc {
        let code = all
            .iter()
            .position(|x| x == v)
            .expect("every variant is listed");
        self.varint(code as u64)
    }

    fn row(mut self, row: &[Value]) -> Enc {
        let at = self.0.len();
        self.0.extend_from_slice(&[0; 4]);
        encode_row_into(row, &mut self.0);
        // A row past 4 GiB truncates here, but `finish` refuses its
        // frame anyway: it exceeds `MAX_FRAME`.
        let len = (self.0.len() - at - 4) as u32;
        self.0[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self
    }

    /// Name, then columns, primary key, indexes and foreign keys, each
    /// list a count followed by its items.
    fn schema(self, s: &TableSchema) -> Enc {
        let mut e = self.str(&s.name).varint(s.columns.len() as u64);
        for c in &s.columns {
            e = e
                .str(&c.name)
                .code(&COLUMN_TYPES, &c.ty)
                .varint(c.nullable.into());
        }
        e = e.names(&s.primary_key).varint(s.indexes.len() as u64);
        for i in &s.indexes {
            e = e.str(&i.name).varint(i.unique.into()).names(&i.columns);
        }
        e = e.varint(s.foreign_keys.len() as u64);
        for fk in &s.foreign_keys {
            e = e.str(&fk.ref_table).code(&FK_ACTIONS, &fk.on_delete);
            e = e.names(&fk.columns).names(&fk.ref_columns);
        }
        e
    }

    fn finish(self) -> Result<Vec<u8>, WalError> {
        let mut frame = self.0;
        seal_frame(&mut frame).map_err(|len| WalError::Corrupt {
            lsn: 0,
            reason: format!("a {len}-byte record exceeds the frame limit"),
        })?;
        Ok(frame)
    }
}

/// Frame engine `shard`'s row operation straight from its borrowed
/// images.
pub(crate) fn op_frame(shard: usize, txn: TxnId, op: &RowOp<'_>) -> Result<Vec<u8>, WalError> {
    let (tag, table, id) = match *op {
        RowOp::Insert { table, id, .. } => (INSERT, table, id),
        RowOp::Update { table, id, .. } => (UPDATE, table, id),
        RowOp::Delete { table, id, .. } => (DELETE, table, id),
    };
    let e = Enc::new(shard, tag).varint(txn).str(table).varint(id.0);
    match *op {
        RowOp::Insert { after, .. } => e.row(after),
        RowOp::Update { before, after, .. } => e.row(before).row(after),
        RowOp::Delete { before, .. } => e.row(before),
    }
    .finish()
}

/// Frame engine `shard`'s checkpoint straight from the borrowed
/// snapshot.
pub(crate) fn checkpoint_frame(
    shard: usize,
    snapshot: &Snapshot,
    next_txn: TxnId,
    dirty_pages: &[(u64, u64)],
) -> Result<Vec<u8>, WalError> {
    let mut e = Enc::new(shard, CHECKPOINT)
        .varint(next_txn)
        .varint(dirty_pages.len() as u64);
    for &(page, rec_lsn) in dirty_pages {
        e = e.varint(page).varint(rec_lsn);
    }
    e = e.varint(snapshot.tables.len() as u64);
    for t in snapshot.tables.values() {
        e = e.schema(&t.schema).varint(t.rows.len() as u64);
        for (id, row) in &t.rows {
            e = e.varint(id.0).row(row);
        }
    }
    e.finish()
}

/// Frame the joint commit of `parts`.
pub(crate) fn joint_commit_frame(parts: &[(usize, TxnId)]) -> Result<Vec<u8>, WalError> {
    let e = Enc::new(0, JOINT_COMMIT).varint(parts.len() as u64);
    let e = parts
        .iter()
        .fold(e, |e, &(s, txn)| e.varint(s as u64).varint(txn));
    e.finish()
}

/// Serialize `record` into a framed byte vector. Fails only for a
/// record larger than [`MAX_FRAME`].
pub fn encode_frame(record: &WalRecord) -> Result<Vec<u8>, WalError> {
    encode(0, record)
}

/// Frame `record` as engine `shard`'s: a [`WalRecord::Shard`] names the
/// engine of the record it wraps, and a joint commit is never prefixed.
pub(crate) fn encode(shard: usize, record: &WalRecord) -> Result<Vec<u8>, WalError> {
    if let Some((txn, op)) = record.op() {
        return op_frame(shard, txn, &op);
    }
    match record {
        WalRecord::Begin { txn } => Enc::new(shard, BEGIN).varint(*txn),
        WalRecord::Commit { txn } => Enc::new(shard, COMMIT).varint(*txn),
        WalRecord::Abort { txn } => Enc::new(shard, ABORT).varint(*txn),
        WalRecord::CreateTable { schema } => Enc::new(shard, CREATE_TABLE).schema(schema),
        WalRecord::Checkpoint {
            snapshot,
            next_txn,
            dirty_pages,
        } => return checkpoint_frame(shard, snapshot, *next_txn, dirty_pages),
        WalRecord::JointCommit { parts } => return joint_commit_frame(parts),
        WalRecord::Shard { shard, record } => return encode(*shard, record),
        WalRecord::Insert { .. } | WalRecord::Update { .. } | WalRecord::Delete { .. } => {
            unreachable!("row operations are framed above")
        }
    }
    .finish()
}

/// The unread rest of a payload. Every read is bounds-checked; an error
/// says why the payload is corrupt.
struct Dec<'a>(&'a [u8]);

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.0.len() {
            return Err(format!("a {n}-byte field overruns the payload"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.take(1)?[0];
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 && (shift < 63 || b <= 1) {
                return Ok(v);
            }
        }
        Err("varint overflows 64 bits".into())
    }

    /// A count of items, each at least one byte: never more than the
    /// bytes that remain, so no allocation is sized from a bad length.
    fn count(&mut self) -> Result<usize, String> {
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.0.len() => Ok(n),
            _ => Err(format!("count {n} exceeds the payload")),
        }
    }

    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        (0..self.count()?).map(|_| item(self)).collect()
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.count()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "a name is not UTF-8".into())
    }

    fn flag(&mut self) -> Result<bool, String> {
        self.code(&[false, true])
    }

    fn code<T: Copy>(&mut self, all: &[T]) -> Result<T, String> {
        let i = self.varint()?;
        let v = usize::try_from(i).ok().and_then(|i| all.get(i));
        v.copied().ok_or_else(|| format!("code {i} out of range"))
    }

    fn row(&mut self) -> Result<Row, String> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes"));
        decode_row(self.take(len as usize)?).map_err(|e| e.to_string())
    }

    fn schema(&mut self) -> Result<TableSchema, String> {
        Ok(TableSchema {
            name: self.str()?,
            columns: self.list(|d| {
                let (name, ty, nullable) = (d.str()?, d.code(&COLUMN_TYPES)?, d.flag()?);
                Ok(ColumnDef { name, ty, nullable })
            })?,
            primary_key: self.list(Self::str)?,
            indexes: self.list(|d| {
                let (name, unique, columns) = (d.str()?, d.flag()?, d.list(Self::str)?);
                Ok(IndexDef {
                    name,
                    columns,
                    unique,
                })
            })?,
            foreign_keys: self.list(|d| {
                let (ref_table, on_delete) = (d.str()?, d.code(&FK_ACTIONS)?);
                let (columns, ref_columns) = (d.list(Self::str)?, d.list(Self::str)?);
                Ok(ForeignKey {
                    columns,
                    ref_table,
                    ref_columns,
                    on_delete,
                })
            })?,
        })
    }

    fn record(&mut self) -> Result<WalRecord, String> {
        let tag = self.take(1)?[0];
        Ok(match tag {
            INSERT => WalRecord::Insert {
                txn: self.varint()?,
                table: self.str()?,
                row: RowId(self.varint()?),
                after: self.row()?,
            },
            UPDATE => WalRecord::Update {
                txn: self.varint()?,
                table: self.str()?,
                row: RowId(self.varint()?),
                before: self.row()?,
                after: self.row()?,
            },
            DELETE => WalRecord::Delete {
                txn: self.varint()?,
                table: self.str()?,
                row: RowId(self.varint()?),
                before: self.row()?,
            },
            BEGIN => WalRecord::Begin {
                txn: self.varint()?,
            },
            COMMIT => WalRecord::Commit {
                txn: self.varint()?,
            },
            ABORT => WalRecord::Abort {
                txn: self.varint()?,
            },
            CREATE_TABLE => WalRecord::CreateTable {
                schema: self.schema()?,
            },
            CHECKPOINT => {
                let next_txn = self.varint()?;
                let dirty_pages = self.list(|d| Ok((d.varint()?, d.varint()?)))?;
                let mut tables = BTreeMap::new();
                for _ in 0..self.count()? {
                    let schema = self.schema()?;
                    let rows = self.list(|d| Ok((RowId(d.varint()?), d.row()?)))?;
                    let name = schema.name.clone();
                    if tables
                        .insert(name, TableSnapshot { schema, rows })
                        .is_some()
                    {
                        return Err("the checkpoint names a table twice".into());
                    }
                }
                let snapshot = Snapshot { tables };
                WalRecord::Checkpoint {
                    snapshot,
                    next_txn,
                    dirty_pages,
                }
            }
            JOINT_COMMIT => {
                let parts = self.list(|d| Ok((d.shard()?, d.varint()?)))?;
                if parts.is_empty() || parts.windows(2).any(|w| w[0].0 >= w[1].0) {
                    return Err("a joint commit names no shard, or not ascending".into());
                }
                WalRecord::JointCommit { parts }
            }
            tag => return Err(format!("unknown record tag {tag}")),
        })
    }

    /// A shard number: any varint this host can index by.
    fn shard(&mut self) -> Result<usize, String> {
        let s = self.varint()?;
        usize::try_from(s).map_err(|_| format!("shard {s} is out of range"))
    }

    /// The shard a payload belongs to, with its prefix (if any) read.
    /// The record that follows a prefix is engine `s >= 1`'s own:
    /// neither a second prefix nor a joint commit.
    fn prefix(&mut self) -> Result<usize, String> {
        if self.0.first() != Some(&SHARD) {
            return Ok(0);
        }
        self.take(1)?;
        let shard = self.shard()?;
        match (shard, self.0.first()) {
            (0, _) => Err("a shard prefix names shard 0".into()),
            (_, Some(&(SHARD | JOINT_COMMIT))) => {
                Err("a shard prefix wraps a shard prefix or a joint commit".into())
            }
            _ => Ok(shard),
        }
    }

    /// The whole payload: its prefix, then its record.
    fn frame(&mut self) -> Result<WalRecord, String> {
        let shard = self.prefix()?;
        let record = self.record()?;
        Ok(match shard {
            0 => record,
            shard => WalRecord::Shard {
                shard,
                record: Box::new(record),
            },
        })
    }
}

/// Decode one frame payload.
pub fn decode(lsn: Lsn, payload: &[u8]) -> Result<WalRecord, WalError> {
    let mut d = Dec(payload);
    let rec = d.frame().and_then(|rec| match d.0.is_empty() {
        true => Ok(rec),
        false => Err("trailing bytes after the record".into()),
    });
    rec.map_err(|reason| WalError::Corrupt {
        lsn,
        reason: format!("payload failed to decode: {reason}"),
    })
}

/// Where recovery sends one frame, read without decoding its record.
pub(crate) enum Route<'a> {
    /// A record of engine `.0`: the payload past its shard prefix.
    Shard(usize, &'a [u8]),
    /// A joint commit, with the `(shard, txn)` parts it names.
    Joint(Vec<(usize, TxnId)>),
}

/// Route one frame payload: only the prefix is read, except of a joint
/// commit, which is decoded whole.
pub(crate) fn route(lsn: Lsn, payload: &[u8]) -> Result<Route<'_>, WalError> {
    if payload.first() == Some(&JOINT_COMMIT) {
        return match decode(lsn, payload)? {
            WalRecord::JointCommit { parts } => Ok(Route::Joint(parts)),
            _ => unreachable!("the tag byte names a joint commit"),
        };
    }
    let mut d = Dec(payload);
    let shard = d.prefix().map_err(|reason| WalError::Corrupt {
        lsn,
        reason: format!("payload failed to decode: {reason}"),
    })?;
    Ok(Route::Shard(shard, d.0))
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
/// borrowed slices, offsets are LSNs, `end` is the length of the valid
/// prefix. Decoding is the expensive part of a scan, and recovery only
/// needs it from the last checkpoint on — everything earlier is
/// superseded by the checkpoint image.
pub type RawScan<'a> = segfile::Frames<'a>;

/// Whether an unprefixed payload is a checkpoint: its tag byte names
/// it, so nothing is decoded.
#[must_use]
pub(crate) fn is_checkpoint(payload: &[u8]) -> bool {
    payload.first() == Some(&CHECKPOINT)
}

/// The engine whose checkpoint `payload` is, read from its prefix and
/// tag byte alone; `None` for every other frame.
#[must_use]
pub(crate) fn checkpoint_shard(payload: &[u8]) -> Option<usize> {
    let mut d = Dec(payload);
    let shard = d.prefix().ok()?;
    is_checkpoint(d.0).then_some(shard)
}

/// Check a stream or segment header's magic: an old format is refused
/// with its own error, anything else that is not [`MAGIC`] is corrupt.
pub(crate) fn check_magic(lsn: Lsn, found: &[u8]) -> Result<(), WalError> {
    if found == MAGIC {
        return Ok(());
    }
    if let Some(old) = OLD_MAGICS.iter().find(|m| found == &m[..]) {
        return Err(WalError::UnsupportedFormat {
            lsn,
            magic: String::from_utf8_lossy(&old[..]).into_owned(),
        });
    }
    Err(WalError::Corrupt {
        lsn,
        reason: "bad magic: not a wdoc WAL".into(),
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
            torn_at: (!bytes.is_empty()).then_some(0),
            end: 0,
        });
    }
    check_magic(0, &bytes[..MAGIC.len()])?;
    scan_raw_from(&bytes[MAGIC.len()..], MAGIC.len() as Lsn)
}

/// Walk a headerless frame stream whose first byte sits at absolute
/// offset `base` in the LSN space. This is how a log directory is
/// scanned: segment payloads concatenate into one stream whose base is
/// the first surviving segment's base LSN (the magic header is
/// per-file there, not part of the stream). `scan_raw` is the
/// unpruned special case with `base = MAGIC.len()`.
pub fn scan_raw_from(bytes: &[u8], base: Lsn) -> Result<RawScan<'_>, WalError> {
    segfile::scan(bytes, base).map_err(|f| WalError::Corrupt {
        lsn: f.off,
        reason: f.reason,
    })
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
        tail: raw.torn_at.map_or(Tail::Clean, |at| Tail::Torn { at }),
        durable_len: raw.end,
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
        log[MAGIC.len() + FRAME_HEADER + 1] ^= 0x40;
        match scan(&log) {
            Err(WalError::Corrupt { lsn, .. }) => assert_eq!(lsn, MAGIC.len() as Lsn),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_prefix_assumption_holds() {
        // The lazy recovery scan identifies checkpoints by the payload's
        // tag byte; this pins the encoding it relies on.
        let ckpt = WalRecord::Checkpoint {
            snapshot: relstore::Database::new().snapshot().unwrap(),
            next_txn: 1,
            dirty_pages: vec![(3, 42)],
        };
        let mut log = MAGIC.to_vec();
        log.extend_from_slice(&encode_frame(&WalRecord::Begin { txn: 1 }).unwrap());
        log.extend_from_slice(&encode_frame(&ckpt).unwrap());
        log.extend_from_slice(&encode_frame(&WalRecord::Commit { txn: 1 }).unwrap());
        let frames = scan_raw(&log).unwrap().frames;
        let last = frames.iter().rposition(|(_, p)| is_checkpoint(p));
        assert_eq!(last, Some(1));
    }

    #[test]
    fn old_format_log_is_refused() {
        // A version-0 (JSON) stream or segment is refused with a typed
        // error, not read as corruption or as an empty log.
        let mut log = b"wdocwal0".to_vec();
        log.extend_from_slice(&encode_frame(&WalRecord::Begin { txn: 1 }).unwrap());
        match scan(&log) {
            Err(WalError::UnsupportedFormat { lsn: 0, magic }) => assert_eq!(magic, "wdocwal0"),
            other => panic!("expected an unsupported format, got {other:?}"),
        }
        let dir = std::env::temp_dir().join(format!("wal-old-format-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut seg = b"wdocseg0".to_vec();
        seg.extend_from_slice(&8u64.to_le_bytes());
        std::fs::write(crate::segments::segment_path(&dir, 8), &seg).unwrap();
        let opened = crate::open_durable_any(&dir, crate::WalOptions::default());
        assert!(matches!(
            opened,
            Err(WalError::UnsupportedFormat { lsn: 8, .. })
        ));
        assert!(
            crate::segments::segment_path(&dir, 8).exists(),
            "never deleted"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn station_frames_roundtrip_and_own_no_txn() {
        let records = [
            WalRecord::JointCommit {
                parts: vec![(0, 7), (2, 40), (5, 1)],
            },
            WalRecord::Shard {
                shard: 3,
                record: Box::new(WalRecord::Commit { txn: 9 }),
            },
        ];
        let mut log = MAGIC.to_vec();
        for rec in &records {
            assert_eq!(rec.txn(), None, "recovery splits them first");
            log.extend_from_slice(&encode_frame(rec).unwrap());
        }
        let scan = scan(&log).unwrap();
        assert_eq!(scan.tail, Tail::Clean);
        assert_eq!(
            format!("{:?}", scan.records[0].1),
            format!("{:?}", records[0])
        );
        assert_eq!(
            format!("{:?}", scan.records[1].1),
            format!("{:?}", records[1])
        );
        // Engine 0's records carry no prefix, and a joint commit none.
        let bare = encode_frame(&WalRecord::Commit { txn: 9 }).unwrap();
        let zero = WalRecord::Shard {
            shard: 0,
            record: Box::new(WalRecord::Commit { txn: 9 }),
        };
        assert_eq!(encode_frame(&zero).unwrap(), bare);
        let joint = encode_frame(&records[0]).unwrap();
        assert_eq!(encode(3, &records[0]).unwrap(), joint);
    }

    #[test]
    fn wrong_magic_rejected() {
        let log = b"notawal!".to_vec();
        assert!(matches!(scan(&log), Err(WalError::Corrupt { .. })));
    }
}
