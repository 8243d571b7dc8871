//! The log-structured store: key directory, segment rotation, hint
//! files, and the full-merge compactor.
//!
//! # One merge, three phases
//!
//! [`LogStore::merge`] is the only compaction path. It snapshots the
//! sealed set and reserves the output ids under the store lock, copies
//! the live records through private file handles without the lock,
//! then installs the copies and deletes the inputs under the lock
//! again. When a `put` or `remove` seals a segment it releases the lock
//! and then asks the policy ([`LogStore::maybe_merge`]) on the same
//! thread; a merge that finds another in flight does nothing.
//!
//! # Crash-safety argument for merge
//!
//! Merge copies every *live* directory entry out of the sealed
//! segments into fresh output segments, then deletes the sealed
//! segments **in ascending order of the highest record version each
//! holds** (ties by id). Tombstone records are dropped entirely (the
//! directory holds no entry for a deleted key). The ordering makes
//! every intermediate state recoverable:
//!
//! * versions are store-wide monotone and every record carries its
//!   own, so duplicate records (original + merge copy) are harmless —
//!   the scan keeps the highest version wherever it finds it;
//! * a merge copy never carries a version newer than the newest record
//!   of the segments it replaces — so after deleting a prefix of the
//!   merged segments, the newest surviving record for a key is either
//!   its directory entry's copy in the output or a tombstone that still
//!   correctly shadows it;
//! * a tombstone at version `v` only shadows records older than `v`,
//!   and every other segment holding such a record has a highest version
//!   below `v`: an original segment was sealed before the tombstone's
//!   was opened, and a merge output holds copies taken at its
//!   snapshot, before the tombstone was written (a tombstone written
//!   in the copy window is newer than every copy). So deleting by
//!   highest version removes every shadowed value **before** the
//!   tombstone that kills it — a torn merge can never resurrect a
//!   deleted key or shadow a live record. Ascending *id* would not do:
//!   outputs take ids above the active segment, so a later tombstone
//!   can sit in a lower id than the stale copy it shadows.
//!
//! Output data files are fully written and synced before their hint
//! file appears (hints are written to a temp name, synced and
//! renamed), and deletion only starts after every output is durable.
//! A merge whose copy phase fails (a corrupt input frame, a full disk)
//! deletes every output it wrote before it returns the error: an
//! untracked copy would outlive the tombstones a later merge drops.
//! The crash-point suite in `tests/crash_points.rs` sweeps every byte
//! cut of the output, torn hints, and every prefix of the deletion
//! sequence against a committed-state oracle — for a merge of
//! originals, for a second merge over a first one's output, and for a
//! merge with a put and a remove in its copy window.

use crate::format::{self, DataRecord, HintRecord, DATA_MAGIC, HINT_MAGIC, MIN_DATA_FRAME};
use crate::segfile::{self, SegNames, FILE_HEADER, FRAME_HEADER};
use crate::{LogConfig, LogError, Result};
use obs::Registry;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Data segments: `seg-<id:012>.log`.
const DATA: SegNames = SegNames {
    name: |id| format!("seg-{id:012}.log"),
    parse: |name| {
        name.strip_prefix("seg-")?
            .strip_suffix(".log")?
            .parse()
            .ok()
    },
};

/// Data-segment file path for segment `id` under `root`.
#[must_use]
pub fn data_path(root: &Path, id: u64) -> PathBuf {
    DATA.path(root, id)
}

/// Hint file path for segment `id` under `root`.
#[must_use]
pub fn hint_path(root: &Path, id: u64) -> PathBuf {
    root.join(format!("seg-{id:012}.hint"))
}

/// One key's directory entry: where its current record lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirEntry {
    seg: u64,
    /// File offset of the record's frame.
    off: u64,
    /// Total frame length (header + payload).
    len: u32,
    version: u64,
}

struct SegMeta {
    file: File,
    /// Valid data length (file header + complete frames).
    len: u64,
    /// Frames known to be in the file. Exact for segments written or
    /// fully scanned by this process; for hint-loaded segments it
    /// counts the hint's entries (live-at-seal + tombstones).
    records: u64,
    live_records: u64,
    live_bytes: u64,
    sealed: bool,
    /// Highest record version in the file; merge deletes its inputs in
    /// ascending order of it (see the module docs).
    max_version: u64,
}

/// The files of merge outputs the store does not track yet. A merge
/// whose copy phase fails (a corrupt input frame, a full disk) drops
/// this guard and so deletes them, hint before data: an untracked copy
/// would outlive the tombstones a later merge drops and bring their
/// keys back at the next open. The install phase empties `ids` once it
/// adopts the outputs.
struct Unadopted<'a> {
    root: &'a Path,
    ids: std::ops::Range<u64>,
}

impl Drop for Unadopted<'_> {
    fn drop(&mut self) {
        for id in self.ids.clone() {
            let hint = hint_path(self.root, id);
            let _ = std::fs::remove_file(hint.with_extension("hint.tmp"));
            let _ = std::fs::remove_file(hint);
            let _ = DATA.remove(self.root, id);
        }
    }
}

/// Point-in-time description of one segment, from
/// [`LogStore::segment_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment id (file `seg-<id>.log`).
    pub id: u64,
    /// Valid bytes in the data file (header included).
    pub bytes: u64,
    /// Frames known to be in the file (see caveat on hint-loaded
    /// segments in the module docs).
    pub records: u64,
    /// Records that are some key's current directory entry.
    pub live_records: u64,
    /// Bytes of live record frames.
    pub live_bytes: u64,
    /// `records - live_records`: superseded records and tombstones.
    pub dead_records: u64,
    /// Reclaimable bytes: everything that is not a live frame.
    pub dead_bytes: u64,
    /// False only for the active (append) segment.
    pub sealed: bool,
}

/// Counters exposed for tests, experiments and the `PageStore`
/// adapter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Segments on disk (sealed + active).
    pub segments: u64,
    /// Sealed segments (merge candidates).
    pub sealed_segments: u64,
    /// Keys in the directory.
    pub live_records: u64,
    /// Bytes of live record frames (the store's logical payload, plus
    /// framing).
    pub live_bytes: u64,
    /// Valid bytes across all segment data files.
    pub disk_bytes: u64,
    /// `disk_bytes` minus live frames and file headers — what a merge
    /// could reclaim.
    pub dead_bytes: u64,
    /// Cumulative bytes appended (puts, removes and merge copies).
    pub appended_bytes: u64,
    /// Cumulative bytes reclaimed by merges (data + hint files).
    pub reclaimed_bytes: u64,
    /// Merges completed.
    pub merges: u64,
    /// Segments restored from hint files at open.
    pub hints_loaded: u64,
    /// Segments restored by scanning the data file at open (missing,
    /// torn or corrupt hint).
    pub segments_scanned: u64,
}

/// What one merge did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Sealed segments that were merged, in the order they were
    /// deleted: ascending highest record version, ties by id.
    pub merged: Vec<u64>,
    /// Output segments the live entries were rewritten into.
    pub outputs: Vec<u64>,
    /// Live records copied forward.
    pub live_records: u64,
    /// Bytes of live frames copied forward.
    pub live_bytes: u64,
    /// Bytes reclaimed (old data + hint files minus nothing — outputs
    /// are accounted as new appends).
    pub reclaimed_bytes: u64,
}

struct Inner {
    dir: BTreeMap<Vec<u8>, DirEntry>,
    segs: BTreeMap<u64, SegMeta>,
    active: u64,
    /// Next segment id to allocate (for rotation and merge outputs).
    next_seg: u64,
    /// Store-wide monotone record sequence number.
    next_version: u64,
    /// Tombstone hint records of the *active* segment, kept so the
    /// hint written at seal time can shadow older segments on reopen.
    active_tombs: Vec<HintRecord>,
    /// Whole segments the open scanned for want of a valid hint (the
    /// one active when the store last dropped, at least), with their
    /// hint records. Written before this session's first append, so an
    /// open that writes nothing leaves the directory as it found it.
    unhinted: Vec<(u64, Vec<HintRecord>)>,
    stats: LogStats,
}

/// A Bitcask-style log-structured key/value store rooted at one
/// directory. Thread-safe: share it behind an `Arc`.
pub struct LogStore {
    root: PathBuf,
    cfg: LogConfig,
    metrics: Registry,
    inner: Mutex<Inner>,
    /// True while a merge is between its snapshot and install phases:
    /// two merges over the same sealed set would double-delete
    /// segments.
    merging: AtomicBool,
}

impl std::fmt::Debug for LogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogStore")
            .field("root", &self.root)
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl LogStore {
    /// Open (or create) the store rooted at `root`, rebuilding the key
    /// directory from hint files where possible and from data-segment
    /// scans otherwise. Metrics go nowhere; see
    /// [`open_with_metrics`](LogStore::open_with_metrics).
    pub fn open(root: &Path, cfg: LogConfig) -> Result<LogStore> {
        Self::open_with_metrics(root, cfg, Registry::disabled())
    }

    /// [`open`](LogStore::open) recording `logstore.*` metrics into
    /// `metrics`.
    pub fn open_with_metrics(root: &Path, cfg: LogConfig, metrics: Registry) -> Result<LogStore> {
        std::fs::create_dir_all(root).map_err(LogError::Io)?;
        let files = DATA.list(root)?;

        // Scan phase: apply every surviving record (or its hint twin)
        // under the max-version rule, tombstones included (flagged).
        let mut staged: BTreeMap<Vec<u8>, (DirEntry, bool)> = BTreeMap::new();
        let mut stats = LogStats::default();
        let mut segs: BTreeMap<u64, SegMeta> = BTreeMap::new();
        let mut next_version = 1u64;
        let mut unhinted: Vec<(u64, Vec<HintRecord>)> = Vec::new();
        for (i, file) in files.iter().enumerate() {
            let (id, path) = (file.id, &file.path);
            let (valid_len, records, entries, whole) = match Self::load_hint(root, id, file.len) {
                Some(hints) => {
                    stats.hints_loaded += 1;
                    let n = hints.len() as u64;
                    (file.len, n, hints, false)
                }
                None => {
                    stats.segments_scanned += 1;
                    let mut body = Vec::new();
                    let head = segfile::read_into(path, &mut body)?;
                    let len = (head.len() + body.len()) as u64;
                    let newest = i + 1 == files.len();
                    match segfile::check_header(DATA_MAGIC, id, &head, len, newest) {
                        Ok(true) => {}
                        Ok(false) => {
                            DATA.remove(root, id)?;
                            continue;
                        }
                        Err(reason) => {
                            return Err(LogError::Corrupt {
                                seg: id,
                                off: 0,
                                reason,
                            })
                        }
                    }
                    let scan = segfile::scan(&body, FILE_HEADER as u64).map_err(|f| {
                        LogError::Corrupt {
                            seg: id,
                            off: f.off,
                            reason: f.reason,
                        }
                    })?;
                    let mut out = Vec::with_capacity(scan.frames.len());
                    for (off, payload) in &scan.frames {
                        let DataRecord {
                            version,
                            tombstone,
                            key,
                            ..
                        } = format::decode_data(id, *off, payload)?;
                        out.push(HintRecord {
                            version,
                            tombstone,
                            off: *off,
                            frame_len: (FRAME_HEADER + payload.len()) as u32,
                            key: key.to_vec(),
                        });
                    }
                    let records = scan.frames.len() as u64;
                    (scan.end, records, out, scan.torn_at.is_none())
                }
            };
            let mut max_version = 0;
            for h in &entries {
                max_version = max_version.max(h.version);
                next_version = next_version.max(h.version.checked_add(1).ok_or_else(|| {
                    LogError::Corrupt {
                        seg: id,
                        off: h.off,
                        reason: "record version at its limit".into(),
                    }
                })?);
                let newer = staged
                    .get(&h.key)
                    .is_none_or(|(cur, _)| h.version >= cur.version);
                if newer {
                    let e = DirEntry {
                        seg: id,
                        off: h.off,
                        len: h.frame_len,
                        version: h.version,
                    };
                    staged.insert(h.key.clone(), (e, h.tombstone));
                }
            }
            let file = OpenOptions::new()
                .read(true)
                .open(path)
                .map_err(LogError::Io)?;
            segs.insert(
                id,
                SegMeta {
                    file,
                    len: valid_len,
                    records,
                    live_records: 0,
                    live_bytes: 0,
                    sealed: true,
                    max_version,
                },
            );
            // A torn tail is cut by the next append, and a segment with
            // no frames may be adopted as the active one: neither is
            // hinted.
            if whole && records > 0 {
                unhinted.push((id, entries));
            }
        }

        // Keep only live values: tombstones have done their shadowing
        // job during the scan and carry no directory entry afterwards.
        let mut dir: BTreeMap<Vec<u8>, DirEntry> = BTreeMap::new();
        for (key, (e, tombstone)) in staged {
            if tombstone {
                continue;
            }
            if let Some(seg) = segs.get_mut(&e.seg) {
                seg.live_records += 1;
                seg.live_bytes += u64::from(e.len);
            }
            dir.insert(key, e);
        }

        // A trailing segment that is a bare header (no frames, no hint)
        // is the active segment of a store closed without a write since
        // its last open: adopt it, or every reopen leaves one more.
        let adopted = segs.last_key_value().and_then(|(&id, s)| {
            let bare = s.records == 0 && s.file.metadata().ok()?.len() == FILE_HEADER as u64;
            (bare && !hint_path(root, id).exists()).then_some(id)
        });
        let active = adopted.unwrap_or_else(|| files.last().map_or(1, |f| f.id + 1));
        let store = LogStore {
            root: root.to_path_buf(),
            cfg,
            metrics,
            inner: Mutex::new(Inner {
                dir,
                segs,
                active,
                next_seg: active + 1,
                next_version,
                active_tombs: Vec::new(),
                unhinted,
                stats,
            }),
            merging: AtomicBool::new(false),
        };
        {
            let mut inner = store.inner.lock().unwrap();
            let seg = match inner.segs.remove(&active) {
                Some(seg) => SegMeta {
                    file: OpenOptions::new()
                        .read(true)
                        .write(true)
                        .open(data_path(root, active))
                        .map_err(LogError::Io)?,
                    sealed: false,
                    ..seg
                },
                None => store.new_segment(active, false)?,
            };
            inner.segs.insert(active, seg);
            store.refresh_stats(&mut inner);
        }
        Ok(store)
    }

    /// Try to restore one sealed segment's directory contribution from
    /// its hint file. Any defect (missing, wrong header, torn, corrupt,
    /// undecodable, or entries that do not fit the `data_len`-byte data
    /// file in order) returns `None` — the caller scans the data file.
    fn load_hint(root: &Path, id: u64, data_len: u64) -> Option<Vec<HintRecord>> {
        let mut body = Vec::new();
        let head = segfile::read_into(&hint_path(root, id), &mut body).ok()?;
        let len = (head.len() + body.len()) as u64;
        if segfile::check_header(HINT_MAGIC, id, &head, len, false) != Ok(true) {
            return None;
        }
        let scan = segfile::scan(&body, FILE_HEADER as u64).ok()?;
        if scan.torn_at.is_some() {
            return None;
        }
        // Each entry must name a whole record past the previous one and
        // inside the data file, so a forged length never sizes a read.
        let mut out = Vec::with_capacity(scan.frames.len());
        let mut end = FILE_HEADER as u64;
        for (_, payload) in scan.frames {
            let h = format::decode_hint(payload).ok()?;
            if h.off < end || h.frame_len < MIN_DATA_FRAME || h.version == u64::MAX {
                return None;
            }
            end = h.off.checked_add(u64::from(h.frame_len))?;
            out.push(h);
        }
        (end <= data_len).then_some(out)
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configuration the store was opened with.
    #[must_use]
    pub fn config(&self) -> &LogConfig {
        &self.cfg
    }

    /// Create segment `id`'s data file, header written, with no frames.
    fn new_segment(&self, id: u64, sealed: bool) -> Result<SegMeta> {
        Ok(SegMeta {
            file: DATA.create(&self.root, DATA_MAGIC, id)?,
            len: FILE_HEADER as u64,
            records: 0,
            live_records: 0,
            live_bytes: 0,
            sealed,
            max_version: 0,
        })
    }

    /// Store `value` under `key`, superseding any previous value.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        let version = inner.next_version;
        inner.next_version += 1;
        let frame = format::encode_data(version, false, key, value)?;
        let (off, len) = self.append_active(inner, &frame, version)?;
        if let Some(old) = inner.dir.insert(
            key.to_vec(),
            DirEntry {
                seg: inner.active,
                off,
                len,
                version,
            },
        ) {
            if let Some(seg) = inner.segs.get_mut(&old.seg) {
                seg.live_records -= 1;
                seg.live_bytes -= u64::from(old.len);
            }
        }
        let seg = inner.segs.get_mut(&inner.active).expect("active exists");
        seg.live_records += 1;
        seg.live_bytes += u64::from(len);
        let sealed = self.seal_if_full(inner)?;
        self.refresh_stats(inner);
        drop(guard);
        if sealed {
            self.maybe_merge()?;
        }
        Ok(())
    }

    /// Delete `key`. Returns whether the key was present. Appends a
    /// tombstone record only when it was (absent keys leave no trace).
    pub fn remove(&self, key: &[u8]) -> Result<bool> {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        let Some(old) = inner.dir.remove(key) else {
            return Ok(false);
        };
        let version = inner.next_version;
        inner.next_version += 1;
        let frame = format::encode_data(version, true, key, &[])?;
        let (off, len) = self.append_active(inner, &frame, version)?;
        inner.active_tombs.push(HintRecord {
            version,
            tombstone: true,
            off,
            frame_len: len,
            key: key.to_vec(),
        });
        if let Some(seg) = inner.segs.get_mut(&old.seg) {
            seg.live_records -= 1;
            seg.live_bytes -= u64::from(old.len);
        }
        let sealed = self.seal_if_full(inner)?;
        self.refresh_stats(inner);
        drop(guard);
        if sealed {
            self.maybe_merge()?;
        }
        Ok(true)
    }

    fn append_active(&self, inner: &mut Inner, frame: &[u8], version: u64) -> Result<(u64, u32)> {
        // A merge may have deleted a scanned segment since the open.
        for (id, hints) in std::mem::take(&mut inner.unhinted) {
            if inner.segs.contains_key(&id) {
                self.write_hint(id, &hints)?;
            }
        }
        let active = inner.active;
        let seg = inner.segs.get_mut(&active).expect("active exists");
        let off = seg.len;
        seg.file.seek(SeekFrom::Start(off)).map_err(LogError::Io)?;
        seg.file.write_all(frame).map_err(LogError::Io)?;
        seg.len += frame.len() as u64;
        seg.records += 1;
        seg.max_version = version;
        inner.stats.appended_bytes += frame.len() as u64;
        self.metrics
            .add("logstore.appended_bytes", frame.len() as u64);
        Ok((off, frame.len() as u32))
    }

    /// Seal the active segment once it crosses the size threshold.
    /// Returns whether it did, so the caller can let the compaction
    /// policy look at the sealed set once it has released the lock.
    fn seal_if_full(&self, inner: &mut Inner) -> Result<bool> {
        let full = inner.segs[&inner.active].len >= self.cfg.segment_bytes;
        if full {
            self.seal_active(inner)?;
        }
        Ok(full)
    }

    /// Seal the active segment: sync it, write its hint file, open a
    /// fresh active segment.
    fn seal_active(&self, inner: &mut Inner) -> Result<()> {
        let active = inner.active;
        {
            let seg = inner.segs.get_mut(&active).expect("active exists");
            if seg.records == 0 {
                return Ok(()); // nothing to seal
            }
            seg.file.sync_data().map_err(LogError::Io)?;
            seg.sealed = true;
        }
        let mut hints: Vec<HintRecord> = inner
            .dir
            .iter()
            .filter(|(_, e)| e.seg == active)
            .map(|(k, e)| HintRecord {
                version: e.version,
                tombstone: false,
                off: e.off,
                frame_len: e.len,
                key: k.clone(),
            })
            .collect();
        hints.append(&mut inner.active_tombs);
        hints.sort_by_key(|h| h.off);
        self.write_hint(active, &hints)?;
        let id = inner.next_seg;
        inner.next_seg += 1;
        inner.active = id;
        inner.segs.insert(id, self.new_segment(id, false)?);
        Ok(())
    }

    /// Write a hint file durably: temp name, sync, rename — so a hint
    /// either exists complete or not at all (the crash suite also
    /// proves a hand-torn hint merely forces a data scan).
    fn write_hint(&self, id: u64, hints: &[HintRecord]) -> Result<()> {
        let final_path = hint_path(&self.root, id);
        let tmp = final_path.with_extension("hint.tmp");
        let mut buf = segfile::encode_header(HINT_MAGIC, id).to_vec();
        for h in hints {
            buf.extend_from_slice(&format::encode_hint(h)?);
        }
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(LogError::Io)?;
        f.write_all(&buf).map_err(LogError::Io)?;
        f.sync_data().map_err(LogError::Io)?;
        drop(f);
        std::fs::rename(&tmp, &final_path).map_err(LogError::Io)?;
        Ok(())
    }

    /// Fetch the current value of `key`, reading (and CRC-checking)
    /// its frame from the owning segment.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let Some(e) = inner.dir.get(key).copied() else {
            return Ok(None);
        };
        let value = Self::read_value(inner, key, e)?;
        Ok(Some(value))
    }

    fn read_value(inner: &mut Inner, key: &[u8], e: DirEntry) -> Result<Vec<u8>> {
        let seg = inner
            .segs
            .get_mut(&e.seg)
            .expect("directory points at a live segment");
        let (mut buf, value_at) = Self::read_frame_from(&mut seg.file, key, e)?;
        buf.drain(..value_at);
        Ok(buf)
    }

    /// Read one frame through an explicit file handle (merge reads
    /// sealed segments through its own, so the directory lock stays
    /// free) and check its CRC and that it is the live record `key`'s
    /// entry names: a forged hint can point at another whole frame.
    /// Returns the frame and the offset of its value, which runs to the
    /// end of the frame.
    fn read_frame_from(file: &mut File, key: &[u8], e: DirEntry) -> Result<(Vec<u8>, usize)> {
        let mut buf = vec![0u8; e.len as usize];
        file.seek(SeekFrom::Start(e.off)).map_err(LogError::Io)?;
        file.read_exact(&mut buf).map_err(LogError::Io)?;
        let payload = &buf[FRAME_HEADER..];
        let crc = u32::from_le_bytes(buf[4..8].try_into().expect("4B"));
        let corrupt = |reason: &str| LogError::Corrupt {
            seg: e.seg,
            off: e.off,
            reason: reason.into(),
        };
        if segfile::crc32(payload) != crc {
            return Err(corrupt("stored frame failed its CRC"));
        }
        let rec = format::decode_data(e.seg, e.off, payload)?;
        if rec.key != key || rec.version != e.version || rec.tombstone {
            return Err(corrupt("frame is not the record the directory names"));
        }
        let value_at = buf.len() - rec.value.len();
        Ok((buf, value_at))
    }

    /// Whether `key` currently has a value.
    #[must_use]
    pub fn contains(&self, key: &[u8]) -> bool {
        self.inner.lock().unwrap().dir.contains_key(key)
    }

    /// Number of live keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().dir.len()
    }

    /// True when no key is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All live keys, ascending.
    #[must_use]
    pub fn keys(&self) -> Vec<Vec<u8>> {
        self.inner.lock().unwrap().dir.keys().cloned().collect()
    }

    /// Every live `(key, value)` pair, ascending by key. Reads every
    /// value frame — meant for rebuilds (e.g. the blob layer at open),
    /// not hot paths.
    pub fn entries(&self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let dir: Vec<(Vec<u8>, DirEntry)> =
            inner.dir.iter().map(|(k, e)| (k.clone(), *e)).collect();
        let mut out = Vec::with_capacity(dir.len());
        for (k, e) in dir {
            let v = Self::read_value(inner, &k, e)?;
            out.push((k, v));
        }
        Ok(out)
    }

    /// Deterministic byte encoding of the key directory: for each key
    /// in order, `klen | key | seg | off | len | version` (all LE).
    /// Two stores whose directories are byte-identical agree on every
    /// key, every record location, and every version — the
    /// "hint files reproduce the directory byte-for-byte" invariant.
    #[must_use]
    pub fn directory_export(&self) -> Vec<u8> {
        let inner = self.inner.lock().unwrap();
        let mut out = Vec::new();
        for (k, e) in &inner.dir {
            out.extend_from_slice(&(k.len() as u32).to_le_bytes());
            out.extend_from_slice(k);
            out.extend_from_slice(&e.seg.to_le_bytes());
            out.extend_from_slice(&e.off.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.version.to_le_bytes());
        }
        out
    }

    /// Force everything appended so far onto disk (active segment
    /// sync).
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock().unwrap();
        let active = inner.active;
        let seg = inner.segs.get_mut(&active).expect("active exists");
        seg.file.sync_data().map_err(LogError::Io)
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> LogStats {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        self.refresh_stats(inner);
        inner.stats
    }

    /// Per-segment breakdown, ascending by id.
    #[must_use]
    pub fn segment_report(&self) -> Vec<SegmentInfo> {
        let inner = self.inner.lock().unwrap();
        inner
            .segs
            .iter()
            .map(|(&id, s)| SegmentInfo {
                id,
                bytes: s.len,
                records: s.records,
                live_records: s.live_records,
                live_bytes: s.live_bytes,
                dead_records: s.records - s.live_records,
                dead_bytes: s.len - FILE_HEADER as u64 - s.live_bytes,
                sealed: s.sealed,
            })
            .collect()
    }

    fn refresh_stats(&self, inner: &mut Inner) {
        let mut disk = 0u64;
        let mut live_bytes = 0u64;
        let mut sealed = 0u64;
        for s in inner.segs.values() {
            disk += s.len;
            live_bytes += s.live_bytes;
            if s.sealed {
                sealed += 1;
            }
        }
        inner.stats.segments = inner.segs.len() as u64;
        inner.stats.sealed_segments = sealed;
        inner.stats.live_records = inner.dir.len() as u64;
        inner.stats.live_bytes = live_bytes;
        inner.stats.disk_bytes = disk;
        inner.stats.dead_bytes = disk - live_bytes - inner.segs.len() as u64 * FILE_HEADER as u64;
        self.metrics
            .gauge_set("logstore.segments", inner.segs.len() as i64);
        self.metrics.gauge_set("logstore.disk_bytes", disk as i64);
        self.metrics
            .gauge_set("logstore.dead_bytes", inner.stats.dead_bytes as i64);
    }

    /// Whether the configured policy wants a merge right now.
    fn compaction_due(&self, inner: &Inner) -> bool {
        let mut sealed = 0usize;
        let mut sealed_bytes = 0u64;
        let mut sealed_live = 0u64;
        let mut headers = 0u64;
        for s in inner.segs.values().filter(|s| s.sealed) {
            sealed += 1;
            sealed_bytes += s.len;
            sealed_live += s.live_bytes;
            headers += FILE_HEADER as u64;
        }
        if sealed < self.cfg.min_sealed_segments {
            return false;
        }
        let payload = sealed_bytes.saturating_sub(headers);
        if payload == 0 {
            return false;
        }
        let dead = payload - sealed_live;
        dead * 100 >= u64::from(self.cfg.dead_ratio_pct) * payload
    }

    /// Run the policy check and merge if it fires. Returns the report
    /// when a merge ran.
    pub fn maybe_merge(&self) -> Result<Option<MergeReport>> {
        if !self.compaction_due(&self.inner.lock().unwrap()) {
            return Ok(None);
        }
        self.merge().map(Some)
    }

    /// Merge every sealed segment: rewrite live entries into fresh
    /// output segments (hint files included), then delete the merged
    /// segments in the order the module docs prove crash-safe.
    ///
    /// Only the brief snapshot (the sealed set, the live entries
    /// pointing into it, the output ids) and install (swing the
    /// directory, delete the inputs) phases take the store lock; the
    /// copy phase — every read and every output write — runs without
    /// it, so `put`/`get`/`remove` proceed while a merge is in flight.
    /// Safe because sealed segments are immutable (the copy reads them
    /// through its own handles) and the install re-checks each entry's
    /// version: a key overwritten or removed while its old record was
    /// being copied keeps the newer record, and the stale copy is dead
    /// weight in the output. Returns an empty report if another merge
    /// is already in flight.
    pub fn merge(&self) -> Result<MergeReport> {
        self.merge_hooked(|| {})
    }

    /// Test seam: [`merge`](LogStore::merge) with a callback invoked
    /// between the unlocked copy phase and the locked install phase —
    /// the window in which foreground traffic overlaps an in-flight
    /// merge, made deterministic.
    #[doc(hidden)]
    pub fn merge_hooked(&self, before_install: impl FnOnce()) -> Result<MergeReport> {
        if self
            .merging
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return Ok(MergeReport::default());
        }
        let result = self.merge_unguarded(before_install);
        self.merging.store(false, Ordering::SeqCst);
        result
    }

    fn merge_unguarded(&self, before_install: impl FnOnce()) -> Result<MergeReport> {
        // Snapshot phase (locked): the sealed set, the live entries
        // pointing into it, and a reserved id range for the outputs.
        let (merged, moves, first_out, n_outputs) = {
            let mut inner = self.inner.lock().unwrap();
            // Deletion order: ascending highest version, ties by id
            // (see the module docs).
            let mut sealed: Vec<(u64, u64)> = inner
                .segs
                .iter()
                .filter(|(_, s)| s.sealed)
                .map(|(&id, s)| (s.max_version, id))
                .collect();
            sealed.sort_unstable();
            let merged: Vec<u64> = sealed.into_iter().map(|(_, id)| id).collect();
            if merged.is_empty() {
                return Ok(MergeReport::default());
            }
            let merge_set: std::collections::BTreeSet<u64> = merged.iter().copied().collect();
            let moves: Vec<(Vec<u8>, DirEntry)> = inner
                .dir
                .iter()
                .filter(|(_, e)| merge_set.contains(&e.seg))
                .map(|(k, e)| (k.clone(), *e))
                .collect();
            // The output layout is a pure function of the frame sizes,
            // so the ids can be reserved up front and the copy phase
            // never needs the lock to rotate.
            let mut n_outputs = 0u64;
            let mut cur = u64::MAX;
            for (_, e) in &moves {
                if cur >= self.cfg.segment_bytes {
                    n_outputs += 1;
                    cur = FILE_HEADER as u64;
                }
                cur += u64::from(e.len);
            }
            let first_out = inner.next_seg;
            inner.next_seg += n_outputs;
            (merged, moves, first_out, n_outputs)
        };
        let mut unadopted = Unadopted {
            root: &self.root,
            ids: first_out..first_out + n_outputs,
        };

        // Copy phase (unlocked): read each live frame from the sealed
        // segments through private handles and write the outputs, each
        // one's data synced before its hint appears (the hint certifies
        // a complete data file).
        let mut sources: BTreeMap<u64, File> = BTreeMap::new();
        for &id in &merged {
            let f = OpenOptions::new()
                .read(true)
                .open(data_path(&self.root, id))
                .map_err(LogError::Io)?;
            sources.insert(id, f);
        }
        let mut outputs: Vec<(u64, SegMeta)> = Vec::new();
        let mut out_hints: Vec<HintRecord> = Vec::new();
        let mut installs: Vec<(Vec<u8>, DirEntry)> = Vec::new();
        let mut appended = 0u64;
        let mut report = MergeReport {
            merged: merged.clone(),
            ..MergeReport::default()
        };
        for (key, old) in moves {
            let src = sources.get_mut(&old.seg).expect("source open");
            let (frame, _) = Self::read_frame_from(src, &key, old)?;
            let need_new = outputs
                .last()
                .is_none_or(|(_, o)| o.len >= self.cfg.segment_bytes);
            if need_new {
                if let Some((id, prev)) = outputs.last_mut() {
                    prev.file.sync_data().map_err(LogError::Io)?;
                    self.write_hint(*id, &std::mem::take(&mut out_hints))?;
                }
                let id = first_out + outputs.len() as u64;
                outputs.push((id, self.new_segment(id, true)?));
            }
            let (out_id, out) = outputs.last_mut().expect("output exists");
            let off = out.len;
            out.file.write_all(&frame).map_err(LogError::Io)?;
            out.len += frame.len() as u64;
            out.records += 1;
            out.max_version = out.max_version.max(old.version);
            appended += frame.len() as u64;
            out_hints.push(HintRecord {
                version: old.version,
                tombstone: false,
                off,
                frame_len: old.len,
                key: key.clone(),
            });
            installs.push((
                key,
                DirEntry {
                    seg: *out_id,
                    off,
                    ..old
                },
            ));
            report.live_records += 1;
            report.live_bytes += u64::from(old.len);
        }
        if let Some((id, last)) = outputs.last_mut() {
            last.file.sync_data().map_err(LogError::Io)?;
            self.write_hint(*id, &std::mem::take(&mut out_hints))?;
        }
        drop(sources);

        before_install();

        // Install phase (locked): adopt the outputs, swing surviving
        // directory entries at their copies, then delete the inputs in
        // the snapshot's order, hint before data, so every intermediate
        // state still holds each tombstone at least as long as every
        // value it shadows.
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        unadopted.ids = 0..0;
        inner.stats.appended_bytes += appended;
        self.metrics.add("logstore.appended_bytes", appended);
        report.outputs = outputs.iter().map(|(id, _)| *id).collect();
        inner.segs.extend(outputs);
        for (key, new_entry) in installs {
            match inner.dir.get_mut(&key) {
                Some(cur) if cur.version == new_entry.version => {
                    *cur = new_entry;
                    let seg = inner.segs.get_mut(&new_entry.seg).expect("output exists");
                    seg.live_records += 1;
                    seg.live_bytes += u64::from(new_entry.len);
                }
                _ => {
                    // Overwritten or removed while the merge was in
                    // flight: the newer record wins, the copy stays
                    // dead in its output segment.
                }
            }
        }
        for &id in &merged {
            let hint = hint_path(&self.root, id);
            let data = data_path(&self.root, id);
            let hint_len = std::fs::metadata(&hint).map(|m| m.len()).unwrap_or(0);
            let data_len = std::fs::metadata(&data).map(|m| m.len()).unwrap_or(0);
            let _ = std::fs::remove_file(&hint);
            DATA.remove(&self.root, id)?;
            inner.segs.remove(&id);
            report.reclaimed_bytes += hint_len + data_len;
        }
        inner.stats.merges += 1;
        inner.stats.reclaimed_bytes += report.reclaimed_bytes;
        self.metrics.inc("logstore.merges");
        self.metrics
            .add("logstore.bytes_reclaimed", report.reclaimed_bytes);
        self.refresh_stats(inner);
        Ok(report)
    }
}
