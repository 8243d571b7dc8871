//! Deterministic crash-point injection.
//!
//! A crash is modeled as the log's byte stream being cut at an
//! arbitrary offset: everything before the cut reached the disk,
//! everything after it did not, and the final frame may be torn in
//! half. These helpers make it trivial to sweep *every* cut point of a
//! generated log — in memory over the virtual stream ([`read_log`],
//! [`cut_at`]) or on disk across segment files ([`cut_segments`]) —
//! and check recovery against a committed-prefix oracle, which is
//! exactly what `wal`'s `tests/recovery_props.rs` and
//! `tests/segments.rs` do ([`recover_bytes_any`] replays a cut stream).

use obs::Registry;
use relstore::{AnyEngine, EngineKind, PoolConfig};
use std::path::Path;
use wal::record::{decode, scan_raw, MAGIC};
use wal::segments::{read_segments, NAMES, SEG_HEADER};
use wal::{recover_shards, Lsn, RecoveryReport, WalError, WalRecord};

/// The unpruned log under `dir` as its virtual byte stream: the magic
/// header followed by every segment's payload, so a stream offset *is*
/// an LSN. Panics on an unreadable or pruned log — this is a test aid
/// for logs the caller just generated.
#[must_use]
pub fn read_log(dir: &Path) -> Vec<u8> {
    let scan = read_segments(dir).expect("generated log is readable");
    assert_eq!(
        scan.base,
        MAGIC.len() as Lsn,
        "read_log: the log's prefix was pruned"
    );
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&scan.bytes);
    bytes
}

/// Materialise under `dst` (created; emptied of segments first) what a
/// crash at LSN `cut` leaves of the log under `src`: every segment
/// that starts before the cut, the one holding it truncated there.
/// A segment starting exactly at `cut` is dropped — the caller decides
/// whether its (possibly torn) header made it to disk.
pub fn cut_segments(src: &Path, dst: &Path, cut: Lsn) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for stale in NAMES.list(dst)? {
        std::fs::remove_file(stale.path)?;
    }
    for seg in NAMES.list(src)?.into_iter().filter(|s| s.id < cut) {
        let to = NAMES.path(dst, seg.id);
        std::fs::copy(&seg.path, &to)?;
        let keep = (cut - seg.id)
            .saturating_add(SEG_HEADER as u64)
            .min(seg.len);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&to)?
            .set_len(keep)?;
    }
    Ok(())
}

/// The virtual stream as it would survive a crash at `offset`: a
/// simple prefix.
#[must_use]
pub fn cut_at(bytes: &[u8], offset: u64) -> Vec<u8> {
    let n = usize::try_from(offset)
        .unwrap_or(bytes.len())
        .min(bytes.len());
    bytes[..n].to_vec()
}

/// Flip one bit of one byte — the corruption model the per-record CRC
/// must catch.
pub fn flip_bit(bytes: &mut [u8], offset: u64, bit: u8) {
    let i = usize::try_from(offset).expect("offset fits") % bytes.len().max(1);
    bytes[i] ^= 1 << (bit % 8);
}

/// Frame boundaries of a fully valid log: `(lsn, end_offset, record)`
/// for every record. Panics on an invalid log — this is a test aid for
/// logs the caller just generated.
#[must_use]
pub fn frames(bytes: &[u8]) -> Vec<(Lsn, u64, WalRecord)> {
    let scanned = scan_raw(bytes).expect("generated log is valid");
    let ends = scanned.frames.iter().skip(1).map(|&(next, _)| next);
    scanned
        .frames
        .iter()
        .zip(ends.chain([scanned.end]))
        .map(|(&(lsn, payload), end)| {
            let rec = decode(lsn, payload).expect("generated log decodes");
            (lsn, end, rec)
        })
        .collect()
}

/// Rebuild an [`AnyEngine`] of the requested kind, on a buffer pool
/// configured by `cfg`, from a one-engine log's virtual byte stream
/// (magic header + every frame since LSN 8 — what [`read_log`] returns,
/// or a [`cut_at`] prefix of it). Recovery proper
/// ([`recover_shards`]) runs on the scanned frames and records
/// `wal.recover.*` metrics into `metrics`; the engine comes back with
/// no WAL sink installed.
pub fn recover_bytes_any(
    bytes: &[u8],
    metrics: &Registry,
    cfg: &PoolConfig,
    kind: EngineKind,
) -> Result<(AnyEngine, RecoveryReport), WalError> {
    let scanned = scan_raw(bytes)?;
    let pools = std::slice::from_ref(cfg);
    let mut engines = recover_shards(&scanned, MAGIC.len() as Lsn, metrics, pools, kind)?;
    Ok(engines.pop().expect("one pool, one engine"))
}
