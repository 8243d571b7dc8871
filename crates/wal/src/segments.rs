//! Segmented log files: the on-disk layout of the log, and what makes
//! checkpoint-driven truncation possible.
//!
//! A one-file log could only reclaim space by rewriting itself; the
//! log is instead a directory of files `wal-<base lsn:016x>.seg`,
//! each carrying a 16-byte header (magic + its base LSN) followed by
//! ordinary frames. **LSNs are byte offsets in the virtual
//! concatenated stream** (magic header at 0, first frame at 8), and a
//! segment's base is simply the LSN of its first frame — so every
//! consumer of LSNs (flush gate, page `rec_lsn`s, 2PC decision scans)
//! is indifferent to where the segment boundaries fall.
//!
//! The writer only rotates between flush chunks, and a chunk is always
//! whole frames, so segment boundaries are frame boundaries and every
//! sealed segment is fully durable (its last flush synced it). A crash
//! can therefore only tear the *newest* segment — recovery
//! concatenates the surviving payloads and scans them as one stream
//! with at most one torn tail.
//!
//! Truncation: once a checkpoint at LSN `c` is durable, every segment
//! whose end is `<= c` is covered by the checkpoint snapshot and is
//! deleted (`Wal::prune_segments`). The segment holding the checkpoint
//! record survives by construction (`end > c`: the record itself ends
//! inside it), so a reopened log always finds its checkpoint.

use crate::record::{check_magic, MAGIC};
use crate::{Lsn, WalError};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Segment file header: [`MAGIC`] + base LSN (u64 LE).
pub const SEG_HEADER: usize = 16;

/// Rotation threshold when [`WalOptions::segment_bytes`] is `None`.
///
/// [`WalOptions::segment_bytes`]: crate::WalOptions::segment_bytes
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// Path of the segment whose first frame sits at `base`.
#[must_use]
pub fn segment_path(dir: &Path, base: Lsn) -> PathBuf {
    dir.join(format!("wal-{base:016x}.seg"))
}

/// One surviving segment file, as found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentFile {
    /// LSN of the segment's first frame byte.
    pub base: Lsn,
    /// Payload bytes on disk (file length minus header).
    pub len: u64,
    /// The file's path.
    pub path: PathBuf,
}

/// The segmented log as read back at open: every surviving segment,
/// ascending, plus their payloads concatenated into the virtual frame
/// stream recovery scans.
#[derive(Debug)]
pub struct SegmentScan {
    /// Absolute LSN of `bytes[0]`. For an unpruned log this is
    /// `MAGIC.len()` (the virtual header offset); after truncation it
    /// is the first surviving segment's base.
    pub base: Lsn,
    /// Concatenated segment payloads.
    pub bytes: Vec<u8>,
    /// The segments, ascending by base.
    pub segments: Vec<SegmentFile>,
}

/// Encode a segment header for `base`.
#[must_use]
pub fn encode_seg_header(base: Lsn) -> [u8; SEG_HEADER] {
    let mut h = [0u8; SEG_HEADER];
    h[..8].copy_from_slice(MAGIC);
    h[8..].copy_from_slice(&base.to_le_bytes());
    h
}

/// Create (truncating) a fresh segment file at `base` with its header
/// written and synced.
pub fn create_segment(dir: &Path, base: Lsn) -> Result<std::fs::File, WalError> {
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(segment_path(dir, base))?;
    file.write_all(&encode_seg_header(base))?;
    file.sync_data()?;
    Ok(file)
}

/// Read every segment under `dir`, validate headers and contiguity,
/// and build the virtual frame stream.
///
/// A torn or alien header is tolerated only on the *newest* file (the
/// only one a crash can have been writing); the file is ignored — and
/// deleted, so a later [`create_segment`] at the same base cannot
/// collide with the carcass. Anywhere else it is corruption. A
/// version-0 header is refused wherever it is
/// ([`WalError::UnsupportedFormat`]). A gap
/// between consecutive segments (`next.base != prev.base + prev.len`)
/// is corruption too: pruning only ever removes a *prefix*.
pub fn read_segments(dir: &Path) -> Result<SegmentScan, WalError> {
    let mut named: Vec<(Lsn, PathBuf)> = Vec::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(base) = name
                    .strip_prefix("wal-")
                    .and_then(|s| s.strip_suffix(".seg"))
                    .and_then(|s| Lsn::from_str_radix(s, 16).ok())
                {
                    named.push((base, entry.path()));
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(WalError::Io(e)),
    }
    named.sort_unstable_by_key(|(base, _)| *base);

    let mut segments = Vec::with_capacity(named.len());
    let mut bytes = Vec::new();
    for (i, (base, path)) in named.iter().enumerate() {
        let newest = i == named.len() - 1;
        let mut file = std::fs::File::open(path)?;
        let mut header = [0u8; SEG_HEADER];
        let header_ok = {
            let mut read = 0usize;
            loop {
                match file.read(&mut header[read..]) {
                    Ok(0) => break read == SEG_HEADER,
                    Ok(n) => read += n,
                    Err(e) => return Err(WalError::Io(e)),
                }
            }
        };
        let claimed = Lsn::from_le_bytes(header[8..].try_into().expect("8B"));
        if let Err(e @ WalError::UnsupportedFormat { .. }) = check_magic(*base, &header[..8]) {
            return Err(e);
        }
        if !header_ok || &header[..8] != MAGIC || claimed != *base {
            if newest {
                // A crash mid-creation: the segment holds nothing
                // durable. Remove the carcass so the writer can
                // recreate it.
                drop(file);
                std::fs::remove_file(path)?;
                continue;
            }
            return Err(WalError::Corrupt {
                lsn: *base,
                reason: format!("segment {} has a bad header", path.display()),
            });
        }
        if let Some(prev) = segments.last() {
            let prev: &SegmentFile = prev;
            if prev.base + prev.len != *base {
                return Err(WalError::Corrupt {
                    lsn: *base,
                    reason: format!(
                        "segment gap: {} ends at {} but next base is {base}",
                        prev.path.display(),
                        prev.base + prev.len
                    ),
                });
            }
        }
        let mut payload = Vec::new();
        file.read_to_end(&mut payload)?;
        segments.push(SegmentFile {
            base: *base,
            len: payload.len() as u64,
            path: path.clone(),
        });
        bytes.extend_from_slice(&payload);
    }
    let base = segments
        .first()
        .map_or(MAGIC.len() as Lsn, |s: &SegmentFile| s.base);
    Ok(SegmentScan {
        base,
        bytes,
        segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wal-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn empty_dir_scans_to_virtual_header() {
        let dir = scratch("empty");
        let scan = read_segments(&dir).unwrap();
        assert_eq!(scan.base, MAGIC.len() as Lsn);
        assert!(scan.bytes.is_empty());
        assert!(scan.segments.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn contiguous_segments_concatenate() {
        let dir = scratch("contig");
        let mut f = create_segment(&dir, 8).unwrap();
        f.write_all(b"abcd").unwrap();
        drop(f);
        let mut f = create_segment(&dir, 12).unwrap();
        f.write_all(b"efg").unwrap();
        drop(f);
        let scan = read_segments(&dir).unwrap();
        assert_eq!(scan.base, 8);
        assert_eq!(scan.bytes, b"abcdefg");
        assert_eq!(scan.segments.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gap_between_segments_is_corruption() {
        let dir = scratch("gap");
        let mut f = create_segment(&dir, 8).unwrap();
        f.write_all(b"abcd").unwrap();
        drop(f);
        drop(create_segment(&dir, 99).unwrap());
        assert!(matches!(read_segments(&dir), Err(WalError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_header_on_newest_is_dropped_elsewhere_fatal() {
        let dir = scratch("torn-head");
        let mut f = create_segment(&dir, 8).unwrap();
        f.write_all(b"abcd").unwrap();
        drop(f);
        // Newest file with a half-written header: ignored and removed.
        std::fs::write(segment_path(&dir, 12), &encode_seg_header(12)[..5]).unwrap();
        let scan = read_segments(&dir).unwrap();
        assert_eq!(scan.bytes, b"abcd");
        assert!(!segment_path(&dir, 12).exists());
        // The same defect on a non-newest file is corruption.
        std::fs::write(segment_path(&dir, 12), &encode_seg_header(12)[..5]).unwrap();
        let mut f = create_segment(&dir, 20).unwrap();
        f.write_all(b"zz").unwrap();
        drop(f);
        assert!(matches!(read_segments(&dir), Err(WalError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruned_prefix_scans_from_surviving_base() {
        let dir = scratch("pruned");
        let mut f = create_segment(&dir, 40).unwrap();
        f.write_all(b"tail").unwrap();
        drop(f);
        let scan = read_segments(&dir).unwrap();
        assert_eq!(scan.base, 40);
        assert_eq!(scan.bytes, b"tail");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
