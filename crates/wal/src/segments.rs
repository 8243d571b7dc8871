//! The log's segment files: the LSN-to-segment mapping over
//! [`logstore::segfile`], which owns their header, frames, scan and
//! file handling, and what makes checkpoint-driven truncation possible.
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
pub use logstore::segfile::FILE_HEADER as SEG_HEADER;
use logstore::segfile::{self, SegNames};
use std::path::{Path, PathBuf};

/// Rotation threshold when [`WalOptions::segment_bytes`] is `None`.
///
/// [`WalOptions::segment_bytes`]: crate::WalOptions::segment_bytes
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// Segment files are named by their base LSN: `wal-<base:016x>.seg`.
/// Public for the one caller outside the log that lists its files:
/// the crash injector in the `testkit` crate, which copies a log's
/// segments as a crash at any LSN leaves them.
pub const NAMES: SegNames = SegNames {
    name: |base| format!("wal-{base:016x}.seg"),
    parse: |name| Lsn::from_str_radix(name.strip_prefix("wal-")?.strip_suffix(".seg")?, 16).ok(),
};

/// Path of the segment whose first frame sits at `base`.
#[must_use]
pub fn segment_path(dir: &Path, base: Lsn) -> PathBuf {
    NAMES.path(dir, base)
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
    segfile::encode_header(MAGIC, base)
}

/// Create (truncating) a fresh segment file at `base` with its header
/// written and synced.
pub fn create_segment(dir: &Path, base: Lsn) -> Result<std::fs::File, WalError> {
    let file = NAMES.create(dir, MAGIC, base)?;
    file.sync_data()?;
    Ok(file)
}

/// Read every segment under `dir`, validate headers and contiguity,
/// and build the virtual frame stream.
///
/// A damaged header is settled by [`segfile::check_header`]'s
/// newest-file rule: a newest file no longer than its header is what a
/// crash mid-creation leaves, and is deleted, so a later
/// [`create_segment`] at the same base cannot collide with the carcass.
/// Any other bad header is corruption. A version-0 header is refused
/// wherever it is ([`WalError::UnsupportedFormat`]). A gap between
/// consecutive segments (`next.base != prev.base + prev.len`) is
/// corruption too: pruning only ever removes a *prefix*.
pub fn read_segments(dir: &Path) -> Result<SegmentScan, WalError> {
    let listed = NAMES.list(dir)?;
    let last = listed.len().wrapping_sub(1);
    let mut segments: Vec<SegmentFile> = Vec::with_capacity(listed.len());
    let mut bytes = Vec::new();
    for (i, seg) in listed.into_iter().enumerate() {
        let start = bytes.len();
        let head = segfile::read_into(&seg.path, &mut bytes)?;
        if let Err(e @ WalError::UnsupportedFormat { .. }) =
            check_magic(seg.id, &head[..head.len().min(MAGIC.len())])
        {
            return Err(e);
        }
        let len = (bytes.len() - start) as u64;
        match segfile::check_header(MAGIC, seg.id, &head, head.len() as u64 + len, i == last) {
            Ok(true) => {}
            Ok(false) => {
                NAMES.remove(dir, seg.id)?;
                continue;
            }
            Err(reason) => {
                let reason = format!("segment {}: {reason}", seg.path.display());
                return Err(WalError::Corrupt {
                    lsn: seg.id,
                    reason,
                });
            }
        }
        if let Some(prev) = segments.last().filter(|p| p.base + p.len != seg.id) {
            return Err(WalError::Corrupt {
                lsn: seg.id,
                reason: format!(
                    "segment gap: {} ends at {} but next base is {}",
                    prev.path.display(),
                    prev.base + prev.len,
                    seg.id
                ),
            });
        }
        segments.push(SegmentFile {
            base: seg.id,
            len,
            path: seg.path,
        });
    }
    let base = segments.first().map_or(MAGIC.len() as Lsn, |s| s.base);
    Ok(SegmentScan {
        base,
        bytes,
        segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

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
