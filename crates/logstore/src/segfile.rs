//! Framed segment files: the one on-disk shape under this crate's data
//! and hint files and under `wal`'s log segments.
//!
//! ```text
//! ┌─────────────┬────────────┬───────┬───────┬─────┐
//! │ magic: 8 B  │ id: u64 LE │ frame │ frame │ ... │
//! └─────────────┴────────────┴───────┴───────┴─────┘
//! frame = len u32 LE | crc u32 LE | payload (len B)
//! ```
//!
//! The magic names the file's kind and version (`wdoclog0`, `wdochnt0`,
//! `wdocwal1`) and the id is the segment's own (a store's segment
//! number, a WAL segment's base LSN). `crc` is the [`crc32`] of the
//! payload, and no payload is longer than [`MAX_FRAME`]. This module
//! owns every piece of that shape:
//!
//! * the header — [`encode_header`], and [`check_header`] with its
//!   rule for a damaged newest file;
//! * the frame — [`frame_buf`] reserves the frame header in front of
//!   the payload and [`seal_frame`] writes `len | crc` into it in place;
//! * the scan — [`scan`] walks frames from any base offset and tells a
//!   torn tail from corruption;
//! * the files — [`SegNames`] creates, lists and removes segment files,
//!   given how an id maps to a file name and back.
//!
//! **The newest-file rule.** A crash can only interrupt the newest
//! file, and until its header is complete nothing can follow it. So a
//! newest file no longer than [`FILE_HEADER`] whose header is torn or
//! invalid is what a crash mid-creation leaves, holds nothing durable,
//! and is dropped. Any other bad header — the newest file's too when
//! bytes follow it — is corruption.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// File header: an 8-byte magic and the segment id (u64 LE).
pub const FILE_HEADER: usize = 16;
/// Frame header: payload length and CRC, each u32 LE.
pub const FRAME_HEADER: usize = 8;
/// Upper bound on one frame payload; a larger length in a header can
/// only come from bit rot (a torn write cannot invent bytes).
pub const MAX_FRAME: u32 = 1 << 30;

/// Slicing-by-8 tables for the reflected CRC-32 polynomial (IEEE
/// `0xEDB88320`, the zlib/PNG one): `TABLES[0]` is the classic
/// byte-at-a-time table, and `TABLES[k][b]` is the CRC register after
/// byte `b` followed by `k` zero bytes, so eight table lookups advance
/// the register by one 8-byte word.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (IEEE, reflected, init/final XOR `0xFFFFFFFF`):
/// the checksum of every frame. Consumes eight bytes per step
/// (slicing-by-8); the output is bit-identical to the byte-at-a-time
/// table loop.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// The header of segment `id` in a file of kind `magic`.
#[must_use]
pub fn encode_header(magic: &[u8; 8], id: u64) -> [u8; FILE_HEADER] {
    let mut h = [0u8; FILE_HEADER];
    h[..8].copy_from_slice(magic);
    h[8..].copy_from_slice(&id.to_le_bytes());
    h
}

/// Check the header of segment `id`: `head` is the file's first
/// [`FILE_HEADER`] bytes (fewer when the file is shorter) and `len` the
/// file's length. `Ok(true)` when the header is `magic` and `id`;
/// `Ok(false)` when it is not but the newest-file rule (module docs)
/// applies, and the caller drops the file; otherwise the reason it is
/// corrupt.
pub fn check_header(
    magic: &[u8; 8],
    id: u64,
    head: &[u8],
    len: u64,
    newest: bool,
) -> Result<bool, String> {
    let reason = match head {
        h if h.len() < FILE_HEADER => "torn file header".to_string(),
        h if h[..8] != magic[..] => format!("bad magic {:?}", String::from_utf8_lossy(&h[..8])),
        h => match u64::from_le_bytes(h[8..FILE_HEADER].try_into().expect("8 bytes")) {
            found if found == id => return Ok(true),
            found => format!("file {id} carries header id {found}"),
        },
    };
    if newest && len <= FILE_HEADER as u64 {
        return Ok(false);
    }
    Err(reason)
}

/// An empty frame with room for `payload` bytes: the frame header is
/// reserved at the front; push the payload after it, then
/// [`seal_frame`].
#[must_use]
pub fn frame_buf(payload: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload);
    frame.resize(FRAME_HEADER, 0);
    frame
}

/// Write `len | crc` of the payload behind `frame`'s reserved header
/// into that header. Fails with the payload's length when it exceeds
/// [`MAX_FRAME`]: every scan would refuse the frame as corrupt.
pub fn seal_frame(frame: &mut [u8]) -> Result<(), usize> {
    let (head, payload) = frame.split_at_mut(FRAME_HEADER);
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or(payload.len())?;
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
}

/// What [`scan`] found.
#[derive(Debug)]
pub struct Frames<'a> {
    /// `(offset, payload)` of every complete, checksum-valid frame, in
    /// order; offsets are absolute (the scan's base included).
    pub frames: Vec<(u64, &'a [u8])>,
    /// Offset of an incomplete final frame, if the bytes end mid-frame
    /// (the signature of a crash mid-append).
    pub torn_at: Option<u64>,
    /// Offset one past the last complete frame.
    pub end: u64,
}

/// A complete frame that failed its checks: bit rot or a bug, never a
/// crash, since a cut can only shorten the bytes.
#[derive(Debug)]
pub struct FrameFault {
    /// Absolute offset of the frame.
    pub off: u64,
    /// What failed.
    pub reason: String,
}

/// Walk the frames in `bytes`, whose first byte sits at absolute offset
/// `base`, checking every frame's CRC. The bytes may end mid-frame (a
/// torn tail); a complete frame that fails its CRC, or a header whose
/// length exceeds [`MAX_FRAME`], is a [`FrameFault`].
pub fn scan(bytes: &[u8], base: u64) -> Result<Frames<'_>, FrameFault> {
    let mut frames = Vec::new();
    let mut off = 0usize;
    let torn_at = loop {
        let rest = &bytes[off..];
        let at = base + off as u64;
        if rest.is_empty() {
            break None;
        }
        if rest.len() < FRAME_HEADER {
            break Some(at);
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..FRAME_HEADER].try_into().expect("4 bytes"));
        if len > MAX_FRAME {
            let reason = format!("frame length {len} exceeds limit");
            return Err(FrameFault { off: at, reason });
        }
        let Some(payload) = rest.get(FRAME_HEADER..FRAME_HEADER + len as usize) else {
            break Some(at);
        };
        if crc32(payload) != crc {
            let reason = "frame CRC mismatch".to_string();
            return Err(FrameFault { off: at, reason });
        }
        frames.push((at, payload));
        off += FRAME_HEADER + payload.len();
    };
    let end = torn_at.unwrap_or(base + bytes.len() as u64);
    Ok(Frames {
        frames,
        torn_at,
        end,
    })
}

/// Read the file at `path`: its first [`FILE_HEADER`] bytes (fewer when
/// it is shorter) are returned and every byte after them is appended
/// to `out`.
pub fn read_into(path: &Path, out: &mut Vec<u8>) -> std::io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    let mut head = Vec::with_capacity(FILE_HEADER);
    (&mut file)
        .take(FILE_HEADER as u64)
        .read_to_end(&mut head)?;
    file.read_to_end(out)?;
    Ok(head)
}

/// How the segment files of one kind are named: an id formats to a
/// file name and parses back from one. Everything else about the files
/// is the same for every kind.
#[derive(Debug, Clone, Copy)]
pub struct SegNames {
    /// The file name of segment `id`.
    pub name: fn(u64) -> String,
    /// The segment a file name names, or `None` for another file.
    pub parse: fn(&str) -> Option<u64>,
}

/// One segment file found by [`SegNames::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegFile {
    /// The segment id its name carries.
    pub id: u64,
    /// Its path.
    pub path: PathBuf,
    /// Its length in bytes, header included.
    pub len: u64,
}

impl SegNames {
    /// The path of segment `id` under `dir`.
    #[must_use]
    pub fn path(&self, dir: &Path, id: u64) -> PathBuf {
        dir.join((self.name)(id))
    }

    /// Create (truncating) segment `id` under `dir` with its `magic`
    /// header written but not synced.
    pub fn create(&self, dir: &Path, magic: &[u8; 8], id: u64) -> std::io::Result<File> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.path(dir, id))?;
        file.write_all(&encode_header(magic, id))?;
        Ok(file)
    }

    /// Every segment file under `dir`, ascending by id. A missing
    /// directory holds none.
    pub fn list(&self, dir: &Path) -> std::io::Result<Vec<SegFile>> {
        let entries = match std::fs::read_dir(dir) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            entries => entries?,
        };
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry?;
            if let Some(id) = entry.file_name().to_str().and_then(self.parse) {
                let len = entry.metadata()?.len();
                let path = entry.path();
                files.push(SegFile { id, path, len });
            }
        }
        files.sort_unstable_by_key(|f| f.id);
        Ok(files)
    }

    /// Delete segment `id` under `dir`.
    pub fn remove(&self, dir: &Path, id: u64) -> std::io::Result<()> {
        std::fs::remove_file(self.path(dir, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"testseg0";

    #[test]
    fn a_bad_header_is_dropped_only_on_a_newest_file_no_longer_than_a_header() {
        let good = encode_header(MAGIC, 7);
        assert_eq!(check_header(MAGIC, 7, &good, 100, false), Ok(true));
        let mut bad = good;
        bad[3] ^= 1;
        let torn = &good[..5];
        for head in [&bad[..], torn, &encode_header(MAGIC, 8)[..]] {
            assert_eq!(check_header(MAGIC, 7, head, 16, true), Ok(false));
            assert!(check_header(MAGIC, 7, head, 16, false).is_err());
            assert!(check_header(MAGIC, 7, head, 17, true).is_err());
        }
    }
}
