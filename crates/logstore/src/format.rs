//! On-disk framing for data segments and hint files.
//!
//! A **data segment** is an append-only file:
//!
//! ```text
//! ┌──────────────────┬──────────────┬───────────────┬─────┐
//! │ magic "wdoclog0" │ seg id u64LE │ frame │ frame │ ... │
//! └──────────────────┴──────────────┴───────────────┴─────┘
//! frame   = len u32 LE | crc u32 LE | payload (len B)
//! payload = version u64 LE | flags u8 | klen u32 LE | key | value
//! ```
//!
//! `crc` covers the payload. `version` is a store-wide monotone
//! sequence number: wherever two records for the same key survive on
//! disk (which merge and crash windows make routine), the higher
//! version wins, so replay order never has to be trusted. `flags`
//! bit 0 marks a tombstone (a delete; the value is empty).
//!
//! A **hint file** (`seg-N.hint` beside `seg-N.log`) replays a sealed
//! segment's directory contribution without touching the (much larger)
//! data file:
//!
//! ```text
//! header  = magic "wdochnt0" | seg id u64 LE
//! frame   = len u32 LE | crc u32 LE | payload
//! payload = version u64 | flags u8 | off u64 | flen u32 | klen u32 | key
//! ```
//!
//! where `off`/`flen` locate the data frame inside the segment. Hints
//! are pure accelerators: a missing, torn, or corrupt hint file makes
//! open fall back to scanning the data segment, never fail.
//!
//! Torn tails (a crash mid-append or mid-merge) terminate a scan
//! cleanly at the last complete frame; a *complete* frame with a CRC
//! mismatch in a data segment is corruption and surfaces as an error.

use crate::{LogError, Result};

/// Data-segment file magic, version 0.
pub const DATA_MAGIC: &[u8; 8] = b"wdoclog0";
/// Hint-file magic, version 0.
pub const HINT_MAGIC: &[u8; 8] = b"wdochnt0";
/// Per-file header: magic + segment id.
pub const FILE_HEADER: usize = 16;
/// Per-frame header: length + CRC.
pub const FRAME_HEADER: usize = 8;
/// Smallest data frame: the header plus a payload's fixed fields.
pub const MIN_DATA_FRAME: u32 = FRAME_HEADER as u32 + 13;
/// Upper bound on one frame payload; a larger length in a header can
/// only come from bit rot (a torn write cannot invent bytes).
pub const MAX_FRAME: u32 = 1 << 30;

const FLAG_TOMBSTONE: u8 = 0b0000_0001;

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
/// the checksum of every logstore frame and every WAL frame. Consumes
/// eight bytes per step (slicing-by-8); the output is bit-identical to
/// the byte-at-a-time table loop.
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

/// Encode a file header (data or hint).
#[must_use]
pub fn encode_header(magic: &[u8; 8], seg: u64) -> [u8; FILE_HEADER] {
    let mut h = [0u8; FILE_HEADER];
    h[..8].copy_from_slice(magic);
    h[8..].copy_from_slice(&seg.to_le_bytes());
    h
}

/// Check a file header; returns the segment id it names.
pub fn decode_header(magic: &[u8; 8], bytes: &[u8]) -> Result<u64> {
    if bytes.len() < FILE_HEADER || &bytes[..8] != magic {
        return Err(LogError::Corrupt {
            seg: 0,
            off: 0,
            reason: "bad or truncated file header".into(),
        });
    }
    Ok(u64::from_le_bytes(bytes[8..16].try_into().expect("8B")))
}

/// One decoded data record (borrowing the frame payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataRecord<'a> {
    /// Store-wide monotone sequence number.
    pub version: u64,
    /// True for a delete marker.
    pub tombstone: bool,
    /// The key.
    pub key: &'a [u8],
    /// The value (empty for tombstones).
    pub value: &'a [u8],
}

/// Encode one data record as a complete frame (header + payload).
#[must_use]
pub fn encode_data(version: u64, tombstone: bool, key: &[u8], value: &[u8]) -> Vec<u8> {
    let klen = u32::try_from(key.len()).expect("key < 4 GiB");
    let mut payload = Vec::with_capacity(13 + key.len() + value.len());
    payload.extend_from_slice(&version.to_le_bytes());
    payload.push(if tombstone { FLAG_TOMBSTONE } else { 0 });
    payload.extend_from_slice(&klen.to_le_bytes());
    payload.extend_from_slice(key);
    payload.extend_from_slice(value);
    frame(payload)
}

/// Decode a data-frame payload.
pub fn decode_data(seg: u64, off: u64, payload: &[u8]) -> Result<DataRecord<'_>> {
    if payload.len() < 13 {
        return Err(corrupt(seg, off, "data payload shorter than fixed fields"));
    }
    let version = u64::from_le_bytes(payload[..8].try_into().expect("8B"));
    let flags = payload[8];
    let klen = u32::from_le_bytes(payload[9..13].try_into().expect("4B")) as usize;
    if payload.len() < 13 + klen {
        return Err(corrupt(seg, off, "data payload shorter than its key"));
    }
    Ok(DataRecord {
        version,
        tombstone: flags & FLAG_TOMBSTONE != 0,
        key: &payload[13..13 + klen],
        value: &payload[13 + klen..],
    })
}

/// One decoded hint record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintRecord {
    /// Store-wide monotone sequence number of the data record.
    pub version: u64,
    /// True for a delete marker.
    pub tombstone: bool,
    /// Offset of the data frame inside its segment file.
    pub off: u64,
    /// Total length of the data frame (header + payload).
    pub frame_len: u32,
    /// The key.
    pub key: Vec<u8>,
}

/// Encode one hint record as a complete frame.
#[must_use]
pub fn encode_hint(rec: &HintRecord) -> Vec<u8> {
    let klen = u32::try_from(rec.key.len()).expect("key < 4 GiB");
    let mut payload = Vec::with_capacity(25 + rec.key.len());
    payload.extend_from_slice(&rec.version.to_le_bytes());
    payload.push(if rec.tombstone { FLAG_TOMBSTONE } else { 0 });
    payload.extend_from_slice(&rec.off.to_le_bytes());
    payload.extend_from_slice(&rec.frame_len.to_le_bytes());
    payload.extend_from_slice(&klen.to_le_bytes());
    payload.extend_from_slice(&rec.key);
    frame(payload)
}

/// Decode a hint-frame payload. Errors are advisory — the caller falls
/// back to scanning the data segment.
pub fn decode_hint(payload: &[u8]) -> Result<HintRecord> {
    if payload.len() < 25 {
        return Err(corrupt(0, 0, "hint payload shorter than fixed fields"));
    }
    let version = u64::from_le_bytes(payload[..8].try_into().expect("8B"));
    let flags = payload[8];
    let off = u64::from_le_bytes(payload[9..17].try_into().expect("8B"));
    let frame_len = u32::from_le_bytes(payload[17..21].try_into().expect("4B"));
    let klen = u32::from_le_bytes(payload[21..25].try_into().expect("4B")) as usize;
    if payload.len() != 25 + klen {
        return Err(corrupt(0, 0, "hint payload length disagrees with its key"));
    }
    Ok(HintRecord {
        version,
        tombstone: flags & FLAG_TOMBSTONE != 0,
        off,
        frame_len,
        key: payload[25..].to_vec(),
    })
}

fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("frame < 4 GiB")
            .to_le_bytes(),
    );
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn corrupt(seg: u64, off: u64, reason: &str) -> LogError {
    LogError::Corrupt {
        seg,
        off,
        reason: reason.into(),
    }
}

/// Result of scanning one file's frames.
#[derive(Debug)]
pub struct FrameScan<'a> {
    /// `(offset, payload)` of every complete, checksum-valid frame, in
    /// file order. Offsets are file offsets (header included).
    pub frames: Vec<(u64, &'a [u8])>,
    /// File offset of the first byte of an incomplete final frame, if
    /// the file ends mid-frame (the signature of a crash mid-append).
    pub torn_at: Option<u64>,
    /// Length of the valid prefix (header + complete frames).
    pub valid_len: u64,
}

/// Walk the frames of `bytes` (one whole file, *after* its 16-byte
/// header was validated). `strict` controls what a complete frame with
/// a bad CRC means: in a data segment it is corruption (error); in a
/// hint file the whole hint is simply distrusted, which the caller
/// expresses by treating any error as "rescan the data file".
pub fn scan_frames(seg: u64, bytes: &[u8]) -> Result<FrameScan<'_>> {
    let mut frames = Vec::new();
    let mut off = FILE_HEADER.min(bytes.len());
    if off < FILE_HEADER {
        return Ok(FrameScan {
            frames,
            torn_at: Some(0),
            valid_len: 0,
        });
    }
    loop {
        if off == bytes.len() {
            return Ok(FrameScan {
                frames,
                torn_at: None,
                valid_len: off as u64,
            });
        }
        if bytes.len() - off < FRAME_HEADER {
            return Ok(FrameScan {
                frames,
                torn_at: Some(off as u64),
                valid_len: off as u64,
            });
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4B"));
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4B"));
        if len > MAX_FRAME {
            return Err(corrupt(seg, off as u64, "frame length exceeds limit"));
        }
        let start = off + FRAME_HEADER;
        let end = start + len as usize;
        if end > bytes.len() {
            return Ok(FrameScan {
                frames,
                torn_at: Some(off as u64),
                valid_len: off as u64,
            });
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            return Err(corrupt(seg, off as u64, "frame CRC mismatch"));
        }
        frames.push((off as u64, payload));
        off = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn data_frame_roundtrip() {
        let frame = encode_data(42, false, b"key", b"value");
        let mut file = encode_header(DATA_MAGIC, 7).to_vec();
        file.extend_from_slice(&frame);
        assert_eq!(decode_header(DATA_MAGIC, &file).unwrap(), 7);
        let scan = scan_frames(7, &file).unwrap();
        assert_eq!(scan.torn_at, None);
        assert_eq!(scan.frames.len(), 1);
        let rec = decode_data(7, scan.frames[0].0, scan.frames[0].1).unwrap();
        assert_eq!(rec.version, 42);
        assert!(!rec.tombstone);
        assert_eq!(rec.key, b"key");
        assert_eq!(rec.value, b"value");
    }

    #[test]
    fn tombstone_flag_survives() {
        let frame = encode_data(9, true, b"gone", b"");
        let rec = decode_data(0, 0, &frame[FRAME_HEADER..]).unwrap();
        assert!(rec.tombstone);
        assert!(rec.value.is_empty());
    }

    #[test]
    fn torn_tail_at_every_cut_of_final_frame() {
        let mut file = encode_header(DATA_MAGIC, 1).to_vec();
        file.extend_from_slice(&encode_data(1, false, b"a", b"xx"));
        let second_at = file.len() as u64;
        file.extend_from_slice(&encode_data(2, false, b"b", b"yy"));
        for cut in second_at as usize + 1..file.len() {
            let scan = scan_frames(1, &file[..cut]).unwrap();
            assert_eq!(scan.frames.len(), 1, "cut {cut}");
            assert_eq!(scan.torn_at, Some(second_at));
            assert_eq!(scan.valid_len, second_at);
        }
    }

    #[test]
    fn complete_frame_with_bad_crc_is_corruption() {
        let mut file = encode_header(DATA_MAGIC, 1).to_vec();
        file.extend_from_slice(&encode_data(1, false, b"a", b"xx"));
        let i = FILE_HEADER + FRAME_HEADER + 2;
        file[i] ^= 0x10;
        assert!(matches!(
            scan_frames(1, &file),
            Err(LogError::Corrupt { .. })
        ));
    }

    #[test]
    fn hint_frame_roundtrip() {
        let rec = HintRecord {
            version: 5,
            tombstone: true,
            off: 1234,
            frame_len: 77,
            key: b"some-key".to_vec(),
        };
        let frame = encode_hint(&rec);
        let got = decode_hint(&frame[FRAME_HEADER..]).unwrap();
        assert_eq!(got, rec);
    }

    #[test]
    fn wrong_magic_rejected() {
        let file = encode_header(HINT_MAGIC, 3).to_vec();
        assert!(decode_header(DATA_MAGIC, &file).is_err());
        assert_eq!(decode_header(HINT_MAGIC, &file).unwrap(), 3);
    }
}
