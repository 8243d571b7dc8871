//! The payloads of data segments and hint files. Both are framed
//! segment files ([`crate::segfile`] owns the header, the frame and the
//! scan); only their magics and payloads are this module's.
//!
//! A **data segment** (`seg-<id>.log`, magic `wdoclog0`) holds one frame
//! per put or remove:
//!
//! ```text
//! payload = version u64 LE | flags u8 | klen u32 LE | key | value
//! ```
//!
//! `version` is a store-wide monotone sequence number: wherever two
//! records for the same key survive on disk (which merge and crash
//! windows make routine), the higher version wins, so replay order never
//! has to be trusted. `flags` bit 0 marks a tombstone (a delete; the
//! value is empty).
//!
//! A **hint file** (`seg-<id>.hint` beside `seg-<id>.log`, magic
//! `wdochnt0`) replays a sealed segment's directory contribution without
//! touching the (much larger) data file:
//!
//! ```text
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

use crate::segfile::{frame_buf, seal_frame, FRAME_HEADER};
use crate::{LogError, Result};

/// Data-segment file magic, version 0.
pub const DATA_MAGIC: &[u8; 8] = b"wdoclog0";
/// Hint-file magic, version 0.
pub const HINT_MAGIC: &[u8; 8] = b"wdochnt0";
/// Smallest data frame: the header plus a payload's fixed fields.
pub const MIN_DATA_FRAME: u32 = FRAME_HEADER as u32 + 13;

const FLAG_TOMBSTONE: u8 = 0b0000_0001;

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
pub fn encode_data(version: u64, tombstone: bool, key: &[u8], value: &[u8]) -> Result<Vec<u8>> {
    let klen = u32::try_from(key.len()).expect("key < 4 GiB");
    let mut frame = frame_buf(13 + key.len() + value.len());
    frame.extend_from_slice(&version.to_le_bytes());
    frame.push(if tombstone { FLAG_TOMBSTONE } else { 0 });
    frame.extend_from_slice(&klen.to_le_bytes());
    frame.extend_from_slice(key);
    frame.extend_from_slice(value);
    sealed(frame)
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
pub fn encode_hint(rec: &HintRecord) -> Result<Vec<u8>> {
    let klen = u32::try_from(rec.key.len()).expect("key < 4 GiB");
    let mut frame = frame_buf(25 + rec.key.len());
    frame.extend_from_slice(&rec.version.to_le_bytes());
    frame.push(if rec.tombstone { FLAG_TOMBSTONE } else { 0 });
    frame.extend_from_slice(&rec.off.to_le_bytes());
    frame.extend_from_slice(&rec.frame_len.to_le_bytes());
    frame.extend_from_slice(&klen.to_le_bytes());
    frame.extend_from_slice(&rec.key);
    sealed(frame)
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

/// `frame` with its header written; a record too large for one frame
/// is refused before it reaches a file.
fn sealed(mut frame: Vec<u8>) -> Result<Vec<u8>> {
    seal_frame(&mut frame).map_err(|len| {
        LogError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("a {len}-byte record exceeds the frame limit"),
        ))
    })?;
    Ok(frame)
}

fn corrupt(seg: u64, off: u64, reason: &str) -> LogError {
    LogError::Corrupt {
        seg,
        off,
        reason: reason.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segfile::{check_header, crc32, encode_header, scan, FILE_HEADER};

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
        let frame = encode_data(42, false, b"key", b"value").unwrap();
        let mut file = encode_header(DATA_MAGIC, 7).to_vec();
        file.extend_from_slice(&frame);
        let len = file.len() as u64;
        assert_eq!(
            check_header(DATA_MAGIC, 7, &file[..16], len, true),
            Ok(true)
        );
        let scan = scan(&file[FILE_HEADER..], FILE_HEADER as u64).unwrap();
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
        let frame = encode_data(9, true, b"gone", b"").unwrap();
        let rec = decode_data(0, 0, &frame[FRAME_HEADER..]).unwrap();
        assert!(rec.tombstone);
        assert!(rec.value.is_empty());
    }

    #[test]
    fn torn_tail_at_every_cut_of_final_frame() {
        let mut file = encode_data(1, false, b"a", b"xx").unwrap();
        let second = file.len();
        let second_at = (FILE_HEADER + second) as u64;
        file.extend_from_slice(&encode_data(2, false, b"b", b"yy").unwrap());
        for cut in second + 1..file.len() {
            let scan = scan(&file[..cut], FILE_HEADER as u64).unwrap();
            assert_eq!(scan.frames.len(), 1, "cut {cut}");
            assert_eq!(scan.torn_at, Some(second_at));
            assert_eq!(scan.end, second_at);
        }
    }

    #[test]
    fn complete_frame_with_bad_crc_is_corruption() {
        let mut frames = encode_data(1, false, b"a", b"xx").unwrap();
        frames[FRAME_HEADER + 2] ^= 0x10;
        let fault = scan(&frames, FILE_HEADER as u64).unwrap_err();
        assert_eq!(fault.off, FILE_HEADER as u64);
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
        let frame = encode_hint(&rec).unwrap();
        let got = decode_hint(&frame[FRAME_HEADER..]).unwrap();
        assert_eq!(got, rec);
    }

    #[test]
    fn wrong_magic_rejected() {
        let file = encode_header(HINT_MAGIC, 3);
        assert!(check_header(DATA_MAGIC, 3, &file, 20, false).is_err());
        assert_eq!(check_header(HINT_MAGIC, 3, &file, 20, false), Ok(true));
    }
}
