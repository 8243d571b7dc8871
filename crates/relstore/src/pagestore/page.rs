//! Slotted-page byte layout and the row codec.
//!
//! A page is a plain `Vec<u8>` with a classic slotted layout:
//!
//! ```text
//! +-----------+-----------+------------------+ .... +-----------+
//! | n_slots   | free_ptr  | slot dir entries | free | row data  |
//! | u32 LE    | u32 LE    | (off,len) u32 LE |      | grows ←   |
//! +-----------+-----------+------------------+ .... +-----------+
//! ```
//!
//! The slot directory grows down from the header; row bytes grow up
//! from the page end. `free_ptr` is the offset of the lowest used data
//! byte. A slot with `off == 0` is dead (valid data offsets are always
//! `>= HEADER`), and dead slots are reused by later inserts. Removal
//! leaves a hole in the data region; [`insert`] compacts the page
//! lazily when contiguous free space runs out but total reclaimable
//! space would fit the new row. An image that fits its slot overwrites it.
//!
//! Rows are encoded with a tiny self-describing codec (tag byte per
//! value, little-endian scalars, `u32` length-prefixed payloads) so a
//! page image round-trips through any [`super::PageStore`] backend
//! byte-for-byte.

use crate::error::{Error, Result};
use crate::table::Row;
use crate::value::Value;

/// Default page size. Matches the classic 4 KiB DBMS page; rows larger
/// than a page get a dedicated page sized to fit (see
/// [`capacity_needed`]).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Bytes of fixed header: `n_slots: u32` + `free_ptr: u32`.
pub const HEADER: usize = 8;
/// Bytes per slot-directory entry: `off: u32` + `len: u32`.
pub const SLOT: usize = 8;

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

fn write_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn n_slots(buf: &[u8]) -> usize {
    read_u32(buf, 0) as usize
}

fn free_ptr(buf: &[u8]) -> usize {
    read_u32(buf, 4) as usize
}

fn slot_entry(buf: &[u8], slot: usize) -> (usize, usize) {
    let at = HEADER + slot * SLOT;
    (read_u32(buf, at) as usize, read_u32(buf, at + 4) as usize)
}

fn set_slot_entry(buf: &mut [u8], slot: usize, off: usize, len: usize) {
    let at = HEADER + slot * SLOT;
    write_u32(buf, at, off as u32);
    write_u32(buf, at + 4, len as u32);
}

/// Initialize `buf` as an empty page of `size` bytes.
pub fn init(buf: &mut Vec<u8>, size: usize) {
    buf.clear();
    buf.resize(size.max(HEADER), 0);
    let len = buf.len() as u32;
    write_u32(buf, 0, 0);
    write_u32(buf, 4, len);
}

/// Page bytes a fresh page must have to hold one `row_len`-byte row.
#[must_use]
pub fn capacity_needed(row_len: usize) -> usize {
    HEADER + SLOT + row_len
}

/// Contiguous free bytes between the slot directory and the data region.
#[must_use]
pub fn contiguous_free(buf: &[u8]) -> usize {
    free_ptr(buf).saturating_sub(HEADER + n_slots(buf) * SLOT)
}

/// Total reclaimable free bytes: the contiguous gap plus holes left by
/// removed rows (recoverable via compaction). Dead slot-directory
/// entries do *not* count — compaction keeps slot numbers stable, so
/// their bytes are never reclaimed — which makes this a guaranteed
/// lower bound: an [`insert`] of at most `total_free - SLOT` bytes
/// always succeeds.
#[must_use]
pub fn total_free(buf: &[u8]) -> usize {
    let mut free = contiguous_free(buf);
    for slot in 0..n_slots(buf) {
        let (off, len) = slot_entry(buf, slot);
        if off == 0 {
            free += len;
        }
    }
    free
}

/// Number of live rows on the page.
#[must_use]
pub fn live_rows(buf: &[u8]) -> usize {
    (0..n_slots(buf))
        .filter(|&s| slot_entry(buf, s).0 != 0)
        .count()
}

/// Slide all live rows to the end of the page, closing holes. Slot
/// numbers are stable; only data offsets move. Rows land in slot order
/// from the page end, copied out of one snapshot of the data region.
fn compact(buf: &mut [u8]) {
    let base = free_ptr(buf);
    let data = buf[base..].to_vec();
    let mut ptr = buf.len();
    for slot in 0..n_slots(buf) {
        let (off, len) = slot_entry(buf, slot);
        if off != 0 {
            ptr -= len;
            buf[ptr..ptr + len].copy_from_slice(&data[off - base..off - base + len]);
            set_slot_entry(buf, slot, ptr, len);
        }
    }
    write_u32(buf, 4, ptr as u32);
}

/// Insert `bytes` into the page, returning the slot number, or `None`
/// if the page cannot hold the row even after compaction. Dead slots
/// (and their reclaimable data holes) are reused before the directory
/// grows.
pub fn insert(buf: &mut [u8], bytes: &[u8]) -> Option<u32> {
    let reuse = (0..n_slots(buf)).find(|&s| slot_entry(buf, s).0 == 0);
    let dir_growth = if reuse.is_some() { 0 } else { SLOT };
    if contiguous_free(buf) < bytes.len() + dir_growth {
        if total_free(buf) < bytes.len() + dir_growth {
            return None;
        }
        compact(buf);
        if contiguous_free(buf) < bytes.len() + dir_growth {
            return None;
        }
    }
    let slot = match reuse {
        Some(s) => s,
        None => {
            let s = n_slots(buf);
            write_u32(buf, 0, (s + 1) as u32);
            s
        }
    };
    let ptr = free_ptr(buf) - bytes.len();
    buf[ptr..ptr + bytes.len()].copy_from_slice(bytes);
    write_u32(buf, 4, ptr as u32);
    set_slot_entry(buf, slot, ptr, bytes.len());
    Some(slot as u32)
}

/// Read the row bytes stored in `slot`, or `None` if the slot is dead
/// or out of range.
#[must_use]
pub fn get(buf: &[u8], slot: u32) -> Option<&[u8]> {
    let slot = slot as usize;
    if slot >= n_slots(buf) {
        return None;
    }
    let (off, len) = slot_entry(buf, slot);
    if off == 0 {
        return None;
    }
    Some(&buf[off..off + len])
}

/// Rewrite live `slot` with `bytes` in place if they fit its current
/// length; returns whether they did. A shorter image's slack is left to
/// the next compaction ([`total_free`] does not count it).
pub(crate) fn overwrite(buf: &mut [u8], slot: u32, bytes: &[u8]) -> bool {
    let slot = slot as usize;
    if slot >= n_slots(buf) {
        return false;
    }
    let (off, len) = slot_entry(buf, slot);
    if off == 0 || bytes.len() > len {
        return false;
    }
    buf[off..off + bytes.len()].copy_from_slice(bytes);
    set_slot_entry(buf, slot, off, bytes.len());
    true
}

/// Mark `slot` dead, leaving its data bytes as a reclaimable hole.
/// Returns `true` if the slot was live. The dead entry keeps its `len`
/// so [`total_free`] can account the hole without scanning data.
pub fn remove(buf: &mut [u8], slot: u32) -> bool {
    let slot = slot as usize;
    if slot >= n_slots(buf) {
        return false;
    }
    let (off, len) = slot_entry(buf, slot);
    if off == 0 {
        return false;
    }
    set_slot_entry(buf, slot, 0, len);
    true
}

// ---------------------------------------------------------------------
// Row codec
// ---------------------------------------------------------------------

pub(crate) const TAG_NULL: u8 = 0;
pub(crate) const TAG_BOOL: u8 = 1;
pub(crate) const TAG_INT: u8 = 2;
pub(crate) const TAG_FLOAT: u8 = 3;
pub(crate) const TAG_TEXT: u8 = 4;
pub(crate) const TAG_BYTES: u8 = 5;
pub(crate) const TAG_TIMESTAMP: u8 = 6;

/// Encode a row: `u32` arity then each value as tag byte + payload.
#[must_use]
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * row.len() + 4);
    out.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Bool(b) => {
                out.push(TAG_BOOL);
                out.push(u8::from(*b));
            }
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(x) => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::Text(s) => {
                out.push(TAG_TEXT);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                out.push(TAG_BYTES);
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
            Value::Timestamp(t) => {
                out.push(TAG_TIMESTAMP);
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
    }
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() - self.at {
            return Err(Error::Page("row image truncated".into()));
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// Decode a row image produced by [`encode_row`].
pub fn decode_row(bytes: &[u8]) -> Result<Row> {
    let mut c = Cursor { buf: bytes, at: 0 };
    let arity = c.u32()? as usize;
    // The header is untrusted: reserve no more than the image can
    // hold (every field is at least its one tag byte).
    let mut row = Vec::with_capacity(arity.min(bytes.len() - c.at));
    for _ in 0..arity {
        let v = match c.u8()? {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(c.u8()? != 0),
            TAG_INT => Value::Int(c.u64()? as i64),
            TAG_FLOAT => Value::Float(f64::from_le_bytes(c.take(8)?.try_into().unwrap())),
            TAG_TEXT => {
                let len = c.u32()? as usize;
                let s = std::str::from_utf8(c.take(len)?)
                    .map_err(|_| Error::Page("row image holds invalid UTF-8".into()))?;
                Value::Text(s.to_owned())
            }
            TAG_BYTES => {
                let len = c.u32()? as usize;
                Value::Bytes(c.take(len)?.to_vec())
            }
            TAG_TIMESTAMP => Value::Timestamp(c.u64()?),
            tag => return Err(Error::Page(format!("unknown value tag {tag}"))),
        };
        row.push(v);
    }
    if c.at != bytes.len() {
        return Err(Error::Page("trailing bytes after row image".into()));
    }
    Ok(row)
}

/// Borrowed handle on one encoded field of a row image: the value's tag
/// byte plus the byte bounds of its payload within the image. Length
/// prefixes are already consumed — for `Text`/`Bytes` values,
/// `start..end` is the payload itself.
///
/// Tag bytes double as the cross-type rank used by [`Value`]'s total
/// order (NULL = 0 first, then `Bool < Int < Float < Text < Bytes <
/// Timestamp`), so comparisons between differently-tagged fields can be
/// decided from the tags alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldRef {
    /// The value's tag byte.
    pub tag: u8,
    /// Payload start offset within the row image.
    pub start: usize,
    /// Payload end offset within the row image.
    pub end: usize,
}

/// Reusable scratch for raw (non-decoding) row access.
///
/// [`RowScratch::load`] walks the leading fields of an [`encode_row`]
/// image into a table of [`FieldRef`]s without constructing a single
/// [`Value`], so hot scan loops can evaluate predicates against the
/// encoded bytes directly. One instance serves a whole scan: the field
/// table's allocation is reused across rows.
#[derive(Debug, Default)]
pub struct RowScratch {
    fields: Vec<FieldRef>,
}

impl RowScratch {
    /// Walk the first `upto` fields of `bytes`. Errors on truncated or
    /// garbage images and on rows with fewer than `upto` fields (which
    /// would mean the image does not belong to the schema the caller
    /// compiled against).
    pub fn load(&mut self, bytes: &[u8], upto: usize) -> Result<()> {
        self.fields.clear();
        let mut c = Cursor { buf: bytes, at: 0 };
        let arity = c.u32()? as usize;
        if arity < upto {
            return Err(Error::Page(format!(
                "row image has {arity} fields, caller needs {upto}"
            )));
        }
        for _ in 0..upto {
            let tag = c.u8()?;
            let (start, end) = match tag {
                TAG_NULL => (c.at, c.at),
                TAG_BOOL => {
                    c.take(1)?;
                    (c.at - 1, c.at)
                }
                TAG_INT | TAG_FLOAT | TAG_TIMESTAMP => {
                    c.take(8)?;
                    (c.at - 8, c.at)
                }
                TAG_TEXT | TAG_BYTES => {
                    let len = c.u32()? as usize;
                    c.take(len)?;
                    (c.at - len, c.at)
                }
                tag => return Err(Error::Page(format!("unknown value tag {tag}"))),
            };
            self.fields.push(FieldRef { tag, start, end });
        }
        Ok(())
    }

    /// The `i`th field walked by the last [`RowScratch::load`].
    ///
    /// # Panics
    /// If `i >= upto` of that load.
    #[must_use]
    pub fn field(&self, i: usize) -> FieldRef {
        self.fields[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> Row {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(1.5),
            Value::Text("héllo".into()),
            Value::Bytes(vec![0, 255, 7]),
            Value::Timestamp(123_456),
        ]
    }

    #[test]
    fn codec_round_trips() {
        let row = sample_row();
        assert_eq!(decode_row(&encode_row(&row)).unwrap(), row);
        assert_eq!(decode_row(&encode_row(&[])).unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn codec_rejects_garbage() {
        assert!(decode_row(&[9, 9]).is_err());
        let mut bytes = encode_row(&sample_row());
        bytes.push(0);
        assert!(decode_row(&bytes).is_err());
        bytes.truncate(bytes.len() - 3);
        assert!(decode_row(&bytes).is_err());
        // A hostile arity must be an error, not a 4-billion-slot
        // reservation (which aborts the process).
        assert!(decode_row(&[0xff; 4]).is_err());
    }

    #[test]
    fn page_insert_get_remove() {
        let mut buf = Vec::new();
        init(&mut buf, 256);
        let a = insert(&mut buf, b"alpha").unwrap();
        let b = insert(&mut buf, b"bravo").unwrap();
        assert_ne!(a, b);
        assert_eq!(get(&buf, a).unwrap(), b"alpha");
        assert_eq!(get(&buf, b).unwrap(), b"bravo");
        assert_eq!(live_rows(&buf), 2);
        assert!(remove(&mut buf, a));
        assert!(!remove(&mut buf, a));
        assert_eq!(get(&buf, a), None);
        assert_eq!(live_rows(&buf), 1);
        // The dead slot is reused.
        let c = insert(&mut buf, b"charlie").unwrap();
        assert_eq!(c, a);
        assert_eq!(get(&buf, c).unwrap(), b"charlie");
    }

    #[test]
    fn page_compacts_to_fit() {
        let mut buf = Vec::new();
        init(&mut buf, HEADER + 3 * SLOT + 30);
        let a = insert(&mut buf, &[1u8; 10]).unwrap();
        let b = insert(&mut buf, &[2u8; 10]).unwrap();
        let c = insert(&mut buf, &[3u8; 10]).unwrap();
        // Free the middle row: contiguous space is 0, but the hole plus
        // the dead slot makes room for an 18-byte row after compaction.
        assert!(remove(&mut buf, b));
        assert_eq!(contiguous_free(&buf), 0);
        let d = insert(&mut buf, &[4u8; 10]).unwrap();
        assert_eq!(d, b);
        assert_eq!(get(&buf, a).unwrap(), &[1u8; 10]);
        assert_eq!(get(&buf, c).unwrap(), &[3u8; 10]);
        assert_eq!(get(&buf, d).unwrap(), &[4u8; 10]);
        // And a row that genuinely does not fit is refused.
        assert_eq!(insert(&mut buf, &[5u8; 64]), None);
    }

    #[test]
    fn overwrite_fits_in_place_or_refuses() {
        let mut buf = Vec::new();
        init(&mut buf, 128);
        let a = insert(&mut buf, b"alpha").unwrap();
        let b = insert(&mut buf, b"bravo").unwrap();
        let (free, before) = (total_free(&buf), buf.clone());
        assert!(overwrite(&mut buf, a, b"ALPHA"));
        assert_eq!(get(&buf, a).unwrap(), b"ALPHA");
        assert!(overwrite(&mut buf, a, b"al"));
        assert_eq!(get(&buf, a).unwrap(), b"al");
        // Only the slot's own bytes and length changed; the slack is
        // not counted until a compaction reclaims it.
        assert_eq!(
            slot_entry(&buf, a as usize).0,
            slot_entry(&before, a as usize).0
        );
        assert_eq!(get(&buf, b).unwrap(), b"bravo");
        assert_eq!(total_free(&buf), free);
        // Longer than the slot now holds, dead, or out of range: refused
        // and untouched.
        assert!(remove(&mut buf, b));
        let snapshot = buf.clone();
        assert!(!overwrite(&mut buf, a, b"alp"));
        assert!(!overwrite(&mut buf, b, b"b"));
        assert!(!overwrite(&mut buf, 9, b"x"));
        assert_eq!(buf, snapshot);
        compact(&mut buf);
        assert_eq!(get(&buf, a).unwrap(), b"al");
        assert_eq!(contiguous_free(&buf), 128 - HEADER - 2 * SLOT - 2);
    }

    /// The compaction `compact` replaced: one `Vec` per live row.
    fn compact_reference(buf: &mut [u8]) {
        let slots = n_slots(buf);
        let mut live: Vec<(usize, Vec<u8>)> = Vec::new();
        for slot in 0..slots {
            let (off, len) = slot_entry(buf, slot);
            if off != 0 {
                live.push((slot, buf[off..off + len].to_vec()));
            }
        }
        let mut ptr = buf.len();
        for (slot, bytes) in live {
            ptr -= bytes.len();
            buf[ptr..ptr + bytes.len()].copy_from_slice(&bytes);
            set_slot_entry(buf, slot, ptr, bytes.len());
        }
        write_u32(buf, 4, ptr as u32);
    }

    #[test]
    fn compact_matches_the_per_row_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(115);
        for _ in 0..200 {
            let mut buf = Vec::new();
            init(&mut buf, rng.gen_range(64..1024));
            for step in 0..rng.gen_range(1..60) {
                let slots = n_slots(&buf).max(1) as u32;
                let len = rng.gen_range(0..48);
                let fill = vec![step as u8; len];
                match rng.gen_range(0..3) {
                    0 => drop(insert(&mut buf, &fill)),
                    1 => drop(remove(&mut buf, rng.gen_range(0..slots))),
                    _ => drop(overwrite(&mut buf, rng.gen_range(0..slots), &fill)),
                }
            }
            let mut want = buf.clone();
            compact_reference(&mut want);
            compact(&mut buf);
            assert_eq!(buf, want);
        }
    }

    #[test]
    fn free_accounting_is_exact() {
        let mut buf = Vec::new();
        init(&mut buf, 128);
        assert_eq!(contiguous_free(&buf), 128 - HEADER);
        let a = insert(&mut buf, &[7u8; 16]).unwrap();
        assert_eq!(contiguous_free(&buf), 128 - HEADER - SLOT - 16);
        remove(&mut buf, a);
        // The dead slot's directory entry stays occupied; only its data
        // hole is reclaimable.
        assert_eq!(total_free(&buf), 128 - HEADER - SLOT);
    }
}
