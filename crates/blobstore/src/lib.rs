//! # blobstore — the BLOB layer of the Web document database
//!
//! The paper's three-layer hierarchy bottoms out in a BLOB layer of
//! multimedia files that are "shared by instances and classes" within a
//! workstation (§3) so that "an individual multimedia resource is used
//! only by a presentation in a workstation with respect to a time
//! duration … this strategy avoids the abuse of disk storage" (§4).
//!
//! [`BlobStore`] models one workstation's BLOB storage:
//!
//! * **content addressing** — storing identical bytes twice yields the
//!   same [`BlobId`] and one physical copy. The id is a word-wise,
//!   non-cryptographic 128-bit digest plus the length ([`BlobId::of`]),
//!   computed on every store, so it reads eight bytes per lane step
//!   instead of one;
//! * **reference counting** — every logical user (a document class, an
//!   instance, a lecture buffer) holds a reference; the physical copy is
//!   evicted when the last reference is released;
//! * **byte accounting** — `physical_bytes` vs `logical_bytes` is
//!   exactly the disk saving the paper's sharing design claims, and is
//!   what experiment E4 measures.
//!
//! The store is thread-safe; cloning it clones a handle to the same
//! underlying storage.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod media;

pub use media::MediaKind;

use bytes::Bytes;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Content-derived identifier of a BLOB: a 128-bit digest plus the
/// payload length, which makes accidental collisions in simulation
/// workloads vanishingly unlikely while keeping the crate
/// dependency-free. The digest is not cryptographic: it finds equal
/// payloads, it does not defend against crafted ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlobId {
    hi: u64,
    lo: u64,
    len: u64,
}

/// The odd multipliers of the digest's lane round and final avalanche
/// (the xxHash64 primes).
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// One lane step: injective in both the lane and the word, so a payload
/// that differs in one word leaves that lane, and the digest, different.
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// A bijective 64-bit finalizer (MurmurHash3's `fmix64`).
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

impl BlobId {
    /// Digest the payload: four independent lanes each take every
    /// fourth little-endian 8-byte word (the tail zero-padded to a
    /// word), and a final avalanche folds the lanes and the length into
    /// 128 bits. Word-wise lanes keep several multiplies in flight, so
    /// the digest runs near memory speed.
    #[must_use]
    pub fn of(data: &[u8]) -> Self {
        let word = |w: &[u8]| {
            let mut buf = [0u8; 8];
            buf[..w.len()].copy_from_slice(w);
            u64::from_le_bytes(buf)
        };
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        let mut blocks = data.chunks_exact(32);
        for block in &mut blocks {
            for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = round(*lane, word(w));
            }
        }
        for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
            *lane = round(*lane, word(w));
        }
        let len = data.len() as u64;
        let [a, b, c, d] = lanes;
        let merged = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        let hi = avalanche(merged ^ len.wrapping_mul(P3));
        let lo = avalanche(
            hi.wrapping_add(a ^ b.rotate_left(29) ^ c.rotate_left(41) ^ d.rotate_left(53)),
        );
        BlobId { hi, lo, len }
    }

    /// Payload length in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for the digest of an empty payload.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::fmt::Display for BlobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}/{}", self.hi, self.lo, self.len)
    }
}

/// Error from parsing a [`BlobId`] display string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBlobIdError;

impl std::fmt::Display for ParseBlobIdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("malformed blob id (expected 32 hex digits, '/', length)")
    }
}

impl std::error::Error for ParseBlobIdError {}

impl std::str::FromStr for BlobId {
    type Err = ParseBlobIdError;

    /// Parse the `Display` format back into an id.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (digest, len) = s.split_once('/').ok_or(ParseBlobIdError)?;
        if digest.len() != 32 {
            return Err(ParseBlobIdError);
        }
        let hi = u64::from_str_radix(&digest[..16], 16).map_err(|_| ParseBlobIdError)?;
        let lo = u64::from_str_radix(&digest[16..], 16).map_err(|_| ParseBlobIdError)?;
        let len = len.parse::<u64>().map_err(|_| ParseBlobIdError)?;
        Ok(BlobId { hi, lo, len })
    }
}

/// Descriptor of a BLOB: everything but the bytes. Documents reference
/// media through descriptors; only stations that materialized the object
/// hold the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlobMeta {
    /// Content id.
    pub id: BlobId,
    /// Media kind.
    pub kind: MediaKind,
    /// Size in bytes (equal to `id.len()`).
    pub size: u64,
}

#[derive(Debug)]
struct Slot {
    data: Bytes,
    kind: MediaKind,
    refs: u64,
}

#[derive(Debug, Default)]
struct Inner {
    slots: BTreeMap<BlobId, Slot>,
    physical: u64,
    logical: u64,
    /// Monotone counters for experiment reporting.
    stores: u64,
    dedup_hits: u64,
    evictions: u64,
    /// Present on a log-backed store: every mutation is written
    /// through to the log, so the durable state reclaims itself via
    /// segment merges instead of being rewritten wholesale.
    log: Option<LogBacking>,
}

/// Durable key layout of a log-backed store. Two keyspaces, both
/// prefixed so they sort apart: `b` + id (25 bytes) holds
/// `kind byte | payload`, `r` + id holds the reference count (u64 LE).
/// Payload and refcount are separate records so a retain/release never
/// rewrites megabytes of media.
fn blob_key(id: BlobId) -> [u8; 25] {
    let mut k = [0u8; 25];
    k[0] = b'b';
    k[1..9].copy_from_slice(&id.hi.to_be_bytes());
    k[9..17].copy_from_slice(&id.lo.to_be_bytes());
    k[17..25].copy_from_slice(&id.len.to_be_bytes());
    k
}

fn refs_key(id: BlobId) -> [u8; 25] {
    let mut k = blob_key(id);
    k[0] = b'r';
    k
}

fn key_id(k: &[u8]) -> Option<BlobId> {
    if k.len() != 25 {
        return None;
    }
    Some(BlobId {
        hi: u64::from_be_bytes(k[1..9].try_into().ok()?),
        lo: u64::from_be_bytes(k[9..17].try_into().ok()?),
        len: u64::from_be_bytes(k[17..25].try_into().ok()?),
    })
}

fn kind_byte(kind: MediaKind) -> u8 {
    MediaKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("kind is in ALL") as u8
}

/// The write-through handle. The in-memory API stays infallible: a
/// persistence failure is remembered here and surfaced by the next
/// [`BlobStore::sync`] (the checkpoint path), mirroring how a failed
/// JSON rewrite would have surfaced at checkpoint time.
#[derive(Debug)]
struct LogBacking {
    store: logstore::LogStore,
    error: Option<logstore::LogError>,
}

impl LogBacking {
    fn try_put(&mut self, key: &[u8], value: &[u8]) {
        if self.error.is_none() {
            if let Err(e) = self.store.put(key, value) {
                self.error = Some(e);
            }
        }
    }

    fn try_remove(&mut self, key: &[u8]) {
        if self.error.is_none() {
            if let Err(e) = self.store.remove(key) {
                self.error = Some(e);
            }
        }
    }

    fn put_blob(&mut self, id: BlobId, kind: MediaKind, data: &[u8]) {
        let mut value = Vec::with_capacity(1 + data.len());
        value.push(kind_byte(kind));
        value.extend_from_slice(data);
        self.try_put(&blob_key(id), &value);
    }

    fn put_refs(&mut self, id: BlobId, refs: u64) {
        self.try_put(&refs_key(id), &refs.to_le_bytes());
    }

    fn evict(&mut self, id: BlobId) {
        self.try_remove(&blob_key(id));
        self.try_remove(&refs_key(id));
    }
}

/// One workstation's BLOB storage. Cheap to clone (shared handle).
#[derive(Debug, Clone, Default)]
pub struct BlobStore {
    inner: Arc<RwLock<Inner>>,
}

/// A point-in-time snapshot of store statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlobStats {
    /// Bytes physically resident.
    pub physical_bytes: u64,
    /// Bytes all reference holders *believe* they hold (`Σ size·refs`).
    pub logical_bytes: u64,
    /// Number of distinct resident blobs.
    pub blob_count: usize,
    /// Total `store` calls.
    pub stores: u64,
    /// `store` calls that deduplicated against resident content.
    pub dedup_hits: u64,
    /// Blobs evicted after their last release.
    pub evictions: u64,
}

impl BlobStats {
    /// Fraction of logical bytes saved by sharing (0 when empty).
    #[must_use]
    pub fn sharing_ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            1.0 - (self.physical_bytes as f64 / self.logical_bytes as f64)
        }
    }
}

impl BlobStore {
    /// Create an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a store durably backed by a [`logstore::LogStore`] rooted
    /// at `dir`: every resident payload and reference count found in
    /// the log is restored, and every further mutation is written
    /// through. Appends become durable at [`sync`](BlobStore::sync)
    /// (the checkpoint path) or when the log itself seals a segment;
    /// dead payloads are reclaimed by the log's merge compaction
    /// rather than by rewriting a monolithic dump.
    pub fn open_logged(
        dir: &std::path::Path,
        cfg: logstore::LogConfig,
        metrics: obs::Registry,
    ) -> Result<BlobStore, logstore::LogError> {
        let store = logstore::LogStore::open_with_metrics(dir, cfg, metrics)?;
        let mut inner = Inner::default();
        let mut refs: BTreeMap<BlobId, u64> = BTreeMap::new();
        for (k, v) in store.entries()? {
            let Some(id) = key_id(&k) else { continue };
            match k.first() {
                Some(&b'b') if !v.is_empty() => {
                    let kind =
                        *MediaKind::ALL
                            .get(v[0] as usize)
                            .ok_or(logstore::LogError::Corrupt {
                                seg: 0,
                                off: 0,
                                reason: format!("blob {id} has unknown media kind {}", v[0]),
                            })?;
                    inner.slots.insert(
                        id,
                        Slot {
                            data: Bytes::from(v[1..].to_vec()),
                            kind,
                            refs: 1,
                        },
                    );
                }
                Some(&b'r') if v.len() == 8 => {
                    refs.insert(id, u64::from_le_bytes(v.try_into().expect("8B")));
                }
                _ => {}
            }
        }
        // Pair payloads with their counts. A payload whose refcount
        // record was lost to a torn tail keeps the one reference its
        // own existence implies; an orphan refcount (payload evicted,
        // crash between the two tombstones) is dropped.
        for (id, slot) in &mut inner.slots {
            slot.refs = refs.get(id).copied().unwrap_or(1).max(1);
            inner.physical += id.len();
            inner.logical += id.len() * slot.refs;
        }
        inner.log = Some(LogBacking { store, error: None });
        Ok(BlobStore {
            inner: Arc::new(RwLock::new(inner)),
        })
    }

    /// Force the write-through log to disk and surface any persistence
    /// error a mutation hit since the last sync. No-op (always `Ok`)
    /// on a purely in-memory store.
    pub fn sync(&self) -> Result<(), logstore::LogError> {
        let mut g = self.inner.write();
        let Some(lb) = g.log.as_mut() else {
            return Ok(());
        };
        if let Some(e) = lb.error.take() {
            return Err(e);
        }
        lb.store.sync()
    }

    /// Run the backing log's merge compaction, if this store is
    /// log-backed. Returns bytes reclaimed.
    pub fn compact(&self) -> Result<u64, logstore::LogError> {
        let mut g = self.inner.write();
        match g.log.as_mut() {
            Some(lb) => Ok(lb.store.merge()?.reclaimed_bytes),
            None => Ok(0),
        }
    }

    /// Counters of the backing log (`None` for in-memory stores).
    #[must_use]
    pub fn log_stats(&self) -> Option<logstore::LogStats> {
        self.inner.read().log.as_ref().map(|lb| lb.store.stats())
    }

    /// Store a payload, taking one reference. Identical content
    /// deduplicates to the same id and a single physical copy.
    pub fn store(&self, kind: MediaKind, data: impl Into<Bytes>) -> BlobMeta {
        let data = data.into();
        let id = BlobId::of(&data);
        let size = data.len() as u64;
        let mut g = self.inner.write();
        g.stores += 1;
        g.logical += size;
        match g.slots.get_mut(&id) {
            Some(slot) => {
                slot.refs += 1;
                let kind = slot.kind;
                let refs = slot.refs;
                g.dedup_hits += 1;
                if let Some(lb) = g.log.as_mut() {
                    lb.put_refs(id, refs);
                }
                BlobMeta { id, kind, size }
            }
            None => {
                g.slots.insert(
                    id,
                    Slot {
                        data: data.clone(),
                        kind,
                        refs: 1,
                    },
                );
                g.physical += size;
                if let Some(lb) = g.log.as_mut() {
                    lb.put_blob(id, kind, &data);
                    lb.put_refs(id, 1);
                }
                BlobMeta { id, kind, size }
            }
        }
    }

    /// Take an additional reference on resident content. Returns false
    /// if the blob is not resident.
    pub fn retain(&self, id: BlobId) -> bool {
        let mut g = self.inner.write();
        match g.slots.get_mut(&id) {
            Some(slot) => {
                slot.refs += 1;
                let refs = slot.refs;
                g.logical += id.len();
                if let Some(lb) = g.log.as_mut() {
                    lb.put_refs(id, refs);
                }
                true
            }
            None => false,
        }
    }

    /// Release one reference; evicts the payload when the last reference
    /// goes. Returns the remaining reference count, or `None` if the
    /// blob was not resident.
    pub fn release(&self, id: BlobId) -> Option<u64> {
        let mut g = self.inner.write();
        let slot = g.slots.get_mut(&id)?;
        slot.refs -= 1;
        let remaining = slot.refs;
        g.logical -= id.len();
        if remaining == 0 {
            g.slots.remove(&id);
            g.physical -= id.len();
            g.evictions += 1;
            if let Some(lb) = g.log.as_mut() {
                lb.evict(id);
            }
        } else if let Some(lb) = g.log.as_mut() {
            lb.put_refs(id, remaining);
        }
        Some(remaining)
    }

    /// Fetch the payload of a resident blob.
    #[must_use]
    pub fn get(&self, id: BlobId) -> Option<Bytes> {
        self.inner.read().slots.get(&id).map(|s| s.data.clone())
    }

    /// Metadata of a resident blob.
    #[must_use]
    pub fn meta(&self, id: BlobId) -> Option<BlobMeta> {
        self.inner.read().slots.get(&id).map(|s| BlobMeta {
            id,
            kind: s.kind,
            size: id.len(),
        })
    }

    /// Whether the payload is resident.
    #[must_use]
    pub fn contains(&self, id: BlobId) -> bool {
        self.inner.read().slots.contains_key(&id)
    }

    /// Current reference count of a resident blob.
    #[must_use]
    pub fn ref_count(&self, id: BlobId) -> u64 {
        self.inner.read().slots.get(&id).map_or(0, |s| s.refs)
    }

    /// Snapshot the statistics.
    #[must_use]
    pub fn stats(&self) -> BlobStats {
        let g = self.inner.read();
        BlobStats {
            physical_bytes: g.physical,
            logical_bytes: g.logical,
            blob_count: g.slots.len(),
            stores: g.stores,
            dedup_hits: g.dedup_hits,
            evictions: g.evictions,
        }
    }

    /// Physical bytes per media kind (report helper).
    #[must_use]
    pub fn bytes_by_kind(&self) -> BTreeMap<MediaKind, u64> {
        let g = self.inner.read();
        let mut out = BTreeMap::new();
        for slot in g.slots.values() {
            *out.entry(slot.kind).or_insert(0) += slot.data.len() as u64;
        }
        out
    }

    /// Ids of all resident blobs (deterministic order).
    #[must_use]
    pub fn resident_ids(&self) -> Vec<BlobId> {
        self.inner.read().slots.keys().copied().collect()
    }

    /// Export every resident blob with its reference count (station
    /// backup; pair with the relational snapshot for a full course
    /// backup).
    #[must_use]
    pub fn export(&self) -> Vec<BlobExport> {
        let g = self.inner.read();
        g.slots
            .values()
            .map(|s| BlobExport {
                kind: s.kind,
                refs: s.refs,
                data: s.data.clone(),
            })
            .collect()
    }

    /// Import a previously exported set, restoring reference counts.
    /// Content already resident gains the imported references.
    pub fn import(&self, blobs: impl IntoIterator<Item = BlobExport>) {
        for b in blobs {
            let meta = self.store(b.kind, b.data);
            for _ in 1..b.refs {
                self.retain(meta.id);
            }
        }
    }
}

/// One exported blob: payload, kind and reference count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlobExport {
    /// Media kind.
    pub kind: MediaKind,
    /// Reference count at export time.
    pub refs: u64,
    /// The payload.
    #[serde(with = "bytes_serde")]
    pub data: Bytes,
}

mod bytes_serde {
    use bytes::Bytes;
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(data: &Bytes, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bytes(data)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Bytes, D::Error> {
        let v = Vec::<u8>::deserialize(d)?;
        Ok(Bytes::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize, fill: u8) -> Vec<u8> {
        vec![fill; n]
    }

    #[test]
    fn store_get_roundtrip() {
        let bs = BlobStore::new();
        let meta = bs.store(MediaKind::Video, payload(100, 1));
        assert_eq!(meta.size, 100);
        assert_eq!(bs.get(meta.id).unwrap().len(), 100);
        assert_eq!(bs.meta(meta.id), Some(meta));
    }

    #[test]
    fn identical_content_deduplicates() {
        let bs = BlobStore::new();
        let a = bs.store(MediaKind::Audio, payload(64, 7));
        let b = bs.store(MediaKind::Audio, payload(64, 7));
        assert_eq!(a.id, b.id);
        let st = bs.stats();
        assert_eq!(st.blob_count, 1);
        assert_eq!(st.physical_bytes, 64);
        assert_eq!(st.logical_bytes, 128);
        assert_eq!(st.dedup_hits, 1);
        assert_eq!(bs.ref_count(a.id), 2);
    }

    #[test]
    fn different_content_distinct_ids() {
        let bs = BlobStore::new();
        let a = bs.store(MediaKind::Midi, payload(16, 0));
        let b = bs.store(MediaKind::Midi, payload(16, 1));
        assert_ne!(a.id, b.id);
        assert_eq!(bs.stats().blob_count, 2);
    }

    #[test]
    fn release_evicts_at_zero() {
        let bs = BlobStore::new();
        let m = bs.store(MediaKind::StillImage, payload(32, 9));
        bs.retain(m.id);
        assert_eq!(bs.release(m.id), Some(1));
        assert!(bs.contains(m.id));
        assert_eq!(bs.release(m.id), Some(0));
        assert!(!bs.contains(m.id));
        assert_eq!(bs.stats().physical_bytes, 0);
        assert_eq!(bs.stats().logical_bytes, 0);
        assert_eq!(bs.stats().evictions, 1);
    }

    #[test]
    fn retain_missing_is_false() {
        let bs = BlobStore::new();
        let ghost = BlobId::of(b"never stored");
        assert!(!bs.retain(ghost));
        assert_eq!(bs.release(ghost), None);
    }

    #[test]
    fn sharing_ratio() {
        let bs = BlobStore::new();
        let m = bs.store(MediaKind::Video, payload(1000, 3));
        for _ in 0..9 {
            bs.retain(m.id);
        }
        let st = bs.stats();
        assert_eq!(st.logical_bytes, 10_000);
        assert_eq!(st.physical_bytes, 1000);
        assert!((st.sharing_ratio() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn bytes_by_kind_partitions_physical() {
        let bs = BlobStore::new();
        bs.store(MediaKind::Video, payload(100, 1));
        bs.store(MediaKind::Audio, payload(40, 2));
        bs.store(MediaKind::Audio, payload(60, 3));
        let by_kind = bs.bytes_by_kind();
        assert_eq!(by_kind[&MediaKind::Video], 100);
        assert_eq!(by_kind[&MediaKind::Audio], 100);
        let total: u64 = by_kind.values().sum();
        assert_eq!(total, bs.stats().physical_bytes);
    }

    #[test]
    fn blob_id_stable_and_length_aware() {
        let a = BlobId::of(b"hello");
        let b = BlobId::of(b"hello");
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
        assert!(BlobId::of(b"").is_empty());
    }

    #[test]
    fn export_import_roundtrip() {
        let bs = BlobStore::new();
        let a = bs.store(MediaKind::Video, payload(100, 1));
        bs.retain(a.id);
        bs.retain(a.id); // refs = 3
        bs.store(MediaKind::Midi, payload(10, 2)); // refs = 1
        let dump = bs.export();
        assert_eq!(dump.len(), 2);

        let restored = BlobStore::new();
        restored.import(dump);
        assert_eq!(restored.ref_count(a.id), 3);
        let st = restored.stats();
        assert_eq!(st.physical_bytes, 110);
        assert_eq!(st.logical_bytes, 310);
    }

    #[test]
    fn import_merges_with_resident_content() {
        let src = BlobStore::new();
        let m = src.store(MediaKind::Audio, payload(20, 5));
        let dst = BlobStore::new();
        dst.store(MediaKind::Audio, payload(20, 5)); // same content
        dst.import(src.export());
        assert_eq!(dst.ref_count(m.id), 2);
        assert_eq!(dst.stats().physical_bytes, 20);
    }

    #[test]
    fn blob_id_display_parse_roundtrip() {
        let id = BlobId::of(b"some payload");
        let parsed: BlobId = id.to_string().parse().unwrap();
        assert_eq!(parsed, id);
        assert!("not-an-id".parse::<BlobId>().is_err());
        assert!("abcd/12".parse::<BlobId>().is_err()); // short digest
    }

    #[test]
    fn clone_is_shared_handle() {
        let bs = BlobStore::new();
        let bs2 = bs.clone();
        let m = bs.store(MediaKind::Midi, payload(8, 1));
        assert!(bs2.contains(m.id));
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("blobstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn logged_store_survives_reopen() {
        let dir = scratch("reopen");
        let cfg = logstore::LogConfig::default();
        let bs = BlobStore::open_logged(&dir, cfg.clone(), obs::Registry::disabled()).unwrap();
        let a = bs.store(MediaKind::Video, payload(100, 1));
        bs.retain(a.id);
        bs.retain(a.id); // refs = 3
        let b = bs.store(MediaKind::Midi, payload(10, 2));
        bs.release(b.id); // evicted
        bs.sync().unwrap();
        let expect = bs.stats();
        drop(bs);

        let bs = BlobStore::open_logged(&dir, cfg, obs::Registry::disabled()).unwrap();
        assert_eq!(bs.ref_count(a.id), 3);
        assert!(!bs.contains(b.id), "evicted blob stays evicted");
        assert_eq!(bs.get(a.id).unwrap(), Bytes::from(payload(100, 1)));
        assert_eq!(bs.meta(a.id).unwrap().kind, MediaKind::Video);
        let got = bs.stats();
        assert_eq!(got.physical_bytes, expect.physical_bytes);
        assert_eq!(got.logical_bytes, expect.logical_bytes);
        assert_eq!(got.blob_count, expect.blob_count);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn logged_store_compacts_churn() {
        let dir = scratch("compact");
        let cfg = logstore::LogConfig {
            segment_bytes: 4096,
            min_sealed_segments: usize::MAX,
            ..logstore::LogConfig::default()
        };
        let bs = BlobStore::open_logged(&dir, cfg, obs::Registry::disabled()).unwrap();
        // Churn: store and fully release many distinct payloads.
        for i in 0..200u32 {
            let m = bs.store(MediaKind::StillImage, i.to_le_bytes().repeat(32));
            bs.release(m.id);
        }
        let keeper = bs.store(MediaKind::Audio, payload(64, 9));
        let before = bs.log_stats().unwrap().disk_bytes;
        let reclaimed = bs.compact().unwrap();
        assert!(reclaimed > 0);
        assert!(bs.log_stats().unwrap().disk_bytes < before / 2);
        assert!(bs.contains(keeper.id));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
