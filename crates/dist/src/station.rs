//! Per-station replica state for distributed documents.
//!
//! Tracks, for each (station, document) pair, whether the station holds
//! a physical instance or only a reference, plus the byte accounting
//! the migration and watermark experiments sample.
//!
//! A table is one slot per known document, in name order. The names
//! live once, in a list every table cloned from one template shares, so
//! N stations over D documents cost D names plus N·D 32-byte slots, and
//! a lookup of a known document allocates nothing.

use netsim::StationId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a station holds for one document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Replica {
    /// Only a mirror entry pointing at the home station.
    Reference,
    /// A materialized physical copy of the given size.
    Instance {
        /// Bytes on disk for this copy (structure + BLOBs).
        bytes: u64,
    },
}

/// Document names in ascending order, packed into one string.
#[derive(Debug, Clone, Default)]
struct Names {
    text: String,
    /// `text[spans[i].0..spans[i].1]` is the `i`-th name.
    spans: Vec<(usize, usize)>,
}

impl Names {
    fn get(&self, i: usize) -> &str {
        let (start, end) = self.spans[i];
        &self.text[start..end]
    }

    /// Where `name` is, or where it would go.
    fn find(&self, name: &str) -> Result<usize, usize> {
        let text = self.text.as_bytes();
        self.spans
            .binary_search_by(|&(start, end)| text[start..end].cmp(name.as_bytes()))
    }

    fn insert(&mut self, i: usize, name: &str) {
        let start = self.text.len();
        self.text.push_str(name);
        self.spans.insert(i, (start, self.text.len()));
    }
}

/// One document's state in one station's table.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// `None` for a document only ever accessed, never referenced.
    replica: Option<Replica>,
    /// Running access counter (watermark input).
    count: u64,
    /// LRU clock: the table's tick at the last touch.
    tick: u64,
}

impl Slot {
    /// The size of a resident instance; `None` without one.
    fn instance(&self) -> Option<u64> {
        match self.replica {
            Some(Replica::Instance { bytes }) => Some(bytes),
            _ => None,
        }
    }
}

/// Replica table of one simulated station.
///
/// Optionally space-bounded: with a quota set, materializing a new
/// instance evicts least-recently-used instances back to references
/// until the new copy fits — §4's answer to "one may argue that disk
/// spaces are wasted": replicas are buffer space, and a bounded buffer
/// self-cleans.
#[derive(Debug, Clone, Default)]
pub struct StationDocs {
    /// Shared with every table cloned from the same template until this
    /// one learns a name of its own.
    names: Arc<Names>,
    /// `slots[i]` is the state of the `i`-th name.
    slots: Vec<Slot>,
    /// Optional instance-byte quota (None = unbounded).
    quota: Option<u64>,
    tick: u64,
}

/// The replica tables of a fresh simulator over `docs`, each read as
/// (name, bytes) by `doc`: the instructor root (position 1) holds an
/// instance of every document and each of the other `stations - 1` a
/// reference, cloned from one template. The template is sized up
/// front, so it costs the same allocations for any number of documents.
pub(crate) fn course_tables<T>(
    stations: usize,
    docs: &[T],
    doc: impl Fn(&T) -> (&str, u64),
) -> BTreeMap<u64, StationDocs> {
    let names = Names {
        text: String::with_capacity(docs.iter().map(|d| doc(d).0.len()).sum()),
        spans: Vec::with_capacity(docs.len()),
    };
    let mut student = StationDocs {
        names: Arc::new(names),
        slots: Vec::with_capacity(docs.len()),
        ..StationDocs::default()
    };
    docs.iter().for_each(|d| student.add_reference(doc(d).0));
    let mut root = student.clone();
    for (name, bytes) in docs.iter().map(doc) {
        root.materialize(name, bytes);
    }
    let mut tables: BTreeMap<u64, StationDocs> = (2..=stations as u64)
        .map(|pos| (pos, student.clone()))
        .collect();
    tables.insert(1, root);
    tables
}

impl StationDocs {
    /// Empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty table with an instance-byte quota.
    #[must_use]
    pub fn with_quota(quota: u64) -> Self {
        StationDocs {
            quota: Some(quota),
            ..Self::default()
        }
    }

    /// Change the quota (None removes it). Does not evict immediately;
    /// the next materialization enforces it.
    pub fn set_quota(&mut self, quota: Option<u64>) {
        self.quota = quota;
    }

    /// The configured quota.
    #[must_use]
    pub fn quota(&self) -> Option<u64> {
        self.quota
    }

    /// The slot index of `doc`, the same in every clone of one template.
    pub(crate) fn index_of(&self, doc: &str) -> Option<usize> {
        self.names.find(doc).ok()
    }

    /// True while this table still shares `other`'s name list.
    pub(crate) fn shares_names(&self, other: &StationDocs) -> bool {
        Arc::ptr_eq(&self.names, &other.names)
    }

    /// The slot index of `doc`, created empty if the document is unknown.
    fn index_or_insert(&mut self, doc: &str) -> usize {
        self.names.find(doc).unwrap_or_else(|i| {
            Arc::make_mut(&mut self.names).insert(i, doc);
            self.slots.insert(i, Slot::default());
            i
        })
    }

    fn touch_at(&mut self, i: usize) -> &mut Slot {
        self.tick += 1;
        let slot = &mut self.slots[i];
        slot.tick = self.tick;
        slot
    }

    /// Least-recently-touched resident instance other than slot
    /// `except`; ties go to the first name.
    fn lru_victim(&self, except: Option<usize>) -> Option<usize> {
        (0..self.slots.len())
            .filter(|&i| Some(i) != except && self.slots[i].instance().is_some())
            .min_by_key(|&i| self.slots[i].tick)
    }

    /// Record a broadcast reference ("references to the instance are
    /// broadcasted and stored in many remote stations").
    pub fn add_reference(&mut self, doc: impl AsRef<str>) {
        let i = self.index_or_insert(doc.as_ref());
        self.slots[i].replica.get_or_insert(Replica::Reference);
    }

    /// Materialize an instance of `bytes` bytes. Under a quota, LRU
    /// instances are demoted to references until the copy fits; the
    /// demoted (name, bytes) pairs are returned. A copy larger than the
    /// whole quota is refused (the station keeps its reference) and the
    /// return value is empty.
    pub fn materialize(&mut self, doc: impl AsRef<str>, bytes: u64) -> Vec<(String, u64)> {
        let doc = doc.as_ref();
        let mut evicted = Vec::new();
        if let Some(q) = self.quota {
            if bytes > q {
                return evicted; // cannot ever fit
            }
            // Replacing an existing instance frees its bytes first.
            let at = self.names.find(doc).ok();
            let current = at.and_then(|i| self.slots[i].instance()).unwrap_or(0);
            while self.disk_bytes() - current + bytes > q {
                match self.lru_victim(at) {
                    Some(victim) => {
                        let name = self.names.get(victim).to_owned();
                        let freed = self.demote(&name);
                        evicted.push((name, freed));
                    }
                    None => break, // nothing left to evict
                }
            }
        }
        let i = self.index_or_insert(doc);
        self.touch_at(i).replica = Some(Replica::Instance { bytes });
        evicted
    }

    /// Demote an instance back to a reference; returns the bytes freed.
    pub fn demote(&mut self, doc: &str) -> u64 {
        let Ok(i) = self.names.find(doc) else {
            return 0;
        };
        let freed = self.slots[i].instance();
        if freed.is_some() {
            self.slots[i].replica = Some(Replica::Reference);
        }
        freed.unwrap_or(0)
    }

    /// The replica state of a document.
    #[must_use]
    pub fn replica(&self, doc: &str) -> Option<Replica> {
        self.index_of(doc).and_then(|i| self.slots[i].replica)
    }

    /// True if a physical copy is resident.
    #[must_use]
    pub fn has_instance(&self, doc: &str) -> bool {
        self.index_of(doc).is_some_and(|i| self.has_instance_at(i))
    }

    pub(crate) fn has_instance_at(&self, i: usize) -> bool {
        self.slots[i].instance().is_some()
    }

    /// Bump and return the access count for a document (also refreshes
    /// its LRU recency).
    pub fn record_access(&mut self, doc: &str) -> u64 {
        let i = self.index_or_insert(doc);
        self.record_access_at(i)
    }

    pub(crate) fn record_access_at(&mut self, i: usize) -> u64 {
        let slot = self.touch_at(i);
        slot.count += 1;
        slot.count
    }

    /// Current access count.
    #[must_use]
    pub fn access_count(&self, doc: &str) -> u64 {
        self.index_of(doc).map_or(0, |i| self.slots[i].count)
    }

    /// Total bytes of resident instances.
    #[must_use]
    pub fn disk_bytes(&self) -> u64 {
        self.slots.iter().filter_map(Slot::instance).sum()
    }

    /// Number of resident instances.
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.slots.iter().filter_map(Slot::instance).count()
    }
}

/// A disk-usage sample for time-series reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskSample {
    /// Sample time (µs).
    pub at: u64,
    /// Station sampled.
    pub station: StationId,
    /// Instance bytes resident at that time.
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_then_materialize_then_demote() {
        let mut s = StationDocs::new();
        s.add_reference("lec1");
        assert_eq!(s.replica("lec1"), Some(Replica::Reference));
        assert_eq!(s.disk_bytes(), 0);
        s.materialize("lec1", 5000);
        assert!(s.has_instance("lec1"));
        assert_eq!(s.disk_bytes(), 5000);
        assert_eq!(s.demote("lec1"), 5000);
        assert_eq!(s.replica("lec1"), Some(Replica::Reference));
        assert_eq!(s.disk_bytes(), 0);
    }

    #[test]
    fn add_reference_does_not_clobber_instance() {
        let mut s = StationDocs::new();
        s.materialize("lec1", 100);
        s.add_reference("lec1");
        assert!(s.has_instance("lec1"));
    }

    #[test]
    fn demote_absent_or_reference_is_zero() {
        let mut s = StationDocs::new();
        assert_eq!(s.demote("ghost"), 0);
        s.add_reference("r");
        assert_eq!(s.demote("r"), 0);
    }

    #[test]
    fn access_counting() {
        let mut s = StationDocs::new();
        assert_eq!(s.access_count("d"), 0);
        assert_eq!(s.record_access("d"), 1);
        assert_eq!(s.record_access("d"), 2);
        assert_eq!(s.access_count("d"), 2);
        assert_eq!(s.access_count("other"), 0);
    }

    #[test]
    fn aggregates() {
        let mut s = StationDocs::new();
        s.materialize("a", 10);
        s.materialize("b", 20);
        s.add_reference("c");
        assert_eq!(s.disk_bytes(), 30);
        assert_eq!(s.instance_count(), 2);
    }

    #[test]
    fn quota_evicts_lru() {
        let mut s = StationDocs::with_quota(100);
        assert!(s.materialize("a", 40).is_empty());
        assert!(s.materialize("b", 40).is_empty());
        // Touch `a` so `b` becomes the LRU victim.
        s.record_access("a");
        let evicted = s.materialize("c", 40);
        assert_eq!(evicted, vec![("b".to_owned(), 40)]);
        assert!(s.has_instance("a"));
        assert!(!s.has_instance("b"));
        assert_eq!(s.replica("b"), Some(Replica::Reference));
        assert!(s.has_instance("c"));
        assert_eq!(s.disk_bytes(), 80);
    }

    #[test]
    fn quota_refuses_oversized_copy() {
        let mut s = StationDocs::with_quota(50);
        s.materialize("small", 30);
        let evicted = s.materialize("huge", 60);
        assert!(evicted.is_empty());
        assert!(!s.has_instance("huge"), "oversized copy refused");
        assert!(s.has_instance("small"), "resident copy untouched");
    }

    #[test]
    fn quota_rematerialize_same_doc_reuses_its_space() {
        let mut s = StationDocs::with_quota(100);
        s.materialize("a", 80);
        // Replacing `a` with a 90-byte copy fits (its own 80 is freed).
        let evicted = s.materialize("a", 90);
        assert!(evicted.is_empty());
        assert_eq!(s.disk_bytes(), 90);
    }

    #[test]
    fn unbounded_by_default() {
        let mut s = StationDocs::new();
        assert_eq!(s.quota(), None);
        for i in 0..100 {
            assert!(s.materialize(format!("d{i}"), 1_000_000).is_empty());
        }
        assert_eq!(s.instance_count(), 100);
        s.set_quota(Some(5_000_000));
        // Next materialization enforces it.
        let evicted = s.materialize("new", 1_000_000);
        assert_eq!(evicted.len(), 96); // 100 - 4 survivors + new = 5 MB
        assert!(s.disk_bytes() <= 5_000_000);
    }
}
