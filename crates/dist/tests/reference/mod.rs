//! The three-map replica table `wdoc_dist::StationDocs` replaced: one
//! `String`-keyed map each for replica state, access counts and LRU
//! recency. Kept as the behavioural oracle of the dense slot table;
//! `station_oracle.rs` drives both through the same operations.

use std::collections::BTreeMap;
use wdoc_dist::Replica;

/// Replica table of one simulated station (reference version).
#[derive(Debug, Clone, Default)]
pub struct StationDocs {
    docs: BTreeMap<String, Replica>,
    /// Running access counters per document (watermark input).
    access_counts: BTreeMap<String, u64>,
    /// Optional instance-byte quota (None = unbounded).
    quota: Option<u64>,
    /// LRU clock: document → last-touch tick.
    recency: BTreeMap<String, u64>,
    tick: u64,
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

    fn touch(&mut self, doc: &str) {
        self.tick += 1;
        self.recency.insert(doc.to_owned(), self.tick);
    }

    /// Least-recently-touched resident instance other than `except`.
    fn lru_victim(&self, except: &str) -> Option<String> {
        self.docs
            .iter()
            .filter(|(name, r)| name.as_str() != except && matches!(r, Replica::Instance { .. }))
            .min_by_key(|(name, _)| self.recency.get(*name).copied().unwrap_or(0))
            .map(|(name, _)| name.clone())
    }

    /// Record a broadcast reference ("references to the instance are
    /// broadcasted and stored in many remote stations").
    pub fn add_reference(&mut self, doc: impl Into<String>) {
        self.docs.entry(doc.into()).or_insert(Replica::Reference);
    }

    /// Materialize an instance of `bytes` bytes. Under a quota, LRU
    /// instances are demoted to references until the copy fits; the
    /// demoted (name, bytes) pairs are returned. A copy larger than the
    /// whole quota is refused (the station keeps its reference) and the
    /// return value is empty.
    pub fn materialize(&mut self, doc: impl Into<String>, bytes: u64) -> Vec<(String, u64)> {
        let doc = doc.into();
        let mut evicted = Vec::new();
        if let Some(q) = self.quota {
            if bytes > q {
                return evicted; // cannot ever fit
            }
            // Replacing an existing instance frees its bytes first.
            let current = match self.docs.get(&doc) {
                Some(Replica::Instance { bytes }) => *bytes,
                _ => 0,
            };
            while self.disk_bytes() - current + bytes > q {
                match self.lru_victim(&doc) {
                    Some(victim) => {
                        let freed = self.demote(&victim);
                        evicted.push((victim, freed));
                    }
                    None => break, // nothing left to evict
                }
            }
        }
        self.touch(&doc);
        self.docs.insert(doc, Replica::Instance { bytes });
        evicted
    }

    /// Demote an instance back to a reference; returns the bytes freed.
    pub fn demote(&mut self, doc: &str) -> u64 {
        match self.docs.get_mut(doc) {
            Some(r @ Replica::Instance { .. }) => {
                let Replica::Instance { bytes } = *r else {
                    unreachable!()
                };
                *r = Replica::Reference;
                bytes
            }
            _ => 0,
        }
    }

    /// The replica state of a document.
    #[must_use]
    pub fn replica(&self, doc: &str) -> Option<Replica> {
        self.docs.get(doc).copied()
    }

    /// True if a physical copy is resident.
    #[must_use]
    pub fn has_instance(&self, doc: &str) -> bool {
        matches!(self.docs.get(doc), Some(Replica::Instance { .. }))
    }

    /// Bump and return the access count for a document (also refreshes
    /// its LRU recency).
    pub fn record_access(&mut self, doc: &str) -> u64 {
        self.touch(doc);
        let c = self.access_counts.entry(doc.to_owned()).or_insert(0);
        *c += 1;
        *c
    }

    /// Current access count.
    #[must_use]
    pub fn access_count(&self, doc: &str) -> u64 {
        self.access_counts.get(doc).copied().unwrap_or(0)
    }

    /// Total bytes of resident instances.
    #[must_use]
    pub fn disk_bytes(&self) -> u64 {
        self.docs
            .values()
            .map(|r| match r {
                Replica::Instance { bytes } => *bytes,
                Replica::Reference => 0,
            })
            .sum()
    }

    /// Number of resident instances.
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.docs
            .values()
            .filter(|r| matches!(r, Replica::Instance { .. }))
            .count()
    }
}
