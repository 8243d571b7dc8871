//! The shard map: a deterministic consistent-hash ring over table
//! keys.
//!
//! Every station in the topology owns a fixed set of *virtual nodes*
//! (ring points derived by hashing `(station, vnode)`); a key belongs
//! to the station owning the first ring point clockwise of the key's
//! hash. Two properties fall out of this construction and are pinned
//! by property tests:
//!
//! * **Determinism** — placement is a pure function of
//!   `(key, topology)`: no RNG, no clock, no insertion-order effects.
//! * **Minimal disruption** — removing a station deletes only that
//!   station's ring points, so only keys it owned remap; every other
//!   key keeps its owner. This is the classic consistent-hashing
//!   argument (Karger et al.): a removed station's keys move to its
//!   ring successors, nobody else's do.

use netsim::StationId;
use std::collections::BTreeSet;

/// Stable 64-bit hash: FNV-1a over the bytes, finished with a
/// splitmix64 avalanche. Deliberately hand-rolled — placement must not
/// drift with `std`'s hasher randomization or versioning.
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer: FNV alone clusters short keys.
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Deterministic hash-ring shard map over a station topology.
#[derive(Debug, Clone)]
pub struct ShardMap {
    stations: Vec<StationId>,
    ring: Vec<(u64, StationId)>,
    vnodes: u32,
}

impl ShardMap {
    /// Default virtual nodes per station: enough that 16 stations stay
    /// within 2× of ideal balance (pinned by a property test).
    pub const DEFAULT_VNODES: u32 = 96;

    /// Build a map over `stations` (order fixes shard indices) with
    /// `vnodes` ring points per station.
    ///
    /// # Panics
    /// Panics if `stations` is empty or contains duplicates.
    #[must_use]
    pub fn new(stations: Vec<StationId>, vnodes: u32) -> Self {
        assert!(!stations.is_empty(), "a shard map needs stations");
        let distinct: BTreeSet<_> = stations.iter().collect();
        assert_eq!(distinct.len(), stations.len(), "duplicate station");
        let mut ring = Vec::with_capacity(stations.len() * vnodes as usize);
        for &s in &stations {
            for v in 0..vnodes {
                let mut key = [0u8; 9];
                key[..4].copy_from_slice(&s.0.to_le_bytes());
                key[4..8].copy_from_slice(&v.to_le_bytes());
                key[8] = b'v';
                ring.push((hash_bytes(&key), s));
            }
        }
        // Point collisions are broken by station id so the ring is a
        // pure function of the topology *set*, not of insertion order.
        ring.sort_by_key(|&(h, s)| (h, s.0));
        ShardMap {
            stations,
            ring,
            vnodes,
        }
    }

    /// Convenience: `n` stations with ids `1..=n`, default vnode count.
    #[must_use]
    pub fn uniform(n: u32) -> Self {
        Self::new((1..=n).map(StationId).collect(), Self::DEFAULT_VNODES)
    }

    /// Number of shards (= stations; every station primaries one
    /// shard's key range).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.stations.len()
    }

    /// The topology, in shard order.
    #[must_use]
    pub fn stations(&self) -> &[StationId] {
        &self.stations
    }

    /// The station owning `key`: first ring point clockwise of the
    /// key's hash.
    #[must_use]
    pub fn primary_of(&self, key: &[u8]) -> StationId {
        let h = hash_bytes(key);
        let i = self.ring.partition_point(|&(p, _)| p < h);
        self.ring[if i == self.ring.len() { 0 } else { i }].1
    }

    /// The shard index owning `key` (position of its primary in the
    /// station list).
    #[must_use]
    pub fn shard_of(&self, key: &[u8]) -> usize {
        let primary = self.primary_of(key);
        self.stations
            .iter()
            .position(|&s| s == primary)
            .expect("ring points only at topology stations")
    }

    /// A new map with `station` removed from the topology (its ring
    /// points vanish; everyone else's survive). Keys the removed
    /// station owned remap to their ring successors; all other keys
    /// keep their owner — the property test pins this.
    ///
    /// # Panics
    /// Panics if `station` is not in the topology or is the last one.
    #[must_use]
    pub fn without_station(&self, station: StationId) -> ShardMap {
        assert!(self.stations.len() > 1, "cannot empty the topology");
        let remaining: Vec<StationId> = self
            .stations
            .iter()
            .copied()
            .filter(|&s| s != station)
            .collect();
        assert!(
            remaining.len() < self.stations.len(),
            "station {station:?} not in topology"
        );
        Self::new(remaining, self.vnodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic() {
        let a = ShardMap::uniform(8);
        let b = ShardMap::uniform(8);
        for k in 0..200u32 {
            let key = format!("doc-{k}");
            assert_eq!(a.shard_of(key.as_bytes()), b.shard_of(key.as_bytes()));
        }
    }

    #[test]
    fn single_station_owns_everything() {
        let map = ShardMap::uniform(1);
        for k in 0..50u32 {
            assert_eq!(map.shard_of(format!("k{k}").as_bytes()), 0);
        }
    }
}
