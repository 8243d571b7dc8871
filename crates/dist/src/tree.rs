//! The m-ary distribution tree and the paper's two formulas (§4).
//!
//! "Assuming that N networked stations join the database system in a
//! linear order. We can arrange the N stations in a full m-ary tree
//! according to a breadth first order. … The n-th station, where
//! 1 ≤ n ≤ N, in the linear joining sequence has its i-th child, where
//! 1 ≤ i ≤ m, at the following position in the linear order:
//!
//! ```text
//!     m · (n − 1) + i + 1
//! ```
//!
//! The k-th station … has its unique parent at the following position:
//!
//! ```text
//!     (k − i − 1)/m + 1,   where i = (k − 1) mod m  if i ≢ 0,
//!                                 i = m             otherwise"
//! ```
//!
//! Both are implemented verbatim ([`child_position`],
//! [`parent_position`]) and verified to be mutual inverses by the E1
//! property tests. [`BroadcastTree`] wraps them over a concrete
//! station list — the paper's *broadcast vector*, "a linear sequence of
//! workstation IP addresses".

use netsim::StationId;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Position (1-based) of the `i`-th child (1 ≤ i ≤ m) of the station at
/// position `n` in the linear joining order. The paper's first formula.
#[must_use]
pub fn child_position(n: u64, i: u64, m: u64) -> u64 {
    debug_assert!(n >= 1 && (1..=m).contains(&i), "1-based positions");
    m * (n - 1) + i + 1
}

/// Position (1-based) of the unique parent of the station at position
/// `k` (k ≥ 2). The paper's second formula (the inverse of
/// [`child_position`]).
#[must_use]
pub fn parent_position(k: u64, m: u64) -> u64 {
    debug_assert!(k >= 2, "the root has no parent");
    debug_assert!(m >= 1);
    let i = child_index(k, m);
    (k - i - 1) / m + 1
}

/// Which child index (1-based) the station at position `k` is of its
/// parent.
#[must_use]
pub fn child_index(k: u64, m: u64) -> u64 {
    let r = (k - 1) % m;
    if r != 0 {
        r
    } else {
        m
    }
}

/// A full m-ary broadcast tree over a concrete broadcast vector.
///
/// Station positions are 1-based (position 1 is the root — the
/// instructor station); `stations[0]` is the root.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BroadcastTree {
    stations: Vec<StationId>,
    m: u64,
}

impl BroadcastTree {
    /// Build a tree of fan-out `m` over the joining order `stations`.
    ///
    /// # Panics
    /// Panics if `stations` is empty or `m == 0`.
    #[must_use]
    pub fn new(stations: Vec<StationId>, m: u64) -> Self {
        assert!(!stations.is_empty(), "a tree needs at least a root");
        assert!(m >= 1, "fan-out must be at least 1");
        BroadcastTree { stations, m }
    }

    /// The fan-out.
    #[must_use]
    pub fn fanout(&self) -> u64 {
        self.m
    }

    /// Number of stations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stations.len()
    }

    /// True if only the root exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false // invariant: never empty
    }

    /// The broadcast vector (stations in joining order).
    #[must_use]
    pub fn broadcast_vector(&self) -> &[StationId] {
        &self.stations
    }

    /// The root (instructor) station.
    #[must_use]
    pub fn root(&self) -> StationId {
        self.stations[0]
    }

    /// The station at 1-based position `pos`.
    #[must_use]
    pub fn station_at(&self, pos: u64) -> Option<StationId> {
        self.stations.get(pos as usize - 1).copied()
    }

    /// Children of the station at position `pos`, in order: the
    /// positions [`child_position`]`(pos, 1..=m)` are consecutive, so
    /// they are one range, clipped to the population.
    #[must_use]
    pub fn children_of(&self, pos: u64) -> Range<u64> {
        let end = (child_position(pos, self.m, self.m) + 1).min(self.stations.len() as u64 + 1);
        child_position(pos, 1, self.m).min(end)..end
    }

    /// Parent position of the station at `pos` (None for the root).
    #[must_use]
    pub fn parent_of(&self, pos: u64) -> Option<u64> {
        (pos >= 2).then(|| parent_position(pos, self.m))
    }

    /// Depth of position `pos` (root = 0).
    #[must_use]
    pub fn depth_of(&self, pos: u64) -> u64 {
        let mut d = 0;
        let mut cur = pos;
        while let Some(p) = self.parent_of(cur) {
            cur = p;
            d += 1;
        }
        d
    }

    /// Height of the tree: maximum depth over all stations.
    #[must_use]
    pub fn height(&self) -> u64 {
        // The deepest node is always the last in BFS order.
        self.depth_of(self.stations.len() as u64)
    }

    /// Ancestors of `pos` from its parent up to the root.
    #[must_use]
    pub fn ancestors_of(&self, pos: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = pos;
        while let Some(p) = self.parent_of(cur) {
            out.push(p);
            cur = p;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<StationId> {
        (0..n).map(StationId).collect()
    }

    #[test]
    fn paper_example_binary_tree() {
        // m = 2: children of 1 are 2,3; of 2 are 4,5; of 3 are 6,7.
        assert_eq!(child_position(1, 1, 2), 2);
        assert_eq!(child_position(1, 2, 2), 3);
        assert_eq!(child_position(2, 1, 2), 4);
        assert_eq!(child_position(2, 2, 2), 5);
        assert_eq!(child_position(3, 1, 2), 6);
        assert_eq!(child_position(3, 2, 2), 7);
        assert_eq!(parent_position(2, 2), 1);
        assert_eq!(parent_position(3, 2), 1);
        assert_eq!(parent_position(4, 2), 2);
        assert_eq!(parent_position(5, 2), 2);
        assert_eq!(parent_position(6, 2), 3);
        assert_eq!(parent_position(7, 2), 3);
    }

    #[test]
    fn ternary_tree_positions() {
        // m = 3: children of 1 are 2,3,4; of 2 are 5,6,7; of 3 are 8,9,10.
        assert_eq!(child_position(1, 3, 3), 4);
        assert_eq!(child_position(2, 1, 3), 5);
        assert_eq!(child_position(3, 3, 3), 10);
        assert_eq!(parent_position(10, 3), 3);
        assert_eq!(child_index(10, 3), 3);
        assert_eq!(child_index(5, 3), 1);
    }

    #[test]
    fn chain_when_m_is_one() {
        for k in 2..100 {
            assert_eq!(parent_position(k, 1), k - 1);
            assert_eq!(child_position(k, 1, 1), k + 1);
        }
    }

    #[test]
    fn tree_children_clip_to_population() {
        let t = BroadcastTree::new(ids(6), 2);
        assert_eq!(t.children_of(1), 2..4);
        assert_eq!(t.children_of(3), 6..7); // 7 would exceed N=6
        assert!(t.children_of(4).is_empty());
    }

    #[test]
    fn every_non_root_has_exactly_one_parent_listing_it() {
        for m in 1..=5u64 {
            let t = BroadcastTree::new(ids(40), m);
            for k in 2..=40u64 {
                let p = t.parent_of(k).unwrap();
                assert!(
                    t.children_of(p).contains(&k),
                    "m={m} k={k} parent={p} children={:?}",
                    t.children_of(p)
                );
            }
            // Union of all children lists = {2..=N}, no duplicates.
            let mut all: Vec<u64> = (1..=40).flat_map(|n| t.children_of(n)).collect();
            all.sort_unstable();
            assert_eq!(all, (2..=40).collect::<Vec<_>>());
        }
    }

    #[test]
    fn depth_is_logarithmic() {
        let t = BroadcastTree::new(ids(1000), 2);
        assert_eq!(t.depth_of(1), 0);
        assert_eq!(t.depth_of(2), 1);
        assert_eq!(t.depth_of(4), 2);
        // ⌈log2(1001)⌉ - 1 ≈ 9
        assert_eq!(t.height(), 9);
        let t3 = BroadcastTree::new(ids(1000), 3);
        assert!(t3.height() < t.height());
    }

    #[test]
    fn ancestors_walk_to_root() {
        let t = BroadcastTree::new(ids(100), 2);
        let anc = t.ancestors_of(37);
        assert_eq!(*anc.last().unwrap(), 1);
        // Each consecutive pair is a parent step.
        let mut cur = 37;
        for &a in &anc {
            assert_eq!(t.parent_of(cur), Some(a));
            cur = a;
        }
    }

    #[test]
    fn station_position_mapping() {
        let t = BroadcastTree::new(vec![StationId(9), StationId(4), StationId(7)], 2);
        assert_eq!(t.root(), StationId(9));
        assert_eq!(t.station_at(2), Some(StationId(4)));
        assert_eq!(t.station_at(5), None);
        assert_eq!(t.len(), 3);
    }
}
