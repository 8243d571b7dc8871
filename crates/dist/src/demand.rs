//! Demand-driven duplication with a watermark frequency (§4).
//!
//! "When a document instance is retrieved from a remote station more
//! than a certain amount of iterations (or more than a watermark
//! frequency), physical multimedia data are copied to the remote
//! station. … A child node in the m-ary tree copies information from
//! its parent node. However, if a workstation (and its child
//! workstations) does not review a lecture, it is not necessary to
//! duplicate the lecture. The station only keeps a document reference
//! in this case."
//!
//! [`DemandSim`] replays an access trace against the network simulator:
//! every access at a station without a resident instance fetches the
//! *page* remotely from the nearest tree ancestor holding an instance;
//! once the station's access count exceeds the watermark, the full
//! document (structure + BLOBs) is copied and subsequent accesses are
//! local.

use crate::station::{course_tables, StationDocs};
use crate::tree::BroadcastTree;
use netsim::{Network, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A document participating in the demand simulation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DocSpec {
    /// Document name.
    pub name: String,
    /// Bytes served per remote *page view* (HTML + inline media chunk).
    pub view_bytes: u64,
    /// Bytes of the full copy (structure + all BLOBs) moved on
    /// duplication.
    pub full_bytes: u64,
}

/// One access in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessEvent {
    /// When the student asks for the document.
    pub at: SimTime,
    /// Tree position (1-based) of the requesting station.
    pub position: u64,
    /// Index into the document list.
    pub doc: usize,
}

/// Aggregate outcome of a demand run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandReport {
    /// Number of accesses replayed.
    pub accesses: u64,
    /// Accesses served from a local instance.
    pub local_hits: u64,
    /// Accesses served remotely.
    pub remote_fetches: u64,
    /// Duplications performed (watermark crossings).
    pub duplications: u64,
    /// Bytes moved for remote page views.
    pub view_bytes: u64,
    /// Bytes moved for full-copy duplication.
    pub duplicated_bytes: u64,
    /// Mean service latency per access (µs).
    pub mean_latency_us: f64,
    /// Final resident-instance bytes summed over non-root stations.
    pub replica_bytes: u64,
}

/// Network payloads of the demand simulator.
#[derive(Debug, Clone, Copy)]
pub enum Fetch {
    /// A remote page view completing at the requester.
    View {
        /// When the triggering access was issued.
        latency_start: SimTime,
    },
    /// A full copy completing at the requester.
    Duplicate {
        /// Index of the duplicated document.
        doc: usize,
        /// Tree position (1-based) of the requester.
        position: u64,
    },
}

/// The demand-duplication simulator.
pub struct DemandSim {
    tree: BroadcastTree,
    docs: Vec<DocSpec>,
    watermark: u64,
    stations: BTreeMap<u64, StationDocs>,
    /// `slot_of[d]`: document `d`'s slot in every table's shared names.
    slot_of: Vec<usize>,
    /// (position, doc) pairs with a full copy already in flight, so a
    /// burst of accesses past the watermark triggers exactly one
    /// duplication.
    pending: std::collections::BTreeSet<(u64, usize)>,
}

impl DemandSim {
    /// Set up: the root (position 1) holds instances of every document;
    /// every other station starts with references only.
    #[must_use]
    pub fn new(tree: BroadcastTree, docs: Vec<DocSpec>, watermark: u64) -> Self {
        let stations = course_tables(tree.len(), &docs, |d| (&d.name, d.full_bytes));
        let slot_of = docs
            .iter()
            .map(|d| stations[&1].index_of(&d.name).expect("a course name"))
            .collect();
        DemandSim {
            tree,
            docs,
            watermark,
            stations,
            slot_of,
            pending: std::collections::BTreeSet::new(),
        }
    }

    /// Bound every student station's replica buffer (§4: duplicated
    /// instances are buffer space; a bounded buffer LRU-evicts back to
    /// references). The instructor root stays unbounded — its objects
    /// are persistent.
    pub fn set_station_quota(&mut self, quota: u64) {
        for (pos, sd) in &mut self.stations {
            if *pos != 1 {
                sd.set_quota(Some(quota));
            }
        }
    }

    /// Position of the nearest ancestor of `pos` (possibly the root)
    /// holding an instance of `doc`.
    #[must_use]
    pub fn nearest_holder(&self, pos: u64, doc: &str) -> u64 {
        let root = &self.stations[&1];
        root.index_of(doc)
            .map_or(1, |i| self.nearest_holder_at(pos, i))
    }

    /// [`DemandSim::nearest_holder`] of the document at slot `i`.
    fn nearest_holder_at(&self, pos: u64, i: usize) -> u64 {
        // The instructor root always holds everything.
        std::iter::successors(self.tree.parent_of(pos), |&p| self.tree.parent_of(p))
            .find(|p| self.stations[p].has_instance_at(i))
            .unwrap_or(1)
    }

    /// Replay a trace (must be sorted by time). Returns the aggregate
    /// report.
    pub fn run(&mut self, net: &mut Network<Fetch>, trace: &[AccessEvent]) -> DemandReport {
        let mut report = DemandReport {
            accesses: 0,
            local_hits: 0,
            remote_fetches: 0,
            duplications: 0,
            view_bytes: 0,
            duplicated_bytes: 0,
            mean_latency_us: 0.0,
            replica_bytes: 0,
        };
        let mut latency_sum: u64 = 0;
        let root = &self.stations[&1];
        debug_assert!(self.stations.values().all(|sd| sd.shares_names(root)));

        for ev in trace {
            // Drain network activity up to this access.
            net.run_until(ev.at, |net, msg| {
                self.deliver(net.now(), &msg, &mut latency_sum);
            });
            report.accesses += 1;
            let doc = &self.docs[ev.doc];
            let sd = self.stations.get_mut(&ev.position).expect("station exists");
            let slot = self.slot_of[ev.doc];
            let count = sd.record_access_at(slot);
            if sd.has_instance_at(slot) {
                report.local_hits += 1;
                continue; // zero network latency
            }
            let holder = self.nearest_holder_at(ev.position, slot);
            let src = self.tree.station_at(holder).expect("holder exists");
            let dst = self.tree.station_at(ev.position).expect("requester exists");
            report.remote_fetches += 1;
            report.view_bytes += doc.view_bytes;
            net.send(
                src,
                dst,
                doc.view_bytes,
                Fetch::View {
                    latency_start: ev.at,
                },
            );
            // Watermark crossing: schedule the full copy alongside,
            // unless one is already on its way.
            if count > self.watermark && self.pending.insert((ev.position, ev.doc)) {
                report.duplications += 1;
                report.duplicated_bytes += doc.full_bytes;
                let copy = Fetch::Duplicate {
                    doc: ev.doc,
                    position: ev.position,
                };
                net.send(src, dst, doc.full_bytes, copy);
            }
        }
        // Drain everything outstanding (without a deadline, so the
        // clock advances only to the last real delivery and the sim can
        // be reused for later phases).
        net.run(|net, msg| self.deliver(net.now(), &msg, &mut latency_sum));

        report.mean_latency_us = if report.accesses == 0 {
            0.0
        } else {
            latency_sum as f64 / report.accesses as f64
        };
        report.replica_bytes = self
            .stations
            .iter()
            .filter(|(pos, _)| **pos != 1)
            .map(|(_, sd)| sd.disk_bytes())
            .sum();
        report
    }

    /// A delivery: credit a page view's latency, or materialize a
    /// completed duplication at its receiving station.
    fn deliver(&mut self, now: SimTime, msg: &netsim::Message<Fetch>, latency_sum: &mut u64) {
        match msg.payload {
            Fetch::View { latency_start } => {
                *latency_sum += (now - latency_start).as_micros();
            }
            Fetch::Duplicate { doc, position } => {
                self.pending.remove(&(position, doc));
                let d = &self.docs[doc];
                if let Some(sd) = self.stations.get_mut(&position) {
                    sd.materialize(&d.name, d.full_bytes);
                }
            }
        }
    }

    /// Access the per-station replica tables (for reports).
    #[must_use]
    pub fn stations(&self) -> &BTreeMap<u64, StationDocs> {
        &self.stations
    }

    /// The configured watermark.
    #[must_use]
    pub fn watermark(&self) -> u64 {
        self.watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkSpec, Network, StationId};

    fn setup(n: u32, m: u64, watermark: u64) -> (DemandSim, Network<Fetch>) {
        let (net, ids) = Network::uniform(n as usize, LinkSpec::new(1_000_000, SimTime::ZERO));
        let tree = BroadcastTree::new(ids, m);
        let docs = vec![DocSpec {
            name: "lec1".into(),
            view_bytes: 10_000,
            full_bytes: 1_000_000,
        }];
        (DemandSim::new(tree, docs, watermark), net)
    }

    fn access(at_ms: u64, position: u64) -> AccessEvent {
        AccessEvent {
            at: SimTime::from_millis(at_ms),
            position,
            doc: 0,
        }
    }

    #[test]
    fn below_watermark_stays_remote() {
        let (mut sim, mut net) = setup(4, 2, 10);
        let trace: Vec<_> = (0..5).map(|i| access(i * 100, 2)).collect();
        let r = sim.run(&mut net, &trace);
        assert_eq!(r.remote_fetches, 5);
        assert_eq!(r.local_hits, 0);
        assert_eq!(r.duplications, 0);
        assert_eq!(r.replica_bytes, 0);
    }

    #[test]
    fn crossing_watermark_duplicates_then_serves_locally() {
        let (mut sim, mut net) = setup(4, 2, 2);
        // Accesses spaced far enough apart for the copy to land.
        let trace: Vec<_> = (0..8).map(|i| access(i * 5_000, 2)).collect();
        let r = sim.run(&mut net, &trace);
        assert_eq!(r.duplications, 1, "one watermark crossing");
        assert_eq!(r.duplicated_bytes, 1_000_000);
        // Accesses 1,2 remote; 3 remote (crossing, copy in flight);
        // 4..8 local.
        assert!(r.local_hits >= 4, "got {} local hits", r.local_hits);
        assert_eq!(r.replica_bytes, 1_000_000);
    }

    #[test]
    fn duplication_happens_at_the_requesting_station_only() {
        let (mut sim, mut net) = setup(8, 2, 1);
        let trace: Vec<_> = (0..4).map(|i| access(i * 10_000, 5)).collect();
        let _ = sim.run(&mut net, &trace);
        assert!(sim.stations()[&5].has_instance("lec1"));
        for pos in [2u64, 3, 4, 6, 7, 8] {
            assert!(
                !sim.stations()[&pos].has_instance("lec1"),
                "station {pos} should only keep a reference"
            );
        }
    }

    #[test]
    fn fetch_prefers_nearest_ancestor_holder() {
        let (mut sim, mut net) = setup(8, 2, 0);
        // Station 2 crosses immediately and holds a copy.
        let warm: Vec<_> = (0..2).map(|i| access(i * 10_000, 2)).collect();
        sim.run(&mut net, &warm);
        assert!(sim.stations()[&2].has_instance("lec1"));
        // Station 4's parent is 2 — it should fetch from 2, not the root.
        assert_eq!(sim.nearest_holder(4, "lec1"), 2);
        assert_eq!(sim.nearest_holder(5, "lec1"), 2);
        // Station 6 hangs under 3, whose ancestors are only the root.
        assert_eq!(sim.nearest_holder(6, "lec1"), 1);
    }

    #[test]
    fn local_hits_have_zero_latency() {
        let (mut sim, mut net) = setup(2, 1, 0);
        // First access crosses watermark 0 → duplicate; wait; then local.
        let trace = vec![access(0, 2), access(20_000, 2), access(21_000, 2)];
        let r = sim.run(&mut net, &trace);
        assert_eq!(r.local_hits, 2);
        assert!(r.mean_latency_us > 0.0);
        let all_remote = {
            let (mut sim2, mut net2) = setup(2, 1, 100);
            sim2.run(&mut net2, &trace)
        };
        assert!(
            all_remote.mean_latency_us > r.mean_latency_us,
            "duplication must cut mean latency"
        );
        let _ = StationId(0);
    }
}
