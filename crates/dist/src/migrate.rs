//! Instance → reference migration after lectures (§4).
//!
//! "The duplicated document instances live only within a duration of
//! time. After a lecture is presented, duplicated document instances
//! migrate to document references. Essentially, buffer spaces are used
//! only. However, the instructor workstation has document instances and
//! classes as persistence objects."
//!
//! [`MigrationSim`] schedules lecture sessions (start/end) across
//! stations and samples per-station disk usage over time, with the
//! migration policy on or off — the difference is experiment E6.

use crate::station::{course_tables, DiskSample, StationDocs};
use crate::tree::BroadcastTree;
use netsim::{Network, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One scheduled lecture session at a student station.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LectureSession {
    /// Tree position (1-based) of the reviewing station.
    pub position: u64,
    /// Index of the lecture document.
    pub doc: usize,
    /// When the session starts (the copy is requested then).
    pub start: SimTime,
    /// When the lecture presentation ends.
    pub end: SimTime,
}

/// A lecture document: name + full copy size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LectureDoc {
    /// Document name.
    pub name: String,
    /// Full copy size (structure + BLOBs).
    pub bytes: u64,
}

/// Events flowing through the migration simulation.
#[derive(Debug, Clone, Copy)]
pub enum MigrateEvent {
    /// Timer at the root: a session starts, send the copy now.
    RequestCopy {
        /// Document index.
        doc: usize,
        /// Tree position of the requesting station.
        position: u64,
    },
    /// A full copy arriving at a station.
    CopyArrived {
        /// Document index.
        doc: usize,
        /// Tree position of the receiving station.
        position: u64,
    },
    /// A lecture presentation finished at this station.
    LectureEnded {
        /// Document index.
        doc: usize,
        /// Tree position of the station.
        position: u64,
    },
}

/// Result of a migration run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// Peak of the summed per-station (non-root) disk usage.
    pub peak_bytes: u64,
    /// Disk usage after everything settled.
    pub steady_bytes: u64,
    /// Total bytes copied over the network.
    pub copied_bytes: u64,
    /// Time-ordered samples of total non-root disk usage.
    pub samples: Vec<DiskSample>,
}

/// Simulates lecture sessions with (or without) migration.
pub struct MigrationSim {
    tree: BroadcastTree,
    docs: Vec<LectureDoc>,
    migrate_after_lecture: bool,
    stations: BTreeMap<u64, StationDocs>,
}

impl MigrationSim {
    /// Root holds everything persistently; other stations hold
    /// references. `migrate_after_lecture` toggles the §4 policy.
    #[must_use]
    pub fn new(tree: BroadcastTree, docs: Vec<LectureDoc>, migrate_after_lecture: bool) -> Self {
        let stations = course_tables(tree.len(), &docs, |d| (&d.name, d.bytes));
        MigrationSim {
            tree,
            docs,
            migrate_after_lecture,
            stations,
        }
    }

    /// Run the given sessions. Sessions must be sorted by start time.
    pub fn run(
        &mut self,
        net: &mut Network<MigrateEvent>,
        sessions: &[LectureSession],
    ) -> MigrationReport {
        // Kick off every session's copy request at its start time, and
        // its end timer.
        let root = self.tree.root();
        for s in sessions {
            let dst = self.tree.station_at(s.position).expect("station exists");
            // The copy is requested at session start (a timer at the
            // root triggers the send, so root-uplink contention applies
            // only among concurrent sessions).
            let (doc, position) = (s.doc, s.position);
            net.schedule(root, s.start, MigrateEvent::RequestCopy { doc, position });
            net.schedule(dst, s.end, MigrateEvent::LectureEnded { doc, position });
        }

        let mut samples: Vec<DiskSample> = Vec::new();
        let mut copied = 0u64;
        let tree = &self.tree;
        let docs = &self.docs;
        let stations = &mut self.stations;
        let migrate = self.migrate_after_lecture;
        let sample = |at: SimTime, station, sd: &StationDocs| DiskSample {
            at: at.as_micros(),
            station,
            bytes: sd.disk_bytes(),
        };
        net.run(|net, msg| match msg.payload {
            MigrateEvent::RequestCopy { doc, position } => {
                let d = &docs[doc];
                let dst = tree.station_at(position).expect("requester exists");
                let copy = MigrateEvent::CopyArrived { doc, position };
                net.send(msg.dst, dst, d.bytes, copy);
            }
            MigrateEvent::CopyArrived { doc, position } => {
                let (d, sd) = (&docs[doc], stations.get_mut(&position).expect("exists"));
                copied += d.bytes;
                sd.materialize(&d.name, d.bytes);
                samples.push(sample(net.now(), msg.dst, sd));
            }
            MigrateEvent::LectureEnded { doc, position } if migrate => {
                let sd = stations.get_mut(&position).expect("exists");
                sd.demote(&docs[doc].name);
                samples.push(sample(net.now(), msg.dst, sd));
            }
            MigrateEvent::LectureEnded { .. } => {}
        });

        // Reconstruct the total-usage series to find the peak.
        let mut per_station: BTreeMap<u32, u64> = BTreeMap::new();
        let mut total = 0u64;
        let mut peak = 0u64;
        for s in &samples {
            let prev = per_station.insert(s.station.0, s.bytes).unwrap_or(0);
            total = total + s.bytes - prev;
            peak = peak.max(total);
        }
        let steady: u64 = self
            .stations
            .iter()
            .filter(|(pos, _)| **pos != 1)
            .map(|(_, sd)| sd.disk_bytes())
            .sum();
        MigrationReport {
            peak_bytes: peak,
            steady_bytes: steady,
            copied_bytes: copied,
            samples,
        }
    }

    /// The per-station replica tables.
    #[must_use]
    pub fn stations(&self) -> &BTreeMap<u64, StationDocs> {
        &self.stations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::LinkSpec;

    fn setup(n: usize, migrate: bool) -> (MigrationSim, Network<MigrateEvent>) {
        let (net, ids) = Network::uniform(n, LinkSpec::new(1_000_000, SimTime::ZERO));
        let tree = BroadcastTree::new(ids, 2);
        let docs = vec![
            LectureDoc {
                name: "lec1".into(),
                bytes: 1_000_000,
            },
            LectureDoc {
                name: "lec2".into(),
                bytes: 2_000_000,
            },
        ];
        (MigrationSim::new(tree, docs, migrate), net)
    }

    fn session(position: u64, doc: usize, start_s: u64, end_s: u64) -> LectureSession {
        LectureSession {
            position,
            doc,
            start: SimTime::from_secs(start_s),
            end: SimTime::from_secs(end_s),
        }
    }

    #[test]
    fn with_migration_steady_state_is_zero() {
        let (mut sim, mut net) = setup(4, true);
        let sessions = vec![session(2, 0, 0, 100), session(3, 1, 0, 150)];
        let r = sim.run(&mut net, &sessions);
        assert_eq!(r.steady_bytes, 0, "buffer space only");
        assert!(r.peak_bytes >= 1_000_000);
        assert_eq!(r.copied_bytes, 3_000_000);
    }

    #[test]
    fn without_migration_disk_grows_monotonically() {
        let (mut sim, mut net) = setup(4, false);
        let sessions = vec![session(2, 0, 0, 100), session(2, 1, 200, 300)];
        let r = sim.run(&mut net, &sessions);
        assert_eq!(r.steady_bytes, 3_000_000);
        assert_eq!(r.peak_bytes, r.steady_bytes);
    }

    #[test]
    fn instructor_station_is_persistent() {
        let (mut sim, mut net) = setup(4, true);
        let sessions = vec![session(2, 0, 0, 10)];
        sim.run(&mut net, &sessions);
        // Root still holds both lectures (3 MB).
        assert_eq!(sim.stations()[&1].disk_bytes(), 3_000_000);
    }

    #[test]
    fn peak_reflects_concurrent_sessions() {
        let (mut sim_seq, mut net_seq) = setup(8, true);
        // Sequential: station 2 watches lec1, then much later station 3.
        let seq = vec![session(2, 0, 0, 50), session(3, 0, 1_000, 1_050)];
        let r_seq = sim_seq.run(&mut net_seq, &seq);

        let (mut sim_par, mut net_par) = setup(8, true);
        let par = vec![session(2, 0, 0, 500), session(3, 0, 10, 500)];
        let r_par = sim_par.run(&mut net_par, &par);

        assert_eq!(r_seq.peak_bytes, 1_000_000);
        assert_eq!(r_par.peak_bytes, 2_000_000);
    }
}
