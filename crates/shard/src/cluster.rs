//! The distributed-commit protocol on simulated links: a cluster of
//! stations running the two-phase commit message flow over `netsim`,
//! with crash faults, replica failover and partition/heal convergence.
//!
//! This is the *network* half of the shard story. The [`Router`] is
//! in-process and proves semantic equivalence; this module puts the
//! same commit protocol on the paper's simulated station network,
//! where messages cost bandwidth and latency, links partition, and
//! stations crash mid-protocol — the failure matrix the scenario
//! tests replay deterministically.
//!
//! **Protocol.** A transaction writes to one or more shards. The
//! primary of its lowest shard coordinates: `Prepare` to every
//! participant primary, which force-logs the prepared writes and
//! votes; on unanimous yes the coordinator force-logs a
//! [`WalRecord::CommitDecision`] — *the* commit point — and sends
//! `Decide`; participants log the local outcome, apply, ack, and
//! replicate applied writes to their shard's tree-neighbour replicas
//! ([`ShardMap::placement_of_shard`]). Presumed abort throughout: a
//! gtid absent from the coordinator's decision log is aborted, so the
//! coordinator never has to force an abort record.
//!
//! **Durability model.** Every station owns an append-only in-memory
//! log (`Vec` of [`LogEntry`], which embeds the `wal` crate's 2PC
//! record vocabulary). A crash wipes all volatile state — the
//! key-value store, prepared set, coordinator table, pending timers —
//! but never the log; [`SimCluster::recover_station`] replays the log
//! exactly like WAL recovery (redo committed work, re-stage prepared
//! transactions, re-derive coordinator decisions) and schedules
//! `Resolve` timers for every in-doubt transaction, which query the
//! coordinator until an answer gets through (retries survive
//! partitions; healing converges them).
//!
//! [`Router`]: crate::router::Router

use crate::map::ShardMap;
use crate::twopc::Gtid;
use netsim::{Fault, FaultSchedule, LinkSpec, Message, Network, SimTime, StationId, Topology};
use obs::Registry;
use std::collections::{BTreeMap, BTreeSet};
use wal::WalRecord;

/// One shard-level write: set `key` to `val` on `shard`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Write {
    /// Target shard.
    pub shard: usize,
    /// Key within the shard.
    pub key: u64,
    /// Value; negative values are poisoned — the participant votes
    /// no, which is how the scenario matrix exercises the abort path
    /// deterministically.
    pub val: i64,
}

/// Wire size charged per protocol message (a header's worth; bodies
/// add the writes).
const MSG_BYTES: u64 = 64;
/// Per-write payload bytes on the wire.
const WRITE_BYTES: u64 = 24;
/// In-doubt participants re-query the coordinator at this period.
const RESOLVE_PERIOD: SimTime = SimTime(50_000);

/// Protocol messages riding the simulated links.
#[derive(Debug, Clone)]
pub enum ShardMsg {
    /// Client hands a transaction to its coordinator.
    Begin {
        /// Global transaction id.
        gtid: Gtid,
        /// The full write set (the coordinator splits it by shard).
        writes: Vec<Write>,
    },
    /// Coordinator → participant: stage these writes.
    Prepare {
        /// Global transaction id.
        gtid: Gtid,
        /// Shard being prepared on the receiving primary.
        shard: usize,
        /// Writes for that shard.
        writes: Vec<Write>,
        /// Where votes and status queries go.
        coord: StationId,
    },
    /// Participant → coordinator: prepared (or refused).
    Vote {
        /// Global transaction id.
        gtid: Gtid,
        /// Voting shard.
        shard: usize,
        /// True when the writes are staged and force-logged.
        yes: bool,
    },
    /// Coordinator → participant: the durable decision.
    Decide {
        /// Global transaction id.
        gtid: Gtid,
        /// Shard addressed.
        shard: usize,
        /// Commit (true) or abort.
        commit: bool,
    },
    /// Participant → coordinator: decision applied.
    Ack {
        /// Global transaction id.
        gtid: Gtid,
        /// Acknowledging shard.
        shard: usize,
    },
    /// Primary → replica: committed writes to copy.
    Replicate {
        /// Global transaction id.
        gtid: Gtid,
        /// Shard the writes belong to.
        shard: usize,
        /// The committed writes.
        writes: Vec<Write>,
    },
    /// Local timer: if `gtid` is still in doubt here, query the
    /// coordinator again.
    Resolve {
        /// Global transaction id.
        gtid: Gtid,
    },
    /// Recovered participant → coordinator: what happened to `gtid`?
    StatusReq {
        /// Global transaction id.
        gtid: Gtid,
        /// Shard asking.
        shard: usize,
        /// Station to answer.
        from: StationId,
    },
    /// Coordinator → recovered participant: the (presumed-abort)
    /// answer.
    StatusResp {
        /// Global transaction id.
        gtid: Gtid,
        /// Shard addressed.
        shard: usize,
        /// Commit (true) or abort.
        commit: bool,
    },
}

/// One durable log entry. Decision frames reuse the `wal` crate's 2PC
/// record vocabulary so the sim's recovery reads exactly like the real
/// WAL's.
#[derive(Debug, Clone)]
pub enum LogEntry {
    /// Participant: `gtid` is prepared with these staged writes — in
    /// doubt until a decision frame follows.
    Prepared {
        /// Global transaction id.
        gtid: Gtid,
        /// Shard prepared.
        shard: usize,
        /// Staged writes.
        writes: Vec<Write>,
        /// Coordinator station (where recovery asks).
        coord: StationId,
    },
    /// A 2PC frame: the coordinator's `CommitDecision`/`AbortDecision`
    /// or the participant's local `Commit`/`Abort`.
    Frame(WalRecord),
    /// Replica: committed writes copied from the shard primary.
    Replica {
        /// Global transaction id.
        gtid: Gtid,
        /// Shard the writes belong to.
        shard: usize,
        /// The committed writes.
        writes: Vec<Write>,
    },
}

/// Volatile coordinator progress for one transaction.
#[derive(Debug, Clone)]
struct Coord {
    by_shard: BTreeMap<usize, Vec<Write>>,
    votes: BTreeMap<usize, bool>,
    decided: Option<bool>,
    acks: BTreeSet<usize>,
}

/// One station: a durable log plus volatile state rebuilt from it.
#[derive(Debug, Default)]
struct Station {
    /// Durable: survives crashes.
    log: Vec<LogEntry>,
    /// Volatile committed state, keyed `(shard, key)` — a station can
    /// host several shards (its own primary range plus replicas).
    kv: BTreeMap<(usize, u64), i64>,
    /// Volatile in-doubt set: prepared, no decision yet.
    prepared: BTreeMap<Gtid, (usize, Vec<Write>, StationId)>,
    /// Volatile coordinator table.
    coord: BTreeMap<Gtid, Coord>,
    /// Coordinator decisions re-derivable from the log (gtid → commit).
    decisions: BTreeMap<Gtid, bool>,
}

impl Station {
    fn apply(&mut self, shard: usize, writes: &[Write]) {
        for w in writes {
            self.kv.insert((shard, w.key), w.val);
        }
    }

    /// Wipe volatile state and replay the durable log, exactly like
    /// WAL recovery: redo committed work in log order, re-stage
    /// prepared-but-undecided transactions, re-derive coordinator
    /// decisions. Returns the in-doubt gtids needing resolution.
    fn replay(&mut self) -> Vec<Gtid> {
        self.kv.clear();
        self.prepared.clear();
        self.coord.clear();
        self.decisions.clear();
        let log = std::mem::take(&mut self.log);
        for entry in &log {
            match entry {
                LogEntry::Prepared {
                    gtid,
                    shard,
                    writes,
                    coord,
                } => {
                    self.prepared
                        .insert(*gtid, (*shard, writes.clone(), *coord));
                }
                LogEntry::Frame(WalRecord::Commit { txn }) => {
                    if let Some((shard, writes, _)) = self.prepared.remove(txn) {
                        self.apply(shard, &writes);
                    }
                }
                LogEntry::Frame(WalRecord::Abort { txn }) => {
                    self.prepared.remove(txn);
                }
                LogEntry::Frame(WalRecord::CommitDecision { gtid, .. }) => {
                    self.decisions.insert(*gtid, true);
                }
                LogEntry::Frame(WalRecord::AbortDecision { gtid }) => {
                    self.decisions.insert(*gtid, false);
                }
                LogEntry::Frame(_) => {}
                LogEntry::Replica { shard, writes, .. } => {
                    self.apply(*shard, writes);
                }
            }
        }
        self.log = log;
        self.prepared.keys().copied().collect()
    }
}

/// A simulated shard cluster: one station per shard primary (plus its
/// replicas), the 2PC message flow over a [`Network`], and
/// deterministic fault injection.
pub struct SimCluster {
    net: Network<ShardMsg>,
    map: ShardMap,
    /// Current primary of each shard (changes on failover).
    primaries: Vec<StationId>,
    stations: BTreeMap<StationId, Station>,
    next_gtid: Gtid,
    metrics: Registry,
}

impl SimCluster {
    /// A cluster of `n` stations (one shard each) with `replication`
    /// total copies per shard, all on LAN uplinks.
    #[must_use]
    pub fn new(n: u32, replication: usize) -> Self {
        let mut topo = Topology::new();
        let ids = topo.add_stations(n as usize, LinkSpec::lan());
        let map = ShardMap::new(ids.clone(), 2, replication, ShardMap::DEFAULT_VNODES);
        let metrics = Registry::new();
        let mut net = Network::new(topo);
        net.set_metrics(metrics.clone());
        let stations = ids.iter().map(|&s| (s, Station::default())).collect();
        SimCluster {
            net,
            primaries: map.stations().to_vec(),
            map,
            stations,
            next_gtid: 1,
            metrics,
        }
    }

    /// The shard map.
    #[must_use]
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Metrics registry (`shard.2pc.*`, `shard.failover.*`).
    #[must_use]
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Current primary station of `shard`.
    #[must_use]
    pub fn primary(&self, shard: usize) -> StationId {
        self.primaries[shard]
    }

    /// Inject a fault schedule (crashes, partitions, heals).
    pub fn set_faults(&mut self, schedule: FaultSchedule) {
        self.net.set_faults(schedule);
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Submit a transaction; the primary of its lowest shard
    /// coordinates. Returns the gtid.
    ///
    /// # Panics
    /// Panics if `writes` is empty or names an out-of-range shard.
    pub fn submit(&mut self, writes: Vec<Write>) -> Gtid {
        assert!(!writes.is_empty(), "empty transaction");
        let lowest = writes.iter().map(|w| w.shard).min().expect("non-empty");
        assert!(lowest < self.primaries.len(), "shard out of range");
        let gtid = self.next_gtid;
        self.next_gtid += 1;
        let coord = self.primaries[lowest];
        let at = self.net.now();
        self.net
            .schedule(coord, at, ShardMsg::Begin { gtid, writes });
        gtid
    }

    /// Run the protocol until `deadline` (exclusive of later events).
    pub fn run_until(&mut self, deadline: SimTime) {
        let stations = &mut self.stations;
        let primaries = &mut self.primaries;
        let map = &self.map;
        let metrics = &self.metrics;
        self.net.run_until(deadline, |net, msg| {
            Self::handle(stations, primaries, map, metrics, net, msg);
        });
    }

    /// Crash-recover `station`: wipe volatile state, replay the
    /// durable log, and schedule `Resolve` timers for every in-doubt
    /// transaction. Call this after the fault schedule's `Recover`
    /// time has passed (the sim's own timers died with the crash).
    pub fn recover_station(&mut self, station: StationId) {
        let st = self.stations.get_mut(&station).expect("known station");
        let in_doubt = st.replay();
        let at = self.net.now() + RESOLVE_PERIOD;
        for gtid in in_doubt {
            self.metrics.inc("shard.2pc.in_doubt");
            self.net.schedule(station, at, ShardMsg::Resolve { gtid });
        }
    }

    /// Fail `shard` over to its first live replica (tree-neighbour
    /// order); returns the promoted station. The old primary keeps its
    /// log — when it recovers it finishes its in-doubt transactions
    /// and replicates, converging the shard's whole host set.
    ///
    /// # Panics
    /// Panics if every replica of the shard is down.
    pub fn promote(&mut self, shard: usize) -> StationId {
        let placement = self.map.placement_of_shard(shard);
        let new = placement
            .replicas
            .iter()
            .copied()
            .find(|&s| !self.net.is_down(s))
            .expect("no live replica to promote");
        self.primaries[shard] = new;
        self.metrics.inc("shard.failover.promotions");
        new
    }

    /// Committed value of `(shard, key)` as seen by `station`.
    #[must_use]
    pub fn read_at(&self, station: StationId, shard: usize, key: u64) -> Option<i64> {
        self.stations
            .get(&station)
            .and_then(|s| s.kv.get(&(shard, key)).copied())
    }

    /// The full committed state of `shard` at `station`.
    #[must_use]
    pub fn shard_view(&self, station: StationId, shard: usize) -> BTreeMap<u64, i64> {
        self.stations
            .get(&station)
            .map(|s| {
                s.kv.iter()
                    .filter(|((sh, _), _)| *sh == shard)
                    .map(|((_, k), v)| (*k, *v))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The coordinator's durable decision for `gtid` under presumed
    /// abort: `Some(true)` only if a commit decision is logged at
    /// `coord`; absence reads as abort once the coordinator is past
    /// the transaction.
    #[must_use]
    pub fn decision_at(&self, coord: StationId, gtid: Gtid) -> Option<bool> {
        self.stations
            .get(&coord)
            .and_then(|s| s.decisions.get(&gtid).copied())
    }

    /// Gtids `station` still holds prepared-but-undecided.
    #[must_use]
    pub fn in_doubt_at(&self, station: StationId) -> Vec<Gtid> {
        self.stations
            .get(&station)
            .map(|s| s.prepared.keys().copied().collect())
            .unwrap_or_default()
    }

    fn send(
        net: &mut Network<ShardMsg>,
        src: StationId,
        dst: StationId,
        n_writes: usize,
        msg: ShardMsg,
    ) {
        net.send(src, dst, MSG_BYTES + WRITE_BYTES * n_writes as u64, msg);
    }

    #[allow(clippy::too_many_lines)]
    fn handle(
        stations: &mut BTreeMap<StationId, Station>,
        primaries: &mut [StationId],
        map: &ShardMap,
        metrics: &Registry,
        net: &mut Network<ShardMsg>,
        msg: Message<ShardMsg>,
    ) {
        let here = msg.dst;
        match msg.payload {
            ShardMsg::Begin { gtid, writes } => {
                let mut by_shard: BTreeMap<usize, Vec<Write>> = BTreeMap::new();
                for w in writes {
                    by_shard.entry(w.shard).or_default().push(w);
                }
                let coord = Coord {
                    by_shard: by_shard.clone(),
                    votes: BTreeMap::new(),
                    decided: None,
                    acks: BTreeSet::new(),
                };
                stations
                    .get_mut(&here)
                    .expect("station")
                    .coord
                    .insert(gtid, coord);
                metrics.inc("shard.2pc.begun");
                for (shard, writes) in by_shard {
                    let n = writes.len();
                    Self::send(
                        net,
                        here,
                        primaries[shard],
                        n,
                        ShardMsg::Prepare {
                            gtid,
                            shard,
                            writes,
                            coord: here,
                        },
                    );
                }
            }
            ShardMsg::Prepare {
                gtid,
                shard,
                writes,
                coord,
            } => {
                let st = stations.get_mut(&here).expect("station");
                let yes = writes.iter().all(|w| w.val >= 0);
                if yes {
                    // Force the prepared record before voting — the
                    // vote is a durable promise.
                    st.log.push(LogEntry::Prepared {
                        gtid,
                        shard,
                        writes: writes.clone(),
                        coord,
                    });
                    st.prepared.insert(gtid, (shard, writes, coord));
                    metrics.inc("shard.2pc.prepared");
                    // Participant timeout: if no decision arrives (a
                    // partition, a crashed coordinator), ask for it.
                    let at = net.now() + RESOLVE_PERIOD;
                    net.schedule(here, at, ShardMsg::Resolve { gtid });
                }
                Self::send(net, here, coord, 0, ShardMsg::Vote { gtid, shard, yes });
            }
            ShardMsg::Vote { gtid, shard, yes } => {
                let st = stations.get_mut(&here).expect("station");
                let Some(c) = st.coord.get_mut(&gtid) else {
                    return;
                };
                c.votes.insert(shard, yes);
                if c.decided.is_some() || c.votes.len() < c.by_shard.len() {
                    return;
                }
                let commit = c.votes.values().all(|&v| v);
                c.decided = Some(commit);
                let participants: Vec<u64> = c.by_shard.keys().map(|&s| s as u64).collect();
                let frame = if commit {
                    metrics.inc("shard.2pc.commits");
                    WalRecord::CommitDecision {
                        gtid,
                        participants: participants.clone(),
                    }
                } else {
                    metrics.inc("shard.2pc.aborts");
                    WalRecord::AbortDecision { gtid }
                };
                // The decision record is forced before any Decide
                // leaves: this is the commit point.
                st.decisions.insert(gtid, commit);
                st.log.push(LogEntry::Frame(frame));
                let shards: Vec<usize> = st
                    .coord
                    .get(&gtid)
                    .expect("present")
                    .by_shard
                    .keys()
                    .copied()
                    .collect();
                for s in shards {
                    Self::send(
                        net,
                        here,
                        primaries[s],
                        0,
                        ShardMsg::Decide {
                            gtid,
                            shard: s,
                            commit,
                        },
                    );
                }
            }
            ShardMsg::Decide {
                gtid,
                shard,
                commit,
            }
            | ShardMsg::StatusResp {
                gtid,
                shard,
                commit,
            } => {
                let st = stations.get_mut(&here).expect("station");
                let Some((pshard, writes, coord)) = st.prepared.remove(&gtid) else {
                    return;
                };
                debug_assert_eq!(pshard, shard, "decision for a different shard");
                if commit {
                    st.log
                        .push(LogEntry::Frame(WalRecord::Commit { txn: gtid }));
                    st.apply(shard, &writes);
                    metrics.inc("shard.2pc.applied");
                    // Replicate the committed writes along tree edges.
                    for replica in map.placement_of_shard(shard).replicas {
                        Self::send(
                            net,
                            here,
                            replica,
                            writes.len(),
                            ShardMsg::Replicate {
                                gtid,
                                shard,
                                writes: writes.clone(),
                            },
                        );
                    }
                } else {
                    st.log.push(LogEntry::Frame(WalRecord::Abort { txn: gtid }));
                }
                Self::send(net, here, coord, 0, ShardMsg::Ack { gtid, shard });
            }
            ShardMsg::Ack { gtid, shard } => {
                let st = stations.get_mut(&here).expect("station");
                if let Some(c) = st.coord.get_mut(&gtid) {
                    c.acks.insert(shard);
                }
            }
            ShardMsg::Replicate {
                gtid,
                shard,
                writes,
            } => {
                let st = stations.get_mut(&here).expect("station");
                st.log.push(LogEntry::Replica {
                    gtid,
                    shard,
                    writes: writes.clone(),
                });
                st.apply(shard, &writes);
                metrics.inc("shard.replication.applied");
            }
            ShardMsg::Resolve { gtid } => {
                let st = stations.get_mut(&here).expect("station");
                let Some((shard, _, coord)) = st.prepared.get(&gtid) else {
                    return; // resolved meanwhile; timer dies
                };
                let (shard, coord) = (*shard, *coord);
                metrics.inc("shard.2pc.status_queries");
                Self::send(
                    net,
                    here,
                    coord,
                    0,
                    ShardMsg::StatusReq {
                        gtid,
                        shard,
                        from: here,
                    },
                );
                // Keep retrying until resolved (partitions drop the
                // query; healing lets a later round through).
                let again = net.now() + RESOLVE_PERIOD;
                net.schedule(here, again, ShardMsg::Resolve { gtid });
            }
            ShardMsg::StatusReq { gtid, shard, from } => {
                let st = stations.get_mut(&here).expect("station");
                // A status query for a transaction still collecting
                // votes means a participant timed out waiting: decide
                // abort *now* and make it durable, so the answer below
                // can never contradict a later commit.
                if let Some(c) = st.coord.get_mut(&gtid) {
                    if c.decided.is_none() {
                        c.decided = Some(false);
                        st.decisions.insert(gtid, false);
                        st.log
                            .push(LogEntry::Frame(WalRecord::AbortDecision { gtid }));
                        metrics.inc("shard.2pc.aborts");
                    }
                }
                // Presumed abort: no durable commit decision means
                // abort — including "never heard of it".
                let commit = st.decisions.get(&gtid).copied().unwrap_or(false);
                if !commit {
                    metrics.inc("shard.2pc.presumed_aborts");
                }
                metrics.inc("shard.2pc.in_doubt_resolved");
                Self::send(
                    net,
                    here,
                    from,
                    0,
                    ShardMsg::StatusResp {
                        gtid,
                        shard,
                        commit,
                    },
                );
            }
        }
    }
}

/// Convenience: a symmetric partition between two stations.
#[must_use]
pub fn partition_pair(at: SimTime, a: StationId, b: StationId) -> [(SimTime, Fault); 2] {
    [
        (at, Fault::Partition { src: a, dst: b }),
        (at, Fault::Partition { src: b, dst: a }),
    ]
}

/// Convenience: heal both directions between two stations.
#[must_use]
pub fn heal_pair(at: SimTime, a: StationId, b: StationId) -> [(SimTime, Fault); 2] {
    [
        (at, Fault::Heal { src: a, dst: b }),
        (at, Fault::Heal { src: b, dst: a }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_txn_commits_and_replicates() {
        let mut c = SimCluster::new(4, 2);
        let gtid = c.submit(vec![Write {
            shard: 1,
            key: 7,
            val: 42,
        }]);
        c.run_until(SimTime::from_secs(5));
        let primary = c.primary(1);
        assert_eq!(c.read_at(primary, 1, 7), Some(42));
        // Single-shard txn: the shard's own primary coordinated.
        assert_eq!(c.decision_at(primary, gtid), Some(true));
        // The replica holds the copy too.
        let replica = c.map().placement_of_shard(1).replicas[0];
        assert_eq!(c.read_at(replica, 1, 7), Some(42));
    }

    #[test]
    fn cross_shard_txn_is_atomic() {
        let mut c = SimCluster::new(3, 1);
        c.submit(vec![
            Write {
                shard: 0,
                key: 1,
                val: 10,
            },
            Write {
                shard: 2,
                key: 2,
                val: 20,
            },
        ]);
        c.run_until(SimTime::from_secs(5));
        assert_eq!(c.read_at(c.primary(0), 0, 1), Some(10));
        assert_eq!(c.read_at(c.primary(2), 2, 2), Some(20));
    }

    #[test]
    fn poisoned_write_aborts_everywhere() {
        let mut c = SimCluster::new(3, 1);
        c.submit(vec![
            Write {
                shard: 0,
                key: 1,
                val: 10,
            },
            Write {
                shard: 1,
                key: 2,
                val: -1, // poison: shard 1 votes no
            },
        ]);
        c.run_until(SimTime::from_secs(5));
        assert_eq!(c.read_at(c.primary(0), 0, 1), None);
        assert_eq!(c.read_at(c.primary(1), 1, 2), None);
        assert_eq!(c.metrics().counter("shard.2pc.aborts"), 1);
        assert!(c.in_doubt_at(c.primary(0)).is_empty());
    }
}
