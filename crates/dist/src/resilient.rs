//! Self-healing pre-broadcast: the m-ary relay of [`mod@crate::broadcast`]
//! hardened against station crashes and link failures.
//!
//! The paper's distribution design assumes the broadcast vector stays
//! healthy for the duration of a pre-broadcast. This module drops that
//! assumption and keeps the paper's *tree structure*: delivery is still
//! the store-and-forward relay down the full m-ary tree, but the root
//! (the instructor station — assumed alive, it is the lecture source)
//! supervises every position with ACKs and deterministic timers:
//!
//! * every station, on first receiving the object, sends a small ACK to
//!   the root **before** relaying to its children (the ACK serializes
//!   on the same uplink, so supervision is not free — the cost shows up
//!   byte-accurately in the reports);
//! * the root predicts each position's healthy-case ACK time with the
//!   exact arrival recurrence over the static topology, and arms one
//!   timer per position at `eta + grace`;
//! * an expired timer triggers a bounded retry with deterministic
//!   exponential backoff (`grace · 2^attempt`). The first retry is
//!   delegated to the orphan's nearest *ACKed* ancestor — found by
//!   walking the paper's parent formula `(k−i−1)/m + 1` — which
//!   re-parents the orphaned subtree without moving any extra copy of
//!   the object through the root. From the second retry on, the root
//!   serves the object itself, so any station alive and reachable when
//!   its retry lands is delivered within two attempts;
//! * stations deduplicate by crash epoch: a copy obtained before the
//!   station's latest crash is gone ([`netsim`] wipes volatile state on
//!   crash), so re-delivery after recovery is accepted, while a true
//!   duplicate is counted and re-ACKed (which also repairs lost ACKs).
//!
//! Everything is keyed off [`SimTime`]; a run is a pure function of the
//! topology, tree, policy and fault schedule.
//!
//! ## Metrics
//!
//! A run mirrors its counters onto the network's [`obs::Registry`]
//! under `dist.broadcast.*` — every [`ResilientReport`] field with a
//! counter shape has a registry twin of the same value, plus
//! per-arrival and backoff histograms and a `reparent` trace event per
//! adopted subtree (retries are high-volume under heavy faults, so they
//! are counted and histogrammed, not traced — same policy as per-drop
//! events in [`netsim`]). Counters and histograms accumulate in the
//! run's own locals (which also feed the report) and are written to the
//! registry once, after the run, alongside a [`Network::flush_metrics`]
//! call — so supervising a broadcast costs the registry nothing per
//! event except the rare re-parent trace. The report stays the source of
//! truth (it works even with a [`obs::Registry::disabled`] registry);
//! the registry copies exist so experiments can re-derive headline
//! numbers from metrics alone.

use crate::broadcast::BroadcastReport;
use crate::tree::BroadcastTree;
use netsim::{LinkSpec, Network, SimTime, Topology};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Messages of the resilient protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Packet {
    /// The object itself, heading for the station at `position`.
    Data {
        /// 1-based tree position of the receiver.
        position: u64,
        /// Position of the sending station (1 for the root).
        from_pos: u64,
    },
    /// Delivery confirmation, heading for the root.
    Ack {
        /// Position confirming receipt.
        position: u64,
        /// Position the data came from — the root marks the station
        /// re-parented when this differs from the formula parent.
        via: u64,
        /// When the data arrived at the station.
        arrived: SimTime,
    },
    /// Root → relay control message: "send your copy to `target`".
    SendData {
        /// Position the relay should serve.
        target: u64,
        /// Position of the relay itself.
        relay: u64,
    },
    /// Root-local timer: position's ACK is overdue.
    Timeout {
        /// Supervised position.
        position: u64,
        /// Attempt number that timed out (1 = the initial relay send).
        attempt: u32,
    },
}

/// Knobs of the supervision protocol. All values are deterministic
/// constants — there is no randomness anywhere in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retries per position before giving up (the position then ends
    /// in [`ResilientReport::unreachable`]).
    pub max_retries: u32,
    /// Wire size of an ACK.
    pub ack_bytes: u64,
    /// Wire size of a [`Packet::SendData`] control message.
    pub ctrl_bytes: u64,
    /// Slack added to the predicted ACK time before declaring a
    /// timeout; doubles every attempt. Must be positive, or a healthy
    /// ACK would tie with its own timer.
    pub grace: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            ack_bytes: 64,
            ctrl_bytes: 32,
            grace: SimTime::from_millis(50),
        }
    }
}

/// Outcome of one resilient broadcast run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilientReport {
    /// The plain-broadcast view of the run: completion (last data
    /// arrival), per-station arrival times as confirmed by ACKs, total
    /// delivered bytes, busiest uplink, tree height. Kept as the
    /// unchanged [`BroadcastReport`] type so fault-free resilient runs
    /// report in the same shape the existing experiments consume.
    pub report: BroadcastReport,
    /// Retry sends launched by the root's supervision timers.
    pub retries: u64,
    /// Stations (ids) whose delivery arrived from a station other than
    /// their formula parent.
    pub reparented: Vec<u32>,
    /// Stations (ids) never confirmed after all retries.
    pub unreachable: Vec<u32>,
    /// First-time (per crash epoch) data acceptances at stations.
    pub accepted: u64,
    /// Redundant data deliveries (station already held a live copy).
    pub duplicates: u64,
    /// Messages the fault layer dropped during the run.
    pub dropped_msgs: u64,
    /// Protocol overhead bytes put on the wire (ACKs + control).
    pub control_bytes: u64,
}

impl ResilientReport {
    /// Fraction of non-root stations confirmed delivered.
    #[must_use]
    pub fn delivery_ratio(&self, n: u64) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        self.report.arrivals.len() as f64 / (n - 1) as f64
    }
}

/// First viable ancestor of `pos` by the paper's parent formula, or 1
/// (the root) when none qualifies. This is the re-parenting rule: the
/// orphaned subtree hangs off the nearest surviving ancestor, and the
/// formulas still locate every *other* station because only the failed
/// link is bypassed.
pub fn repair_parent(tree: &BroadcastTree, pos: u64, is_viable: impl Fn(u64) -> bool) -> u64 {
    tree.ancestors_of(pos)
        .into_iter()
        .find(|&a| is_viable(a))
        .unwrap_or(1)
}

/// Serialization plus propagation of `bytes` over `spec`.
fn leg(spec: LinkSpec, bytes: u64) -> SimTime {
    SimTime::transfer(bytes, spec.bandwidth) + spec.latency
}

/// Healthy-case ACK arrival time per position (index = position), from
/// the exact arrival recurrence over the *static* topology: each relay
/// serializes its ACK first, then its child sends in order. Degraded or
/// failed paths make the real ACK later than predicted — which is
/// exactly what trips the timer.
fn predict_etas(
    topo: &Topology,
    tree: &BroadcastTree,
    object_bytes: u64,
    ack_bytes: u64,
) -> Vec<SimTime> {
    let n = tree.len() as u64;
    let root = tree.root();
    let mut arrival = vec![SimTime::ZERO; n as usize + 1];
    let mut eta = vec![SimTime::ZERO; n as usize + 1];
    for pos in 1..=n {
        let s = tree.station_at(pos).expect("position exists");
        let mut uplink_free = arrival[pos as usize];
        if pos != 1 {
            let to_root = topo.path(s, root);
            uplink_free += SimTime::transfer(ack_bytes, to_root.bandwidth);
            eta[pos as usize] = uplink_free + to_root.latency;
        }
        for child in tree.children_of(pos) {
            let dst = tree.station_at(child).expect("child exists");
            let p = topo.path(s, dst);
            uplink_free += SimTime::transfer(object_bytes, p.bandwidth);
            arrival[child as usize] = uplink_free + p.latency;
        }
    }
    eta
}

/// True if `have` is a copy acquired after the station's latest crash
/// (crashes wipe whatever was held before them).
fn holds_live_copy(have: Option<SimTime>, last_crash: Option<SimTime>) -> bool {
    have.is_some_and(|t| last_crash.is_none_or(|c| c < t))
}

/// Broadcast `object_bytes` down `tree` with root supervision. With no
/// fault schedule on `net` this performs the plain relay plus one ACK
/// per station and zero retries.
///
/// The root is assumed to stay up for the whole run (it is the lecture
/// source; if it crashes there is nothing to distribute).
///
/// # Panics
/// Panics if `policy.grace` is zero.
pub fn resilient_broadcast(
    net: &mut Network<Packet>,
    tree: &BroadcastTree,
    object_bytes: u64,
    policy: RetryPolicy,
) -> ResilientReport {
    assert!(
        policy.grace > SimTime::ZERO,
        "grace must be positive: a healthy ACK would tie with its timer"
    );
    let n = tree.len() as u64;
    let root = tree.root();
    let etas = predict_etas(net.topology(), tree, object_bytes, policy.ack_bytes);
    // Clone the handle so the run closure (which borrows `net` mutably)
    // can record without fighting the borrow checker.
    let m = net.metrics().clone();

    // Root-side supervision state (indexed by position).
    let mut acked = vec![false; n as usize + 1];
    let mut arrivals: BTreeMap<u32, SimTime> = BTreeMap::new();
    let mut reparented: BTreeSet<u32> = BTreeSet::new();
    // Station-side state (indexed by position): when the station last
    // acquired the object.
    let mut have_data: Vec<Option<SimTime>> = vec![None; n as usize + 1];
    let mut retries = 0u64;
    let mut accepted = 0u64;
    let mut duplicates = 0u64;
    let mut control_bytes = 0u64;
    let mut arrival_h = obs::Histogram::new(obs::buckets::TIME_US);
    let mut backoff_h = obs::Histogram::new(obs::buckets::TIME_US);

    // Kick off: root relays to its children and arms one timer per
    // supervised position.
    for child in tree.children_of(1) {
        let dst = tree.station_at(child).expect("child exists");
        net.send(
            root,
            dst,
            object_bytes,
            Packet::Data {
                position: child,
                from_pos: 1,
            },
        );
    }
    for pos in 2..=n {
        net.schedule(
            root,
            etas[pos as usize] + policy.grace,
            Packet::Timeout {
                position: pos,
                attempt: 1,
            },
        );
    }

    net.run(|net, msg| match msg.payload {
        Packet::Data { position, from_pos } => {
            let station = msg.dst;
            let now = net.now();
            let live = holds_live_copy(have_data[position as usize], net.last_crash(station));
            if live {
                duplicates += 1;
            } else {
                have_data[position as usize] = Some(now);
                accepted += 1;
            }
            // ACK in both cases — a duplicate usually means the first
            // ACK (or the root's view of it) was lost. Report the time
            // the station actually obtained its live copy.
            let held_since = have_data[position as usize].unwrap_or(now);
            control_bytes += policy.ack_bytes;
            net.send(
                station,
                root,
                policy.ack_bytes,
                Packet::Ack {
                    position,
                    via: from_pos,
                    arrived: held_since,
                },
            );
            if !live {
                for child in tree.children_of(position) {
                    let dst = tree.station_at(child).expect("child exists");
                    net.send(
                        station,
                        dst,
                        object_bytes,
                        Packet::Data {
                            position: child,
                            from_pos: position,
                        },
                    );
                }
            }
        }
        Packet::Ack {
            position,
            via,
            arrived,
        } => {
            if !acked[position as usize] {
                acked[position as usize] = true;
                let sid = tree.station_at(position).expect("position exists");
                arrivals.insert(sid.0, arrived);
                arrival_h.record(arrived.as_micros());
                if tree.parent_of(position) != Some(via) {
                    reparented.insert(sid.0);
                    // "station sid now relayed via tree position via"
                    m.trace_pair(
                        net.now().as_micros(),
                        "dist.broadcast.reparent",
                        sid.0.into(),
                        via,
                    );
                }
            }
        }
        Packet::SendData { target, relay } => {
            // A relay asked to serve `target` from its copy. If the
            // relay lost its copy (crash epoch), it ignores the request
            // and the root's timer escalates on the next attempt.
            let station = msg.dst;
            if holds_live_copy(have_data[relay as usize], net.last_crash(station)) {
                let dst = tree.station_at(target).expect("position exists");
                net.send(
                    station,
                    dst,
                    object_bytes,
                    Packet::Data {
                        position: target,
                        from_pos: relay,
                    },
                );
            }
        }
        Packet::Timeout { position, attempt } => {
            if acked[position as usize] || attempt > policy.max_retries {
                // Lazy cancellation / give up (position stays un-ACKed
                // and is reported unreachable).
                return;
            }
            retries += 1;
            let target = tree.station_at(position).expect("position exists");
            // First retry: delegate to the nearest ACKed ancestor (the
            // re-parenting walk). Later retries: the root serves the
            // object itself.
            let sender_pos = if attempt == 1 {
                repair_parent(tree, position, |a| acked[a as usize])
            } else {
                1
            };
            let deadline_base = if sender_pos == 1 {
                // The root's own uplink queue is known exactly.
                net.send(
                    root,
                    target,
                    object_bytes,
                    Packet::Data {
                        position,
                        from_pos: 1,
                    },
                )
            } else {
                let sender = tree.station_at(sender_pos).expect("position exists");
                control_bytes += policy.ctrl_bytes;
                net.send(
                    root,
                    sender,
                    policy.ctrl_bytes,
                    Packet::SendData {
                        target: position,
                        relay: sender_pos,
                    },
                );
                let ctrl_leg = leg(net.topology().path(root, sender), policy.ctrl_bytes);
                let data_leg = leg(net.topology().path(sender, target), object_bytes);
                net.now() + ctrl_leg + data_leg
            };
            let ack_leg = leg(net.topology().path(target, root), policy.ack_bytes);
            let backoff = SimTime::from_micros(
                policy
                    .grace
                    .as_micros()
                    .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX)),
            );
            backoff_h.record(backoff.as_micros());
            net.schedule(
                root,
                deadline_base + ack_leg + backoff,
                Packet::Timeout {
                    position,
                    attempt: attempt + 1,
                },
            );
        }
    });

    let unreachable: Vec<u32> = (2..=n)
        .filter(|&p| !acked[p as usize])
        .map(|p| tree.station_at(p).expect("position exists").0)
        .collect();
    let completion = arrivals.values().copied().max().unwrap_or(SimTime::ZERO);

    // One registry write per metric for the whole run; `add`/`merge`
    // semantics so several runs sharing one registry accumulate.
    m.add("dist.broadcast.accepted", accepted);
    m.add("dist.broadcast.duplicates", duplicates);
    m.add("dist.broadcast.acked", arrivals.len() as u64);
    m.add("dist.broadcast.retries", retries);
    m.add("dist.broadcast.reparented", reparented.len() as u64);
    m.add("dist.broadcast.unreachable", unreachable.len() as u64);
    m.add("dist.broadcast.control_bytes", control_bytes);
    m.merge_histogram("dist.broadcast.arrival_us", &arrival_h);
    m.merge_histogram("dist.broadcast.backoff_us", &backoff_h);
    m.gauge_set(
        "dist.broadcast.completion_us",
        completion.as_micros() as i64,
    );
    net.flush_metrics();
    let max_station_tx = tree
        .broadcast_vector()
        .iter()
        .map(|&s| net.station_stats(s).tx_bytes)
        .max()
        .unwrap_or(0);
    ResilientReport {
        report: BroadcastReport {
            completion,
            arrivals,
            total_bytes: net.total_bytes(),
            max_station_tx,
            height: tree.height(),
        },
        retries,
        reparented: reparented.into_iter().collect(),
        unreachable,
        accepted,
        duplicates,
        dropped_msgs: net.dropped_msgs(),
        control_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Fault, FaultSchedule, StationId};

    const MB: u64 = 1_000_000;

    fn lan() -> LinkSpec {
        LinkSpec::new(MB, SimTime::ZERO) // 1 MB/s, no latency: clean math
    }

    fn run(
        n: usize,
        m: u64,
        schedule: Option<FaultSchedule>,
    ) -> (ResilientReport, Network<Packet>) {
        let (mut net, ids) = Network::uniform(n, lan());
        if let Some(s) = schedule {
            net.set_faults(s);
        }
        let tree = BroadcastTree::new(ids, m);
        let r = resilient_broadcast(&mut net, &tree, MB, RetryPolicy::default());
        (r, net)
    }

    #[test]
    fn healthy_run_has_zero_failure_overhead() {
        for m in [1u64, 2, 3] {
            let (r, net) = run(10, m, None);
            assert_eq!(r.retries, 0, "m={m}");
            assert_eq!(r.report.arrivals.len(), 9);
            assert!(r.reparented.is_empty());
            assert!(r.unreachable.is_empty());
            assert_eq!(r.accepted, 9);
            assert_eq!(r.duplicates, 0);
            assert_eq!(r.dropped_msgs, 0);
            assert_eq!(r.control_bytes, 9 * 64, "one ACK per station");
            assert_eq!(net.dropped_msgs(), 0);
        }
    }

    #[test]
    fn healthy_arrivals_match_plain_broadcast_order() {
        // With ACK serialization preceding child sends, every child is
        // delayed by exactly one ACK slot per relay hop relative to the
        // plain broadcast; depth-1 stations (root children) match it.
        let (r, _) = run(7, 2, None);
        let plain = crate::broadcast::broadcast_uniform(7, 2, MB, lan());
        assert_eq!(r.report.arrivals[&1], plain.arrivals[&1]); // pos 2
        assert_eq!(r.report.arrivals[&2], plain.arrivals[&2]); // pos 3
        let ack_slot = SimTime::transfer(64, MB).as_micros();
        for sid in 3..=6u32 {
            let depth_delay =
                r.report.arrivals[&sid].as_micros() - plain.arrivals[&sid].as_micros();
            assert_eq!(depth_delay, ack_slot, "station {sid}");
        }
    }

    /// The acceptance scenario, verified against a hand-computed event
    /// trace: N=7, m=2, uniform 1 MB/s zero-latency links, 1 MB object,
    /// station 1 (position 2) crashed from t=0.
    ///
    /// Expected: position 2 burns the initial send plus 4 root retries
    /// and ends unreachable; its children (positions 4 and 5) each need
    /// one root retry (their formula-ancestor 2 never ACKed) and end
    /// re-parented to the root.
    #[test]
    fn single_relay_crash_hand_computed_trace() {
        let schedule = FaultSchedule::new().at(
            SimTime::ZERO,
            Fault::Crash {
                station: StationId(1),
            },
        );
        let (r, net) = run(7, 2, Some(schedule));

        assert_eq!(r.retries, 6, "4 for pos 2, 1 each for pos 4 and 5");
        assert_eq!(r.reparented, vec![3, 4], "positions 4 and 5 → root");
        assert_eq!(r.unreachable, vec![1]);
        assert_eq!(r.accepted, 5);
        assert_eq!(r.duplicates, 0);
        assert_eq!(r.dropped_msgs, 5, "initial send + 4 retries to s1");
        assert_eq!(r.control_bytes, 5 * 64, "five ACKs, no SendData");

        let secs = SimTime::from_secs;
        let expected: BTreeMap<u32, SimTime> = [
            (2, secs(2)),                         // pos 3, initial relay
            (3, secs(4)),                         // pos 4, root retry
            (4, secs(5)),                         // pos 5, root retry
            (5, SimTime::from_micros(3_000_064)), // pos 6, via pos 3
            (6, SimTime::from_micros(4_000_064)), // pos 7, via pos 3
        ]
        .into();
        assert_eq!(r.report.arrivals, expected);
        assert_eq!(r.report.completion, secs(5));
        assert_eq!(
            net.station_stats(StationId(0)).tx_bytes,
            8 * MB,
            "root: 2 initial + 6 retry object sends"
        );
        // Last give-up timer for pos 2: retry 4 lands (dropped) at
        // 8.600128 s, plus the 64 µs ack leg and 16× backoff.
        assert_eq!(net.now(), SimTime::from_micros(9_400_192));
    }

    #[test]
    fn transient_partition_repaired_by_parent_not_root() {
        // Cut pos2→pos5 (s1→s4) during the initial relay, heal it
        // before the first retry: the retry is delegated to the formula
        // parent itself (it ACKed), so the station is delivered without
        // re-parenting and the object never crosses the root again.
        let schedule = FaultSchedule::new()
            .at(
                SimTime::from_millis(500),
                Fault::Partition {
                    src: StationId(1),
                    dst: StationId(4),
                },
            )
            .at(
                SimTime::from_secs(3),
                Fault::Heal {
                    src: StationId(1),
                    dst: StationId(4),
                },
            );
        let (r, net) = run(7, 2, Some(schedule));
        assert_eq!(r.retries, 1);
        assert!(r.reparented.is_empty(), "served by the formula parent");
        assert!(r.unreachable.is_empty());
        assert_eq!(r.report.arrivals.len(), 6);
        assert_eq!(r.duplicates, 0);
        assert_eq!(r.dropped_msgs, 1, "only the cut in-flight copy");
        assert_eq!(r.control_bytes, 6 * 64 + 32, "six ACKs + one SendData");
        // The root never re-sent the object: 2 initial children only.
        assert_eq!(net.station_stats(StationId(0)).tx_bytes, 2 * MB + 32);
    }

    /// Satellite of the observability layer: every counter-shaped
    /// [`ResilientReport`] field has a registry twin of equal value —
    /// in a healthy run and in the hand-computed crash scenario.
    #[test]
    fn registry_counters_match_report_fields() {
        let schedule = FaultSchedule::new().at(
            SimTime::ZERO,
            Fault::Crash {
                station: StationId(1),
            },
        );
        for sched in [None, Some(schedule)] {
            let (r, net) = run(7, 2, sched);
            let snap = net.metrics().snapshot();
            assert_eq!(snap.counter("dist.broadcast.accepted"), r.accepted);
            assert_eq!(snap.counter("dist.broadcast.duplicates"), r.duplicates);
            assert_eq!(snap.counter("dist.broadcast.retries"), r.retries);
            assert_eq!(
                snap.counter("dist.broadcast.reparented"),
                r.reparented.len() as u64
            );
            assert_eq!(
                snap.counter("dist.broadcast.unreachable"),
                r.unreachable.len() as u64
            );
            assert_eq!(
                snap.counter("dist.broadcast.control_bytes"),
                r.control_bytes
            );
            assert_eq!(
                snap.counter("dist.broadcast.acked"),
                r.report.arrivals.len() as u64
            );
            assert_eq!(snap.counter("netsim.drop.msgs"), r.dropped_msgs);
            assert_eq!(
                snap.gauge("dist.broadcast.completion_us"),
                Some(r.report.completion.as_micros() as i64)
            );
            let arrivals = snap.histogram("dist.broadcast.arrival_us").unwrap();
            assert_eq!(arrivals.count(), r.report.arrivals.len() as u64);
        }
    }

    #[test]
    #[should_panic(expected = "grace must be positive")]
    fn grace_must_be_positive() {
        let (mut net, ids) = Network::uniform(2, lan());
        let tree = BroadcastTree::new(ids, 1);
        let policy = RetryPolicy {
            grace: SimTime::ZERO,
            ..RetryPolicy::default()
        };
        resilient_broadcast(&mut net, &tree, MB, policy);
    }

    #[test]
    fn repair_parent_walks_to_first_viable_ancestor() {
        let ids: Vec<_> = (0..40).map(StationId).collect();
        let tree = BroadcastTree::new(ids, 2);
        // Ancestors of 40: 20, 10, 5, 2, 1.
        assert_eq!(repair_parent(&tree, 40, |_| true), 20);
        assert_eq!(repair_parent(&tree, 40, |a| a != 20), 10);
        assert_eq!(repair_parent(&tree, 40, |a| a == 5), 5);
        assert_eq!(repair_parent(&tree, 40, |_| false), 1, "root by default");
        assert_eq!(repair_parent(&tree, 2, |_| false), 1);
    }
}
