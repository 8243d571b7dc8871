//! Pre-broadcast of course material down the m-ary tree (§4).
//!
//! "In a Web document system which utilizes a distance learning system,
//! an instructor can broadcast lectures to student workstations.
//! Essentially, the broadcast process is a multi-casting activity. With
//! the appropriate selection of m, the propagation of physical data can
//! be proceeded in an efficient manner, starting from the instructor
//! station as the root of the m-ary tree."
//!
//! [`broadcast`] runs the relay over the network simulator: each
//! station, on receiving the object, forwards it to its tree children
//! in broadcast-vector order (repeated unicast — exactly what a 1999
//! deployment without IP multicast does). [`unicast_star`] is the
//! baseline where the root sends to every station itself.

use crate::tree::BroadcastTree;
use bytes::Bytes;
use netsim::{Message, NetCtx, Network, ParNet, SimTime, StationId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[cfg(doc)]
use blobstore::MediaKind;

/// Outcome of one broadcast run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BroadcastReport {
    /// When the last station finished receiving.
    pub completion: SimTime,
    /// Arrival time per station (the root is implicit at t=0).
    pub arrivals: BTreeMap<u32, SimTime>,
    /// Total bytes moved across the network.
    pub total_bytes: u64,
    /// Bytes sent by the busiest station (the root for a star; any
    /// relay for a tree).
    pub max_station_tx: u64,
    /// Tree height used (0 for a star).
    pub height: u64,
}

impl BroadcastReport {
    /// Mean arrival time across receivers.
    #[must_use]
    pub fn mean_arrival(&self) -> SimTime {
        if self.arrivals.is_empty() {
            return SimTime::ZERO;
        }
        let sum: u64 = self.arrivals.values().map(|t| t.as_micros()).sum();
        SimTime::from_micros(sum / self.arrivals.len() as u64)
    }
}

/// Payload carried by relay messages: the tree position of the
/// receiving station.
#[derive(Debug, Clone, Copy)]
pub struct Relay {
    /// 1-based position of the receiver in the broadcast tree.
    pub position: u64,
}

/// The store-and-forward relay, written once for every engine: the
/// station at tree position `pos` holds the object and forwards it to
/// its tree children in broadcast-vector order. With a `body` the one
/// refcounted buffer travels on ([`netsim::Message::body`]); without,
/// only the byte count does.
fn relay<C: NetCtx<Relay>>(
    net: &mut C,
    tree: &BroadcastTree,
    pos: u64,
    bytes: u64,
    body: Option<&Bytes>,
) {
    let src = tree.station_at(pos).expect("position exists");
    for child in tree.children_of(pos) {
        let dst = tree.station_at(child).expect("child exists");
        match body {
            Some(b) => net.send_body(src, dst, Relay { position: child }, b.clone()),
            None => net.send(src, dst, bytes, Relay { position: child }),
        };
    }
}

/// What a station does on receiving the object: note the arrival, relay
/// on. Purely station-local, which is what lets the parallel engine run
/// it with no shared state.
fn on_arrival<C: NetCtx<Relay>>(
    net: &mut C,
    tree: &BroadcastTree,
    arrivals: &mut BTreeMap<u32, SimTime>,
    msg: Message<Relay>,
) {
    arrivals.insert(msg.dst.0, net.now());
    let pos = msg.payload.position;
    relay(net, tree, pos, msg.bytes, msg.body.as_ref());
}

/// The report of a finished tree broadcast, from the engine's totals.
fn tree_report(
    tree: &BroadcastTree,
    arrivals: BTreeMap<u32, SimTime>,
    completion: SimTime,
    total_bytes: u64,
    tx_bytes: impl Fn(StationId) -> u64,
) -> BroadcastReport {
    BroadcastReport {
        completion,
        total_bytes,
        max_station_tx: tree
            .broadcast_vector()
            .iter()
            .map(|&s| tx_bytes(s))
            .max()
            .unwrap_or(0),
        height: tree.height(),
        arrivals,
    }
}

fn broadcast_seq(
    net: &mut Network<Relay>,
    tree: &BroadcastTree,
    bytes: u64,
    body: Option<&Bytes>,
) -> BroadcastReport {
    let mut arrivals = BTreeMap::new();
    // Root "has" the object; kick off sends to its children.
    relay(net, tree, 1, bytes, body);
    net.run(|net, msg| on_arrival(net, tree, &mut arrivals, msg));
    net.flush_metrics();
    let (completion, total) = (net.last_delivery(), net.total_bytes());
    tree_report(tree, arrivals, completion, total, |s| {
        net.station_stats(s).tx_bytes
    })
}

/// Broadcast `object_bytes` from the tree root to every station by
/// store-and-forward relay along the tree.
pub fn broadcast(
    net: &mut Network<Relay>,
    tree: &BroadcastTree,
    object_bytes: u64,
) -> BroadcastReport {
    broadcast_seq(net, tree, object_bytes, None)
}

/// Broadcast an actual object *body* (not just a byte count) down the
/// tree. Timing, byte accounting and the report are identical to
/// [`broadcast`] for `object_bytes == body.len()`; what changes is
/// memory traffic: every relay hop forwards the one refcounted buffer
/// ([`netsim::Message::body`]), so an m-ary fan-out to N stations
/// performs zero payload copies.
pub fn broadcast_object(
    net: &mut Network<Relay>,
    tree: &BroadcastTree,
    body: &Bytes,
) -> BroadcastReport {
    broadcast_seq(net, tree, body.len() as u64, Some(body))
}

/// [`broadcast`] on the island-parallel engine: the same relay, with
/// each island's deliveries handled on its own worker thread. The
/// report and the obs snapshot are byte-identical to the sequential
/// [`broadcast`] for every island count and thread count.
pub fn broadcast_par(
    net: &mut ParNet<Relay>,
    tree: &BroadcastTree,
    object_bytes: u64,
    threads: usize,
) -> BroadcastReport {
    relay(net, tree, 1, object_bytes, None);
    let per_island = vec![BTreeMap::new(); net.islands()];
    let per_island = net.run(threads, per_island, |ctx, arrivals, msg| {
        on_arrival(ctx, tree, arrivals, msg);
    });
    net.flush_metrics();
    // Each station is delivered on exactly one island: the per-island
    // maps have disjoint key sets and fold into the same BTreeMap the
    // sequential run builds.
    let arrivals = per_island.into_iter().flatten().collect();
    let (completion, total) = (net.last_delivery(), net.total_bytes());
    tree_report(tree, arrivals, completion, total, |s| {
        net.station_stats(s).tx_bytes
    })
}

/// Baseline: the root unicasts the object to every other station
/// directly (no relaying).
pub fn unicast_star(
    net: &mut Network<Relay>,
    root: StationId,
    receivers: &[StationId],
    object_bytes: u64,
) -> BroadcastReport {
    let mut arrivals = BTreeMap::new();
    for (idx, &dst) in receivers.iter().enumerate() {
        net.send(
            root,
            dst,
            object_bytes,
            Relay {
                position: idx as u64 + 2,
            },
        );
    }
    net.run(|net, msg| {
        arrivals.insert(msg.dst.0, net.now());
    });
    let max_station_tx = net.station_stats(root).tx_bytes;
    BroadcastReport {
        completion: net.last_delivery(),
        total_bytes: net.total_bytes(),
        max_station_tx,
        height: 0,
        arrivals,
    }
}

/// Convenience: run a tree broadcast on a fresh uniform network.
#[must_use]
pub fn broadcast_uniform(
    n: usize,
    m: u64,
    object_bytes: u64,
    uplink: netsim::LinkSpec,
) -> BroadcastReport {
    let (mut net, ids) = Network::uniform(n, uplink);
    let tree = BroadcastTree::new(ids, m);
    broadcast(&mut net, &tree, object_bytes)
}

/// Convenience: run the star baseline on a fresh uniform network.
#[must_use]
pub fn star_uniform(n: usize, object_bytes: u64, uplink: netsim::LinkSpec) -> BroadcastReport {
    let (mut net, ids) = Network::uniform(n, uplink);
    unicast_star(&mut net, ids[0], &ids[1..], object_bytes)
}

/// One object of a course pre-broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CourseObject {
    /// Media kind (selects the fan-out when broadcasting per kind).
    pub kind: blobstore::MediaKind,
    /// Size on the wire.
    pub bytes: u64,
}

/// Relay payload for a mixed-course broadcast.
#[derive(Debug, Clone, Copy)]
pub struct CourseRelay {
    object: usize,
    position: u64,
}

/// Outcome of a whole-course pre-broadcast.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CourseBroadcastReport {
    /// When the last byte of the last object landed anywhere.
    pub completion: SimTime,
    /// Completion per media kind (when that kind was everywhere).
    pub per_kind: BTreeMap<String, SimTime>,
    /// Total bytes moved.
    pub total_bytes: u64,
}

/// Pre-broadcast a whole course — many objects of different media
/// kinds — from `stations[0]` to everyone. Each object travels down
/// the tree whose fan-out `choose_m` returns for its kind ("the system
/// maintains the sizes of m's … for different types of multimedia
/// data", §4); pass a constant closure for the single-tree baseline.
pub fn broadcast_course(
    net: &mut Network<CourseRelay>,
    stations: &[StationId],
    objects: &[CourseObject],
    mut choose_m: impl FnMut(blobstore::MediaKind) -> u64,
) -> CourseBroadcastReport {
    let trees: Vec<BroadcastTree> = objects
        .iter()
        .map(|o| BroadcastTree::new(stations.to_vec(), choose_m(o.kind)))
        .collect();
    // Kick off every object from the root; the shared root uplink
    // serializes them in order.
    for (oi, _) in objects.iter().enumerate() {
        relay_children(net, &trees[oi], objects, oi, 1);
    }
    // Delivery times only grow, so an object's last one is its latest.
    let mut last = vec![None; objects.len()];
    net.run(|net, msg| {
        let CourseRelay { object, position } = msg.payload;
        last[object] = Some(net.now());
        relay_children(net, &trees[object], objects, object, position);
    });
    let mut per_kind: BTreeMap<String, SimTime> = BTreeMap::new();
    for (o, t) in objects.iter().zip(last).filter_map(|(o, t)| Some((o, t?))) {
        let latest = per_kind.entry(o.kind.label().to_owned()).or_insert(t);
        *latest = (*latest).max(t);
    }
    CourseBroadcastReport {
        completion: net.last_delivery(),
        per_kind,
        total_bytes: net.total_bytes(),
    }
}

fn relay_children(
    net: &mut Network<CourseRelay>,
    tree: &BroadcastTree,
    objects: &[CourseObject],
    object: usize,
    position: u64,
) {
    let src = tree.station_at(position).expect("position exists");
    for child in tree.children_of(position) {
        let dst = tree.station_at(child).expect("child exists");
        net.send(
            src,
            dst,
            objects[object].bytes,
            CourseRelay {
                object,
                position: child,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::LinkSpec;

    const MB: u64 = 1_000_000;

    fn lan() -> LinkSpec {
        LinkSpec::new(MB, SimTime::ZERO) // 1 MB/s, no latency: clean math
    }

    // Parallel runs need nonzero latency: the cross-island lookahead is
    // derived from the slowest link, and a zero-latency topology has no
    // safe window to run islands independently in.
    fn wan() -> LinkSpec {
        LinkSpec::new(MB, SimTime::from_millis(3))
    }

    #[test]
    fn parallel_broadcast_matches_sequential() {
        for (n, m) in [(2usize, 1u64), (17, 2), (50, 3), (64, 8)] {
            let seq = broadcast_uniform(n, m, 123_457, wan());
            for (islands, threads) in [(1usize, 1usize), (3, 2), (8, 4)] {
                let (mut net, ids) = ParNet::uniform(n, wan(), islands);
                let par = broadcast_par(&mut net, &BroadcastTree::new(ids, m), 123_457, threads);
                assert_eq!(seq, par, "n={n} m={m} islands={islands} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_broadcast_matches_sequential_metrics() {
        let n = 40;
        let (mut snet, ids) = Network::uniform(n, wan());
        let tree = BroadcastTree::new(ids, 4);
        broadcast(&mut snet, &tree, 77_000);
        let seq_snap = snet.metrics().snapshot().to_json();

        let (mut pnet, ids) = ParNet::uniform(n, wan(), 5);
        let tree = BroadcastTree::new(ids, 4);
        broadcast_par(&mut pnet, &tree, 77_000, 3);
        let par_snap = pnet.metrics().snapshot().to_json();

        assert_eq!(seq_snap, par_snap, "obs snapshots must be byte-identical");
    }

    #[test]
    fn single_receiver_chain_equals_star() {
        let t = broadcast_uniform(2, 1, MB, lan());
        let s = star_uniform(2, MB, lan());
        assert_eq!(t.completion, s.completion);
        assert_eq!(t.completion, SimTime::from_secs(1));
    }

    #[test]
    fn every_station_receives_exactly_once() {
        for m in [1u64, 2, 3, 4, 8] {
            let r = broadcast_uniform(50, m, 1000, lan());
            assert_eq!(r.arrivals.len(), 49, "m={m}");
            assert_eq!(r.total_bytes, 49 * 1000, "no redundant transfers");
        }
    }

    #[test]
    fn tree_beats_star_at_scale() {
        let n = 64;
        let star = star_uniform(n, MB, lan());
        let tern = broadcast_uniform(n, 3, MB, lan());
        // Star: root serializes 63 sends = 63 s. Tree: ~m·⌈log_m N⌉ s.
        assert_eq!(star.completion, SimTime::from_secs(63));
        assert!(
            tern.completion.as_secs_f64() < star.completion.as_secs_f64() / 4.0,
            "ternary {} vs star {}",
            tern.completion,
            star.completion
        );
    }

    #[test]
    fn chain_is_the_slowest_tree() {
        let n = 32;
        let chain = broadcast_uniform(n, 1, MB, lan());
        for m in [2u64, 3, 4] {
            let r = broadcast_uniform(n, m, MB, lan());
            assert!(r.completion < chain.completion, "m={m}");
        }
        // The chain needs N-1 sequential hops.
        assert_eq!(chain.completion, SimTime::from_secs(31));
    }

    #[test]
    fn star_concentrates_load_on_root_tree_spreads_it() {
        let n = 64;
        let star = star_uniform(n, MB, lan());
        let tree = broadcast_uniform(n, 2, MB, lan());
        assert_eq!(star.max_station_tx, 63 * MB);
        assert_eq!(tree.max_station_tx, 2 * MB);
    }

    #[test]
    fn arrivals_monotone_in_depth() {
        let (mut net, ids) = Network::uniform(31, lan());
        let tree = BroadcastTree::new(ids.clone(), 2);
        let r = broadcast(&mut net, &tree, 1000);
        for pos in 2..=31u64 {
            let parent = tree.parent_of(pos).unwrap();
            if parent == 1 {
                continue;
            }
            let at = r.arrivals[&tree.station_at(pos).unwrap().0];
            let pat = r.arrivals[&tree.station_at(parent).unwrap().0];
            assert!(at > pat, "child {pos} arrived before its parent");
        }
    }

    #[test]
    fn latency_accumulates_with_depth() {
        let spec = LinkSpec::new(MB, SimTime::from_millis(100));
        let chain = {
            let (mut net, ids) = Network::uniform(4, spec);
            let tree = BroadcastTree::new(ids, 1);
            broadcast(&mut net, &tree, 0) // zero bytes: pure latency
        };
        assert_eq!(chain.completion, SimTime::from_millis(300));
    }

    #[test]
    fn mean_arrival_reasonable() {
        let r = broadcast_uniform(8, 2, MB, lan());
        assert!(r.mean_arrival() <= r.completion);
        assert!(r.mean_arrival() > SimTime::ZERO);
    }

    #[test]
    fn object_broadcast_matches_byte_count_broadcast() {
        // Same tree, same size: carrying a real body must not change
        // timing, accounting or arrival order.
        let n = 32;
        let (mut net, ids) = Network::uniform(n, lan());
        let tree = BroadcastTree::new(ids, 3);
        let body = Bytes::from(vec![0xAB; MB as usize]);
        let r = broadcast_object(&mut net, &tree, &body);
        assert_eq!(r, broadcast_uniform(n, 3, MB, lan()));
    }

    #[test]
    fn object_broadcast_never_copies() {
        // Every station's delivered body is the original allocation.
        let (mut net, ids) = Network::uniform(16, lan());
        let tree = BroadcastTree::new(ids, 4);
        let body = Bytes::from(vec![1u8; 10_000]);
        let origin = body.as_ref().as_ptr();
        relay(&mut net, &tree, 1, 10_000, Some(&body));
        let mut arrivals = BTreeMap::new();
        net.run(|net, msg| {
            let b = msg.body.as_ref().expect("body");
            assert!(std::ptr::eq(b.as_ref().as_ptr(), origin));
            on_arrival(net, &tree, &mut arrivals, msg);
        });
        assert_eq!(arrivals.len(), 15);
        assert_eq!(net.total_bytes(), 15 * 10_000);
    }

    #[test]
    fn course_broadcast_delivers_everything() {
        use blobstore::MediaKind;
        let objects = vec![
            CourseObject {
                kind: MediaKind::Video,
                bytes: MB,
            },
            CourseObject {
                kind: MediaKind::Midi,
                bytes: 10_000,
            },
            CourseObject {
                kind: MediaKind::StillImage,
                bytes: 100_000,
            },
        ];
        let (mut net, ids) = Network::uniform(16, lan());
        let r = broadcast_course(&mut net, &ids, &objects, |_| 3);
        let total: u64 = objects.iter().map(|o| o.bytes).sum();
        assert_eq!(r.total_bytes, 15 * total, "every station gets every object");
        assert_eq!(r.per_kind.len(), 3);
        assert!(r.per_kind.values().all(|t| *t <= r.completion));
        assert!(r.per_kind.values().any(|t| *t == r.completion));
    }

    #[test]
    fn per_kind_trees_help_small_objects_on_latent_links() {
        use blobstore::MediaKind;
        // High-latency links: MIDI wants a wide tree, video a narrow one.
        let spec = LinkSpec::new(12_500_000, SimTime::from_millis(500));
        let objects = vec![
            CourseObject {
                kind: MediaKind::Video,
                bytes: 8 * MB,
            },
            CourseObject {
                kind: MediaKind::Midi,
                bytes: 20_000,
            },
        ];
        let run = |per_kind: bool| {
            let (mut net, ids) = Network::uniform(64, spec);
            broadcast_course(&mut net, &ids, &objects, |kind| {
                if per_kind {
                    crate::adaptive::AdaptiveController::default().m_for_media(64, kind, spec)
                } else {
                    3
                }
            })
        };
        let adaptive = run(true);
        let single = run(false);
        assert!(
            adaptive.per_kind["midi"] < single.per_kind["midi"],
            "wide tree must deliver midi sooner: {} vs {}",
            adaptive.per_kind["midi"],
            single.per_kind["midi"]
        );
    }
}
