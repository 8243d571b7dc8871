//! Deterministic failure scenarios for the self-healing broadcast.
//!
//! Each test pins an exact fault schedule against an exact topology and
//! asserts the protocol's externally visible outcome — delivery set,
//! retry counts, re-parenting, and (for the backoff ladder) the precise
//! simulated clock. Everything here is a pure function of its inputs;
//! a behavior change in the fault layer or the retry protocol shows up
//! as an exact-value diff, not a flaky threshold.
//!
//! Counter-shaped outcomes are asserted through the `dist.broadcast.*`
//! / `netsim.*` metrics registry — the export surface E15 re-derives
//! experiments from — while timing- and set-shaped outcomes (arrival
//! maps, exact clocks) stay on the [`ResilientReport`]. Scenario (a)
//! additionally keeps the report-field asserts as cross-checks, pinning
//! the registry and the report to each other.

use mmu_wdoc::dist::{resilient_broadcast, BroadcastTree, ResilientReport, RetryPolicy};
use mmu_wdoc::netsim::{Fault, FaultSchedule, LinkSpec, Network, SimTime, StationId};

const MB: u64 = 1_000_000;

/// Uniform 1 MB/s zero-latency stations: every transfer is a round
/// number of microseconds (1 µs per byte).
fn build(
    n: usize,
    m: u64,
    schedule: FaultSchedule,
) -> (Network<mmu_wdoc::dist::Packet>, BroadcastTree) {
    let (mut net, ids) = Network::uniform(n, LinkSpec::new(MB, SimTime::ZERO));
    net.set_faults(schedule);
    (net, BroadcastTree::new(ids, m))
}

fn run(
    n: usize,
    m: u64,
    schedule: FaultSchedule,
) -> (ResilientReport, Network<mmu_wdoc::dist::Packet>) {
    let (mut net, tree) = build(n, m, schedule);
    let r = resilient_broadcast(&mut net, &tree, MB, RetryPolicy::default());
    (r, net)
}

/// (a) A relay crashes mid-broadcast, after it ACKed and after its
/// first child send landed but while the second was still in flight.
///
/// N=15, m=2: station 1 (position 2) receives at 1.0 s, ACKs, relays to
/// position 4 (lands 2.000064 s) and position 5 (would land 3.000064 s).
/// The crash at 2.2 s kills the in-flight copy. The root's timer for
/// position 5 first delegates to the formula parent (position 2 — it
/// ACKed, so it looks viable), which is dead; the second attempt is
/// served by the root. The whole orphaned subtree (positions 5, 10, 11)
/// is then delivered by the normal relay rule below position 5.
#[test]
fn relay_crash_mid_broadcast_delivers_orphaned_subtree() {
    let schedule = FaultSchedule::new().at(
        SimTime::from_micros(2_200_000),
        Fault::Crash {
            station: StationId(1),
        },
    );
    let (r, net) = run(15, 2, schedule);
    let snap = net.metrics().snapshot();

    // Every survivor is delivered — including the crashed relay's
    // entire subtree.
    assert_eq!(snap.counter("dist.broadcast.acked"), 14, "all confirmed");
    // The relay itself ACKed at 1.000064 s, before dying: delivery was
    // real, so it is *not* unreachable. Supervision tracks delivery,
    // not liveness.
    assert_eq!(snap.counter("dist.broadcast.unreachable"), 0);
    assert!(r.report.arrivals.contains_key(&1));
    // Position 5 (station 4) was re-parented to the root. Its children
    // (positions 10 and 11) raced their own supervision timers while
    // the subtree was being repaired: the repaired relay's copy and the
    // root's retry copy arrive at the same instant, and the event
    // tie-break key (source station, per-source sequence) pops the
    // root's copy first — so stations 9 and 10 also re-parent.
    assert_eq!(snap.counter("dist.broadcast.reparented"), 3);
    // Six retries, two per orphaned position: each first delegates to
    // position 2 (it ACKed before dying, so it looks viable), then the
    // root serves the object itself.
    assert_eq!(snap.counter("dist.broadcast.retries"), 6);
    // The repaired relay's copies to positions 10/11 lose that race
    // and are absorbed as duplicates.
    assert_eq!(snap.counter("dist.broadcast.duplicates"), 2);
    // Dropped: the in-flight copy to position 5 + the three SendData
    // control messages delegated to the dead relay.
    assert_eq!(snap.counter("netsim.drop.msgs"), 4);

    // Cross-checks: the report — the protocol's own ledger — must agree
    // with every registry value above.
    assert_eq!(r.report.arrivals.len(), 14);
    assert!(r.unreachable.is_empty());
    assert_eq!(r.reparented, vec![4, 9, 10]);
    assert_eq!(r.retries, 6);
    assert_eq!(r.duplicates, 2);
    assert_eq!(r.dropped_msgs, 4);
    // Exact repair timing: position 5's station receives the root's
    // second-attempt copy at 5.150224 s; the last of its children
    // completes the broadcast at 7.150288 s.
    assert_eq!(r.report.arrivals[&4], SimTime::from_micros(5_150_224));
    assert_eq!(r.report.completion, SimTime::from_micros(7_150_288));
}

/// (b) The root's path to one child is partitioned in both directions
/// for the entire run: the station ends unreachable after the full
/// retry budget, everyone else is delivered, and the run terminates.
#[test]
fn root_partition_exhausts_retries_without_hanging() {
    let schedule = FaultSchedule::new()
        .at(
            SimTime::ZERO,
            Fault::Partition {
                src: StationId(0),
                dst: StationId(1),
            },
        )
        .at(
            SimTime::ZERO,
            Fault::Partition {
                src: StationId(1),
                dst: StationId(0),
            },
        );
    let (r, net) = run(4, 3, schedule);
    let snap = net.metrics().snapshot();

    assert_eq!(r.unreachable, vec![1]);
    assert_eq!(snap.counter("dist.broadcast.unreachable"), 1);
    assert_eq!(
        snap.counter("dist.broadcast.acked"),
        2,
        "stations 2 and 3 delivered"
    );
    assert_eq!(
        snap.counter("dist.broadcast.retries"),
        4,
        "full budget spent on the cut station"
    );
    assert_eq!(
        snap.counter("netsim.drop.msgs"),
        5,
        "initial send + 4 retries"
    );
    assert_eq!(snap.counter("dist.broadcast.reparented"), 0);
    // Termination with a drained queue at a finite clock — the give-up
    // timer after the 4th retry.
    assert_eq!(net.now(), SimTime::from_micros(8_500_256));
}

/// (c) Crash-then-recover: the target is down for the initial send and
/// the first retry, but recovers in time for the second retry to be
/// *sent* while it is up — that one lands and is ACKed.
#[test]
fn recovery_mid_run_lets_a_retry_succeed() {
    let schedule = FaultSchedule::new()
        .at(
            SimTime::ZERO,
            Fault::Crash {
                station: StationId(1),
            },
        )
        .at(
            SimTime::from_secs(2),
            Fault::Recover {
                station: StationId(1),
            },
        );
    let (r, net) = run(2, 1, schedule);
    let snap = net.metrics().snapshot();

    assert_eq!(snap.counter("dist.broadcast.unreachable"), 0);
    assert_eq!(
        snap.counter("dist.broadcast.retries"),
        2,
        "one wasted on the down window, one lands"
    );
    // Initial send at 0 and retry sent at 1.050064 s were both doomed
    // (receiver down at send time); the 2.150128 s retry arrives at
    // 3.150128 s.
    assert_eq!(snap.counter("netsim.drop.msgs"), 2);
    assert_eq!(snap.counter("netsim.send.doomed"), 2);
    assert_eq!(
        r.report.arrivals[&1],
        SimTime::from_micros(3_150_128),
        "exact arrival of the successful retry"
    );
    assert_eq!(snap.counter("dist.broadcast.duplicates"), 0);
}

/// (d) The exact timeout/backoff ladder, hand-computed. N=2, m=1, the
/// receiver crashed for the whole run:
///
/// ```text
/// initial send        arrives (dropped) 1.000000   timer at 1.050064
/// retry 1 (2×grace)   arrives (dropped) 2.050064   timer at 2.150128
/// retry 2 (4×grace)   arrives (dropped) 3.150128   timer at 3.350192
/// retry 3 (8×grace)   arrives (dropped) 4.350192   timer at 4.750256
/// retry 4 (16×grace)  arrives (dropped) 5.750256   timer at 6.550320
/// give-up                                          at 6.550320
/// ```
///
/// Every deadline is `data arrival + 64 µs ACK leg + grace·2^attempt`
/// with grace = 50 ms. The final clock is the give-up timer.
#[test]
fn timeout_backoff_ladder_is_exact() {
    let schedule = FaultSchedule::new().at(
        SimTime::ZERO,
        Fault::Crash {
            station: StationId(1),
        },
    );
    let (r, net) = run(2, 1, schedule);
    let snap = net.metrics().snapshot();

    assert_eq!(snap.counter("dist.broadcast.retries"), 4);
    assert_eq!(
        snap.counter("netsim.drop.msgs"),
        5,
        "initial + 4 retries, all to a dead station"
    );
    assert_eq!(r.unreachable, vec![1]);
    assert!(r.report.arrivals.is_empty());
    assert_eq!(snap.counter("dist.broadcast.accepted"), 0);
    assert_eq!(snap.gauge("dist.broadcast.completion_us"), Some(0));
    assert_eq!(net.now(), SimTime::from_micros(6_550_320));
    // 5 object copies were serialized onto the root's uplink even
    // though none was delivered — failure is not free for the sender.
    assert_eq!(snap.counter("netsim.send.bytes"), 5 * MB);
    assert_eq!(snap.counter("netsim.drop.bytes"), 5 * MB);
    assert_eq!(net.station_stats(StationId(0)).tx_bytes, 5 * MB);
}

/// (e) A station with a **durable** document database crashes mid-
/// transaction, recovers its state from the write-ahead log, and
/// rejoins the broadcast: the same crash/recover fault schedule as (c)
/// on the network side, with the database side asserting that committed
/// work survived the crash and the in-flight transaction did not.
#[test]
fn crashed_station_recovers_db_from_wal_and_rejoins_delivery() {
    use mmu_wdoc::core::dbms::DatabaseInfo;
    use mmu_wdoc::core::ids::{DbName, UserId};
    use mmu_wdoc::core::WebDocDb;
    use mmu_wdoc::relstore::Value;

    let dir = std::env::temp_dir().join(format!("wdoc-scenario-e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        WebDocDb::open_durable_logged(
            &dir,
            mmu_wdoc::wal::WalOptions::default(),
            mmu_wdoc::logstore::LogConfig::default(),
        )
        .unwrap()
    };

    // -- Before the crash: station 1 authors durably. ------------------
    {
        let (db, _) = open();
        db.create_database(&DatabaseInfo {
            name: DbName::new("mm-course"),
            keywords: vec!["multimedia".into()],
            author: UserId::new("prof-shih"),
            version: 1,
            created: 42,
        })
        .unwrap();
        // A second registration is mid-flight when the power goes out:
        // its records reach the log, its commit never does.
        let txn = db.relational().begin();
        txn.insert(
            "wdoc_database",
            vec![
                "half-course".into(),
                String::new().into(),
                "prof-shih".into(),
                Value::Int(1),
                Value::Timestamp(43),
            ],
        )
        .unwrap();
        db.wal().unwrap().flush().unwrap();
        std::mem::forget(txn); // crash: no commit, no rollback
    }

    // -- The network sees the same crash, then the recovery. -----------
    let schedule = FaultSchedule::new()
        .at(
            SimTime::ZERO,
            Fault::Crash {
                station: StationId(1),
            },
        )
        .at(
            SimTime::from_secs(2),
            Fault::Recover {
                station: StationId(1),
            },
        );
    let (r, _net) = run(2, 1, schedule);

    // -- After netsim recovery: reopen from the log. -------------------
    let (db, report) = open();
    assert_eq!(report.losers.len(), 1, "the in-flight registration");
    let names: Vec<String> = db
        .databases()
        .unwrap()
        .into_iter()
        .map(|d| d.name.to_string())
        .collect();
    assert_eq!(
        names,
        vec!["mm-course"],
        "committed rows survive, loser is gone"
    );

    // -- And the recovered station is back in the delivery set. --------
    assert!(r.unreachable.is_empty());
    assert_eq!(
        r.report.arrivals[&1],
        SimTime::from_micros(3_150_128),
        "the post-recovery retry lands exactly as in scenario (c)"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Delivery ratio arithmetic on the report.
#[test]
fn delivery_ratio_reflects_unreachable_fraction() {
    let schedule = FaultSchedule::new()
        .at(
            SimTime::ZERO,
            Fault::Partition {
                src: StationId(0),
                dst: StationId(1),
            },
        )
        .at(
            SimTime::ZERO,
            Fault::Partition {
                src: StationId(1),
                dst: StationId(0),
            },
        );
    let (r, _net) = run(4, 3, schedule);
    let ratio = r.delivery_ratio(4);
    assert!((ratio - 2.0 / 3.0).abs() < 1e-12);
    let (healthy, _net) = run(4, 3, FaultSchedule::new());
    assert!((healthy.delivery_ratio(4) - 1.0).abs() < 1e-12);
}
