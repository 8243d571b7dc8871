//! Determinism replay: the observability layer is a pure function of
//! the seed.
//!
//! The `obs` contract (DESIGN.md §Observability) says every metric and
//! trace event produced by the simulated stack (`netsim.*`, `dist.*`)
//! is timestamped in [`SimTime`] and derived only from simulation
//! state — never from wall clocks, iteration order of hash maps, or
//! allocator addresses. The consequence under test here: running the
//! same faulty-broadcast sweep twice under the same seed must yield
//! **byte-identical** JSON snapshots, and a different seed must not.
//!
//! This is the layer's load-bearing property — E15 re-derives headline
//! experiment numbers from these snapshots, and a silent wall-clock or
//! ordering dependency would make those re-derivations flaky instead
//! of exact.

use mmu_wdoc::core::WebDocDb;
use mmu_wdoc::dist::{resilient_broadcast, BroadcastTree, RetryPolicy};
use mmu_wdoc::netsim::{Fault, FaultSchedule, LinkSpec, Network, SimTime, StationId};
use mmu_wdoc::obs::Registry;
use mmu_wdoc::relstore::{AnyEngine, ColumnType, EngineKind, Predicate, TableSchema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 32;
const OBJECT: u64 = 2_000_000;

/// Seeded crash schedule over `n` stations, the E13 shape: each
/// non-root station crashes with probability `p` at a uniform time
/// within the healthy-case completion horizon.
fn crash_schedule(n: usize, p: f64, horizon_us: u64, seed: u64) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedule = FaultSchedule::new();
    for sid in 1..n as u32 {
        if rng.gen_bool(p) {
            let at = SimTime::from_micros(rng.gen_range(0..=horizon_us));
            schedule.push(
                at,
                Fault::Crash {
                    station: StationId(sid),
                },
            );
        }
    }
    schedule
}

/// Run the full E13-style sweep (four fault/fan-out cells) against one
/// shared registry and export it — the exact artifact E15b consumes.
fn sweep_snapshot_json(seed: u64) -> String {
    let link = LinkSpec::new(1_000_000, SimTime::from_millis(10));
    let registry = Registry::new();
    for (i, &(p, m)) in [(0.0f64, 2u64), (0.05, 4), (0.15, 2), (0.3, 4)]
        .iter()
        .enumerate()
    {
        let (mut net, ids) = Network::uniform(N, link);
        net.set_metrics(registry.clone());
        let horizon = mmu_wdoc::dist::predict_completion(N as u64, m, OBJECT, link).as_micros();
        net.set_faults(crash_schedule(
            N,
            p,
            horizon,
            seed.wrapping_add(i as u64 * 7919),
        ));
        let tree = BroadcastTree::new(ids, m);
        let r = resilient_broadcast(&mut net, &tree, OBJECT, RetryPolicy::default());
        std::hint::black_box(r);
    }
    registry.snapshot().to_json()
}

#[test]
fn same_seed_replays_to_byte_identical_snapshots() {
    let a = sweep_snapshot_json(1999);
    let b = sweep_snapshot_json(1999);
    assert!(
        a == b,
        "same seed must replay byte-for-byte; first divergence at byte {}",
        a.bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()))
    );
    // The run actually exercised the instrumented paths — a trivially
    // empty snapshot would make the equality above vacuous.
    assert!(a.contains("dist.broadcast.acked"), "dist counters present");
    assert!(
        a.contains("netsim.deliver.bytes"),
        "netsim counters present"
    );
    assert!(a.contains("netsim.fault.crash"), "fault traces present");
}

/// `dist` relays a byte count and a real body through one function;
/// carrying the body is pure mechanism, so the obs stream of an object
/// broadcast is the byte-count broadcast's, byte for byte.
#[test]
fn object_broadcast_exports_the_byte_count_snapshot() {
    let run = |with_body: bool| {
        let link = LinkSpec::new(1_000_000, SimTime::from_millis(10));
        let (mut net, ids) = Network::uniform(N, link);
        net.set_faults(crash_schedule(N, 0.2, 3_000_000, 1999));
        let tree = BroadcastTree::new(ids, 3);
        let report = if with_body {
            let body = mmu_wdoc::netsim::Bytes::from(vec![7u8; 300_000]);
            mmu_wdoc::dist::broadcast_object(&mut net, &tree, &body)
        } else {
            mmu_wdoc::dist::broadcast(&mut net, &tree, 300_000)
        };
        (report, net.metrics().snapshot().to_json())
    };
    let (by_count, by_body) = (run(false), run(true));
    assert!(by_count.0.arrivals.len() < N - 1, "faults in the loop");
    assert_eq!(by_count, by_body);
}

#[test]
fn different_seed_diverges() {
    let a = sweep_snapshot_json(1999);
    let b = sweep_snapshot_json(2000);
    assert_ne!(
        a, b,
        "a different fault seed must produce a different trace/metric stream"
    );
}

// ---------------------------------------------------------------------
// Storage-engine dimension (PR 6): the replay property is engine-kind
// aware, and the delivery layer cannot tell the engines apart
// ---------------------------------------------------------------------

/// Drive the broadcast workload *through the relational layer*: a
/// seeded transaction load commits per-station object sizes into a
/// station on the chosen engine, the committed state is read back to
/// size the E13-style sweep, and the netsim/dist registry is exported.
///
/// Only the simulated-stack registry (`netsim.*`, `dist.*`) is under
/// the byte-identical contract — the engine's own registry includes
/// wall-clock latency histograms that are deliberately outside it.
fn engine_sweep_snapshot_json(seed: u64, kind: EngineKind) -> String {
    let db = WebDocDb::on_backend(Box::new(AnyEngine::new(kind)), true).unwrap();
    let rel = db.relational();
    rel.create_table(
        TableSchema::builder("payload")
            .column("id", ColumnType::Int)
            .column("bytes", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..64i64 {
        let sz = rng.gen_range(10_000i64..100_000);
        rel.with_txn(|t| t.insert("payload", vec![Value::Int(i), Value::Int(sz)]))
            .unwrap();
        if i % 7 == 0 {
            // Churn a row: updates must replay identically too.
            rel.with_txn(|t| {
                let rid = t.select("payload", &Predicate::eq("id", i)).unwrap()[0].0;
                t.update_cols("payload", rid, &[("bytes", Value::Int(sz / 2))])
            })
            .unwrap();
        }
    }
    // The committed state sizes the object: any cross-engine divergence
    // in the relational layer would change the sweep below.
    let object = rel
        .with_txn(|t| t.sum_int("payload", &Predicate::True, "bytes"))
        .unwrap() as u64;

    let link = LinkSpec::new(1_000_000, SimTime::from_millis(10));
    let registry = Registry::new();
    for (i, &(p, m)) in [(0.0f64, 2u64), (0.15, 4)].iter().enumerate() {
        let (mut net, ids) = Network::uniform(N, link);
        net.set_metrics(registry.clone());
        let horizon = mmu_wdoc::dist::predict_completion(N as u64, m, object, link).as_micros();
        net.set_faults(crash_schedule(
            N,
            p,
            horizon,
            seed.wrapping_add(i as u64 * 7919),
        ));
        let tree = BroadcastTree::new(ids, m);
        let r = resilient_broadcast(&mut net, &tree, object, RetryPolicy::default());
        std::hint::black_box(r);
    }
    registry.snapshot().to_json()
}

/// Same seed + same engine ⇒ byte-identical snapshots: the determinism
/// contract holds with the relational layer in the loop, on both
/// engines.
#[test]
fn same_seed_replays_identically_on_each_engine() {
    for kind in [EngineKind::TwoPl, EngineKind::Mvcc] {
        let a = engine_sweep_snapshot_json(1999, kind);
        let b = engine_sweep_snapshot_json(1999, kind);
        assert!(
            a == b,
            "{kind:?}: same seed must replay byte-for-byte; first divergence at byte {}",
            a.bytes()
                .zip(b.bytes())
                .position(|(x, y)| x != y)
                .unwrap_or(a.len().min(b.len()))
        );
        assert!(a.contains("dist.broadcast.acked"), "{kind:?}: non-vacuous");
    }
}

/// The engines are observationally equivalent upstream: the committed
/// state they feed the delivery layer is identical, so the E2/E13-style
/// delivery metrics are *byte-identical across engines* — not merely
/// similar.
#[test]
fn delivery_metrics_identical_across_engines() {
    let twopl = engine_sweep_snapshot_json(1999, EngineKind::TwoPl);
    let mvcc = engine_sweep_snapshot_json(1999, EngineKind::Mvcc);
    assert!(
        twopl == mvcc,
        "the delivery layer must not be able to tell the engines apart; \
         first divergence at byte {}",
        twopl
            .bytes()
            .zip(mvcc.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(twopl.len().min(mvcc.len()))
    );
}

// ---------------------------------------------------------------------
// Parallel-engine dimension (PR 10): thread count is pure mechanism —
// the byte-identical contract extends to the island-parallel simulator
// at every thread count
// ---------------------------------------------------------------------

/// Sequential oracle for the parallel sweep: the plain (store-and-
/// forward) broadcast under an optional crash schedule, exported from
/// its own registry. `resilient_broadcast` stays sequential-only, so
/// the cross-engine comparison uses the relay broadcast both engines
/// implement.
fn plain_sweep_snapshot_json(seed: u64) -> String {
    let link = LinkSpec::new(1_000_000, SimTime::from_millis(10));
    let registry = Registry::new();
    for (i, &(p, m)) in [(0.0f64, 2u64), (0.2, 4)].iter().enumerate() {
        let (mut net, ids) = Network::uniform(N, link);
        net.set_metrics(registry.clone());
        let horizon = mmu_wdoc::dist::predict_completion(N as u64, m, OBJECT, link).as_micros();
        net.set_faults(crash_schedule(
            N,
            p,
            horizon,
            seed.wrapping_add(i as u64 * 7919),
        ));
        let tree = BroadcastTree::new(ids, m);
        let r = mmu_wdoc::dist::broadcast(&mut net, &tree, OBJECT);
        std::hint::black_box(r);
    }
    registry.snapshot().to_json()
}

/// The same sweep on the island-parallel engine: `islands` islands of
/// the contiguous partition, `threads` worker threads.
fn parallel_sweep_snapshot_json(seed: u64, islands: usize, threads: usize) -> String {
    use mmu_wdoc::netsim::ParNet;
    let link = LinkSpec::new(1_000_000, SimTime::from_millis(10));
    let registry = Registry::new();
    for (i, &(p, m)) in [(0.0f64, 2u64), (0.2, 4)].iter().enumerate() {
        let (mut net, ids) = ParNet::uniform(N, link, islands);
        net.set_metrics(registry.clone());
        let horizon = mmu_wdoc::dist::predict_completion(N as u64, m, OBJECT, link).as_micros();
        net.set_faults(crash_schedule(
            N,
            p,
            horizon,
            seed.wrapping_add(i as u64 * 7919),
        ));
        let tree = BroadcastTree::new(ids, m);
        let r = mmu_wdoc::dist::broadcast_par(&mut net, &tree, OBJECT, threads);
        std::hint::black_box(r);
    }
    registry.snapshot().to_json()
}

/// The E22 replay gate: snapshots are byte-identical between the
/// sequential engine and the parallel engine at every thread count in
/// {1, 2, 4, 8}, with a FaultSchedule in the loop (crashes fire at the
/// same virtual time no matter how many threads are running islands).
#[test]
fn parallel_thread_counts_export_identical_snapshots() {
    let seq = plain_sweep_snapshot_json(1999);
    assert!(seq.contains("netsim.deliver.bytes"), "non-vacuous");
    assert!(seq.contains("netsim.fault.crash"), "faults in the loop");
    for threads in [1usize, 2, 4, 8] {
        let par = parallel_sweep_snapshot_json(1999, 8, threads);
        assert!(
            seq == par,
            "threads={threads}: parallel snapshot must equal sequential; \
             first divergence at byte {}",
            seq.bytes()
                .zip(par.bytes())
                .position(|(x, y)| x != y)
                .unwrap_or(seq.len().min(par.len()))
        );
    }
}

/// The replay property holds for the healthy path too (no faults, no
/// RNG at all): two broadcasts of the same object over the same
/// topology export identical snapshots from *independent* registries.
#[test]
fn healthy_broadcast_is_reproducible_across_registries() {
    let run = || {
        let link = LinkSpec::new(1_000_000, SimTime::from_millis(20));
        let (mut net, ids) = Network::uniform(16, link);
        let registry = Registry::new();
        net.set_metrics(registry.clone());
        let tree = BroadcastTree::new(ids, 2);
        let r = mmu_wdoc::dist::broadcast(&mut net, &tree, 8_000_000);
        std::hint::black_box(r);
        registry.snapshot().to_json()
    };
    assert_eq!(run(), run());
}

/// The registry is a faithful witness of the E2 broadcast: for an 8 MB
/// lecture over 1 MB/s, 20 ms links, `netsim.deliver.last_us` is the
/// completion time, `netsim.deliver.bytes` the total bytes and
/// `netsim.deliver.msgs` the arrival count — exactly, read from the
/// metrics alone.
#[test]
fn broadcast_headline_numbers_fall_out_of_the_metrics() {
    let link = LinkSpec::new(1_000_000, SimTime::from_millis(20));
    // (stations, m, completion µs, total bytes)
    for (n, m, completion_us, bytes) in [
        (8, 2, 32_040_000, 56_000_000),
        (8, 4, 32_040_000, 56_000_000),
        (32, 2, 64_080_000, 248_000_000),
        (32, 4, 64_040_000, 248_000_000),
    ] {
        let (mut net, ids) = Network::uniform(n, link);
        let tree = BroadcastTree::new(ids, m);
        let report = mmu_wdoc::dist::broadcast(&mut net, &tree, 8_000_000);
        let snap = net.metrics().snapshot();
        assert_eq!(
            (
                snap.gauge("netsim.deliver.last_us"),
                snap.counter("netsim.deliver.bytes")
            ),
            (Some(completion_us), bytes),
            "n={n} m={m}"
        );
        assert_eq!(report.completion.as_micros(), completion_us as u64);
        assert_eq!(report.total_bytes, bytes);
        assert_eq!(
            snap.counter("netsim.deliver.msgs"),
            report.arrivals.len() as u64
        );
    }
}
