//! Criterion benches for the broadcast simulator (experiment E2/E3's
//! microbenchmark companion): how fast the simulation itself runs, its
//! event queue against the binary-heap baseline (on a hold workload and
//! on a relay's tied times), the adaptive
//! controller's planning cost, and the demand simulator's replica
//! tables at the lecture benchmark's size.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::{EventQueue, LinkSpec, Network, QueueKind, SimTime};
use wdoc_dist::{
    broadcast_uniform, predict_completion, star_uniform, AccessEvent, AdaptiveController,
    BroadcastTree, DemandSim, DocSpec,
};

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `pending` events at pseudo-random times within the wheel's first
/// level, the same prefill for either queue kind.
fn prefilled(kind: QueueKind, pending: u64) -> EventQueue<u64> {
    let mut q = EventQueue::with_kind(kind);
    let mut x = 0x243F_6A88_85A3_08D3u64;
    for i in 0..pending {
        q.push(SimTime::from_micros(xorshift(&mut x) % (1 << 20)), i);
    }
    q
}

/// The simulator's steady state: pop the minimum, schedule a
/// near-future successor. Returns a checksum of the popped stream.
fn hold(q: &mut EventQueue<u64>, ops: u64) -> u64 {
    let mut sum = 0u64;
    for _ in 0..ops {
        let (at, item) = q.pop().expect("steady-state queue never empties");
        let t = at.as_micros();
        sum = sum
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(t ^ item);
        let delta = 1 + (t.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(item) % 4_000);
        q.push(SimTime::from_micros(t + delta), item);
    }
    sum
}

/// The timing wheel against the binary heap it replaced, on the hold
/// workload (`queue_equiv` proves both pop the identical stream).
fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_hold_10k");
    for pending in [1_000u64, 100_000] {
        for (name, kind) in [("wheel", QueueKind::Wheel), ("heap", QueueKind::Heap)] {
            let mut q = prefilled(kind, pending);
            g.bench_function(&format!("{name}/{pending}"), |b| {
                b.iter(|| hold(&mut q, black_box(10_000)));
            });
        }
    }
    g.finish();
}

/// One object's relay down a 4-ary tree of 10 240 stations, replayed
/// on a bare queue: each pop pushes the station's children on its
/// uplink's lane one serialization time apart, as netsim's relay does,
/// so only lane heads sit in the queue. Uniform links tie up to
/// hundreds of arrivals on one microsecond. Returns a checksum of the
/// popped stream.
fn relay_replay(kind: QueueKind) -> u64 {
    const STATIONS: u64 = 10_240;
    const M: u64 = 4;
    const SERIALIZE_US: u64 = 100_000;
    const LATENCY_US: u64 = 3_000;
    let relay = |q: &mut EventQueue<u64>, pos: u64, now: u64| {
        for (i, child) in (M * (pos - 1) + 2..=(M * pos + 1).min(STATIONS)).enumerate() {
            let at = now + (i as u64 + 1) * SERIALIZE_US + LATENCY_US;
            q.push_lane(pos as usize, SimTime::from_micros(at), child);
        }
    };
    let mut q = EventQueue::with_kind(kind);
    relay(&mut q, 1, 0);
    let mut sum = 0u64;
    while let Some((at, pos)) = q.pop() {
        sum = sum.wrapping_mul(31).wrapping_add(at.as_micros() ^ pos);
        relay(&mut q, pos, at.as_micros());
    }
    sum
}

/// The wheel against the heap on the relay's heavily tied times.
fn bench_event_queue_ties(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_ties");
    for (name, kind) in [("wheel", QueueKind::Wheel), ("heap", QueueKind::Heap)] {
        g.bench_function(&format!("{name}/relay_10240"), |b| {
            b.iter(|| relay_replay(black_box(kind)));
        });
    }
    g.finish();
}

fn bench_broadcast_sim(c: &mut Criterion) {
    let link = LinkSpec::new(1_000_000, SimTime::from_millis(20));
    let mut g = c.benchmark_group("broadcast_sim");
    for n in [64usize, 512] {
        g.bench_with_input(BenchmarkId::new("tree_m3", n), &n, |b, &n| {
            b.iter(|| broadcast_uniform(black_box(n), 3, 8_000_000, link));
        });
        g.bench_with_input(BenchmarkId::new("star", n), &n, |b, &n| {
            b.iter(|| star_uniform(black_box(n), 8_000_000, link));
        });
    }
    g.finish();
}

fn bench_adaptive(c: &mut Criterion) {
    let link = LinkSpec::isdn();
    let mut g = c.benchmark_group("adaptive_controller");
    for n in [64u64, 1024, 16_384] {
        g.bench_with_input(BenchmarkId::new("predict", n), &n, |b, &n| {
            b.iter(|| predict_completion(black_box(n), 3, 8_000_000, link));
        });
        g.bench_with_input(BenchmarkId::new("best_m", n), &n, |b, &n| {
            let ctl = AdaptiveController::default();
            b.iter(|| ctl.best_m(black_box(n), 8_000_000, link));
        });
    }
    g.finish();
}

/// `DemandSim` at the `lecture_broadcast` benchmark's size: building
/// the replica tables of 10 240 stations over 48 documents, and a run
/// of a 20 000-access trace from 2 048 attending stations (the smaller
/// of two uniform draws picks the document, so low indices are hot).
fn bench_demand_sim(c: &mut Criterion) {
    const STATIONS: usize = 10_240;
    let link = LinkSpec::new(1_000_000, SimTime::from_millis(3));
    let docs: Vec<DocSpec> = (0..48u64)
        .map(|i| DocSpec {
            name: format!("lecture-{i:02}"),
            view_bytes: 8 << 10,
            full_bytes: 20_000 + 50_000 * i,
        })
        .collect();
    let (mut x, mut at) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    let trace: Vec<AccessEvent> = (0..20_000)
        .map(|_| {
            at += xorshift(&mut x) % 40_000;
            let doc = (xorshift(&mut x) % 48).min(xorshift(&mut x) % 48);
            AccessEvent {
                at: SimTime::from_micros(at),
                position: 2 + xorshift(&mut x) % 2_048,
                doc: doc as usize,
            }
        })
        .collect();
    let sim = |ids| DemandSim::new(BroadcastTree::new(ids, 4), docs.clone(), 3);
    let (_, ids) = Network::<()>::uniform(STATIONS, link);
    let mut g = c.benchmark_group("demand_sim");
    g.bench_function("new/10240x48", |b| b.iter(|| sim(black_box(ids.clone()))));
    g.bench_function("run/20000", |b| {
        b.iter_with_setup(
            || {
                let (net, ids) = Network::uniform(STATIONS, link);
                (sim(ids), net)
            },
            |(mut demand, mut net)| demand.run(&mut net, &trace),
        );
    });
    g.finish();
}

fn quick() -> Criterion {
    // Single-core CI box: short, deterministic-enough runs.
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_broadcast_sim, bench_event_queue, bench_event_queue_ties, bench_adaptive, bench_demand_sim
}
criterion_main!(benches);
