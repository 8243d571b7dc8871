//! E22 — parallel deterministic simulation: the conservative
//! island-parallel engine (`netsim::ParNet`) against the sequential
//! oracle.
//!
//! Two families, equality always checked **before** any timing:
//!
//! 1. **Parity** — an m-ary broadcast over a small topology, healthy
//!    and under a fault schedule. The `BroadcastReport` and the obs snapshot from the parallel engine
//!    must be **byte-identical** to the sequential engine at every
//!    thread count. This is the oracle gate; it runs in smoke mode too
//!    (threads {1, 2}).
//! 2. **Speedup** — a relay flood over a ≥ 10k-station topology (every
//!    delivery forwards to two pseudo-random destinations, so events
//!    and cross-island traffic scale with the station count).
//!    Sequential wall clock vs parallel at 1/2/4/8 threads,
//!    median-of-5 after warmup, totals asserted equal between every
//!    pair before the clocks are compared.
//!
//! The ≥ 1.8× gate at 4 threads only fires when the host actually has
//! ≥ 4 cores (`std::thread::available_parallelism`) and the run is not
//! `--smoke`; the measured cores and wall clocks land in the report
//! either way, so a constrained runner still produces an auditable
//! `BENCH_e22.json` with every equality gate enforced.

use netsim::{
    Fault, FaultSchedule, LinkSpec, Message, NetCtx, Network, ParNet, SimTime, StationId,
};
use serde::Serialize;
use std::path::PathBuf;
use wdoc_bench::{emit, wall_clock, write_json_file, WallClock};
use wdoc_dist::{broadcast, broadcast_par, BroadcastTree};

const WARMUP: u32 = 1;
const RUNS: u32 = 5;
const MIN_SPEEDUP: f64 = 1.8;
const GATE_THREADS: usize = 4;

fn link() -> LinkSpec {
    LinkSpec::new(1_000_000, SimTime::from_millis(5))
}

/// A deterministic fault schedule over `n` stations: a handful of
/// crashes, a partition that heals, and a recovery — enough to prove
/// faults fire at the same virtual time no matter how many threads run
/// islands.
fn faults(n: usize) -> FaultSchedule {
    let mut s = FaultSchedule::new();
    let sid = |i: usize| StationId((i % n) as u32);
    s.push(SimTime::from_millis(40), Fault::Crash { station: sid(5) });
    s.push(SimTime::from_millis(55), Fault::Crash { station: sid(11) });
    s.push(
        SimTime::from_millis(70),
        Fault::Partition {
            src: sid(1),
            dst: sid(7),
        },
    );
    s.push(
        SimTime::from_millis(200),
        Fault::Recover { station: sid(5) },
    );
    s.push(
        SimTime::from_millis(260),
        Fault::Heal {
            src: sid(1),
            dst: sid(7),
        },
    );
    s
}

// --------------------------------------------------------------- parity

#[derive(Serialize)]
struct ParityCell {
    stations: usize,
    fanout: u64,
    faulty: bool,
    islands: usize,
    threads: usize,
    snapshot_bytes: usize,
    identical: bool,
}

fn parity_family(n: usize, m: u64, islands: usize, thread_counts: &[usize]) -> Vec<ParityCell> {
    println!("\n-- parity: broadcast over {n} stations, m={m}, {islands} islands --");
    println!(
        "{:>7} {:>8} {:>8} {:>10}",
        "faulty", "threads", "snap B", "identical"
    );
    let object = 500_000u64;
    let mut cells = Vec::new();
    for faulty in [false, true] {
        let (mut snet, ids) = Network::uniform(n, link());
        if faulty {
            snet.set_faults(faults(n));
        }
        let tree = BroadcastTree::new(ids, m);
        let seq_report = broadcast(&mut snet, &tree, object);
        let seq_snap = snet.metrics().snapshot().to_json();
        for &threads in thread_counts {
            let (mut pnet, ids) = ParNet::uniform(n, link(), islands);
            if faulty {
                pnet.set_faults(faults(n));
            }
            let tree = BroadcastTree::new(ids, m);
            let par_report = broadcast_par(&mut pnet, &tree, object, threads);
            let par_snap = pnet.metrics().snapshot().to_json();
            assert_eq!(
                seq_report, par_report,
                "faulty={faulty} threads={threads}: reports must be identical"
            );
            assert!(
                seq_snap == par_snap,
                "faulty={faulty} threads={threads}: snapshots must be byte-identical; \
                 first divergence at byte {}",
                seq_snap
                    .bytes()
                    .zip(par_snap.bytes())
                    .position(|(a, b)| a != b)
                    .unwrap_or(seq_snap.len().min(par_snap.len()))
            );
            let cell = ParityCell {
                stations: n,
                fanout: m,
                faulty,
                islands,
                threads,
                snapshot_bytes: seq_snap.len(),
                identical: true,
            };
            println!(
                "{:>7} {:>8} {:>8} {:>10}",
                cell.faulty, cell.threads, cell.snapshot_bytes, "yes"
            );
            emit("e22", &cell);
            cells.push(cell);
        }
    }
    cells
}

// -------------------------------------------------------------- speedup

type Flood = (u32, u64);

/// The flood workload, one handler for both engines: every delivery
/// with hops remaining forwards to two pseudo-random destinations.
/// Event count scales geometrically with `hops`, and destinations are
/// uniform over the whole topology, so the windows carry heavy
/// cross-island traffic — the hard case for the conservative protocol,
/// not a partition-friendly one.
fn flood<C: NetCtx<Flood>>(net: &mut C, n: u64, msg: Message<Flood>) {
    let (hop, salt) = msg.payload;
    if hop == 0 {
        return;
    }
    for k in 0..2u64 {
        let dst = StationId(((salt.wrapping_mul(2 + k).wrapping_add(u64::from(hop))) % n) as u32);
        let bytes = 10_000 + salt % 1000;
        net.send(msg.dst, dst, bytes, (hop - 1, salt.wrapping_add(k)));
    }
}

fn flood_kickoff<C: NetCtx<Flood>>(net: &mut C, ids: &[StationId], seeds: usize, hops: u32) {
    for (i, &src) in ids.iter().enumerate().take(seeds) {
        let dst = ids[(i * 37 + 11) % ids.len()];
        net.send(src, dst, 20_000, (hops, i as u64 + 1));
    }
}

fn flood_seq(n: usize, seeds: usize, hops: u32) -> (u64, u64, u64) {
    let (mut net, ids) = Network::uniform(n, link());
    flood_kickoff(&mut net, &ids, seeds, hops);
    net.run(|net, msg| flood(net, n as u64, msg));
    net.flush_metrics();
    (net.total_bytes(), net.total_msgs(), net.now().as_micros())
}

fn flood_par(n: usize, seeds: usize, hops: u32, islands: usize, threads: usize) -> (u64, u64, u64) {
    let (mut net, ids) = ParNet::uniform(n, link(), islands);
    flood_kickoff(&mut net, &ids, seeds, hops);
    net.run(threads, vec![(); islands], |ctx, (), msg| {
        flood(ctx, n as u64, msg)
    });
    net.flush_metrics();
    (net.total_bytes(), net.total_msgs(), net.now().as_micros())
}

#[derive(Serialize)]
struct SpeedupCell {
    stations: usize,
    islands: usize,
    threads: usize,
    total_msgs: u64,
    wall: WallClock,
    events_per_sec: f64,
    speedup_vs_sequential: Option<f64>,
}

fn speedup_family(
    n: usize,
    seeds: usize,
    hops: u32,
    islands: usize,
    thread_counts: &[usize],
    gate: bool,
) -> Vec<SpeedupCell> {
    println!("\n-- speedup: relay flood over {n} stations, {islands} islands --");
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>8}",
        "threads", "msgs", "median ms", "events/s", "speedup"
    );
    // Equality first: the parallel outcome must match the sequential
    // oracle at every thread count before any clock is trusted.
    let oracle = flood_seq(n, seeds, hops);
    for &threads in thread_counts {
        let par = flood_par(n, seeds, hops, islands, threads);
        assert_eq!(
            oracle, par,
            "flood outcome (bytes, msgs, completion) diverged at {threads} threads"
        );
    }
    let mut cells = Vec::new();
    let seq_wall = wall_clock(WARMUP, RUNS, || {
        std::hint::black_box(flood_seq(n, seeds, hops));
    });
    let seq_cell = SpeedupCell {
        stations: n,
        islands: 1,
        threads: 0, // 0 = the sequential engine, the baseline row
        total_msgs: oracle.1,
        events_per_sec: seq_wall.throughput(oracle.1),
        wall: seq_wall.clone(),
        speedup_vs_sequential: None,
    };
    println!(
        "{:>8} {:>8} {:>12.1} {:>12.0} {:>8}",
        "seq",
        seq_cell.total_msgs,
        seq_cell.wall.median_ns as f64 / 1e6,
        seq_cell.events_per_sec,
        "-"
    );
    emit("e22", &seq_cell);
    cells.push(seq_cell);
    for &threads in thread_counts {
        let wall = wall_clock(WARMUP, RUNS, || {
            std::hint::black_box(flood_par(n, seeds, hops, islands, threads));
        });
        let cell = SpeedupCell {
            stations: n,
            islands,
            threads,
            total_msgs: oracle.1,
            events_per_sec: wall.throughput(oracle.1),
            speedup_vs_sequential: Some(seq_wall.median_ns as f64 / wall.median_ns.max(1) as f64),
            wall,
        };
        println!(
            "{:>8} {:>8} {:>12.1} {:>12.0} {:>8}",
            cell.threads,
            cell.total_msgs,
            cell.wall.median_ns as f64 / 1e6,
            cell.events_per_sec,
            cell.speedup_vs_sequential
                .map_or_else(|| "-".into(), |s| format!("{s:.2}x"))
        );
        if gate && threads == GATE_THREADS {
            let s = cell.speedup_vs_sequential.expect("measured");
            assert!(
                s >= MIN_SPEEDUP,
                "parallel flood at {threads} threads: {s:.2}x < {MIN_SPEEDUP}x"
            );
        }
        emit("e22", &cell);
        cells.push(cell);
    }
    cells
}

// ----------------------------------------------------------------- main

#[derive(Serialize)]
struct Doc {
    experiment: &'static str,
    mode: &'static str,
    host_cores: usize,
    speedup_gate_enforced: bool,
    min_speedup_gate: f64,
    gate_threads: usize,
    parity: Vec<ParityCell>,
    speedup: Vec<SpeedupCell>,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // The wall-clock gate needs a host that can actually run 4 workers
    // in parallel; equality gates are unconditional in every mode.
    let gate = !smoke && cores >= GATE_THREADS;

    let (parity_n, parity_threads): (usize, Vec<usize>) = if smoke {
        (128, vec![1, 2])
    } else {
        (512, vec![1, 2, 4, 8])
    };
    let (flood_n, seeds, hops, islands, flood_threads): (usize, usize, u32, usize, Vec<usize>) =
        if smoke {
            (1_024, 8, 8, 8, vec![2])
        } else {
            (10_240, 48, 12, 16, vec![1, 2, 4, 8])
        };

    println!(
        "E22: parallel deterministic simulation ({}, {cores} cores, median of {RUNS} after \
         {WARMUP} warmup){}",
        if smoke { "smoke sizes" } else { "full sizes" },
        if gate {
            ""
        } else {
            " — speedup gate off (smoke or < 4 cores), equality gates on"
        }
    );

    let doc = Doc {
        experiment: "e22",
        mode: if smoke { "smoke" } else { "full" },
        host_cores: cores,
        speedup_gate_enforced: gate,
        min_speedup_gate: MIN_SPEEDUP,
        gate_threads: GATE_THREADS,
        parity: parity_family(parity_n, 4, 8, &parity_threads),
        speedup: speedup_family(flood_n, seeds, hops, islands, &flood_threads, gate),
    };

    let out = PathBuf::from("BENCH_e22.json");
    write_json_file(&out, &doc);
    println!(
        "\nE22 done: {} parity / {} speedup cells -> {}",
        doc.parity.len(),
        doc.speedup.len(),
        out.display()
    );
}
