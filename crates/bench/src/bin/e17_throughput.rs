//! E17 — hot-path throughput: the perf trajectory's seed measurement.
//!
//! PR 5 overhauled three inner loops; this experiment quantifies each
//! one against a toggleable pre-overhaul baseline **in the same
//! process**, so every cell is an A/B pair with the identical workload:
//!
//! 1. **Event queue** — the simulator's hold workload (pop the minimum,
//!    push a near-future successor) on the hierarchical timing wheel
//!    (`QueueKind::Wheel`) versus the old binary heap
//!    (`QueueKind::Heap`), at 1 k / 100 k / 1 M pending events.
//!    Behavioral equality is asserted by checksumming the popped
//!    `(time, item)` stream: both kinds must produce the identical
//!    sequence.
//! 2. **Broadcast payloads** — an m-ary object broadcast over 1 000
//!    stations with a 256 KiB body, refcount-shared (`Bytes` clones)
//!    versus deep-copied per send, at fan-out 2–16. The copying relay
//!    is this binary's own, written over the public
//!    `Network::send_body`; `dist` ships only the sharing one.
//!    `BroadcastReport`s and netsim metrics snapshots must be
//!    identical — zero-copy changes memory traffic only.
//! 3. **Scan/select** — full-table scans over 10 k – 1 M rows through
//!    the compiled-predicate raw path (`Table::scan_encoded` +
//!    `Compiled::matches_raw`, page-pin batched, decode-on-match)
//!    versus the pre-overhaul owned-row path (`Table::iter` decoding
//!    every row + `Compiled::eval`), on both the unbounded in-memory
//!    pool and a bounded log-backed pool. Matched row sets must be
//!    identical.
//!
//! Every measurement is a median-of-5 with one discarded warmup
//! ([`wall_clock`]). In full mode the large sizes assert **≥ 1.5×
//! speedup** per family; `--smoke` runs tiny sizes with every equality
//! check but no wall-clock gating (CI must not flake on a busy
//! runner). `--baseline` skips the optimized variants (and the
//! assertions) to time the pre-overhaul configuration alone.
//!
//! The collected document lands at `BENCH_e17.json` in the working
//! directory (the repo root under `cargo run`); EXPERIMENTS.md §E17
//! documents the schema.

use bytes::Bytes;
use netsim::{EventQueue, LinkSpec, Network, QueueKind, SimTime};
use relstore::pagestore::page;
use relstore::{
    BufferPool, ColumnType, PoolConfig, Predicate, Row, RowId, Table, TableSchema, Value,
};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use wdoc_bench::{emit, wall_clock, write_json_file, WallClock};
use wdoc_dist::broadcast::Relay;
use wdoc_dist::{broadcast_object, BroadcastReport, BroadcastTree};

const WARMUP: u32 = 1;
const RUNS: u32 = 5;
const MIN_SPEEDUP: f64 = 1.5;

fn speedup(opt: &WallClock, base: &WallClock) -> f64 {
    base.median_ns as f64 / opt.median_ns.max(1) as f64
}

// ---------------------------------------------------------------- queue

/// Deterministic prefill: `pending` events at pseudo-random times
/// within the wheel's first-level horizon neighborhood.
fn build_queue(kind: QueueKind, pending: u64) -> EventQueue<u64> {
    let mut q = EventQueue::with_kind(kind);
    let mut x = 0x243F_6A88_85A3_08D3u64;
    for i in 0..pending {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        q.push(SimTime::from_micros(x % (1 << 20)), i);
    }
    q
}

/// The simulator's steady-state pattern: pop the minimum, schedule a
/// near-future successor. Returns a checksum of the popped stream so
/// wheel and heap can be proven to emit the identical sequence.
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

#[derive(Serialize)]
struct QueueCell {
    pending: u64,
    hold_ops: u64,
    optimized: Option<WallClock>,
    baseline: WallClock,
    optimized_events_per_sec: Option<f64>,
    baseline_events_per_sec: f64,
    speedup: Option<f64>,
}

fn queue_family(sizes: &[u64], hold_ops: u64, baseline_only: bool, gate: bool) -> Vec<QueueCell> {
    println!("\n-- event queue: hold workload, wheel vs heap --");
    println!(
        "{:>10} {:>10} {:>14} {:>14} {:>8}",
        "pending", "hold ops", "wheel ev/s", "heap ev/s", "speedup"
    );
    let mut cells = Vec::new();
    for &pending in sizes {
        eprintln!("[e17] queue: pending={pending}");
        // Both kinds start from the identical prefill and replay the
        // identical op stream across every run (deltas derive from the
        // popped values), so their checksums must agree.
        let mut heap_q = build_queue(QueueKind::Heap, pending);
        let mut heap_sum = 0u64;
        let baseline = wall_clock(WARMUP, RUNS, || {
            heap_sum = heap_sum.wrapping_add(hold(&mut heap_q, hold_ops));
        });
        let events = 2 * hold_ops; // each hold op = one pop + one push
        let (optimized, wheel_rate) = if baseline_only {
            (None, None)
        } else {
            let mut wheel_q = build_queue(QueueKind::Wheel, pending);
            let mut wheel_sum = 0u64;
            let wc = wall_clock(WARMUP, RUNS, || {
                wheel_sum = wheel_sum.wrapping_add(hold(&mut wheel_q, hold_ops));
            });
            assert_eq!(
                wheel_sum, heap_sum,
                "{pending} pending: wheel and heap popped different event streams"
            );
            assert_eq!(wheel_q.len(), heap_q.len());
            let rate = wc.throughput(events);
            (Some(wc), Some(rate))
        };
        let cell = QueueCell {
            pending,
            hold_ops,
            baseline_events_per_sec: baseline.throughput(events),
            optimized_events_per_sec: wheel_rate,
            speedup: optimized.as_ref().map(|o| speedup(o, &baseline)),
            optimized,
            baseline,
        };
        println!(
            "{:>10} {:>10} {:>14.0} {:>14.0} {:>8}",
            cell.pending,
            cell.hold_ops,
            cell.optimized_events_per_sec.unwrap_or(0.0),
            cell.baseline_events_per_sec,
            cell.speedup
                .map_or_else(|| "-".into(), |s| format!("{s:.2}x"))
        );
        if gate && pending == *sizes.last().unwrap() {
            let s = cell.speedup.expect("gated runs measure both");
            assert!(
                s >= MIN_SPEEDUP,
                "event queue at {pending} pending: {s:.2}x < {MIN_SPEEDUP}x"
            );
        }
        emit("e17", &cell);
        cells.push(cell);
    }
    cells
}

// ------------------------------------------------------------ broadcast

#[derive(Serialize)]
struct BroadcastCell {
    stations: usize,
    fanout: u64,
    body_bytes: usize,
    optimized: Option<WallClock>,
    baseline: WallClock,
    optimized_msgs_per_sec: Option<f64>,
    baseline_msgs_per_sec: f64,
    speedup: Option<f64>,
}

/// The baseline relay: `dist::broadcast_object`'s protocol, except
/// that every child send materializes a fresh copy of the body — what
/// a relay that clones payload bodies per send costs.
fn broadcast_copying(
    net: &mut Network<Relay>,
    tree: &BroadcastTree,
    body: &Bytes,
) -> BroadcastReport {
    fn relay(net: &mut Network<Relay>, tree: &BroadcastTree, pos: u64, body: &Bytes) {
        let src = tree.station_at(pos).expect("position exists");
        for child in tree.children_of(pos) {
            let dst = tree.station_at(child).expect("child exists");
            let copy = Bytes::copy_from_slice(body);
            net.send_body(src, dst, Relay { position: child }, copy);
        }
    }
    let mut arrivals = BTreeMap::new();
    relay(net, tree, 1, body);
    net.run(|net, msg| {
        arrivals.insert(msg.dst.0, net.now());
        let body = msg.body.as_ref().expect("every relay send carries a body");
        relay(net, tree, msg.payload.position, body);
    });
    net.flush_metrics();
    let senders = tree.broadcast_vector();
    BroadcastReport {
        completion: net.last_delivery(),
        total_bytes: net.total_bytes(),
        max_station_tx: senders
            .iter()
            .map(|&s| net.station_stats(s).tx_bytes)
            .max()
            .unwrap_or(0),
        height: tree.height(),
        arrivals,
    }
}

fn broadcast_once(n: usize, m: u64, body_bytes: usize, copying: bool) -> (BroadcastReport, String) {
    let (mut net, ids) = Network::uniform(n, LinkSpec::new(1_000_000, SimTime::from_millis(1)));
    let tree = BroadcastTree::new(ids, m);
    let body = Bytes::from(vec![0xAB; body_bytes]);
    let report = if copying {
        broadcast_copying(&mut net, &tree, &body)
    } else {
        broadcast_object(&mut net, &tree, &body)
    };
    let snapshot = net.metrics().snapshot().to_json();
    (report, snapshot)
}

fn broadcast_family(
    n: usize,
    body_bytes: usize,
    fanouts: &[u64],
    baseline_only: bool,
    gate: bool,
) -> Vec<BroadcastCell> {
    println!("\n-- broadcast: shared vs deep-copied {body_bytes}-byte body, {n} stations --");
    println!(
        "{:>7} {:>12} {:>12} {:>8}",
        "fanout", "shared msg/s", "copied msg/s", "speedup"
    );
    let msgs = (n - 1) as u64;
    let mut cells = Vec::new();
    for &m in fanouts {
        eprintln!("[e17] broadcast: fanout={m}");
        let mut base_out = None;
        // Baseline: one fresh body copy per relay send.
        let baseline = wall_clock(WARMUP, RUNS, || {
            base_out = Some(broadcast_once(n, m, body_bytes, true));
        });
        let (base_report, base_snap) = base_out.expect("ran");
        let (optimized, opt_rate) = if baseline_only {
            (None, None)
        } else {
            let mut opt_out = None;
            let wc = wall_clock(WARMUP, RUNS, || {
                opt_out = Some(broadcast_once(n, m, body_bytes, false));
            });
            let (opt_report, opt_snap) = opt_out.expect("ran");
            assert_eq!(
                opt_report, base_report,
                "fan-out {m}: zero-copy broadcast must report identical timing and bytes"
            );
            assert_eq!(
                opt_snap, base_snap,
                "fan-out {m}: netsim metrics must not depend on body sharing"
            );
            let rate = wc.throughput(msgs);
            (Some(wc), Some(rate))
        };
        let cell = BroadcastCell {
            stations: n,
            fanout: m,
            body_bytes,
            baseline_msgs_per_sec: baseline.throughput(msgs),
            optimized_msgs_per_sec: opt_rate,
            speedup: optimized.as_ref().map(|o| speedup(o, &baseline)),
            optimized,
            baseline,
        };
        println!(
            "{:>7} {:>12.0} {:>12.0} {:>8}",
            cell.fanout,
            cell.optimized_msgs_per_sec.unwrap_or(0.0),
            cell.baseline_msgs_per_sec,
            cell.speedup
                .map_or_else(|| "-".into(), |s| format!("{s:.2}x"))
        );
        if gate {
            let s = cell.speedup.expect("gated runs measure both");
            assert!(
                s >= MIN_SPEEDUP,
                "broadcast at fan-out {m}: {s:.2}x < {MIN_SPEEDUP}x"
            );
        }
        emit("e17", &cell);
        cells.push(cell);
    }
    cells
}

// ----------------------------------------------------------------- scan

fn doc_schema() -> TableSchema {
    TableSchema::builder("doc")
        .column("id", ColumnType::Int)
        .column("cat", ColumnType::Int)
        .column("title", ColumnType::Text)
        .nullable_column("score", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

fn build_table(rows: i64, pool: Option<Arc<BufferPool>>) -> Table {
    let mut t = match pool {
        Some(p) => Table::with_pool(doc_schema(), p).unwrap(),
        None => Table::new(doc_schema()).unwrap(),
    };
    for i in 0..rows {
        let score = if i % 7 == 0 {
            Value::Null
        } else {
            Value::Int(i % 1_000)
        };
        t.insert(vec![
            Value::Int(i),
            Value::Int(i % 97),
            Value::from(format!("course document {i:>8} — lecture notes")),
            score,
        ])
        .unwrap();
    }
    t
}

fn scan_pred() -> Predicate {
    Predicate::eq("cat", 7i64).and(Predicate::Contains("title".into(), "notes".into()))
}

/// The pre-overhaul full-scan body: decode every row, evaluate the
/// compiled predicate on the owned values, keep matches.
fn scan_baseline(t: &Table, compiled: &relstore::Compiled) -> Vec<(RowId, Row)> {
    t.iter().filter(|(_, row)| compiled.eval(row)).collect()
}

/// The overhauled full-scan body (what `Txn::select` now runs): raw
/// predicate evaluation over encoded rows, page pins batched, decode
/// only on match.
fn scan_raw(t: &Table, compiled: &relstore::Compiled) -> Vec<(RowId, Row)> {
    let mut scratch = page::RowScratch::default();
    let mut out = Vec::new();
    t.scan_encoded(|id, bytes| {
        if compiled.matches_raw(bytes, &mut scratch)? {
            out.push((id, page::decode_row(bytes)?));
        }
        Ok(())
    })
    .unwrap();
    out
}

#[derive(Serialize)]
struct ScanCell {
    rows: i64,
    pooled: bool,
    matched: usize,
    optimized: Option<WallClock>,
    baseline: WallClock,
    optimized_rows_per_sec: Option<f64>,
    baseline_rows_per_sec: f64,
    speedup: Option<f64>,
}

fn scan_family(sizes: &[i64], baseline_only: bool, gate: bool) -> Vec<ScanCell> {
    println!("\n-- scan/select: raw compiled path vs decode-and-eval --");
    println!(
        "{:>10} {:>8} {:>8} {:>14} {:>14} {:>8}",
        "rows", "pool", "matched", "raw rows/s", "decode rows/s", "speedup"
    );
    let mut cells = Vec::new();
    for &rows in sizes {
        for pooled in [false, true] {
            let path = pooled.then(|| {
                std::env::temp_dir().join(format!("e17-{}-{rows}.pages.d", std::process::id()))
            });
            let pool = path.as_ref().map(|p| {
                // A quarter of the working set stays resident, so
                // pooled scans actually page.
                let cfg = PoolConfig::log(
                    p,
                    ((rows as usize * 60) / page::DEFAULT_PAGE_SIZE / 4).max(8),
                );
                BufferPool::new(&cfg, obs::Registry::new()).unwrap()
            });
            eprintln!("[e17] scan: rows={rows} pooled={pooled} build...");
            let t = build_table(rows, pool);
            eprintln!("[e17] scan: rows={rows} pooled={pooled} baseline...");
            let compiled = scan_pred().compile(t.schema()).unwrap();

            let mut base_rows = Vec::new();
            let baseline = wall_clock(WARMUP, RUNS, || {
                base_rows = scan_baseline(&t, &compiled);
            });
            let (optimized, opt_rate) = if baseline_only {
                (None, None)
            } else {
                eprintln!("[e17] scan: rows={rows} pooled={pooled} raw...");
                let mut raw_rows = Vec::new();
                let wc = wall_clock(WARMUP, RUNS, || {
                    raw_rows = scan_raw(&t, &compiled);
                });
                assert_eq!(
                    raw_rows, base_rows,
                    "{rows} rows (pooled={pooled}): raw and decode paths must match the same rows"
                );
                let rate = wc.throughput(rows as u64);
                (Some(wc), Some(rate))
            };
            assert!(!base_rows.is_empty(), "predicate must select something");
            let cell = ScanCell {
                rows,
                pooled,
                matched: base_rows.len(),
                baseline_rows_per_sec: baseline.throughput(rows as u64),
                optimized_rows_per_sec: opt_rate,
                speedup: optimized.as_ref().map(|o| speedup(o, &baseline)),
                optimized,
                baseline,
            };
            println!(
                "{:>10} {:>8} {:>8} {:>14.0} {:>14.0} {:>8}",
                cell.rows,
                if pooled { "25%" } else { "unbound" },
                cell.matched,
                cell.optimized_rows_per_sec.unwrap_or(0.0),
                cell.baseline_rows_per_sec,
                cell.speedup
                    .map_or_else(|| "-".into(), |s| format!("{s:.2}x"))
            );
            if gate && rows >= 100_000 {
                let s = cell.speedup.expect("gated runs measure both");
                assert!(
                    s >= MIN_SPEEDUP,
                    "scan at {rows} rows (pooled={pooled}): {s:.2}x < {MIN_SPEEDUP}x"
                );
            }
            emit("e17", &cell);
            cells.push(cell);
            drop(t);
            if let Some(p) = path {
                let _ = std::fs::remove_dir_all(p);
            }
        }
    }
    cells
}

// ----------------------------------------------------------------- main

#[derive(Serialize)]
struct Doc {
    experiment: &'static str,
    mode: &'static str,
    baseline_only: bool,
    min_speedup_gate: Option<f64>,
    event_queue: Vec<QueueCell>,
    broadcast: Vec<BroadcastCell>,
    scan: Vec<ScanCell>,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let baseline_only = std::env::args().any(|a| a == "--baseline");
    // Wall-clock gates only run on the full sizes with both sides
    // measured: smoke keeps every behavioral-equality assertion but
    // must not flake on machine load.
    let gate = !smoke && !baseline_only;

    let (queue_sizes, hold_ops): (Vec<u64>, u64) = if smoke {
        (vec![1_000, 4_000], 4_000)
    } else {
        (vec![1_000, 100_000, 1_000_000], 200_000)
    };
    let (stations, body_bytes, fanouts): (usize, usize, Vec<u64>) = if smoke {
        (64, 8 << 10, vec![2, 8])
    } else {
        (1_000, 256 << 10, vec![2, 4, 8, 16])
    };
    let scan_sizes: Vec<i64> = if smoke {
        vec![2_000]
    } else {
        vec![10_000, 100_000, 1_000_000]
    };

    println!(
        "E17: hot-path throughput ({}, median of {RUNS} after {WARMUP} warmup){}",
        if smoke { "smoke sizes" } else { "full sizes" },
        if baseline_only {
            " — baseline configuration only"
        } else {
            ""
        }
    );

    let doc = Doc {
        experiment: "e17",
        mode: if smoke { "smoke" } else { "full" },
        baseline_only,
        min_speedup_gate: gate.then_some(MIN_SPEEDUP),
        event_queue: queue_family(&queue_sizes, hold_ops, baseline_only, gate),
        broadcast: broadcast_family(stations, body_bytes, &fanouts, baseline_only, gate),
        scan: scan_family(&scan_sizes, baseline_only, gate),
    };

    let out = PathBuf::from("BENCH_e17.json");
    write_json_file(&out, &doc);
    println!(
        "\nE17 done: {} queue / {} broadcast / {} scan cells -> {}",
        doc.event_queue.len(),
        doc.broadcast.len(),
        doc.scan.len(),
        out.display()
    );
}
