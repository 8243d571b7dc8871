//! E18 — read/write-mix sweep: MVCC snapshot reads vs strict-2PL locks.
//!
//! PR 6 put a second storage engine behind `AnyEngine`/`AnyTxn`:
//! MVCC with versioned rows, snapshot-isolation reads and
//! first-committer-wins writes. The differential suite proves the two
//! engines commit identical state; this experiment measures the one
//! axis on which they are *supposed* to differ — what contention costs.
//!
//! **Workload.** A single `doc` table (seeded rows, 16 categories).
//! Each cell runs `workers` threads for a fixed wall-clock window; per
//! iteration a worker flips a seeded coin: with probability
//! `write_pct` it runs a *batch-update transaction* (a contiguous run
//! of `batch` rows rewritten in one txn — long lock holds under 2PL,
//! one version-chain append per row under MVCC), otherwise a read
//! transaction — usually a run of [`GETS_PER_READ`] point fetches (the
//! paper's dominant operation, fetching documents by id), one in eight
//! a category scan through the compiled-predicate path. `with_txn`
//! retries wait-die aborts and write conflicts, so every counted txn
//! actually committed; the retry/abort churn is captured from the
//! engine's own metrics registry per cell, and MVCC writers vacuum
//! with the watermark GC inside the window so its cost is measured,
//! not deferred.
//!
//! **The sweep** crosses `workers` × `write_pct` × engine. Under 2PL a
//! scan's table-`S` lock collides with the writer's `IX`, a fetch's
//! row-`S` with the writer's row-`X`, so every in-flight batch txn
//! stalls the read side (older readers park on the lock-manager
//! condvar; younger ones die and retry, throwing away the fetches they
//! had already done) — even on a single core, reader timeslices burn
//! on waits instead of reads. Under MVCC readers never touch the lock
//! manager: the same timeslices complete snapshot reads against the
//! last committed version while the writer's buffer is still private.
//!
//! **Gates.** Structural (asserted in every mode, smoke included):
//! MVCC cells record **zero** `relstore.lock.waits` and zero
//! `relstore.lock.wait_die_aborts` — the lock-wait and wait-die
//! histograms collapse identically at every reader count. Timing
//! (full mode only, CI smoke must not flake on a busy runner): at the
//! most contended multi-worker cell 2PL records a non-zero wait+abort
//! total, and at the 90%-read cell with the highest worker count MVCC
//! read throughput is **≥ 2×** 2PL's.
//!
//! The collected document lands at `BENCH_e18.json` in the working
//! directory; EXPERIMENTS.md §E18 documents the schema.

use relstore::{AnyEngine, ColumnType, EngineKind, Predicate, RowId, TableSchema, Value};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use wdoc_bench::{emit, write_json_file};

const CATS: u64 = 16;
/// Point fetches per document-fetch read transaction.
const GETS_PER_READ: usize = 8;
const MIN_READ_SPEEDUP: f64 = 2.0;

fn doc_schema() -> TableSchema {
    TableSchema::builder("doc")
        .column("id", ColumnType::Int)
        .column("cat", ColumnType::Int)
        .column("bytes", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

/// Fresh engine with `rows` seeded documents; returns the row ids the
/// writers will batch-update.
fn seed(kind: EngineKind, rows: usize) -> (AnyEngine, Vec<RowId>) {
    let db = AnyEngine::new(kind);
    db.create_table(doc_schema()).unwrap();
    let ids = db
        .with_txn(|t| {
            let mut ids = Vec::with_capacity(rows);
            for i in 0..rows as i64 {
                ids.push(t.insert(
                    "doc",
                    vec![
                        Value::Int(i),
                        Value::Int((i as u64 % CATS) as i64),
                        Value::Int(10_000 + i),
                    ],
                )?);
            }
            Ok(ids)
        })
        .unwrap();
    (db, ids)
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

#[derive(Serialize)]
struct Cell {
    engine: &'static str,
    workers: usize,
    write_pct: u64,
    batch: usize,
    rows: usize,
    elapsed_ms: u64,
    read_txns: u64,
    write_txns: u64,
    reads_per_sec: f64,
    writes_per_sec: f64,
    /// `relstore.lock.waits` — condvar parks by older transactions.
    lock_waits: u64,
    /// Total microseconds parked (`relstore.lock.wait_us` sum).
    lock_wait_us: u64,
    /// `relstore.lock.wait_die_aborts` — younger transactions killed.
    wait_die_aborts: u64,
    /// `relstore.mvcc.write_conflicts` — first-committer-wins losers.
    write_conflicts: u64,
    /// `relstore.mvcc.gc_reclaimed` — dead versions vacuumed inside
    /// the window by the watermark GC the writers run periodically.
    gc_reclaimed: u64,
    /// `relstore.txn.retries` — `with_txn` re-runs (either engine).
    txn_retries: u64,
}

/// Time-boxed mixed workload on a fresh engine: `workers` threads,
/// each committing batch-update txns at `write_pct`% and read txns
/// (point-fetch runs, occasionally category scans) otherwise, until
/// the window closes.
fn run_cell(
    kind: EngineKind,
    workers: usize,
    write_pct: u64,
    rows: usize,
    batch: usize,
    window: Duration,
) -> Cell {
    let (db, ids) = seed(kind, rows);
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let mut read_txns = 0u64;
    let mut write_txns = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let db = db.clone();
                let ids = &ids;
                let stop = &stop;
                s.spawn(move || {
                    let mut rng = lcg(w as u64 ^ 0x243F_6A88_85A3_08D3);
                    let (mut reads, mut writes) = (0u64, 0u64);
                    while !stop.load(Ordering::Relaxed) {
                        rng = lcg(rng);
                        if rng % 100 < write_pct {
                            let base = (rng >> 32) as usize % rows;
                            let val = (rng >> 16) as i64;
                            db.with_txn(|t| {
                                for j in 0..batch {
                                    let id = ids[(base + j) % rows];
                                    t.update_cols("doc", id, &[("bytes", Value::Int(val))])?;
                                }
                                Ok(())
                            })
                            .unwrap();
                            writes += 1;
                            // Vacuum periodically: batch writers churn
                            // versions faster than the engine's
                            // auto-GC cadence, and the watermark GC is
                            // part of MVCC's write cost, so it runs
                            // inside the measured window (no-op under
                            // 2PL, which updates in place).
                            if writes % 8 == 0 {
                                std::hint::black_box(db.gc());
                            }
                        } else if rng % 1000 < 125 {
                            // One read txn in eight is a category scan
                            // (compiled predicate over every row)...
                            let cat = ((rng >> 8) % CATS) as i64;
                            let n = db
                                .with_txn(|t| t.count("doc", &Predicate::eq("cat", cat)))
                                .unwrap();
                            std::hint::black_box(n);
                            reads += 1;
                        } else {
                            // ...the rest fetch a run of documents by
                            // id — the paper's dominant operation.
                            // Under 2PL each get pays the lock manager
                            // (table IS + row S) and the whole txn
                            // retries if it dies mid-run on a
                            // writer-held row; under MVCC it is a
                            // lock-free snapshot lookup.
                            let base = (rng >> 32) as usize % rows;
                            let n = db
                                .with_txn(|t| {
                                    let mut total = 0usize;
                                    for j in 0..GETS_PER_READ {
                                        total += t.get("doc", ids[(base + j * 17) % rows])?.len();
                                    }
                                    Ok(total)
                                })
                                .unwrap();
                            std::hint::black_box(n);
                            reads += 1;
                        }
                    }
                    (reads, writes)
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let (r, w) = h.join().expect("worker panicked");
            read_txns += r;
            write_txns += w;
        }
    });
    let elapsed = started.elapsed();
    let secs = elapsed.as_secs_f64();
    let m = db.metrics();
    Cell {
        engine: kind.name(),
        workers,
        write_pct,
        batch,
        rows,
        elapsed_ms: elapsed.as_millis() as u64,
        read_txns,
        write_txns,
        reads_per_sec: read_txns as f64 / secs,
        writes_per_sec: write_txns as f64 / secs,
        lock_waits: m.counter("relstore.lock.waits"),
        lock_wait_us: m
            .histogram("relstore.lock.wait_us")
            .map_or(0, |h| h.sum() as u64),
        wait_die_aborts: m.counter("relstore.lock.wait_die_aborts"),
        write_conflicts: m.counter("relstore.mvcc.write_conflicts"),
        gc_reclaimed: m.counter("relstore.mvcc.gc_reclaimed"),
        txn_retries: m.counter("relstore.txn.retries"),
    }
}

#[derive(Serialize)]
struct Doc {
    experiment: &'static str,
    mode: &'static str,
    min_read_speedup_gate: Option<f64>,
    cells: Vec<Cell>,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Timing gates only run on the full sizes: smoke keeps the
    // structural lock-collapse assertion but must not flake under load.
    let gate = !smoke;

    let (worker_counts, write_pcts, rows, batch, window) = if smoke {
        (
            vec![1usize, 2],
            vec![10u64],
            256,
            32,
            Duration::from_millis(80),
        )
    } else {
        (
            vec![1usize, 2, 4, 8, 16],
            vec![1u64, 10, 50],
            2_048,
            64,
            Duration::from_millis(500),
        )
    };

    println!(
        "E18: read/write-mix sweep, 2PL vs MVCC ({}; {} rows, batch {}, {:?} per cell)",
        if smoke { "smoke sizes" } else { "full sizes" },
        rows,
        batch,
        window
    );
    println!(
        "{:>6} {:>8} {:>9} {:>12} {:>12} {:>10} {:>10} {:>10} {:>9}",
        "engine",
        "workers",
        "write%",
        "reads/s",
        "writes/s",
        "lk.waits",
        "wd.aborts",
        "conflicts",
        "retries"
    );

    let mut cells = Vec::new();
    for &workers in &worker_counts {
        for &write_pct in &write_pcts {
            for kind in [EngineKind::TwoPl, EngineKind::Mvcc] {
                eprintln!(
                    "[e18] {} workers={workers} write_pct={write_pct}",
                    kind.name()
                );
                let cell = run_cell(kind, workers, write_pct, rows, batch, window);
                println!(
                    "{:>6} {:>8} {:>9} {:>12.0} {:>12.0} {:>10} {:>10} {:>10} {:>9}",
                    cell.engine,
                    cell.workers,
                    cell.write_pct,
                    cell.reads_per_sec,
                    cell.writes_per_sec,
                    cell.lock_waits,
                    cell.wait_die_aborts,
                    cell.write_conflicts,
                    cell.txn_retries
                );
                // Structural gate, every mode: snapshot reads never
                // touch the lock manager, so the lock-wait and
                // wait-die histograms collapse to zero at *every*
                // reader count.
                if kind == EngineKind::Mvcc {
                    assert_eq!(
                        (cell.lock_waits, cell.wait_die_aborts, cell.lock_wait_us),
                        (0, 0, 0),
                        "MVCC cell (workers={workers}, write_pct={write_pct}) \
                         touched the lock manager"
                    );
                }
                emit("e18", &cell);
                cells.push(cell);
            }
        }
    }

    if gate {
        let max_workers = *worker_counts.last().unwrap();
        let find = |kind: EngineKind, pct: u64| {
            cells
                .iter()
                .find(|c| c.engine == kind.name() && c.workers == max_workers && c.write_pct == pct)
                .expect("cell measured")
        };
        // 2PL actually contended where the sweep is most parallel —
        // otherwise the MVCC zeros above are vacuous.
        let hot = find(EngineKind::TwoPl, 10);
        assert!(
            hot.lock_waits + hot.wait_die_aborts > 0,
            "2PL at {max_workers} workers / 10% writes never contended \
             (waits=0, aborts=0): the sweep is not exercising the lock manager"
        );
        // The headline: at the 90%-read cell, snapshot reads beat
        // two-phase locking by at least 2x.
        let mvcc = find(EngineKind::Mvcc, 10);
        let ratio = mvcc.reads_per_sec / hot.reads_per_sec.max(1e-9);
        println!(
            "\n90%-read cell at {max_workers} workers: MVCC {:.0} reads/s vs 2PL {:.0} \
             reads/s ({ratio:.2}x)",
            mvcc.reads_per_sec, hot.reads_per_sec
        );
        assert!(
            ratio >= MIN_READ_SPEEDUP,
            "MVCC read throughput {ratio:.2}x 2PL at the 90%-read cell, \
             need >= {MIN_READ_SPEEDUP}x"
        );
    }

    let doc = Doc {
        experiment: "e18",
        mode: if smoke { "smoke" } else { "full" },
        min_read_speedup_gate: gate.then_some(MIN_READ_SPEEDUP),
        cells,
    };
    let out = PathBuf::from("BENCH_e18.json");
    write_json_file(&out, &doc);
    println!("\nE18 done: {} cells -> {}", doc.cells.len(), out.display());
}
