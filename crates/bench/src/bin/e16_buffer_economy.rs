//! E16 — buffer economy: the paper's disk/buffer claims, quantified.
//!
//! The paper argues its storage design "avoids the abuse of disk
//! storage" and that "buffer spaces are used only" when data is
//! actually needed. With the paged heap behind a pinning buffer pool,
//! both claims become measurable: the pool bounds resident memory to a
//! configured page budget and spills the remainder to a page store,
//! while the WAL's flush gate keeps every writeback write-ahead-safe.
//!
//! **The sweep.** One table of `N` rows (~120-byte payloads) is loaded
//! and then hit with a seeded point-get/update workload, once per pool
//! budget: 1%, 5%, 25%, 50% and 100% of the working-set page count,
//! each cell spilling to a log-structured page store. Reported per cell:
//! hit rate, evictions, bytes written back to the page store, and the
//! resident-byte peak.
//!
//! **The oracle.** The same workload runs against a default
//! `Database::new()` — the unbounded in-memory pool, i.e. the exact
//! pre-paging behavior. Logical results must match in *every* cell
//! (reads, `heap_bytes`, final snapshot), and the 100% cell must match
//! the oracle's pool counters exactly: a budget covering the working
//! set never evicts, so paging costs nothing when memory is ample —
//! that is the "buffer spaces are used only [as needed]" claim.
//!
//! **Expected shape (asserted):** hit rate and resident peak rise
//! monotonically with the budget; misses, evictions and writeback
//! bytes fall; every resident peak stays under its cell's byte budget
//! (plus pin slack); the 1% cell holds >95% less resident data than
//! the oracle while answering identically — the "avoids the abuse of
//! disk storage" economy, inverted: disk absorbs the working set so
//! memory does not have to.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{ColumnType, Database, PoolConfig, Predicate, TableSchema, Value};
use serde::Serialize;
use std::path::PathBuf;
use wdoc_bench::emit;

const PAGE_SIZE: usize = 4096;
const SEED: u64 = 16;

fn temp_pages(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("e16-{}-{tag}.pages.d", std::process::id()))
}

fn schema() -> TableSchema {
    TableSchema::builder("doc")
        .column("id", ColumnType::Int)
        .column("body", ColumnType::Text)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

/// What one cell's workload observed — the logical outcome that must
/// be identical across every pool configuration.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    reads: u64,
    read_bytes: u64,
    heap_bytes: usize,
    snapshot_json: String,
}

/// Load `n` rows, then run `ops` seeded point-gets (80%) and payload
/// updates (20%) against the primary key.
fn run_workload(db: &Database, n: i64, ops: u64) -> Outcome {
    db.create_table(schema()).unwrap();
    let t = db.begin();
    for i in 0..n {
        t.insert("doc", vec![Value::Int(i), Value::from(format!("{i:<120}"))])
            .unwrap();
    }
    t.commit().unwrap();

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut reads = 0u64;
    let mut read_bytes = 0u64;
    for op in 0..ops {
        let id = rng.gen_range(0..n);
        let t = db.begin();
        if rng.gen_bool(0.8) {
            let rows = t.select("doc", &Predicate::eq("id", id)).unwrap();
            assert_eq!(rows.len(), 1);
            reads += 1;
            read_bytes += rows[0].1[1].as_text().unwrap().len() as u64;
        } else {
            let rid = t.select("doc", &Predicate::eq("id", id)).unwrap()[0].0;
            t.update_cols("doc", rid, &[("body", Value::from(format!("{op:<120}")))])
                .unwrap();
        }
        t.commit().unwrap();
    }
    Outcome {
        reads,
        read_bytes,
        heap_bytes: db.heap_bytes("doc").unwrap(),
        snapshot_json: serde_json::to_string(&db.snapshot().unwrap()).unwrap(),
    }
}

#[derive(Serialize)]
struct Cell {
    pool_pct: u64,
    max_pages: usize,
    budget_bytes: u64,
    hits: u64,
    misses: u64,
    hit_rate: f64,
    evictions: u64,
    writeback_bytes: u64,
    resident_peak_bytes: u64,
    spill_file_bytes: u64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, ops): (i64, u64) = if smoke { (400, 400) } else { (2_000, 4_000) };

    // -- Oracle: the pre-paging configuration (unbounded, in-memory) --
    let oracle_db = Database::new();
    let oracle = run_workload(&oracle_db, n, ops);
    let oracle_stats = oracle_db.pool().stats();
    let working_set_pages = usize::try_from(oracle_stats.resident_pages).unwrap();
    assert!(working_set_pages >= 4, "workload must span several pages");
    println!(
        "E16: buffer economy — {n} rows / {ops} ops, {working_set_pages}-page working set \
         ({} KB), 4 KB pages",
        oracle_stats.resident_bytes / 1_000
    );
    println!(
        "{:>6} {:>6} {:>9} {:>9} {:>8} {:>9} {:>11} {:>11} {:>10}",
        "pool%",
        "pages",
        "hits",
        "misses",
        "hit %",
        "evicted",
        "writeback B",
        "peak KB",
        "spill KB"
    );

    let mut prev: Option<Cell> = None;
    for pct in [1u64, 5, 25, 50, 100] {
        let max_pages = (working_set_pages * usize::try_from(pct).unwrap())
            .div_ceil(100)
            .max(1);
        let path = temp_pages(&format!("p{pct}"));
        let cfg = PoolConfig {
            page_size: PAGE_SIZE,
            ..PoolConfig::log(&path, max_pages)
        };
        let db = Database::with_pool(&cfg).unwrap();
        let outcome = run_workload(&db, n, ops);
        assert_eq!(
            outcome, oracle,
            "{pct}% pool: logical results must not depend on the buffer budget"
        );
        let s = db.pool().stats();
        let spill = db.pool().store_bytes_stored();
        drop(db);
        let _ = std::fs::remove_dir_all(&path);

        let cell = Cell {
            pool_pct: pct,
            max_pages,
            budget_bytes: (max_pages * PAGE_SIZE) as u64,
            hits: s.hits,
            misses: s.misses,
            hit_rate: s.hits as f64 / (s.hits + s.misses).max(1) as f64,
            evictions: s.evictions,
            writeback_bytes: s.writeback_bytes,
            resident_peak_bytes: s.resident_peak,
            spill_file_bytes: spill,
        };
        println!(
            "{:>6} {:>6} {:>9} {:>9} {:>8.2} {:>9} {:>11} {:>11.1} {:>10.1}",
            cell.pool_pct,
            cell.max_pages,
            cell.hits,
            cell.misses,
            100.0 * cell.hit_rate,
            cell.evictions,
            cell.writeback_bytes,
            cell.resident_peak_bytes as f64 / 1_000.0,
            cell.spill_file_bytes as f64 / 1_000.0
        );

        // Resident ceiling: the budget really bounds memory (pinned
        // pages can overshoot by a frame or two, never by the working
        // set).
        assert!(
            cell.resident_peak_bytes <= ((max_pages + 2) * PAGE_SIZE) as u64,
            "{pct}% pool: resident peak {} exceeds budget {}",
            cell.resident_peak_bytes,
            cell.budget_bytes
        );
        // Monotone shape: more buffer never hurts.
        if let Some(p) = &prev {
            assert!(
                cell.hit_rate >= p.hit_rate,
                "hit rate must rise with budget"
            );
            assert!(cell.misses <= p.misses, "misses must fall with budget");
            assert!(
                cell.evictions <= p.evictions,
                "evictions must fall with budget"
            );
            assert!(
                cell.writeback_bytes <= p.writeback_bytes,
                "writeback traffic must fall with budget"
            );
            assert!(
                cell.resident_peak_bytes >= p.resident_peak_bytes,
                "a larger budget may keep more resident"
            );
        }
        if pct == 1 {
            // The economy claim: a 1% budget answers the same queries
            // while keeping a small fraction of the working set
            // resident (a 3-frame ceiling: budget plus pin slack).
            assert!(
                cell.resident_peak_bytes * u64::try_from(working_set_pages).unwrap()
                    <= oracle_stats.resident_peak * 3,
                "1% pool must hold roughly 1/{working_set_pages} of the working set"
            );
        }
        if pct == 100 {
            // A budget covering the working set reproduces the
            // pre-paging pool counters *exactly*: no eviction, no
            // writeback, identical hit/miss stream.
            assert_eq!(cell.evictions, 0, "100% pool must never evict");
            assert_eq!(cell.writeback_bytes, 0);
            assert_eq!(
                (cell.hits, cell.misses),
                (oracle_stats.hits, oracle_stats.misses),
                "100% pool must match the unbounded oracle's counters"
            );
            assert_eq!(cell.resident_peak_bytes, oracle_stats.resident_peak);
        }
        emit("e16", &cell);
        prev = Some(cell);
    }

    println!("\nE16 done: logical results identical in every cell; resident memory bounded by the budget.");
}
