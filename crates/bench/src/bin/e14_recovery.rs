//! E14 — durability: group commit throughput and recovery time.
//!
//! The 1999 system bought durability from its commercial RDBMS; the
//! reproduction pays for it in the open, so the costs are measurable.
//! Two questions, two sweeps:
//!
//! **E14a — what does group commit buy?** W concurrent writers each
//! commit a stream of small transactions against one WAL. In the
//! per-commit-flush baseline the writers take turns behind a
//! bench-side mutex, so every commit pays its own synchronous log
//! write (one commit per flush by construction); in group-commit mode
//! concurrent committers share one. A
//! simulated device latency (2 ms per flush, a fair model of a 1999
//! disk) makes the flush the bottleneck it historically was, so the ratio
//! between the modes is the batching factor. Expected shape: ratio ≈ 1
//! at W = 1 (nothing to share), rising toward W as writers pile up —
//! and at least 5× at W = 64.
//!
//! **E14b — what do checkpoints bound?** The same workload logged with
//! checkpoints every C transactions, then the log is recovered
//! cold. Recovery must replay only the records after the last
//! checkpoint, so replayed-record counts (and recovery wall time) are
//! bounded by C, not by the total history length.

use relstore::{ColumnType, EngineKind, PoolConfig, TableSchema, Value};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wal::{crash, open_durable_any, recover_bytes_any, WalOptions};
use wdoc_bench::emit;

fn temp_log(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("e14-{}-{tag}.wal.d", std::process::id()))
}

fn schema() -> TableSchema {
    TableSchema::builder("d")
        .column("id", ColumnType::Int)
        .column("v", ColumnType::Text)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

// ---------------------------------------------------------------------
// E14a: group commit vs per-commit flush
// ---------------------------------------------------------------------

#[derive(Serialize)]
struct CommitRow {
    writers: u64,
    txns_per_writer: u64,
    grouped: bool,
    elapsed_s: f64,
    commits_per_s: f64,
    flushes: u64,
    commits: u64,
    batching_factor: f64,
}

/// One measured cell: `writers` threads each commit `txns` inserts
/// through a WAL with a 2 ms simulated flush latency. With
/// `grouped` off the writers commit one at a time behind a mutex:
/// the per-commit-flush baseline.
fn run_commit_cell(writers: u64, txns: u64, grouped: bool) -> CommitRow {
    let path = temp_log(&format!("commit-{writers}-{grouped}"));
    let _ = std::fs::remove_dir_all(&path);
    let (db, wal, _) = open_durable_any(
        &path,
        WalOptions {
            simulated_disk_latency: Some(Duration::from_millis(2)),
            ..WalOptions::default()
        },
    )
    .unwrap();
    db.create_table(schema()).unwrap();

    let db = Arc::new(db);
    let one_at_a_time = Arc::new(Mutex::new(()));
    let start = Instant::now();
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let db = Arc::clone(&db);
            let gate = Arc::clone(&one_at_a_time);
            std::thread::spawn(move || {
                for i in 0..txns {
                    let id = i64::try_from(w * 1_000_000 + i).unwrap();
                    let _turn = (!grouped).then(|| gate.lock().unwrap());
                    db.with_txn(|t| {
                        t.insert("d", vec![Value::Int(id), Value::from("x")])?;
                        Ok(())
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();

    let stats = wal.stats();
    std::fs::remove_dir_all(&path).unwrap();
    let commits = stats.commits;
    assert_eq!(commits, writers * txns);
    CommitRow {
        writers,
        txns_per_writer: txns,
        grouped,
        elapsed_s: elapsed,
        commits_per_s: commits as f64 / elapsed,
        flushes: stats.flushes,
        commits,
        batching_factor: commits as f64 / stats.flushes.max(1) as f64,
    }
}

// ---------------------------------------------------------------------
// E14b: recovery time vs checkpoint interval
// ---------------------------------------------------------------------

#[derive(Serialize)]
struct RecoveryRow {
    checkpoint_every: u64, // 0 = never
    txns: u64,
    log_bytes: u64,
    checkpoints: u64,
    recover_ms: f64,
    records_scanned: usize,
    replayed_ops: usize,
    rows_recovered: usize,
}

/// How many rows the E14b station holds: history (update transactions)
/// is much longer than state, the regime where checkpoints matter.
const WORKING_SET: u64 = 50;

/// Seed `WORKING_SET` rows, then log `txns` single-row-update
/// transactions round-robin over them, checkpointing every `every`
/// transactions (0 = never); finally recover the log cold and time it.
fn run_recovery_cell(txns: u64, every: u64) -> RecoveryRow {
    let path = temp_log(&format!("recover-{every}"));
    let _ = std::fs::remove_dir_all(&path);
    let (db, wal, _) = open_durable_any(
        &path,
        WalOptions {
            // No simulated latency: E14b measures recovery, not commit.
            simulated_disk_latency: None,
            ..WalOptions::default()
        },
    )
    .unwrap();
    db.create_table(schema()).unwrap();
    let ids: Vec<relstore::RowId> = (0..WORKING_SET)
        .map(|i| {
            let k = i64::try_from(i).unwrap();
            db.with_txn(|t| t.insert("d", vec![Value::Int(k), Value::from("seed")]))
                .unwrap()
        })
        .collect();
    for i in 0..txns {
        let id = ids[usize::try_from(i % WORKING_SET).unwrap()];
        let v = format!("v{i}");
        db.with_txn(|t| t.update_cols("d", id, &[("v", Value::from(v.clone()))]))
            .unwrap();
        if every > 0 && (i + 1) % every == 0 {
            wal.checkpoint_any(&db).unwrap();
        }
    }
    let checkpoints = wal.stats().checkpoints;
    drop(db);
    drop(wal);

    let bytes = crash::read_log(&path);
    std::fs::remove_dir_all(&path).unwrap();
    let start = Instant::now();
    let (recovered, report) = recover_bytes_any(
        &bytes,
        &obs::Registry::disabled(),
        &PoolConfig::default(),
        EngineKind::TwoPl,
    )
    .unwrap();
    let recover_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let rows = recovered.row_count("d").unwrap();
    assert_eq!(rows as u64, WORKING_SET, "full working set recovered");
    RecoveryRow {
        checkpoint_every: every,
        txns,
        log_bytes: bytes.len() as u64,
        checkpoints,
        recover_ms,
        records_scanned: report.records_scanned,
        replayed_ops: report.redone_ops,
        rows_recovered: rows,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // -- E14a ----------------------------------------------------------
    let (writer_counts, txns): (&[u64], u64) = if smoke {
        (&[1, 8], 4)
    } else {
        (&[1, 8, 64], 25)
    };
    println!("E14a: group commit vs per-commit flush, 2 ms simulated device, {txns} txns/writer");
    println!(
        "{:>7} {:>6} {:>10} {:>12} {:>8} {:>9}",
        "writers", "mode", "elapsed s", "commits/s", "flushes", "batching"
    );
    for &w in writer_counts {
        let per = run_commit_cell(w, txns, false);
        let group = run_commit_cell(w, txns, true);
        for row in [&per, &group] {
            println!(
                "{:>7} {:>6} {:>10.3} {:>12.1} {:>8} {:>9.1}",
                row.writers,
                if row.grouped { "group" } else { "each" },
                row.elapsed_s,
                row.commits_per_s,
                row.flushes,
                row.batching_factor
            );
            emit("e14a", row);
        }
        let speedup = group.commits_per_s / per.commits_per_s;
        println!("{:>7} speedup {speedup:.1}x", w);
        if !smoke && w >= 64 {
            assert!(
                speedup >= 5.0,
                "group commit must batch at least 5x at {w} writers, got {speedup:.1}x"
            );
        }
    }

    // -- E14b ----------------------------------------------------------
    let (total, intervals): (u64, &[u64]) = if smoke {
        (60, &[0, 16])
    } else {
        (600, &[0, 256, 64, 16])
    };
    println!("\nE14b: recovery cost vs checkpoint interval, {total} txns");
    println!(
        "{:>9} {:>7} {:>10} {:>11} {:>9} {:>10}",
        "ckpt every", "ckpts", "log KB", "recover ms", "scanned", "replayed"
    );
    let mut prev_replayed = usize::MAX;
    for &every in intervals {
        let row = run_recovery_cell(total, every);
        println!(
            "{:>9} {:>7} {:>10.1} {:>11.2} {:>9} {:>10}",
            if row.checkpoint_every == 0 {
                "never".to_string()
            } else {
                row.checkpoint_every.to_string()
            },
            row.checkpoints,
            row.log_bytes as f64 / 1_000.0,
            row.recover_ms,
            row.records_scanned,
            row.replayed_ops
        );
        // The bound under test: replay work shrinks with the interval
        // (each txn is 1 op; replay covers at most the last interval).
        if every > 0 {
            assert!(
                row.replayed_ops as u64 <= every,
                "replay must be bounded by the checkpoint interval"
            );
        }
        assert!(
            row.replayed_ops <= prev_replayed,
            "tighter checkpoints may not increase replay work"
        );
        prev_replayed = row.replayed_ops;
        emit("e14b", &row);
    }

    println!("\nE14 done.");
}
