//! Group commit under real concurrency: many writer threads, one log.
//!
//! Checks the two properties the batching must not trade away:
//! durability (every committed row survives a reopen) and actual
//! sharing (fewer fsyncs than commits).

use relstore::{ColumnType, TableSchema, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use wal::{open_durable_any, WalOptions};

fn temp_log(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wal-group-{}-{tag}.wal.d", std::process::id()))
}

#[test]
fn concurrent_commits_all_durable_and_flushes_shared() {
    const THREADS: u64 = 8;
    const TXNS_PER_THREAD: u64 = 25;

    let path = temp_log("durable");
    let _ = std::fs::remove_dir_all(&path);
    let (db, wal, _) = open_durable_any(
        &path,
        WalOptions {
            // A small simulated device latency widens the commit
            // window enough that batching reliably happens even on a
            // fast CI machine.
            simulated_disk_latency: Some(std::time::Duration::from_micros(200)),
            ..WalOptions::default()
        },
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("hits")
            .column("id", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap(),
    )
    .unwrap();

    let db = Arc::new(db);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                for i in 0..TXNS_PER_THREAD {
                    let id = i64::try_from(t * 1_000 + i).unwrap();
                    db.with_txn(|txn| {
                        txn.insert("hits", vec![Value::Int(id)])?;
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

    let stats = wal.stats();
    assert_eq!(stats.commits, THREADS * TXNS_PER_THREAD);
    assert!(
        stats.flushes < stats.commits,
        "group commit shared no flush: {} flushes for {} commits",
        stats.flushes,
        stats.commits
    );

    // Crash (drop without checkpoint) and reopen: every commit is back.
    drop(db);
    drop(wal);
    let (db, _, report) = open_durable_any(&path, WalOptions::default()).unwrap();
    assert_eq!(
        db.row_count("hits").unwrap(),
        usize::try_from(THREADS * TXNS_PER_THREAD).unwrap()
    );
    assert!(report.losers.is_empty());
    std::fs::remove_dir_all(&path).unwrap();
}

/// The per-commit-flush baseline (what E14a measured group commit
/// against) is the same log with committers serialised by the caller:
/// with at most one commit in flight, no flush can carry two.
#[test]
fn serialised_committers_flush_every_commit() {
    const THREADS: i64 = 4;
    const TXNS_PER_THREAD: i64 = 10;

    let path = temp_log("percommit");
    let _ = std::fs::remove_dir_all(&path);
    let (db, wal, _) = open_durable_any(&path, WalOptions::default()).unwrap();
    db.create_table(
        TableSchema::builder("hits")
            .column("id", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let one_at_a_time = std::sync::Mutex::new(());
    thread::scope(|s| {
        for t in 0..THREADS {
            let (db, gate) = (&db, &one_at_a_time);
            s.spawn(move || {
                for i in 0..TXNS_PER_THREAD {
                    let _turn = gate.lock().unwrap();
                    db.with_txn(|txn| {
                        txn.insert("hits", vec![Value::Int(t * 1_000 + i)])?;
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
    });
    let stats = wal.stats();
    assert_eq!(stats.commits, (THREADS * TXNS_PER_THREAD) as u64);
    // DDL flushes once too; every commit then pays its own.
    assert!(
        stats.flushes > stats.commits,
        "got {} flushes for {} commits",
        stats.flushes,
        stats.commits
    );
    std::fs::remove_dir_all(&path).unwrap();
}
