//! Crash-point recovery properties.
//!
//! The central guarantee of the WAL: **after a crash at any byte
//! offset of the log, recovery yields exactly the committed prefix.**
//!
//! The exhaustive test generates a fixed workload (DDL, committed
//! transactions, an explicit rollback, cascading deletes, two
//! checkpoints, and a flushed-but-uncommitted tail transaction), then
//! sweeps *every* cut offset of the resulting log — torn frame
//! headers, torn payloads, sliced checkpoints — and compares the
//! recovered database byte-for-byte (as serialized snapshots) against
//! an oracle database that applied only the transactions whose commit
//! record fully survived the cut.
//!
//! The proptest generalizes the same oracle check to randomized
//! workloads and cut points, and separately checks that flipping any
//! payload bit of a complete record is *detected* by the CRC rather
//! than silently applied.

use proptest::prelude::*;
use relstore::{
    AnyEngine, AnyTxn, ColumnType, EngineKind, FkAction, PoolConfig, Predicate, TableSchema, Value,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use wal::{crash, open_durable_any, recover_bytes_any, WalOptions};

static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

fn temp_log(tag: &str) -> PathBuf {
    let n = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "wal-recovery-{}-{tag}-{n}.wal.d",
        std::process::id()
    ))
}

/// Recover the virtual stream `bytes` onto a 2PL engine over `pool`.
fn recover_on(
    bytes: &[u8],
    pool: &PoolConfig,
) -> Result<(AnyEngine, wal::RecoveryReport), wal::WalError> {
    recover_bytes_any(bytes, &obs::Registry::disabled(), pool, EngineKind::TwoPl)
}

fn recover_bytes(bytes: &[u8]) -> Result<(AnyEngine, wal::RecoveryReport), wal::WalError> {
    recover_on(bytes, &PoolConfig::default())
}

fn parent_schema() -> TableSchema {
    TableSchema::builder("parent")
        .column("id", ColumnType::Int)
        .column("name", ColumnType::Text)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

fn child_schema() -> TableSchema {
    TableSchema::builder("child")
        .column("id", ColumnType::Int)
        .column("parent", ColumnType::Int)
        .primary_key(&["id"])
        .index("by_parent", &["parent"], false)
        .foreign_key(&["parent"], "parent", &["id"], FkAction::Cascade)
        .build()
        .unwrap()
}

/// One scripted mutation, applied identically to the durable run and
/// to the oracle.
#[derive(Debug, Clone, Copy)]
enum Op {
    InsPar(i64, &'static str),
    InsChild(i64, i64),
    UpdParName(i64, &'static str),
    DelPar(i64),
    DelChild(i64),
}

fn row_id_of(txn: &AnyTxn, table: &str, id: i64) -> relstore::RowId {
    txn.select(table, &Predicate::eq("id", id)).unwrap()[0].0
}

fn apply(txn: &AnyTxn, op: Op) {
    match op {
        Op::InsPar(id, name) => {
            txn.insert("parent", vec![Value::Int(id), Value::from(name)])
                .unwrap();
        }
        Op::InsChild(id, parent) => {
            txn.insert("child", vec![Value::Int(id), Value::Int(parent)])
                .unwrap();
        }
        Op::UpdParName(id, name) => {
            let rid = row_id_of(txn, "parent", id);
            txn.update_cols("parent", rid, &[("name", Value::from(name))])
                .unwrap();
        }
        Op::DelPar(id) => {
            let rid = row_id_of(txn, "parent", id);
            txn.delete("parent", rid).unwrap();
        }
        Op::DelChild(id) => {
            let rid = row_id_of(txn, "child", id);
            txn.delete("child", rid).unwrap();
        }
    }
}

/// A durability unit of the scripted workload, with the log offset up
/// to which the unit is durable once executed.
enum Unit {
    Ddl(TableSchema),
    Commit(Vec<Op>),
    Rollback(Vec<Op>),
    Checkpoint,
}

/// Execute the script durably; returns the log bytes and, for each
/// oracle-relevant unit, `(unit_index, durable_mark)`.
fn run_durable(path: &PathBuf, units: &[Unit], tail: &[Op]) -> (Vec<u8>, Vec<(usize, u64)>) {
    let _ = std::fs::remove_dir_all(path);
    let (db, wal, _) = open_durable_any(path, WalOptions::default()).unwrap();
    let mut marks = Vec::new();
    for (i, unit) in units.iter().enumerate() {
        match unit {
            Unit::Ddl(schema) => {
                db.create_table(schema.clone()).unwrap();
                marks.push((i, wal.durable_lsn()));
            }
            Unit::Commit(ops) => {
                let txn = db.begin();
                for &op in ops {
                    apply(&txn, op);
                }
                txn.commit().unwrap();
                marks.push((i, wal.durable_lsn()));
            }
            Unit::Rollback(ops) => {
                let txn = db.begin();
                for &op in ops {
                    apply(&txn, op);
                }
                txn.rollback();
            }
            Unit::Checkpoint => {
                wal.checkpoint_any(&db).unwrap();
            }
        }
    }
    // A transaction in flight at the crash: its records reach the disk
    // (say, pushed out by a checkpoint's flush) but no commit ever
    // does.
    if !tail.is_empty() {
        let txn = db.begin();
        for &op in tail {
            apply(&txn, op);
        }
        wal.flush().unwrap();
        std::mem::forget(txn); // crash: no commit, no rollback
    }
    (crash::read_log(path), marks)
}

/// The oracle: a plain in-memory database that ran the longest prefix
/// of units whose durability mark fits inside the cut. Rollback units
/// inside that prefix are executed and rolled back (they advance row-id
/// allocation exactly as the durable run did); everything past the
/// last surviving committed/DDL unit is omitted.
fn oracle_snapshot_json(units: &[Unit], marks: &[(usize, u64)], cut: u64) -> String {
    let last = marks.iter().rev().find(|(_, m)| *m <= cut).map(|(i, _)| *i);
    let db = AnyEngine::new(EngineKind::TwoPl);
    if let Some(last) = last {
        for unit in &units[..=last] {
            match unit {
                Unit::Ddl(schema) => db.create_table(schema.clone()).unwrap(),
                Unit::Commit(ops) => {
                    let txn = db.begin();
                    for &op in ops {
                        apply(&txn, op);
                    }
                    txn.commit().unwrap();
                }
                Unit::Rollback(ops) => {
                    let txn = db.begin();
                    for &op in ops {
                        apply(&txn, op);
                    }
                    txn.rollback();
                }
                Unit::Checkpoint => {}
            }
        }
    }
    serde_json::to_string(&db.snapshot().unwrap()).unwrap()
}

fn scripted_units() -> Vec<Unit> {
    vec![
        Unit::Ddl(parent_schema()),
        Unit::Ddl(child_schema()),
        Unit::Commit(vec![
            Op::InsPar(1, "a"),
            Op::InsPar(2, "b"),
            Op::InsChild(10, 1),
            Op::InsChild(11, 1),
            Op::InsChild(12, 2),
        ]),
        Unit::Commit(vec![Op::UpdParName(1, "a2"), Op::DelChild(11)]),
        Unit::Checkpoint,
        // Rolled back before the crash: cascades across both tables,
        // then everything restored. Recovery must redo + undo it.
        Unit::Rollback(vec![Op::InsPar(3, "c"), Op::InsChild(13, 3), Op::DelPar(2)]),
        Unit::Commit(vec![Op::InsPar(4, "d"), Op::UpdParName(2, "b2")]),
        Unit::Checkpoint,
        Unit::Commit(vec![Op::DelPar(1)]), // cascades child 10
    ]
}

/// Every byte offset of the log is a valid crash point, and recovery
/// at each one equals the committed-prefix oracle exactly.
#[test]
fn recovery_equals_committed_prefix_at_every_cut() {
    let path = temp_log("sweep");
    let units = scripted_units();
    let tail = [
        Op::InsPar(5, "e"),
        Op::InsChild(14, 4),
        Op::UpdParName(4, "d2"),
    ];
    let (bytes, marks) = run_durable(&path, &units, &tail);
    std::fs::remove_dir_all(&path).unwrap();

    // Oracle snapshots depend only on which units survive; cache per
    // prefix so the sweep stays fast.
    let mut oracle_cache: std::collections::HashMap<Option<usize>, String> =
        std::collections::HashMap::new();

    let mut torn_cuts = 0u64;
    for cut in 0..=bytes.len() as u64 {
        let prefix = crash::cut_at(&bytes, cut);
        let (db, report) = recover_bytes(&prefix)
            .unwrap_or_else(|e| panic!("cut {cut}: recovery must succeed, got {e}"));
        if report.torn_tail.is_some() {
            torn_cuts += 1;
        }
        let key = marks.iter().rev().find(|(_, m)| *m <= cut).map(|(i, _)| *i);
        let units_ref = &units;
        let marks_ref = &marks;
        let expected = oracle_cache
            .entry(key)
            .or_insert_with(|| oracle_snapshot_json(units_ref, marks_ref, cut));
        let got = serde_json::to_string(&db.snapshot().unwrap()).unwrap();
        assert_eq!(
            &got, expected,
            "cut {cut}: recovered state diverges from committed-prefix oracle"
        );
    }
    // Sanity: the sweep actually exercised torn frames.
    assert!(torn_cuts > bytes.len() as u64 / 2, "most cuts tear a frame");

    // The full log recovers with the in-flight tail transaction undone
    // and reported as a loser.
    let (_, report) = recover_bytes(&bytes).unwrap();
    assert_eq!(report.losers.len(), 1, "the in-flight tail transaction");
    assert!(report.undone_ops >= tail.len());
    assert!(report.checkpoint_lsn.is_some());
}

/// Flipping any single bit of any complete frame's payload is caught
/// by the CRC — never silently applied, never silently skipped.
#[test]
fn corrupted_records_are_detected_by_crc() {
    let path = temp_log("crc");
    let units = scripted_units();
    let (bytes, _) = run_durable(&path, &units, &[]);
    std::fs::remove_dir_all(&path).unwrap();

    let frames = crash::frames(&bytes);
    assert!(frames.len() > 10, "workload produced a real log");
    // Flip one payload bit in every frame (header offset + 8 skips the
    // len/crc header into the payload).
    for (lsn, _end, _) in &frames {
        let mut corrupted = bytes.clone();
        crash::flip_bit(&mut corrupted, lsn + 8, 3);
        match recover_bytes(&corrupted) {
            Err(wal::WalError::Corrupt { lsn: at, .. }) => assert_eq!(at, *lsn),
            Err(other) => panic!("flip at frame {lsn}: expected Corrupt, got {other}"),
            Ok(_) => panic!("flip at frame {lsn}: corruption silently applied"),
        }
    }
}

/// A loser rolled back by one recovery stays dead through the next.
///
/// Transaction ids name transactions *in the log*, so the recovered
/// engine must resume allocation past every id the log has used —
/// both those visible in the replayed tail and those hidden behind a
/// checkpoint (carried by the checkpoint record's counter). Regression
/// test: ids used to restart at 1 on reopen, and the first
/// post-recovery commit record aliased the crashed transaction,
/// retroactively committing its surviving records on the *next*
/// recovery.
#[test]
fn recovered_losers_stay_dead_after_later_commits() {
    let path = temp_log("resurrect");

    // Session 1: one committed row, one flushed-but-uncommitted row.
    {
        let (db, wal, _) = open_durable_any(&path, WalOptions::default()).unwrap();
        db.create_table(parent_schema()).unwrap();
        let txn = db.begin();
        apply(&txn, Op::InsPar(1, "alpha"));
        txn.commit().unwrap();
        let loser = db.begin();
        apply(&loser, Op::InsPar(2, "beta"));
        wal.flush().unwrap();
        std::mem::forget(loser); // crash: records on disk, no commit
    }

    // Session 2: recovery rolls the loser back; commit more work and
    // checkpoint, so the next recovery sees the counter only via the
    // checkpoint record.
    {
        let (db, wal, report) = open_durable_any(&path, WalOptions::default()).unwrap();
        assert_eq!(report.losers.len(), 1, "the in-flight insert");
        let txn = db.begin();
        assert!(
            txn.id() >= report.next_txn,
            "fresh ids must not alias logged ones: {} < {}",
            txn.id(),
            report.next_txn
        );
        apply(&txn, Op::InsPar(3, "gamma"));
        txn.commit().unwrap();
        wal.checkpoint_any(&db).unwrap();
    }

    // Session 3: beta must still be dead, and ids must still advance.
    let (db, report) = recover_bytes(&crash::read_log(&path)).unwrap();
    let txn = db.begin();
    assert!(txn.id() >= report.next_txn);
    assert!(report.next_txn > 1, "checkpoint carried the counter");
    let rows = txn.select("parent", &Predicate::True).unwrap();
    assert_eq!(rows.len(), 2, "alpha and gamma only");
    assert!(
        txn.select("parent", &Predicate::eq("name", "beta"))
            .unwrap()
            .is_empty(),
        "the rolled-back loser must not be resurrected"
    );
    std::fs::remove_dir_all(&path).unwrap();
}

/// A wait-die retry reuses its transaction id, so one id can log an
/// `Abort` and later a `Commit`. Recovery must undo the aborted
/// attempt's ops although the id as a whole committed.
#[test]
fn retried_attempt_under_one_id_is_not_resurrected() {
    let path = temp_log("retry");
    {
        let (db, wal, _) = open_durable_any(&path, WalOptions::default()).unwrap();
        db.create_table(parent_schema()).unwrap();
        let runs = AtomicU64::new(0);
        db.with_txn(|txn| {
            apply(txn, Op::InsPar(1, "alpha"));
            if runs.fetch_add(1, Ordering::Relaxed) == 0 {
                return Err(relstore::Error::TxnAborted {
                    reason: "first run loses".to_owned(),
                });
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        wal.flush().unwrap();
    }
    let (db, report) = recover_bytes(&crash::read_log(&path)).unwrap();
    let rows = db.begin().select("parent", &Predicate::True).unwrap();
    assert_eq!(rows.len(), 1, "one committed attempt, one row: {rows:?}");
    assert!(report.losers.is_empty());
    std::fs::remove_dir_all(&path).unwrap();
}

// ---------------------------------------------------------------------
// Randomized generalization
// ---------------------------------------------------------------------

/// A randomized workload over one table: each transaction inserts a
/// couple of rows keyed off its index, then commits or rolls back.
fn build_units(decisions: &[(bool, u8)]) -> Vec<Unit> {
    let mut units = vec![Unit::Ddl(parent_schema())];
    for (i, &(commit, extra)) in decisions.iter().enumerate() {
        let base = (i as i64) * 10;
        let mut ops = vec![Op::InsPar(base, "x"), Op::InsPar(base + 1, "y")];
        if extra % 3 == 0 {
            ops.push(Op::UpdParName(base, "z"));
        }
        if extra % 4 == 0 {
            ops.push(Op::DelPar(base + 1));
        }
        units.push(if commit {
            Unit::Commit(ops)
        } else {
            Unit::Rollback(ops)
        });
        if extra % 5 == 0 {
            units.push(Unit::Checkpoint);
        }
    }
    units
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn randomized_workload_recovers_committed_prefix(
        decisions in proptest::collection::vec((any::<bool>(), 0u8..10), 1..8),
        cut_seeds in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        let path = temp_log("prop");
        let units = build_units(&decisions);
        let (bytes, marks) = run_durable(&path, &units, &[Op::InsPar(9_999, "tail")]);
        std::fs::remove_dir_all(&path).unwrap();

        for seed in cut_seeds {
            let cut = (seed * (bytes.len() as f64 + 1.0)) as u64;
            let prefix = crash::cut_at(&bytes, cut);
            let (db, _) = recover_bytes(&prefix).expect("every cut recovers");
            let got = serde_json::to_string(&db.snapshot().unwrap()).unwrap();
            let expected = oracle_snapshot_json(&units, &marks, cut);
            prop_assert_eq!(got, expected, "cut {}", cut);
        }
    }
}

// ---------------------------------------------------------------------
// Log-backed buffer pool: the same crash guarantees, plus the flush
// rule observed at every dirty-page writeback
// ---------------------------------------------------------------------

/// Collects every writeback the pool performs and any violation of the
/// write-ahead rule (`rec_lsn <= flushed_lsn` — and the stronger
/// `page_lsn <= flushed_lsn` the gate actually enforces).
#[derive(Debug, Default)]
struct FlushRuleAudit {
    writebacks: std::sync::atomic::AtomicU64,
    violations: std::sync::Mutex<Vec<String>>,
}

impl relstore::WritebackObserver for FlushRuleAudit {
    fn on_writeback(&self, id: relstore::PageId, rec_lsn: u64, page_lsn: u64, flushed_lsn: u64) {
        self.writebacks.fetch_add(1, Ordering::Relaxed);
        if rec_lsn > flushed_lsn || page_lsn > flushed_lsn {
            self.violations.lock().unwrap().push(format!(
                "{id}: rec_lsn={rec_lsn} page_lsn={page_lsn} flushed={flushed_lsn}"
            ));
        }
    }
}

/// A bounded pool with 256-byte pages spilling to a fresh
/// log-structured store.
fn tiny_log_pool(tag: &str, max_pages: usize) -> (PoolConfig, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "wal-recovery-{}-{tag}-{}.pages.d",
        std::process::id(),
        NEXT_FILE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PoolConfig {
        page_size: 256,
        ..PoolConfig::log(&dir, max_pages)
    };
    (cfg, dir)
}

/// The scripted crash-point sweep, re-run on a one-page log-backed
/// buffer pool: nearly every row access evicts a dirty page through
/// the WAL's flush gate, a [`relstore::WritebackObserver`] audits the
/// write-ahead rule at each writeback, and recovery at every cut —
/// itself onto a bounded log-backed pool — still equals the
/// committed-prefix oracle.
#[test]
fn log_backed_pool_recovery_sweep_upholds_flush_rule() {
    let path = temp_log("logpool");
    let (pool, spill) = tiny_log_pool("spill", 1);
    let units = scripted_units();
    let tail = [Op::InsPar(5, "e"), Op::InsChild(14, 4)];

    // Durable run on the tiny pool, flush rule audited throughout.
    let _ = std::fs::remove_dir_all(&path);
    let audit = std::sync::Arc::new(FlushRuleAudit::default());
    let opts = WalOptions {
        sync_data: false, // in-process durability semantics are identical
        pool,
        ..WalOptions::default()
    };
    let (bytes, marks) = {
        let (db, wal, _) = open_durable_any(&path, opts).unwrap();
        db.as_two_pl()
            .expect("2PL engine")
            .pool()
            .set_observer(Some(audit.clone()));
        let mut marks = Vec::new();
        for (i, unit) in units.iter().enumerate() {
            match unit {
                Unit::Ddl(schema) => {
                    db.create_table(schema.clone()).unwrap();
                    marks.push((i, wal.durable_lsn()));
                }
                Unit::Commit(ops) => {
                    let txn = db.begin();
                    for &op in ops {
                        apply(&txn, op);
                    }
                    txn.commit().unwrap();
                    marks.push((i, wal.durable_lsn()));
                }
                Unit::Rollback(ops) => {
                    let txn = db.begin();
                    for &op in ops {
                        apply(&txn, op);
                    }
                    txn.rollback();
                }
                Unit::Checkpoint => {
                    wal.checkpoint_any(&db).unwrap();
                }
            }
        }
        let txn = db.begin();
        for &op in &tail {
            apply(&txn, op);
        }
        wal.flush().unwrap();
        std::mem::forget(txn); // crash: records on disk, no commit
        (crash::read_log(&path), marks)
    };
    std::fs::remove_dir_all(&path).unwrap();

    assert!(
        audit.writebacks.load(Ordering::Relaxed) > 0,
        "a one-page pool must actually write dirty pages back, or the \
         flush-rule audit is vacuous"
    );
    assert_eq!(
        *audit.violations.lock().unwrap(),
        Vec::<String>::new(),
        "no dirty page may reach the page store before the log covers it"
    );

    // The last checkpoint of the scripted run was taken mid-workload on
    // a one-page pool: its dirty-page table should be non-trivial for
    // at least one checkpoint (the log records how far the pool lagged).
    let scan = wal::scan(&bytes).unwrap();
    let dirty_counts: Vec<usize> = scan
        .records
        .iter()
        .filter_map(|(_, r)| match r {
            wal::WalRecord::Checkpoint { dirty_pages, .. } => Some(dirty_pages.len()),
            _ => None,
        })
        .collect();
    assert_eq!(dirty_counts.len(), 2, "both checkpoints survived");

    // Crash-point sweep: recover every cut onto a bounded log-backed
    // pool; logical state must equal the in-memory oracle at each.
    let mut oracle_cache: std::collections::HashMap<Option<usize>, String> =
        std::collections::HashMap::new();
    for cut in 0..=bytes.len() as u64 {
        let prefix = crash::cut_at(&bytes, cut);
        let (cfg, recover_spill) = tiny_log_pool("recover", 4);
        let (db, _) = recover_on(&prefix, &cfg)
            .unwrap_or_else(|e| panic!("cut {cut}: pooled recovery must succeed, got {e}"));
        let key = marks.iter().rev().find(|(_, m)| *m <= cut).map(|(i, _)| *i);
        let expected = oracle_cache
            .entry(key)
            .or_insert_with(|| oracle_snapshot_json(&units, &marks, cut));
        let got = serde_json::to_string(&db.snapshot().unwrap()).unwrap();
        assert_eq!(
            &got, expected,
            "cut {cut}: log-backed recovery diverges from oracle"
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&recover_spill);
    }
    let _ = std::fs::remove_dir_all(&spill);
}

/// Regression: a checkpoint concurrent with dirty-page eviction must
/// not deadlock. Checkpointing used to read the pool's dirty-page
/// table while holding the WAL state lock, while eviction holds the
/// pool state lock and waits on the WAL through the flush gate — a
/// lock-order inversion. A writer thread churns a one-page pool
/// against a checkpointer thread; a watchdog turns a regression into
/// a loud failure instead of a hung suite.
#[test]
fn checkpoint_concurrent_with_eviction_does_not_deadlock() {
    let path = temp_log("ckpt-evict");
    let (pool, spill) = tiny_log_pool("ckpt-evict-spill", 1);
    let opts = WalOptions {
        sync_data: false,
        pool,
        ..WalOptions::default()
    };
    let (db, wal, _) = open_durable_any(&path, opts).unwrap();
    db.create_table(parent_schema()).unwrap();

    let writer = {
        let db = db.clone();
        std::thread::spawn(move || {
            let mut committed = 0i64;
            while committed < 300 {
                let txn = db.begin();
                // Wait-die may abort either side of the race; only a
                // committed insert advances the id.
                let ok = txn
                    .insert("parent", vec![Value::Int(committed), Value::from("row")])
                    .is_ok()
                    && txn.commit().is_ok();
                if ok {
                    committed += 1;
                }
            }
        })
    };
    let checkpointer = {
        let db = db.clone();
        let wal = wal.clone();
        std::thread::spawn(move || {
            for _ in 0..60 {
                wal.checkpoint_any(&db).unwrap();
            }
        })
    };

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        writer.join().unwrap();
        checkpointer.join().unwrap();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(std::time::Duration::from_secs(120)) {
        Ok(()) => waiter.join().unwrap(),
        Err(_) => panic!(
            "checkpoint deadlocked against dirty-page eviction \
             (pool-lock / WAL-lock order inversion)"
        ),
    }
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_dir_all(&spill);
}
