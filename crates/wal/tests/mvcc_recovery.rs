//! Crash-point recovery properties for the MVCC engine.
//!
//! The log format is engine-agnostic, so the E14 guarantee extends
//! verbatim: **after a crash at any byte offset of a log written under
//! MVCC, recovery yields exactly the committed prefix** — and the same
//! bytes replay identically under either engine.
//!
//! MVCC changes *where* losers come from. The engine appends a
//! transaction's records contiguously at commit time, under its commit
//! fence, so an in-flight or rolled-back transaction writes nothing; a
//! loser exists only when the crash cuts the log *inside* a commit's
//! op run, severing the ops from their commit record. The sweep counts
//! those cuts to prove the undo path actually runs.
//!
//! GC interplay: version reclamation is purely in-memory (the log
//! carries committed state, not version chains), so a version reclaimed
//! before the crash must never resurrect through recovery.

use relstore::{
    AnyEngine, AnyTxn, ColumnType, EngineKind, FkAction, Predicate, TableSchema, Value,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use wal::{crash, open_durable_any, recover_bytes_any, WalOptions};

static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

fn temp_log(tag: &str) -> PathBuf {
    let n = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("wal-mvcc-{}-{tag}-{n}.wal", std::process::id()))
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

#[derive(Debug, Clone, Copy)]
enum Op {
    InsPar(i64, &'static str),
    InsChild(i64, i64),
    UpdParName(i64, &'static str),
    DelPar(i64),
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
            let rid = txn.select("parent", &Predicate::eq("id", id)).unwrap()[0].0;
            txn.update_cols("parent", rid, &[("name", Value::from(name))])
                .unwrap();
        }
        Op::DelPar(id) => {
            let rid = txn.select("parent", &Predicate::eq("id", id)).unwrap()[0].0;
            txn.delete("parent", rid).unwrap();
        }
    }
}

enum Unit {
    Ddl(TableSchema),
    Commit(Vec<Op>),
    Rollback(Vec<Op>),
    Checkpoint,
}

/// Run the script durably on the MVCC engine; returns the log bytes
/// and, per durable unit, `(unit_index, durable_mark)`.
fn run_durable_mvcc(path: &PathBuf, units: &[Unit]) -> (Vec<u8>, Vec<(usize, u64)>) {
    let _ = std::fs::remove_dir_all(path);
    let opts = WalOptions {
        engine: EngineKind::Mvcc,
        ..WalOptions::default()
    };
    let (db, wal, _) = open_durable_any(path, opts).unwrap();
    assert_eq!(db.kind(), EngineKind::Mvcc);
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
    (crash::read_log(path), marks)
}

/// Committed-prefix oracle: a fresh in-memory engine that ran every
/// unit whose durability mark fits inside the cut. Rollback units are
/// executed and rolled back — they burn row ids exactly as the durable
/// run did, so later committed units allocate identical ids.
fn oracle_snapshot_json(units: &[Unit], marks: &[(usize, u64)], cut: u64) -> String {
    let last = marks.iter().rev().find(|(_, m)| *m <= cut).map(|(i, _)| *i);
    let db = AnyEngine::new(EngineKind::Mvcc);
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
        Unit::Commit(vec![Op::UpdParName(1, "a2")]),
        Unit::Checkpoint,
        // Rolled back before any crash: MVCC logs nothing for it, but
        // it burns row ids the oracle must burn too.
        Unit::Rollback(vec![Op::InsPar(3, "c"), Op::InsChild(13, 3), Op::DelPar(2)]),
        Unit::Commit(vec![Op::InsPar(4, "d"), Op::UpdParName(2, "b2")]),
        Unit::Checkpoint,
        Unit::Commit(vec![Op::DelPar(1)]), // cascades children 10, 11
    ]
}

fn recover(bytes: &[u8], kind: EngineKind) -> (AnyEngine, wal::RecoveryReport) {
    recover_bytes_any(
        bytes,
        &obs::Registry::disabled(),
        &relstore::PoolConfig::default(),
        kind,
    )
    .unwrap_or_else(|e| panic!("recovery must succeed, got {e}"))
}

/// E14 extended to MVCC: every byte offset is a valid crash point and
/// recovery at each equals the committed-prefix oracle; cuts landing
/// inside a commit's contiguous op run produce losers that the undo
/// phase rolls back.
#[test]
fn mvcc_recovery_equals_committed_prefix_at_every_cut() {
    let path = temp_log("sweep");
    let units = scripted_units();
    let (bytes, marks) = run_durable_mvcc(&path, &units);
    std::fs::remove_dir_all(&path).unwrap();

    let mut oracle_cache: std::collections::HashMap<Option<usize>, String> =
        std::collections::HashMap::new();
    let mut torn_cuts = 0u64;
    let mut loser_cuts = 0u64;
    for cut in 0..=bytes.len() as u64 {
        let prefix = crash::cut_at(&bytes, cut);
        let (db, report) = recover(&prefix, EngineKind::Mvcc);
        if report.torn_tail.is_some() {
            torn_cuts += 1;
        }
        if !report.losers.is_empty() {
            loser_cuts += 1;
        }
        let key = marks.iter().rev().find(|(_, m)| *m <= cut).map(|(i, _)| *i);
        let expected = oracle_cache
            .entry(key)
            .or_insert_with(|| oracle_snapshot_json(&units, &marks, cut));
        let got = serde_json::to_string(&db.snapshot().unwrap()).unwrap();
        assert_eq!(
            &got, expected,
            "cut {cut}: recovered MVCC state diverges from committed-prefix oracle"
        );
    }
    assert!(torn_cuts > bytes.len() as u64 / 2, "most cuts tear a frame");
    assert!(
        loser_cuts > 0,
        "some cuts must sever ops from their commit record and exercise undo"
    );

    // Commit-time logging: the *complete* log has no losers at all —
    // every op run that made it to disk ends in its commit record.
    let (_, report) = recover(&bytes, EngineKind::Mvcc);
    assert!(
        report.losers.is_empty(),
        "an uncut MVCC log cannot contain an unfinished transaction"
    );
    assert!(report.checkpoint_lsn.is_some());
}

/// The log is engine-agnostic: at every cut, the bytes replay onto the
/// 2PL engine to the same committed state they replay onto MVCC.
#[test]
fn mvcc_log_replays_identically_under_both_engines() {
    let path = temp_log("xengine");
    let units = scripted_units();
    let (bytes, _) = run_durable_mvcc(&path, &units);
    std::fs::remove_dir_all(&path).unwrap();

    // Full-log equality plus a stride of cut points (the exhaustive
    // per-cut oracle sweep lives in the test above).
    let cuts: Vec<u64> = (0..=bytes.len() as u64).step_by(17).collect();
    for cut in cuts.into_iter().chain([bytes.len() as u64]) {
        let prefix = crash::cut_at(&bytes, cut);
        let (mvcc, _) = recover(&prefix, EngineKind::Mvcc);
        let (twopl, _) = recover(&prefix, EngineKind::TwoPl);
        assert_eq!(
            serde_json::to_string(&mvcc.snapshot().unwrap()).unwrap(),
            serde_json::to_string(&twopl.snapshot().unwrap()).unwrap(),
            "cut {cut}: the engines disagree on the same log bytes"
        );
    }
}

/// GC-vs-recovery: reclaiming superseded versions before a crash must
/// not change what recovery rebuilds, and reclaimed versions never
/// resurrect — not in committed state, and not as extra version-chain
/// entries either.
#[test]
fn gc_reclaimed_versions_never_resurrect() {
    let path = temp_log("gc");
    let _ = std::fs::remove_dir_all(&path);
    let opts = WalOptions {
        engine: EngineKind::Mvcc,
        ..WalOptions::default()
    };
    let (bytes, final_names) = {
        let (db, wal, _) = open_durable_any(&path, opts).unwrap();
        db.create_table(parent_schema()).unwrap();
        let txn = db.begin();
        for i in 0..4 {
            apply(&txn, Op::InsPar(i, "v0"));
        }
        txn.commit().unwrap();
        // Churn versions: three updates per row, GC between rounds.
        for round in 1..=3 {
            for i in 0..4 {
                let txn = db.begin();
                apply(&txn, Op::UpdParName(i, ["v1", "v2", "v3"][round - 1]));
                txn.commit().unwrap();
            }
            let reclaimed = db.gc();
            assert!(reclaimed > 0, "round {round}: churn left dead versions");
        }
        // Checkpoint after GC: the snapshot must carry live state only.
        wal.checkpoint_any(&db).unwrap();
        let txn = db.begin();
        apply(&txn, Op::UpdParName(0, "final"));
        txn.commit().unwrap();
        let t = db.begin();
        let names: Vec<String> = t
            .select("parent", &Predicate::True)
            .unwrap()
            .into_iter()
            .map(|(_, row)| row[1].as_text().unwrap().to_owned())
            .collect();
        t.commit().unwrap();
        (crash::read_log(&path), names)
    };
    std::fs::remove_dir_all(&path).unwrap();

    let (db, report) = recover(&bytes, EngineKind::Mvcc);
    assert!(report.checkpoint_lsn.is_some(), "post-GC checkpoint used");
    let t = db.begin();
    let names: Vec<String> = t
        .select("parent", &Predicate::True)
        .unwrap()
        .into_iter()
        .map(|(_, row)| row[1].as_text().unwrap().to_owned())
        .collect();
    t.commit().unwrap();
    assert_eq!(
        names, final_names,
        "recovery rebuilt exactly the live state"
    );

    // No resurrected version chains: after one GC with no readers, the
    // recovered engine holds exactly one live version per row.
    db.gc();
    assert_eq!(
        db.metrics().gauge("relstore.mvcc.versions_live"),
        Some(4),
        "reclaimed versions must not come back through the log"
    );
}

/// The MVCC checkpoint fence: a checkpoint racing a storm of committers
/// must not lose the commits that land around it. Any commit whose
/// record precedes the checkpoint must be inside its snapshot; any
/// later one must replay from the tail — full-log recovery sees all of
/// them either way.
#[test]
fn mvcc_checkpoint_fence_loses_no_commits() {
    let path = temp_log("fence");
    let _ = std::fs::remove_dir_all(&path);
    let opts = WalOptions {
        engine: EngineKind::Mvcc,
        sync_data: false,
        ..WalOptions::default()
    };
    let (db, wal, _) = open_durable_any(&path, opts).unwrap();
    db.create_table(parent_schema()).unwrap();

    const ROWS: i64 = 300;
    let writer = {
        let db = db.clone();
        std::thread::spawn(move || {
            for i in 0..ROWS {
                db.with_txn(|t| t.insert("parent", vec![Value::Int(i), Value::from("r")]))
                    .unwrap();
            }
        })
    };
    let checkpointer = {
        let db = db.clone();
        let wal = wal.clone();
        std::thread::spawn(move || {
            for _ in 0..40 {
                wal.checkpoint_any(&db).unwrap();
                std::thread::yield_now();
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
        Err(_) => panic!("MVCC checkpoint deadlocked against concurrent committers"),
    }
    wal.flush().unwrap();

    let bytes = crash::read_log(&path);
    std::fs::remove_dir_all(&path).unwrap();
    let (recovered, report) = recover(&bytes, EngineKind::Mvcc);
    assert!(report.checkpoint_lsn.is_some());
    assert_eq!(
        recovered.row_count("parent").unwrap(),
        ROWS as usize,
        "a commit slipped between a checkpoint's snapshot and its log record"
    );
}
