//! Segmented-log integration: the unbounded-WAL footgun is closed
//! (checkpoints shrink the disk, observably in metrics), a crash at
//! any point during checkpoint-driven segment pruning recovers the
//! same state, a prune that somehow outran its checkpoint is refused,
//! and a crash at every byte and every segment boundary of a
//! multi-segment log recovers exactly the committed prefix.

use relstore::{AnyEngine, ColumnType, EngineKind, TableSchema, Value};
use std::path::{Path, PathBuf};
use wal::segments::{encode_seg_header, read_segments, segment_path};
use wal::{crash, open_durable_any, Lsn, WalError, WalOptions};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wal-segments-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(segment_bytes: u64) -> WalOptions {
    WalOptions {
        segment_bytes: Some(segment_bytes),
        sync_data: false,
        ..WalOptions::default()
    }
}

fn make_table(db: &AnyEngine) {
    db.create_table(
        TableSchema::builder("t")
            .column("id", ColumnType::Int)
            .column("v", ColumnType::Text)
            .primary_key(&["id"])
            .build()
            .unwrap(),
    )
    .unwrap();
}

fn insert_rows(db: &AnyEngine, range: std::ops::Range<i64>) {
    for id in range {
        db.with_txn(|txn| {
            txn.insert("t", vec![Value::Int(id), Value::from(format!("row-{id}"))])?;
            Ok(())
        })
        .unwrap();
    }
}

fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    v.sort();
    v
}

fn snapshot_json(db: &AnyEngine) -> String {
    serde_json::to_string(&db.snapshot().unwrap()).unwrap()
}

/// The footgun test: without checkpoints the log grows without bound;
/// with them, disk usage provably shrinks and the `wal.*` metrics say
/// so.
#[test]
fn checkpoint_shrinks_segmented_log_disk() {
    let dir = temp_dir("shrink");
    let metrics = obs::Registry::new();
    let options = WalOptions {
        metrics: metrics.clone(),
        ..opts(2048)
    };
    let (db, wal, _) = open_durable_any(&dir, options).unwrap();
    make_table(&db);
    insert_rows(&db, 0..300);

    let live_before = wal.segments_live();
    let disk_before = wal.disk_bytes();
    assert!(live_before > 3, "workload must rotate segments");
    assert_eq!(segment_files(&dir).len() as u64, live_before);
    assert_eq!(metrics.gauge("wal.segments_live"), Some(live_before as i64));

    wal.checkpoint_any(&db).unwrap();

    let live_after = wal.segments_live();
    let disk_after = wal.disk_bytes();
    assert!(
        live_after < live_before,
        "checkpoint must drop covered segments ({live_before} -> {live_after})"
    );
    assert!(
        disk_after < disk_before / 2,
        "checkpoint must reclaim most of the log ({disk_before} -> {disk_after})"
    );
    assert_eq!(segment_files(&dir).len() as u64, live_after);
    assert!(wal.bytes_reclaimed() >= disk_before - disk_after);
    assert_eq!(
        metrics.counter("wal.bytes_reclaimed"),
        wal.bytes_reclaimed()
    );
    assert!(metrics.counter("wal.segments_pruned") > 0);
    assert_eq!(metrics.gauge("wal.segments_live"), Some(live_after as i64));

    // Steady state: another churn round plus checkpoint stays bounded
    // near the post-checkpoint footprint instead of accumulating.
    insert_rows(&db, 300..600);
    wal.checkpoint_any(&db).unwrap();
    assert!(wal.disk_bytes() < disk_before);

    // And the pruned log still recovers everything.
    drop((db, wal));
    let (db, _wal, report) = open_durable_any(&dir, opts(2048)).unwrap();
    assert!(report.checkpoint_lsn.is_some());
    assert_eq!(db.row_count("t").unwrap(), 600);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash at every step of the prune: a checkpointed log with any
/// suffix of its prunable prefix still on disk recovers to the same
/// state as the fully pruned log.
#[test]
fn prune_interrupted_at_every_segment_recovers_identically() {
    let dir = temp_dir("prune-crash");
    let (db, wal, _) = open_durable_any(&dir, opts(1024)).unwrap();
    make_table(&db);
    insert_rows(&db, 0..150);
    drop((db, wal));

    // Pre-checkpoint snapshot of every segment file.
    let pre = temp_dir("prune-crash-pre");
    std::fs::create_dir_all(&pre).unwrap();
    for f in segment_files(&dir) {
        std::fs::copy(&f, pre.join(f.file_name().unwrap())).unwrap();
    }

    // Checkpoint (which prunes), plus a little post-checkpoint work so
    // the tail matters too.
    let (db, wal, _) = open_durable_any(&dir, opts(1024)).unwrap();
    wal.checkpoint_any(&db).unwrap();
    insert_rows(&db, 150..160);
    let oracle = snapshot_json(&db);
    drop((db, wal));

    let survivors: Vec<PathBuf> = segment_files(&dir);
    let pruned: Vec<PathBuf> = segment_files(&pre)
        .into_iter()
        .filter(|p| !survivors.iter().any(|s| s.file_name() == p.file_name()))
        .collect();
    assert!(
        pruned.len() >= 2,
        "fixture needs a multi-segment prunable prefix"
    );

    // Crash state k: the first k deletions happened, the rest did not.
    let work = temp_dir("prune-crash-work");
    for k in 0..=pruned.len() {
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).unwrap();
        for f in &survivors {
            std::fs::copy(f, work.join(f.file_name().unwrap())).unwrap();
        }
        for f in &pruned[k..] {
            std::fs::copy(f, work.join(f.file_name().unwrap())).unwrap();
        }
        let (db, _wal, report) = open_durable_any(&work, opts(1024)).unwrap();
        assert!(report.checkpoint_lsn.is_some(), "crash after {k} deletions");
        assert_eq!(
            snapshot_json(&db),
            oracle,
            "recovery diverged after {k} of {} deletions",
            pruned.len()
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&pre).unwrap();
    std::fs::remove_dir_all(&work).unwrap();
}

/// A surviving stream that starts past LSN 8 but carries no checkpoint
/// cannot be recovered honestly — the open must refuse, not silently
/// return an empty database.
#[test]
fn pruned_prefix_without_checkpoint_is_refused() {
    let dir = temp_dir("refused");
    let (db, wal, _) = open_durable_any(&dir, opts(1024)).unwrap();
    make_table(&db);
    insert_rows(&db, 0..80);
    drop((db, wal));

    // No checkpoint was ever taken; deleting the first segment mimics
    // an over-eager prune (or lost file).
    let files = segment_files(&dir);
    assert!(files.len() > 2);
    std::fs::remove_file(&files[0]).unwrap();

    match open_durable_any(&dir, opts(1024)) {
        Err(WalError::Corrupt { reason, .. }) => {
            assert!(
                reason.contains("no checkpoint survives"),
                "unexpected reason: {reason}"
            );
        }
        Ok(_) => panic!("open accepted a pruned log with no checkpoint"),
        Err(e) => panic!("expected Corrupt, got {e}"),
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery work is bounded by the checkpoint interval, not by the
/// history: 50 rows, then `txns` single-row updates with a checkpoint
/// after every `every` of them. Every flush rolls a segment, so each
/// checkpoint prunes all that precedes it and a reopen scans the last
/// checkpoint plus three frames (begin, update, commit) per later
/// transaction.
#[test]
fn recovery_scans_only_past_the_last_checkpoint() {
    const ROWS: i64 = 50;
    let run = |txns: i64, every: i64| {
        let dir = temp_dir(&format!("bounded-{txns}-{every}"));
        let (db, wal, _) = open_durable_any(&dir, opts(1)).unwrap();
        make_table(&db);
        let ids: Vec<_> = (0..ROWS)
            .map(|i| {
                db.with_txn(|t| t.insert("t", vec![Value::Int(i), Value::from("seed")]))
                    .unwrap()
            })
            .collect();
        for i in 0..txns {
            let id = ids[(i % ROWS) as usize];
            db.with_txn(|t| t.update_cols("t", id, &[("v", Value::from(format!("v{i}")))]))
                .unwrap();
            if every > 0 && (i + 1) % every == 0 {
                wal.checkpoint_any(&db).unwrap();
            }
        }
        drop((db, wal));
        let metrics = obs::Registry::new();
        let options = WalOptions {
            metrics: metrics.clone(),
            ..opts(1)
        };
        let (db, _wal, report) = open_durable_any(&dir, options).unwrap();
        assert_eq!(db.row_count("t").unwrap(), ROWS as usize);
        let scanned = metrics.counter("wal.recover.records_scanned");
        assert_eq!(scanned, report.records_scanned as u64);
        std::fs::remove_dir_all(&dir).unwrap();
        (scanned, report.redone_ops)
    };
    // Never checkpointed: the table, 110 transactions, all redone.
    assert_eq!(run(60, 0), (331, 110));
    assert_eq!(run(60, 16), (37, 12));
    // 60 and 240 transactions both end 24 past a checkpoint: four
    // times the history, the same recovery work.
    assert_eq!(run(60, 36), (73, 24));
    assert_eq!(run(240, 36), (73, 24));
}

/// The oracle: an in-memory engine that committed rows `0..rows`, one
/// transaction each — or nothing at all when even the DDL was cut.
fn oracle_json(table: bool, rows: i64) -> String {
    let db = AnyEngine::new(EngineKind::TwoPl);
    if table {
        make_table(&db);
        insert_rows(&db, 0..rows);
    }
    snapshot_json(&db)
}

/// A crash at **every byte and every segment boundary** of a
/// multi-segment log recovers exactly the committed prefix — before a
/// checkpoint pruned the log's head and after. At a boundary the next
/// segment's file may be absent, hold a torn header, or hold a bare
/// header; all three are the same crash.
#[test]
fn recovery_equals_committed_prefix_at_every_cut_and_boundary() {
    let dir = temp_dir("sweep");
    let pre = temp_dir("sweep-pre");
    let work = temp_dir("sweep-work");
    let o = || opts(96);

    // `marks[k]` is the durable LSN after the DDL (k = 0) or after row
    // k - 1 committed: a cut keeps exactly the units whose mark fits.
    let mut marks: Vec<Lsn> = Vec::new();
    let (db, wal, _) = open_durable_any(&dir, o()).unwrap();
    make_table(&db);
    marks.push(wal.durable_lsn());
    for id in 0..14 {
        insert_rows(&db, id..id + 1);
        marks.push(wal.durable_lsn());
    }
    // Keep the unpruned log, then checkpoint (which prunes) and go on.
    crash::cut_segments(&dir, &pre, wal.durable_lsn()).unwrap();
    wal.checkpoint_any(&db).unwrap();
    let checkpoint_end = wal.durable_lsn();
    for id in 14..18 {
        insert_rows(&db, id..id + 1);
        marks.push(wal.durable_lsn());
    }
    drop((db, wal));
    assert!(
        read_segments(&pre).unwrap().segments.len() > 4,
        "workload must rotate segments"
    );
    assert!(
        read_segments(&dir).unwrap().base > 8,
        "checkpoint must prune the head"
    );

    let mut oracles: std::collections::HashMap<usize, String> = std::collections::HashMap::new();
    let mut check = |cut: Lsn, what: &str| {
        let survived = marks.iter().filter(|m| **m <= cut).count();
        let expected = oracles
            .entry(survived)
            .or_insert_with(|| oracle_json(survived > 0, survived as i64 - 1));
        let (db, _wal, _report) = open_durable_any(&work, o())
            .unwrap_or_else(|e| panic!("cut {cut} ({what}): recovery must succeed, got {e}"));
        assert_eq!(
            &snapshot_json(&db),
            expected,
            "cut {cut} ({what}): recovered state diverges from the committed prefix"
        );
    };

    // Every cut the crash model allows: the whole unpruned log, and
    // the pruned one from the end of its checkpoint record (pruning
    // starts only once that record is durable).
    let pre_end = *marks[..15].last().unwrap();
    for (src, from, to) in [
        (&pre, 8, pre_end),
        (&dir, checkpoint_end, *marks.last().unwrap()),
    ] {
        let bases: Vec<Lsn> = read_segments(src)
            .unwrap()
            .segments
            .iter()
            .map(|s| s.base)
            .collect();
        for cut in from..=to {
            crash::cut_segments(src, &work, cut).unwrap();
            check(cut, "byte");
            if bases.contains(&cut) {
                let next = segment_path(&work, cut);
                std::fs::write(&next, &encode_seg_header(cut)[..5]).unwrap();
                check(cut, "boundary, torn header");
                std::fs::write(&next, encode_seg_header(cut)).unwrap();
                check(cut, "boundary, bare header");
            }
        }
    }

    for d in [&dir, &pre, &work] {
        std::fs::remove_dir_all(d).unwrap();
    }
}
