//! Durable station lifecycle: open → author → crash → reopen →
//! checkpoint → reopen, through the typed `WebDocDb` API, on the one
//! on-disk layout — unsharded (`wal.d/ blobs.d/`) and 3-shard
//! (one `wal.d/` beside `blobs.d/`), on both storage engines.

use blobstore::MediaKind;
use relstore::EngineKind;
use shard::ShardedBackend;
use std::path::{Path, PathBuf};
use wdoc_core::dbms::{DatabaseInfo, WebDocDb};
use wdoc_core::ids::{DbName, ScriptName, UserId};
use wdoc_core::tables::Script;
use wdoc_core::CoreError;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wdoc-durable-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn course_db() -> DatabaseInfo {
    DatabaseInfo {
        name: DbName::new("mm-course"),
        keywords: vec!["multimedia".into()],
        author: UserId::new("prof-shih"),
        version: 1,
        created: 42,
    }
}

fn script(name: &str) -> Script {
    Script {
        name: ScriptName::new(name),
        db: DbName::new("mm-course"),
        keywords: vec!["lecture".into()],
        author: UserId::new("prof-shih"),
        version: 1,
        created: 43,
        description: "week one".into(),
        expected_completion: None,
        percent_complete: 10,
    }
}

/// Small segments, so a few dozen verbs rotate every shard's log.
fn small_segments() -> logstore::LogConfig {
    logstore::LogConfig {
        segment_bytes: 2048,
        ..logstore::LogConfig::default()
    }
}

/// Open (or reopen) the durable station under `dir`: one engine behind
/// `open_durable_logged`, or `shards` of them behind the router.
fn open(dir: &Path, shards: u32, kind: EngineKind) -> WebDocDb {
    let cfg = small_segments();
    let opts = wal::WalOptions {
        engine: kind,
        segment_bytes: Some(cfg.segment_bytes),
        ..wal::WalOptions::default()
    };
    if shards == 1 {
        WebDocDb::open_durable_logged(dir, opts, cfg).unwrap().0
    } else {
        let metrics = opts.metrics.clone();
        let (backend, reports) = ShardedBackend::recover(shards, dir, opts).unwrap();
        assert_eq!(reports.len(), shards as usize);
        WebDocDb::on_durable_backend(Box::new(backend), true, dir, cfg, metrics).unwrap()
    }
}

/// Bytes on disk under every `*.wal.d` directory of the station.
fn wal_dir_bytes(dir: &Path) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with("wal.d") {
            let bytes = std::fs::read_dir(entry.path())
                .unwrap()
                .map(|f| f.unwrap().metadata().unwrap().len())
                .sum();
            out.push((name, bytes));
        }
    }
    out.sort();
    out
}

const SCRIPTS: usize = 30;

/// What the lifecycle test reads back after every reopen.
fn observe(db: &WebDocDb) -> (Vec<Script>, Vec<Vec<u8>>) {
    let mut scripts = db.scripts_in(&DbName::new("mm-course")).unwrap();
    scripts.sort_by(|a, b| a.name.as_str().cmp(b.name.as_str()));
    let mut blobs = Vec::new();
    for s in &scripts {
        for meta in db.script_resources(&s.name).unwrap() {
            let data = db.blobs().get(meta.id).expect("attached BLOB reads back");
            blobs.push(data.to_vec());
        }
    }
    (scripts, blobs)
}

/// The whole lifecycle on one layout. A crash with no checkpoint keeps
/// every committed row **and** every attached BLOB; a checkpoint
/// strictly shrinks every log directory; the pruned station reopens to
/// the same state and keeps taking writes.
fn lifecycle(shards: u32, kind: EngineKind) {
    let dir = temp_dir(&format!("life-{shards}-{}", kind.name()));
    let payload = |i: usize| vec![i as u8; 3000 + i];

    let authored = {
        let db = open(&dir, shards, kind);
        db.create_database(&course_db()).unwrap();
        for i in 0..SCRIPTS {
            let name = ScriptName::new(format!("s{i}"));
            db.add_script(&script(name.as_str())).unwrap();
            // Updates make the log several times the size of the state
            // a checkpoint snapshot has to carry.
            for pct in 1..=6 {
                db.update_script(&name, |s| s.percent_complete = 10 * pct)
                    .unwrap();
            }
            if i % 5 == 0 {
                db.attach_script_resource(&name, MediaKind::StillImage, payload(i))
                    .unwrap();
            }
        }
        observe(&db)
        // Dropping without a checkpoint = crash: the logs alone must
        // carry the rows, and the BLOB log's write-through the BLOBs.
    };
    assert_eq!(authored.0.len(), SCRIPTS);
    assert_eq!(authored.1.len(), SCRIPTS / 5);

    let db = open(&dir, shards, kind);
    assert_eq!(
        observe(&db),
        authored,
        "crash without checkpoint lost state"
    );

    let before = wal_dir_bytes(&dir);
    assert_eq!(before.len(), 1, "one log directory per station");
    db.checkpoint().unwrap();
    let after = wal_dir_bytes(&dir);
    for ((name, before), (_, after)) in before.iter().zip(&after) {
        assert!(
            after < before,
            "checkpoint must shrink {name}: {before} -> {after} bytes"
        );
    }
    // Work after the checkpoint recovers from the log tail.
    db.add_script(&script("after-checkpoint")).unwrap();
    drop(db);

    let db = open(&dir, shards, kind);
    let (scripts, blobs) = observe(&db);
    assert_eq!(scripts.len(), SCRIPTS + 1, "reopen after prune lost rows");
    assert_eq!(blobs, authored.1, "reopen after prune lost BLOBs");
    db.add_script(&script("after-reopen")).unwrap();
    db.checkpoint().unwrap();

    assert!(dir.join("blobs.d").is_dir(), "blob log directory");
    assert!(!dir.join("blobs.json").exists(), "no JSON BLOB snapshot");
    let log_dirs: Vec<String> = after.into_iter().map(|(name, _)| name).collect();
    assert_eq!(log_dirs, ["wal.d"], "one log per station, sharded or not");
    assert!(db.wal().is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unsharded_two_pl_lifecycle() {
    lifecycle(1, EngineKind::TwoPl);
}

#[test]
fn unsharded_mvcc_lifecycle() {
    lifecycle(1, EngineKind::Mvcc);
}

#[test]
fn sharded_two_pl_lifecycle() {
    lifecycle(3, EngineKind::TwoPl);
}

#[test]
fn sharded_mvcc_lifecycle() {
    lifecycle(3, EngineKind::Mvcc);
}

/// Every `create_table` of a fresh station is its own durable frame, so
/// the first open can crash with any prefix of the schema installed.
/// Reopening must finish the installation, not skip it because the log
/// is no longer empty.
#[test]
fn half_installed_schema_is_completed_on_reopen() {
    let dir = temp_dir("ddl-cut");
    let open_at = |dir: &Path| {
        WebDocDb::open_durable_logged(
            dir,
            wal::WalOptions::default(),
            logstore::LogConfig::default(),
        )
    };
    drop(open_at(&dir).unwrap());
    let log = wal::crash::read_log(&dir.join("wal.d"));
    let frames = wal::crash::frames(&log);
    assert_eq!(frames.len(), WebDocDb::station_schemas().len());

    let work = temp_dir("ddl-cut-work");
    for (installed, (_, end, _)) in frames.iter().enumerate() {
        let _ = std::fs::remove_dir_all(&work);
        wal::crash::cut_segments(&dir.join("wal.d"), &work.join("wal.d"), *end).unwrap();
        let (db, report) = open_at(&work).unwrap();
        assert_eq!(report.records_scanned, installed + 1);
        db.create_database(&course_db())
            .unwrap_or_else(|e| panic!("{} tables survived the crash: {e}", installed + 1));
        db.add_script(&script("s1")).unwrap();
        // And the completed schema is itself durable.
        drop(db);
        let (db, _) = open_at(&work).unwrap();
        assert_eq!(db.scripts_in(&DbName::new("mm-course")).unwrap().len(), 1);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn station_runs_on_log_page_store() {
    // All three layers on the log backend: segmented WAL, log-backed
    // blobs, and a buffer pool whose spill store is a `logstore`.
    let dir = temp_dir("logged-pool");
    let opts = wal::WalOptions {
        pool: relstore::PoolConfig::log(dir.join("pages.d"), 8),
        ..wal::WalOptions::default()
    };
    {
        let (db, _) =
            WebDocDb::open_durable_logged(&dir, opts.clone(), logstore::LogConfig::default())
                .unwrap();
        db.create_database(&course_db()).unwrap();
        for i in 0..64 {
            db.add_script(&script(&format!("p{i}"))).unwrap();
        }
        db.checkpoint().unwrap();
    }
    let (db, _) =
        WebDocDb::open_durable_logged(&dir, opts, logstore::LogConfig::default()).unwrap();
    assert_eq!(db.scripts_in(&DbName::new("mm-course")).unwrap().len(), 64);
    assert!(dir.join("pages.d").is_dir(), "page spill directory");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_requires_durable_station() {
    let db = WebDocDb::new();
    match db.checkpoint() {
        Err(CoreError::InvalidInput(_)) => {}
        other => panic!("expected InvalidInput, got {other:?}"),
    }
}
