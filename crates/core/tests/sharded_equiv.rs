//! Sharded-vs-local differential equivalence at the **typed DBMS**
//! level: the same document-operation tapes are replayed against a
//! plain `WebDocDb::new()` and against full stations running on a
//! shard Router (`ShardedBackend` at 1, 2 and 4 shards). Every per-op
//! outcome — returned values, alerts, *errors* — must match, and the
//! committed relational state (row ids included: the router burns
//! global ids so they stay byte-identical at every shard count), the
//! BLOB store and the storage accounting must agree at the end.
//!
//! Op tapes stay inside the catalog's placement premise (a test
//! record / annotation only cites an implementation of its *own*
//! script) by namespacing start-URLs under their script — the same
//! invariant the paper's workload has, and the one the shard placement
//! is designed around.

use relstore::{AnyEngine, EngineKind, Predicate};
use shard::ShardedBackend;
use wdoc_core::ids::{
    AnnotationName, BugReportName, DbName, ScriptName, StartUrl, TestRecordName, UserId,
};
use wdoc_core::tables::{
    Annotation, BugReport, HtmlFile, Implementation, ProgramFile, Script, TestRecord, TestScope,
};
use wdoc_core::{AnnotationOverlay, DatabaseInfo, ObjectKind, WebDocDb};

fn db_name(i: u32) -> DbName {
    DbName::new(format!("db{}", i % 2))
}

fn script_name(i: u32) -> ScriptName {
    ScriptName::new(format!("s{}", i % 5))
}

/// Start-URLs are namespaced under their script, so citations never
/// cross script families (the placement invariant).
fn url_of(script: u32, j: u32) -> StartUrl {
    StartUrl::new(format!("http://h/s{}/u{}", script % 5, j % 2))
}

fn script(i: u32, d: u32) -> Script {
    Script {
        name: script_name(i),
        db: db_name(d),
        keywords: vec!["lecture".into(), format!("k{}", i % 3)],
        author: UserId::new(format!("author{}", i % 3)),
        version: 1 + i64::from(i % 4),
        created: 100 + u64::from(i % 7),
        description: format!("script body {i}"),
        expected_completion: (i % 3 == 0).then(|| 900 + u64::from(i)),
        percent_complete: i64::from(i % 101),
    }
}

/// One typed op against the station, canonicalised to a string (the
/// Debug of its result, success or error) so outcomes can be compared
/// across backends verbatim.
fn apply(db: &WebDocDb, op: (u32, u32, u32, u32)) -> String {
    let (sel, a, b, c) = op;
    match sel % 14 {
        0 => format!(
            "{:?}",
            db.create_database(&DatabaseInfo {
                name: db_name(a),
                keywords: vec!["courseware".into()],
                author: UserId::new(format!("author{}", b % 3)),
                version: i64::from(b % 5),
                created: u64::from(c % 50),
            })
        ),
        1 => format!("{:?}", db.add_script(&script(a, b))),
        2 => format!(
            "{:?}",
            db.update_script(&script_name(a), |s| {
                s.percent_complete = i64::from(b % 101);
                s.version += 1;
                s.description = format!("rev {c}");
            })
        ),
        3 => format!("{:?}", db.remove_script(&script_name(a))),
        4 => {
            let url = url_of(a, b);
            let html: Vec<HtmlFile> = (0..b % 3)
                .map(|k| HtmlFile {
                    url: url.clone(),
                    path: format!("p{k}.html"),
                    content: format!("<html>{a}-{k}</html>").into_bytes().into(),
                })
                .collect();
            let progs: Vec<ProgramFile> = (0..c % 2)
                .map(|k| ProgramFile {
                    url: url.clone(),
                    path: format!("a{k}.class"),
                    lang: wdoc_core::tables::implementation::ProgramLang::JavaApplet,
                    content: vec![0xCA, 0xFE, a as u8, k as u8].into(),
                })
                .collect();
            format!(
                "{:?}",
                db.add_implementation(
                    &Implementation {
                        url,
                        script: script_name(a),
                        author: UserId::new(format!("impl{}", c % 2)),
                        created: 200 + u64::from(a % 9),
                    },
                    &html,
                    &progs,
                )
            )
        }
        5 => format!(
            "{:?}",
            db.add_test_record(&TestRecord {
                name: TestRecordName::new(format!("t{}", a % 4)),
                scope: if b % 2 == 0 {
                    TestScope::Local
                } else {
                    TestScope::Global
                },
                messages: vec![],
                script: script_name(b),
                url: (c % 2 == 0).then(|| url_of(b, c)),
                created: 300 + u64::from(a % 5),
            })
        ),
        6 => format!(
            "{:?}",
            db.add_bug_report(&BugReport {
                name: BugReportName::new(format!("b{}", a % 4)),
                qa_engineer: UserId::new(format!("qa{}", b % 2)),
                procedure: format!("steps {c}"),
                description: "broken link".into(),
                bad_urls: vec![format!("http://dead/{}", c % 3)],
                missing_objects: vec![],
                inconsistency: String::new(),
                redundant_objects: vec![],
                test_record: TestRecordName::new(format!("t{}", b % 4)),
                created: 400 + u64::from(a % 5),
            })
        ),
        7 => format!(
            "{:?}",
            db.add_annotation(&Annotation {
                name: AnnotationName::new(format!("an{}", a % 4)),
                author: UserId::new("instructor"),
                version: i64::from(b % 3),
                created: 500 + u64::from(a % 5),
                script: script_name(b),
                url: (c % 2 == 0).then(|| url_of(b, c)),
                overlay: AnnotationOverlay {
                    author: UserId::new("instructor"),
                    page: format!("p{}.html", c % 3),
                    strokes: vec![],
                },
            })
        ),
        8 => format!(
            "{:?}",
            db.attach_script_resource(
                &script_name(a),
                blobstore_kind(b),
                format!("payload-{a}-{}", c % 4).into_bytes(),
            )
        ),
        9 => match db.script_resources(&script_name(a)) {
            Ok(metas) if !metas.is_empty() => {
                let id = metas[b as usize % metas.len()].id;
                format!("{:?}", db.detach_script_resource(&script_name(a), id))
            }
            Ok(_) => "no-resources".into(),
            Err(e) => format!("{e:?}"),
        },
        10 => format!(
            "{:?} {:?} {:?} {:?}",
            db.script(&script_name(a)),
            db.scripts_in(&db_name(b)),
            db.scripts_by_author(&UserId::new(format!("author{}", c % 3))),
            db.implementations_of(&script_name(a)),
        ),
        11 => format!(
            "{:?} {:?} {:?} {:?} {:?}",
            db.html_files(&url_of(a, b)),
            db.program_files(&url_of(a, b)),
            db.test_records_of(&script_name(a)),
            db.bug_reports_of_script(&script_name(a)),
            db.annotations_of(&url_of(a, b)),
        ),
        12 => format!(
            "{:?} {:?} {:?}",
            db.alerts_for(ObjectKind::Script, script_name(a).as_str()),
            db.databases(),
            db.all_implementations(),
        ),
        _ => format!(
            "{:?} {:?}",
            db.storage(),
            db.with_txn(|t| t.count(Script::TABLE, &Predicate::True)),
        ),
    }
}

fn blobstore_kind(i: u32) -> blobstore::MediaKind {
    match i % 3 {
        0 => blobstore::MediaKind::Video,
        1 => blobstore::MediaKind::Audio,
        _ => blobstore::MediaKind::StillImage,
    }
}

/// Canonical committed state: every station table's full contents
/// (row ids included), the BLOB export, the storage breakdown, and
/// the alert view of every script in the name pool.
fn dump(db: &WebDocDb) -> String {
    let mut out = String::new();
    for schema in WebDocDb::station_schemas() {
        let name = schema.name.clone();
        let rows = db
            .with_txn(|t| t.select(&name, &Predicate::True))
            .expect("dump select");
        out.push_str(&format!("== {name} ==\n"));
        for (id, row) in rows {
            out.push_str(&format!("{id:?} {row:?}\n"));
        }
    }
    out.push_str(&format!("blobs: {:?}\n", db.blobs().export()));
    out.push_str(&format!("storage: {:?}\n", db.storage()));
    for i in 0..5 {
        out.push_str(&format!(
            "alerts s{i}: {:?}\n",
            db.alerts_for(ObjectKind::Script, &format!("s{i}"))
        ));
    }
    out
}

fn sharded_station(shards: u32, kind: EngineKind) -> WebDocDb {
    let backend = ShardedBackend::new(kind, shards, obs::Registry::new());
    WebDocDb::on_backend(Box::new(backend), true).expect("open sharded")
}

fn run_tape(decisions: &[(u32, u32, u32, u32)], shard_counts: &[u32], kind: EngineKind) {
    let base = WebDocDb::on_backend(Box::new(AnyEngine::new(kind)), true).expect("open local");
    let sharded: Vec<(u32, WebDocDb)> = shard_counts
        .iter()
        .map(|&n| (n, sharded_station(n, kind)))
        .collect();
    for (i, &op) in decisions.iter().enumerate() {
        let expect = apply(&base, op);
        for (n, db) in &sharded {
            let got = apply(db, op);
            assert_eq!(expect, got, "op {i} {op:?} diverged on {n} shard(s)");
        }
    }
    let expect = dump(&base);
    for (n, db) in &sharded {
        assert_eq!(expect, dump(db), "final state diverged on {n} shard(s)");
    }
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The headline property: no typed-DBMS workload can tell a
        /// 1-, 2- or 4-shard station from the single-engine one.
        #[test]
        fn sharded_station_matches_local(
            decisions in proptest::collection::vec(
                (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()), 0..80)
        ) {
            run_tape(&decisions, &[1, 2, 4], EngineKind::TwoPl);
        }

        /// Write-heavy tapes (mutating selectors only) churn the gid
        /// directory, cascades and 2PC hard.
        #[test]
        fn write_heavy_tapes_agree(
            decisions in proptest::collection::vec(
                (0u32..10, any::<u32>(), any::<u32>(), any::<u32>()), 0..60)
        ) {
            run_tape(&decisions, &[3], EngineKind::TwoPl);
        }
    }
}

/// Deterministic dense tape on both engines (the MVCC backend routes
/// through the same facade), plus the empty tape.
#[test]
fn fixed_tapes_agree_on_both_engines() {
    let mut dense = Vec::new();
    for i in 0u32..150 {
        let x = i.wrapping_mul(2_654_435_761);
        dense.push((x % 14, x >> 3, x >> 7, x >> 11));
    }
    for kind in [EngineKind::TwoPl, EngineKind::Mvcc] {
        run_tape(&[], &[1, 2], kind);
        run_tape(&dense, &[1, 2, 4], kind);
    }
}

/// Row contents per table without row ids, each table sorted: the
/// reopen path rebuilds global ids deterministically but not in
/// insert order, so durable comparisons go by content.
fn dump_unordered(db: &WebDocDb) -> String {
    let mut out = String::new();
    for schema in WebDocDb::station_schemas() {
        let name = schema.name.clone();
        let mut rows: Vec<String> = db
            .with_txn(|t| t.select(&name, &Predicate::True))
            .expect("dump select")
            .into_iter()
            .map(|(_, row)| format!("{row:?}"))
            .collect();
        rows.sort();
        out.push_str(&format!("== {name} ==\n{}\n", rows.join("\n")));
    }
    out.push_str(&format!("blobs: {:?}\n", db.blobs().export()));
    out.push_str(&format!("storage: {:?}\n", db.storage()));
    out
}

/// A durable sharded station: per-shard WALs plus the BLOB log, all
/// threaded through the backend. Reopening recovers every shard and
/// rebuilds the routing directories; the typed state and a post-reopen
/// write both survive.
#[test]
fn durable_sharded_station_survives_reopen() {
    let dir = std::env::temp_dir().join(format!("wdoc-sharded-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut tape = Vec::new();
    for i in 0u32..60 {
        let x = i.wrapping_mul(2_654_435_761);
        tape.push((x % 10, x >> 3, x >> 7, x >> 11)); // mutators only
    }
    let open_durable = || {
        let (backend, reports) = ShardedBackend::recover(3, &dir, wal::WalOptions::default())
            .expect("recover durable sharded backend");
        assert_eq!(reports.len(), 3);
        WebDocDb::on_durable_backend(
            Box::new(backend),
            true,
            &dir,
            logstore::LogConfig::default(),
            obs::Registry::new(),
        )
        .expect("open durable sharded station")
    };
    let before = {
        let db = open_durable();
        for op in &tape {
            apply(&db, *op);
        }
        db.checkpoint().expect("sharded checkpoint");
        dump_unordered(&db)
    };
    let db = open_durable();
    assert_eq!(before, dump_unordered(&db), "state lost across reopen");
    // The recovered station still takes (and routes) writes.
    db.add_script(&script(97, 0)).ok();
    db.checkpoint().expect("checkpoint after reopen");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sharded station is what it says it is: `shards()` reports the
/// cluster width and the single-engine escape hatches refuse.
#[test]
fn sharded_station_surface() {
    let db = sharded_station(3, EngineKind::TwoPl);
    assert_eq!(db.shards(), 3);
    assert_eq!(db.engine_kind(), EngineKind::TwoPl);
    assert!(db.wal().is_none());
    assert!(matches!(
        db.backup(),
        Err(wdoc_core::CoreError::Store(relstore::Error::Unsupported(_)))
    ));
}
