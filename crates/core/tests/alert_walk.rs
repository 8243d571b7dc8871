//! The integrity walk behind `WebDocDb::alerts_for` and
//! `update_script`: how many transactions each verb opens, the walk
//! against the per-object walk it replaced (kept here as the oracle),
//! and walks racing writers.

use blobstore::MediaKind;
use bytes::Bytes;
use proptest::prelude::*;
use relstore::{AnyEngine, EngineKind, Predicate};
use shard::ShardedBackend;
use std::collections::{BTreeSet, VecDeque};
use wdoc_core::ids::{
    AnnotationName, BugReportName, DbName, ScriptName, StartUrl, TestRecordName, UserId,
};
use wdoc_core::tables::{
    Annotation, BugReport, HtmlFile, Implementation, ProgramFile, Script, TestRecord, TestScope,
};
use wdoc_core::{Alert, AnnotationOverlay, DatabaseInfo, ObjectKind, ObjectRef, WebDocDb};

/// A station and the counter of the transactions its backend opens:
/// `relstore.txn.commits` of a single engine, or the router's
/// `shard.router.txns`.
struct Station {
    db: WebDocDb,
    router: Option<obs::Registry>,
}

impl Station {
    fn engine(kind: EngineKind) -> Self {
        let db = WebDocDb::on_backend(Box::new(AnyEngine::new(kind)), true).unwrap();
        Station { db, router: None }
    }

    fn sharded(kind: EngineKind) -> Self {
        let metrics = obs::Registry::new();
        let backend = ShardedBackend::new(kind, 2, metrics.clone());
        let db = WebDocDb::on_backend(Box::new(backend), true).unwrap();
        Station {
            db,
            router: Some(metrics),
        }
    }

    /// The three backends every test here runs on.
    fn all() -> [(&'static str, Station); 3] {
        [
            ("2pl", Station::engine(EngineKind::TwoPl)),
            ("mvcc", Station::engine(EngineKind::Mvcc)),
            ("2-shard", Station::sharded(EngineKind::TwoPl)),
        ]
    }

    fn txns(&self) -> u64 {
        match &self.router {
            Some(m) => m.counter("shard.router.txns"),
            None => (self.db.relational().metrics()).counter("relstore.txn.commits"),
        }
    }

    /// Transactions `f` opens; a single client retries none.
    fn opened<T>(&self, f: impl FnOnce(&WebDocDb) -> T) -> u64 {
        let before = self.txns();
        f(&self.db);
        self.txns() - before
    }
}

fn database(db: &WebDocDb) {
    db.create_database(&DatabaseInfo {
        name: DbName::new("db"),
        keywords: vec!["walk".into()],
        author: UserId::new("shih"),
        version: 1,
        created: 1,
    })
    .unwrap();
}

fn script(name: &str) -> Script {
    Script {
        name: ScriptName::new(name),
        db: DbName::new("db"),
        keywords: vec!["lecture".into()],
        author: UserId::new("shih"),
        version: 1,
        created: 2,
        description: format!("script {name}"),
        expected_completion: None,
        percent_complete: 0,
    }
}

/// Start-URLs are namespaced under their script, as the sharded
/// placement requires.
fn url(script: &str, i: usize) -> StartUrl {
    StartUrl::new(format!("http://mmu/{script}/u{i}/"))
}

fn implementation(db: &WebDocDb, script: &str, i: usize, html: &[&str], programs: usize) {
    let url = url(script, i);
    let html: Vec<HtmlFile> = (html.iter())
        .map(|path| HtmlFile {
            url: url.clone(),
            path: (*path).into(),
            content: Bytes::from(format!("<html>{script} {i} {path}</html>")),
        })
        .collect();
    let programs: Vec<ProgramFile> = (0..programs)
        .map(|j| ProgramFile {
            url: url.clone(),
            path: format!("a{j}.class"),
            lang: wdoc_core::tables::implementation::ProgramLang::JavaApplet,
            content: Bytes::from(vec![0xCA, 0xFE, i as u8, j as u8]),
        })
        .collect();
    let imp = Implementation {
        url: url.clone(),
        script: ScriptName::new(script),
        author: UserId::new("impl"),
        created: 3,
    };
    db.add_implementation(&imp, &html, &programs).unwrap();
}

fn test_record(db: &WebDocDb, script: &str, name: &str, url: Option<StartUrl>) {
    db.add_test_record(&TestRecord {
        name: TestRecordName::new(name),
        scope: TestScope::Local,
        messages: vec![],
        script: ScriptName::new(script),
        url,
        created: 4,
    })
    .unwrap();
}

fn bug_report(db: &WebDocDb, record: &str, name: &str) {
    db.add_bug_report(&BugReport {
        name: BugReportName::new(name),
        qa_engineer: UserId::new("qa"),
        procedure: "steps".into(),
        description: "broken link".into(),
        bad_urls: vec!["http://dead/".into()],
        missing_objects: vec![],
        inconsistency: String::new(),
        redundant_objects: vec![],
        test_record: TestRecordName::new(record),
        created: 5,
    })
    .unwrap();
}

fn annotation(db: &WebDocDb, script: &str, name: &str, url: StartUrl) {
    db.add_annotation(&Annotation {
        name: AnnotationName::new(name),
        author: UserId::new("instructor"),
        version: 1,
        created: 6,
        script: ScriptName::new(script),
        url: Some(url),
        overlay: AnnotationOverlay {
            author: UserId::new("instructor"),
            page: "index.html".into(),
            strokes: vec![],
        },
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Transactions per verb
// ---------------------------------------------------------------------

/// A script `s` with one implementation that has an annotation and
/// `k` test records, each with a bug report.
fn family(db: &WebDocDb, k: usize) {
    database(db);
    db.add_script(&script("s")).unwrap();
    implementation(db, "s", 0, &["index.html"], 1);
    annotation(db, "s", "s-a0", url("s", 0));
    for i in 0..k {
        let name = format!("s-t{i}");
        test_record(db, "s", &name, Some(url("s", 0)));
        bug_report(db, &name, &format!("{name}-b0"));
    }
}

/// One write transaction and one read per level of the walk: the
/// script's children, its implementation's children, and the test
/// records' bug reports when there are test records (an annotation's
/// file is named after it, so that question reads nothing).
#[test]
fn update_script_opens_one_transaction_per_level() {
    for k in [0, 1, 5] {
        for (backend, st) in Station::all() {
            family(&st.db, k);
            let levels = if k == 0 { 2 } else { 3 };
            let name = ScriptName::new("s");
            let alerts = st.opened(|db| db.update_script(&name, |s| s.version += 1).unwrap());
            assert_eq!(alerts, 1 + levels, "{backend}, k = {k}: update_script");
            let walk = st.opened(|db| db.alerts_for(ObjectKind::Script, "s").unwrap());
            assert_eq!(walk, levels, "{backend}, k = {k}: alerts_for");
            let found = st.db.alerts_for(ObjectKind::Script, "s").unwrap();
            // impl, its HTML and program file, annotation and its file,
            // and each test record with its bug report.
            assert_eq!(found.len(), 5 + 2 * k, "{backend}, k = {k}");
        }
    }
}

#[test]
fn single_statement_verbs_open_one_transaction() {
    for (backend, st) in Station::all() {
        family(&st.db, 2);
        let (name, url) = (ScriptName::new("s"), url("s", 0));
        let record = TestRecordName::new("s-t0");
        let blob = st
            .db
            .attach_script_resource(&name, MediaKind::StillImage, vec![1u8; 64])
            .unwrap();
        let ones: Vec<(&str, u64)> = vec![
            ("databases", st.opened(|db| db.databases().unwrap())),
            ("add_script", st.opened(|db| db.add_script(&script("s2")))),
            ("script", st.opened(|db| db.script(&name).unwrap())),
            (
                "scripts_in",
                st.opened(|db| db.scripts_in(&DbName::new("db"))),
            ),
            (
                "scripts_by_author",
                st.opened(|db| db.scripts_by_author(&UserId::new("shih"))),
            ),
            (
                "attach_script_resource",
                st.opened(|db| db.attach_script_resource(&name, MediaKind::Audio, vec![2u8; 8])),
            ),
            (
                "detach_script_resource",
                st.opened(|db| db.detach_script_resource(&name, blob.id)),
            ),
            (
                "script_resources",
                st.opened(|db| db.script_resources(&name)),
            ),
            (
                "add_implementation",
                st.opened(|db| implementation(db, "s2", 0, &["index.html"], 0)),
            ),
            ("implementation", st.opened(|db| db.implementation(&url))),
            (
                "all_implementations",
                st.opened(|db| db.all_implementations()),
            ),
            (
                "implementations_of",
                st.opened(|db| db.implementations_of(&name)),
            ),
            ("html_files", st.opened(|db| db.html_files(&url))),
            ("program_files", st.opened(|db| db.program_files(&url))),
            (
                "attach_implementation_resource",
                st.opened(|db| {
                    db.attach_implementation_resource(&url, MediaKind::Video, vec![3u8; 8])
                }),
            ),
            (
                "implementation_resources",
                st.opened(|db| db.implementation_resources(&url)),
            ),
            (
                "add_test_record",
                st.opened(|db| test_record(db, "s", "s-t9", Some(url.clone()))),
            ),
            ("test_records_of", st.opened(|db| db.test_records_of(&name))),
            ("test_record", st.opened(|db| db.test_record(&record))),
            (
                "add_bug_report",
                st.opened(|db| bug_report(db, "s-t9", "s-t9-b0")),
            ),
            ("bug_reports_of", st.opened(|db| db.bug_reports_of(&record))),
            (
                "bug_reports_of_script",
                st.opened(|db| db.bug_reports_of_script(&name)),
            ),
            (
                "add_annotation",
                st.opened(|db| annotation(db, "s", "s-a1", url.clone())),
            ),
            (
                "annotation",
                st.opened(|db| db.annotation(&AnnotationName::new("s-a1"))),
            ),
            ("annotations_of", st.opened(|db| db.annotations_of(&url))),
            (
                "bug_reports_by",
                st.opened(|db| db.bug_reports_by(&UserId::new("qa"))),
            ),
        ];
        for (verb, n) in ones {
            assert_eq!(n, 1, "{backend}: {verb}");
        }
        // Not yet one transaction: the script's resources, its
        // implementations, each implementation's resources, then the
        // cascading delete.
        let removed = st.opened(|db| db.remove_script(&name).unwrap());
        assert_eq!(removed, 4, "{backend}: remove_script");
    }
}

// ---------------------------------------------------------------------
// The per-object walk, as the oracle
// ---------------------------------------------------------------------

/// The walk as it was before it read a level at a time: a FIFO of
/// objects, and one committed read per (object, child kind) question.
fn oracle_alerts(db: &WebDocDb, kind: ObjectKind, name: &str) -> Vec<Alert> {
    let root = ObjectRef::new(kind, name);
    let mut alerts = Vec::new();
    let mut visited = BTreeSet::from([root.clone()]);
    let mut queue = VecDeque::from([(root, 0)]);
    while let Some((obj, depth)) = queue.pop_front() {
        for link in db.diagram().links_from(obj.kind) {
            for child_name in oracle_children(db, &obj, link.to) {
                let target = ObjectRef::new(link.to, child_name);
                if !visited.insert(target.clone()) {
                    continue;
                }
                alerts.push(Alert {
                    source: obj.clone(),
                    target: target.clone(),
                    depth: depth + 1,
                    message: format!(
                        "{} `{}` was updated: review {} `{}` ({}^{})",
                        obj.kind.label(),
                        obj.name,
                        link.to.label(),
                        target.name,
                        link.label,
                        link.multiplicity.sigil(),
                    ),
                });
                queue.push_back((target, depth + 1));
            }
        }
    }
    alerts
}

fn oracle_children(db: &WebDocDb, obj: &ObjectRef, child: ObjectKind) -> Vec<String> {
    use ObjectKind as K;
    // (child table, column referencing the parent, column returned)
    let (table, parent, name) = match (obj.kind, child) {
        (K::Database, K::Script) => (Script::TABLE, "db", 0),
        (K::Script, K::Implementation) => (Implementation::TABLE, "script", 0),
        (K::Script, K::MultimediaResource) => (Script::RESOURCES, "owner", 1),
        (K::Implementation, K::HtmlFile) => (HtmlFile::TABLE, "url", 1),
        (K::Implementation, K::ProgramFile) => (ProgramFile::TABLE, "url", 1),
        (K::Implementation, K::MultimediaResource) => (Implementation::RESOURCES, "owner", 1),
        (K::Implementation, K::TestRecord) => (TestRecord::TABLE, "url", 0),
        (K::TestRecord, K::BugReport) => (BugReport::TABLE, "test_record", 0),
        (K::Implementation, K::Annotation) => (Annotation::TABLE, "url", 0),
        (K::Annotation, K::AnnotationFile) => return vec![format!("{}.ann", obj.name)],
        _ => return Vec::new(),
    };
    let pred = Predicate::eq(parent, obj.name.as_str());
    db.with_txn(|t| {
        let mut out = Vec::new();
        t.select_with(table, &pred, &mut |_, row| {
            out.push(row.text(name)?.expect("name column").to_owned());
            Ok(())
        })?;
        Ok(out)
    })
    .unwrap()
}

/// One script family: per implementation its HTML file count (1–2)
/// and program file count (0–1); per test record the implementation
/// it tests (`None`: a global test under no implementation) and its
/// bug report count (0–2); per annotation its implementation.
#[derive(Debug, Clone)]
struct Family {
    implementations: Vec<(usize, usize)>,
    records: Vec<(Option<usize>, usize)>,
    annotations: Vec<usize>,
}

fn arb_family() -> impl Strategy<Value = Family> {
    use proptest::collection::vec;
    // A record drawn at implementation 3 tests none.
    let record = (0usize..4, 0usize..=2).prop_map(|(i, bugs)| ((i < 3).then_some(i), bugs));
    (
        vec((1usize..=2, 0usize..=1), 1..4),
        vec(record, 0..13),
        vec(0usize..3, 0..4),
    )
        .prop_map(|(implementations, records, annotations)| Family {
            implementations,
            records,
            annotations,
        })
}

/// Build `family` as script `name`. Every implementation has an
/// `index.html`, so two of them share an HTML path; the script and its
/// first implementation attach the same BLOB, one resource reached by
/// two links.
fn build(db: &WebDocDb, name: &str, family: &Family) {
    db.add_script(&script(name)).unwrap();
    let n = family.implementations.len();
    for (i, &(html, programs)) in family.implementations.iter().enumerate() {
        let paths = ["index.html", "notes.html"];
        implementation(db, name, i, &paths[..html], programs);
    }
    let shared = Bytes::from(format!("shared media of {name}"));
    db.attach_script_resource(&ScriptName::new(name), MediaKind::Video, shared.clone())
        .unwrap();
    db.attach_implementation_resource(&url(name, 0), MediaKind::Video, shared)
        .unwrap();
    for (r, &(imp, bugs)) in family.records.iter().enumerate() {
        let record = format!("{name}-t{r}");
        test_record(db, name, &record, imp.map(|i| url(name, i % n)));
        for b in 0..bugs {
            bug_report(db, &record, &format!("{record}-b{b}"));
        }
    }
    for (a, &imp) in family.annotations.iter().enumerate() {
        annotation(db, name, &format!("{name}-a{a}"), url(name, imp % n));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On every backend, the level walk returns what the per-object
    /// walk returns, element for element, from every root: the
    /// database, each script, implementation, test record and
    /// annotation.
    #[test]
    fn alerts_for_matches_the_per_object_oracle(hot in arb_family(), cold in arb_family()) {
        for (backend, st) in Station::all() {
            database(&st.db);
            build(&st.db, "s0", &hot);
            build(&st.db, "s1", &cold);
            let mut roots = vec![(ObjectKind::Database, "db".to_string())];
            for (name, family) in [("s0", &hot), ("s1", &cold)] {
                roots.push((ObjectKind::Script, name.to_string()));
                for i in 0..family.implementations.len() {
                    roots.push((ObjectKind::Implementation, url(name, i).to_string()));
                }
                for r in 0..family.records.len() {
                    roots.push((ObjectKind::TestRecord, format!("{name}-t{r}")));
                }
                for a in 0..family.annotations.len() {
                    roots.push((ObjectKind::Annotation, format!("{name}-a{a}")));
                }
            }
            for (kind, name) in &roots {
                let got = st.db.alerts_for(*kind, name).unwrap();
                let want = oracle_alerts(&st.db, *kind, name);
                prop_assert_eq!(&got, &want, "{}: {:?} {}", backend, kind, name);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Walks racing writers
// ---------------------------------------------------------------------

/// Every target once, and each alert one level below its source (the
/// root at depth 0), in nondecreasing depth.
fn assert_layered(alerts: &[Alert], root: &ObjectRef) {
    let mut seen = BTreeSet::new();
    for (i, a) in alerts.iter().enumerate() {
        assert!(seen.insert(&a.target), "duplicate alert for {:?}", a.target);
        let source_depth = if a.source == *root {
            0
        } else {
            (alerts[..i].iter())
                .find(|b| b.target == a.source)
                .map_or_else(
                    || panic!("{:?} alerted before its source", a.target),
                    |b| b.depth,
                )
        };
        assert_eq!(a.depth, source_depth + 1, "{:?}", a.target);
        assert!(
            i == 0 || alerts[i - 1].depth <= a.depth,
            "not breadth-first"
        );
    }
}

/// One thread adds test records and bug reports under a hot script;
/// another updates it in a loop. Data only grows, so every walk's
/// alerts contain the previous walk's, and each is layered. A level
/// that kept answers of an aborted attempt would duplicate or misplace
/// them.
#[test]
fn concurrent_alert_walks_against_writers() {
    const RECORDS: usize = 200;
    for (backend, st) in Station::all() {
        family(&st.db, 0);
        implementation(&st.db, "s", 1, &["index.html"], 0);
        let root = ObjectRef::new(ObjectKind::Script, "s");
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for i in 0..RECORDS {
                    let name = format!("s-w{i}");
                    test_record(&st.db, "s", &name, Some(url("s", i % 2)));
                    for b in 0..i % 3 {
                        bug_report(&st.db, &name, &format!("{name}-b{b}"));
                    }
                }
                done.store(true, std::sync::atomic::Ordering::Release);
            });
            let mut before: BTreeSet<(ObjectRef, usize)> = BTreeSet::new();
            start.wait();
            loop {
                let last = done.load(std::sync::atomic::Ordering::Acquire);
                let alerts = st
                    .db
                    .update_script(&ScriptName::new("s"), |s| s.version += 1)
                    .unwrap();
                assert_layered(&alerts, &root);
                let now: BTreeSet<(ObjectRef, usize)> =
                    alerts.into_iter().map(|a| (a.target, a.depth)).collect();
                assert!(now.is_superset(&before), "{backend}: a walk lost alerts");
                before = now;
                if last {
                    break;
                }
            }
            // The last walk began after the writer finished.
            let records = before
                .iter()
                .filter(|(t, _)| t.kind == ObjectKind::TestRecord)
                .count();
            assert_eq!(records, RECORDS, "{backend}");
        });
    }
}
