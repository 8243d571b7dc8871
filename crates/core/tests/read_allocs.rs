//! What the typed read verbs allocate per call on a seeded station:
//! each returned row is decoded once, straight from its stored image,
//! and the read under it allocates nothing it does not return. This
//! binary's global allocator counts the allocations of the calling
//! thread, so a count is exact and another test thread cannot move it.

use bytes::Bytes;
use relstore::{AnyEngine, EngineKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wdoc_core::dbms::{DatabaseInfo, WebDocDb};
use wdoc_core::ids::{DbName, ScriptName, StartUrl, TestRecordName, UserId};
use wdoc_core::tables::implementation::ProgramLang;
use wdoc_core::tables::{HtmlFile, Implementation, ProgramFile, Script, TestRecord, TestScope};
use wdoc_core::ObjectKind;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one call of `f` after a warm-up call; its result is
/// dropped after the count.
fn allocations<T>(f: impl Fn() -> T) -> u64 {
    drop(f());
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let n = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    n
}

const FAMILIES: u32 = 1_024;

fn author(i: u32) -> UserId {
    UserId::new(format!("author{:02}", i % 64))
}

/// A station seeded with `FAMILIES` script families: script,
/// implementation and HTML file, a program file on every third — the
/// content and sizes the benchmark's stations start from.
fn station(kind: EngineKind) -> WebDocDb {
    let db = WebDocDb::on_backend(Box::new(AnyEngine::new(kind)), true).unwrap();
    db.create_database(&DatabaseInfo {
        name: DbName::new("mmu-courses"),
        keywords: vec!["courseware".into()],
        author: UserId::new("shih"),
        version: 1,
        created: 10,
    })
    .unwrap();
    for i in 0..FAMILIES {
        let name = format!("s{i:05}");
        db.add_script(&Script {
            name: ScriptName::new(&name),
            db: DbName::new("mmu-courses"),
            keywords: vec![
                "lecture".into(),
                format!("week{}", i % 13),
                format!("topic{}", i % 97),
            ],
            author: author(i),
            version: 1,
            created: 1_000 + u64::from(i),
            description: format!("lecture script {name}: outline, media list, quiz plan"),
            expected_completion: (i % 2 == 0).then_some(9_000 + u64::from(i)),
            percent_complete: i64::from(i % 101),
        })
        .unwrap();
        let url = StartUrl::new(format!("http://mmu/{name}/start.html"));
        let html = HtmlFile {
            url: url.clone(),
            path: "start.html".into(),
            content: format!(
                "<html><head><title>{name}</title></head><body><h1>Lecture {i}</h1>\
                 <p>Slides, notes and the week's reading.</p><a href=\"quiz.class\">quiz</a></body></html>"
            )
            .into_bytes()
            .into(),
        };
        let programs: Vec<ProgramFile> = (i % 3 == 0)
            .then(|| ProgramFile {
                url: url.clone(),
                path: "quiz.class".into(),
                lang: ProgramLang::JavaApplet,
                content: Bytes::from(vec![0xCA; 64]),
            })
            .into_iter()
            .collect();
        let imp = Implementation {
            url,
            script: ScriptName::new(&name),
            author: author(i + 7),
            created: 2_000 + u64::from(i),
        };
        db.add_implementation(&imp, &[html], &programs).unwrap();
    }
    db
}

/// Per call: `script`, `scripts_by_author` (16 rows),
/// `implementations_of`, `html_files`, `alerts_for` a script and
/// `update_script`. Reading each row into a `Vec<Value>` first, and
/// allocating the read's comparand, probe key, candidates and scratch,
/// made 25 / 241 / 19 / 20 / 122 / 165 on both engines, but 216 for
/// `update_script` on MVCC.
#[test]
fn typed_reads_allocate_once_per_returned_field() {
    let name = ScriptName::new("s00021");
    let url = StartUrl::new("http://mmu/s00021/start.html");
    for (kind, most) in [
        (EngineKind::TwoPl, [16, 140, 10, 13, 64, 97]),
        (EngineKind::Mvcc, [14, 138, 8, 11, 54, 106]),
    ] {
        let db = station(kind);
        assert_eq!(
            db.scripts_by_author(&UserId::new("author07"))
                .unwrap()
                .len(),
            16
        );
        let counts = [
            allocations(|| db.script(&name).unwrap()),
            allocations(|| db.scripts_by_author(&UserId::new("author07")).unwrap()),
            allocations(|| db.implementations_of(&name).unwrap()),
            allocations(|| db.html_files(&url).unwrap()),
            allocations(|| db.alerts_for(ObjectKind::Script, name.as_str()).unwrap()),
            allocations(|| db.update_script(&name, |s| s.version += 1).unwrap()),
        ];
        assert!(
            counts.iter().zip(most).all(|(n, most)| *n <= most),
            "{kind}: {counts:?}, at most {most:?}"
        );
    }
}

/// `alerts_for` of a script whose implementation has 20 test records:
/// per alert at most four allocations — the alert's three strings (a
/// copy of its source's name, its target's name read from the row, its
/// message) and its share of the walk's growing lists; the reads that
/// ask for each test record's bug reports share one predicate — over a
/// fixed base for the walk's levels, its alert list and visited set,
/// and the script's other two alerts.
#[test]
fn alert_walk_allocates_a_constant_per_alert() {
    const PER_ALERT: u64 = 4;
    const BASE: u64 = 49;
    for kind in [EngineKind::TwoPl, EngineKind::Mvcc] {
        let db = station(kind);
        let name = ScriptName::new("s00022");
        let url = StartUrl::new("http://mmu/s00022/start.html");
        for i in 0..20 {
            db.add_test_record(&TestRecord {
                name: TestRecordName::new(format!("s00022-t{i:02}")),
                scope: TestScope::Local,
                messages: vec![],
                script: name.clone(),
                url: Some(url.clone()),
                created: 3_000 + i,
            })
            .unwrap();
        }
        let alerts = db.alerts_for(ObjectKind::Script, name.as_str()).unwrap();
        assert_eq!(
            alerts.len(),
            22,
            "implementation, HTML file, 20 test records"
        );
        let n = allocations(|| db.alerts_for(ObjectKind::Script, name.as_str()).unwrap());
        let most = BASE + PER_ALERT * alerts.len() as u64;
        assert!(
            n <= most,
            "{kind}: {n} allocations for {} alerts, at most {most}",
            alerts.len()
        );
    }
}
