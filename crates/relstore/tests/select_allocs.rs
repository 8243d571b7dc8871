//! A read allocates nothing beyond what it returns. This binary's
//! global allocator counts the allocations of the calling thread, so a
//! count is exact and another test thread cannot move it.

use relstore::{AnyEngine, ColumnType, EngineKind, Predicate, TableSchema, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Allocations `f` makes on this thread; its result is dropped after
/// the count.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let n = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    n
}

/// `script(name, author, version)` keyed by its text name, indexed by
/// author, 256 rows.
fn scripts(kind: EngineKind) -> AnyEngine {
    let db = AnyEngine::new(kind);
    db.create_table(
        TableSchema::builder("script")
            .column("name", ColumnType::Text)
            .column("author", ColumnType::Text)
            .column("version", ColumnType::Int)
            .primary_key(&["name"])
            .index("by_author", &["author"], false)
            .build()
            .unwrap(),
    )
    .unwrap();
    let t = db.begin();
    for i in 0..256i64 {
        let row = vec![
            format!("s{i:05}").into(),
            format!("author{:02}", i % 16).into(),
            Value::Int(i),
        ];
        t.insert("script", row).unwrap();
    }
    t.commit().unwrap();
    db
}

#[test]
fn a_repeated_primary_key_read_allocates_nothing() {
    for kind in [EngineKind::TwoPl, EngineKind::Mvcc] {
        let db = scripts(kind);
        let key = Predicate::eq("name", "s00021");
        let author = Predicate::eq("author", "author05");
        let t = db.begin();
        // The transaction's first read takes its locks and sizes its
        // scan buffers; the reads after reuse both.
        assert_eq!(t.count("script", &key).unwrap(), 1);
        assert_eq!(
            allocations(|| t.count("script", &key).unwrap()),
            0,
            "{kind}"
        );
        let mut seen = 0;
        let visit = allocations(|| {
            t.select_with("script", &key, &mut |_, row| {
                seen += row.int(2)?.unwrap_or(0);
                Ok(())
            })
        });
        assert_eq!((visit, seen), (0, 21), "{kind}: select_with");
        assert_eq!(t.count("script", &author).unwrap(), 16);
        let n = allocations(|| t.count("script", &author).unwrap());
        assert_eq!(n, 0, "{kind}: an index probe of 16 rows");
        t.commit().unwrap();
    }
}
