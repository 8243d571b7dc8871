//! Criterion benches for both lock layers: the paper's document-tree
//! compatibility table (wdoc-core) and the engine's multi-granularity
//! lock manager (relstore) — experiment E7's microbenchmark companion.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use relstore::lock::{Held, LockManager, LockMode, Resource};
use relstore::RowId;
use wdoc_core::{Access, DocTree, NodeId, UserId};

fn course_tree(lectures: usize, pages: usize) -> (DocTree, Vec<NodeId>) {
    let mut t = DocTree::new();
    let course = t.root("course");
    let lecs = (0..lectures)
        .map(|i| {
            let lec = t.child(course, format!("lecture{i}"));
            for p in 0..pages {
                t.child(lec, format!("page{p}"));
            }
            lec
        })
        .collect();
    (t, lecs)
}

fn bench_doc_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("doc_tree_locks");
    for lectures in [8usize, 64] {
        let (mut tree, lecs) = course_tree(lectures, 5);
        let user = UserId::new("shih");
        g.bench_with_input(
            BenchmarkId::new("lock_unlock_disjoint", lectures),
            &lecs[0],
            |b, &lec| {
                b.iter(|| {
                    tree.try_lock(&user, black_box(lec), Access::Write).unwrap();
                    tree.unlock(&user, lec);
                });
            },
        );
        // Conflict-check cost with many held locks.
        let (mut tree2, lecs2) = course_tree(lectures, 5);
        for (i, &lec) in lecs2.iter().enumerate().skip(1) {
            tree2
                .try_lock(&UserId::new(format!("u{i}")), lec, Access::Write)
                .unwrap();
        }
        g.bench_with_input(
            BenchmarkId::new("check_under_contention", lectures),
            &lecs2[0],
            |b, &lec| {
                let probe = UserId::new("probe");
                b.iter(|| tree2.check(&probe, black_box(lec), Access::Write));
            },
        );
    }
    g.finish();
}

fn bench_lock_manager(c: &mut Criterion) {
    let mut g = c.benchmark_group("relstore_lock_manager");
    g.bench_function("table_ix_row_x_cycle", |b| {
        let lm = LockManager::new();
        let mut held = Held::default();
        let mut txn = 1u64;
        b.iter(|| {
            lm.acquire(
                txn,
                &mut held,
                Resource::Table(1),
                LockMode::IntentExclusive,
            )
            .unwrap();
            lm.acquire(
                txn,
                &mut held,
                Resource::Row(1, RowId(7)),
                LockMode::Exclusive,
            )
            .unwrap();
            lm.release_all(txn, &mut held);
            txn += 1;
        });
    });
    g.bench_function("shared_readers_16", |b| {
        let lm = LockManager::new();
        for t in 1..=16u64 {
            lm.acquire(
                t,
                &mut Held::default(),
                Resource::Table(1),
                LockMode::Shared,
            )
            .unwrap();
        }
        let mut held = Held::default();
        let mut txn = 100u64;
        b.iter(|| {
            lm.acquire(txn, &mut held, Resource::Table(1), LockMode::Shared)
                .unwrap();
            lm.release_all(txn, &mut held);
            txn += 1;
        });
    });
    g.finish();
}

fn quick() -> Criterion {
    // Single-core CI box: short, deterministic-enough runs.
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_doc_tree, bench_lock_manager
}
criterion_main!(benches);
