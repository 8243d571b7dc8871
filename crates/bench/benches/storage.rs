//! Criterion benches for the storage substrates: relstore point
//! operations, index vs scan selection, the raw full-scan path against
//! decoding every row, an update that overwrites its row in place
//! against one that relocates it, and BLOB store throughput (experiment
//! E4/E8's microbenchmark companion).

use blobstore::{BlobStore, MediaKind};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use relstore::pagestore::page;
use relstore::{ColumnType, Database, MvccDb, Predicate, Table, TableSchema, Value};

fn seeded_db(rows: i64) -> Database {
    let db = Database::new();
    db.create_table(
        TableSchema::builder("doc")
            .column("id", ColumnType::Int)
            .column("author", ColumnType::Text)
            .column("title", ColumnType::Text)
            .primary_key(&["id"])
            .index("by_author", &["author"], false)
            .build()
            .unwrap(),
    )
    .unwrap();
    let txn = db.begin();
    for i in 0..rows {
        txn.insert(
            "doc",
            vec![
                Value::Int(i),
                Value::from(format!("author{}", i % 50)),
                Value::from(format!("Lecture {i} on multimedia databases")),
            ],
        )
        .unwrap();
    }
    txn.commit().unwrap();
    db
}

fn bench_relstore(c: &mut Criterion) {
    let mut g = c.benchmark_group("relstore");
    g.bench_function("insert_1k_rows", |b| {
        b.iter(|| seeded_db(black_box(1_000)));
    });
    for rows in [1_000i64, 10_000] {
        let db = seeded_db(rows);
        g.bench_with_input(BenchmarkId::new("select_indexed_eq", rows), &db, |b, db| {
            b.iter(|| {
                db.with_txn(|t| t.select("doc", &Predicate::eq("author", "author7")))
                    .unwrap()
            });
        });
        g.bench_with_input(
            BenchmarkId::new("select_scan_contains", rows),
            &db,
            |b, db| {
                b.iter(|| {
                    db.with_txn(|t| {
                        t.select("doc", &Predicate::Contains("title".into(), "77".into()))
                    })
                    .unwrap()
                });
            },
        );
        g.bench_with_input(BenchmarkId::new("point_get_by_pk", rows), &db, |b, db| {
            b.iter(|| {
                db.with_txn(|t| t.select("doc", &Predicate::eq("id", rows / 2)))
                    .unwrap()
            });
        });
    }
    g.finish();
}

/// A full-table scan two ways: the compiled predicate over encoded rows
/// (decode on match only, what `Txn::select` runs) against decoding
/// every row and evaluating it (`scan_equiv` proves both keep the same
/// rows). Beside them, the per-call cost of an MVCC point select on the
/// same 10k rows, which reaches its row through the primary index.
fn bench_scan(c: &mut Criterion) {
    let schema = TableSchema::builder("doc")
        .column("id", ColumnType::Int)
        .column("cat", ColumnType::Int)
        .column("title", ColumnType::Text)
        .nullable_column("score", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap();
    let mut t = Table::new(schema).unwrap();
    for i in 0..10_000i64 {
        let score = if i % 7 == 0 {
            Value::Null
        } else {
            Value::Int(i % 1_000)
        };
        t.insert(vec![
            Value::Int(i),
            Value::Int(i % 97),
            Value::from(format!("course document {i:>8} — lecture notes")),
            score,
        ])
        .unwrap();
    }
    let pred = Predicate::eq("cat", 7i64).and(Predicate::Contains("title".into(), "notes".into()));
    let compiled = pred.compile(t.schema()).unwrap();

    let mut g = c.benchmark_group("scan_10k_rows");
    g.bench_function("raw", |b| {
        let mut scratch = page::RowScratch::default();
        b.iter(|| {
            let mut hits = Vec::new();
            t.scan_encoded(|id, bytes| {
                if compiled.matches_raw(bytes, &mut scratch)? {
                    hits.push((id, page::decode_row(bytes)?));
                }
                Ok(())
            })
            .unwrap();
            hits
        });
    });
    g.bench_function("decode_all", |b| {
        b.iter(|| {
            t.iter()
                .filter(|(_, row)| compiled.eval(row))
                .collect::<Vec<_>>()
        });
    });
    let mvcc = MvccDb::new();
    mvcc.create_table(t.schema().clone()).unwrap();
    let rows: Vec<_> = t.iter().map(|(_, row)| row).collect();
    for chunk in rows.chunks(100) {
        mvcc.with_txn(|txn| {
            chunk
                .iter()
                .try_for_each(|row| txn.insert("doc", row.clone()).map(drop))
        })
        .unwrap();
    }
    let point = Predicate::eq("id", 5_000i64);
    g.bench_function("mvcc_point_select", |b| {
        b.iter(|| {
            mvcc.with_txn(|txn| txn.select("doc", black_box(&point)))
                .unwrap()
        });
    });
    g.finish();
}

/// One row's `update_cols` on a 10k-row 2PL table, both ways the heap
/// takes it: a title of the same length overwrites the row's slot on its
/// page, a longer one relocates the row to a page with room. The growing
/// case's untimed setup shrinks the title back, which stays in place.
fn bench_update(c: &mut Criterion) {
    let db = seeded_db(10_000);
    let id = db
        .with_txn(|t| t.select("doc", &Predicate::eq("id", 5_000i64)))
        .unwrap()[0]
        .0;
    let set = |title: &str| {
        db.with_txn(|t| t.update_cols("doc", id, &[("title", Value::from(title))]))
            .unwrap()
    };
    let mut g = c.benchmark_group("update_row");
    let mut n = 0u32;
    g.bench_function("same_length", |b| {
        b.iter(|| {
            n = (n + 1) % 10_000;
            set(black_box(&format!(
                "Lecture {n:04} on multimedia databases"
            )))
        });
    });
    let long = "Lecture 5000 on multimedia databases, with its worked examples";
    g.bench_function("growing", |b| {
        b.iter_with_setup(|| set("Lecture 5000"), |()| set(black_box(long)));
    });
    g.finish();
}

fn bench_blobstore(c: &mut Criterion) {
    let mut g = c.benchmark_group("blobstore");
    let payload = vec![7u8; 64 * 1024];
    g.bench_function("store_64k_fresh", |b| {
        b.iter_with_setup(BlobStore::new, |bs| {
            bs.store(MediaKind::StillImage, black_box(payload.clone()));
            bs
        });
    });
    g.bench_function("store_64k_dedup_hit", |b| {
        let bs = BlobStore::new();
        bs.store(MediaKind::StillImage, payload.clone());
        b.iter(|| bs.store(MediaKind::StillImage, black_box(payload.clone())));
    });
    g.bench_function("retain_release_cycle", |b| {
        let bs = BlobStore::new();
        let meta = bs.store(MediaKind::Audio, payload.clone());
        b.iter(|| {
            bs.retain(black_box(meta.id));
            bs.release(meta.id)
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
    targets = bench_relstore, bench_scan, bench_update, bench_blobstore
}
criterion_main!(benches);
