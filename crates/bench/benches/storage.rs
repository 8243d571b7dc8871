//! Criterion benches for the storage substrates: relstore point
//! operations, index vs scan selection, the raw full-scan path against
//! decoding every row, an update that overwrites its row in place
//! against one that relocates it, BLOB store throughput (experiment
//! E4/E8's microbenchmark companion), and the durable byte path: the
//! frame CRC on a page and on an average BLOB, the BLOB digest, a
//! script-update WAL frame encoded and decoded, and typed reads decoded
//! from copied rows against decoded from the stored images.

use blobstore::{BlobStore, MediaKind};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use relstore::pagestore::page;
use relstore::{
    AnyEngine, ColumnType, Database, EngineKind, MvccDb, Predicate, RowRef, Table, TableSchema,
    Value,
};
use wal::record::{encode_frame, FRAME_HEADER};
use wal::WalRecord;
use wdoc_core::ids::{DbName, ScriptName, UserId};
use wdoc_core::tables::{self, Script};

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

/// The average BLOB payload of the durable benchmark workload.
const BLOB_BYTES: usize = 34 * 1024;

fn bench_byte_path(c: &mut Criterion) {
    let data: Vec<u8> = (0..BLOB_BYTES as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    let mut g = c.benchmark_group("crc32");
    g.bench_function("4k", |b| {
        b.iter(|| logstore::crc32(black_box(&data[..4096])))
    });
    g.bench_function("34k", |b| b.iter(|| logstore::crc32(black_box(&data))));
    g.finish();
    let mut g = c.benchmark_group("blob_digest");
    g.bench_function("34k", |b| {
        b.iter(|| blobstore::BlobId::of(black_box(&data)))
    });
    g.finish();

    let script = |percent: i64| Script {
        name: ScriptName::new("week-01-intro"),
        db: DbName::new("mm-course"),
        keywords: vec!["lecture".into(), "multimedia".into()],
        author: UserId::new("prof-shih"),
        version: 3,
        created: 1_700_000,
        description: "Week one: media types, the BLOB layer and sharing".into(),
        expected_completion: Some(1_800_000),
        percent_complete: percent,
    };
    let update = WalRecord::Update {
        txn: 4_711,
        table: Script::TABLE.into(),
        row: relstore::RowId(1_234),
        before: script(40).to_row(),
        after: script(45).to_row(),
    };
    let frame = encode_frame(&update).expect("frame encodes");
    let mut g = c.benchmark_group("wal_frame");
    g.bench_function("encode_update", |b| {
        b.iter(|| encode_frame(black_box(&update)))
    });
    g.bench_function("decode_update", |b| {
        b.iter(|| wal::record::decode(8, black_box(&frame[FRAME_HEADER..])))
    });
    g.finish();
}

/// A typed read of 64 `Script` rows (one author's) on each engine, the
/// two ways: `select` copies each row out as a `Vec<Value>` and
/// `Script::from_row` decodes the copy, or `select_with` hands each
/// stored image to `Script::from_row` as a view.
fn bench_row_views(c: &mut Criterion) {
    let mut g = c.benchmark_group("row_views");
    let by_author = Predicate::eq("author", "author07");
    for kind in [EngineKind::TwoPl, EngineKind::Mvcc] {
        let db = AnyEngine::new(kind);
        db.create_table(tables::database_schema()).unwrap();
        db.create_table(Script::schema()).unwrap();
        db.with_txn(|t| {
            t.insert(
                "wdoc_database",
                vec![
                    "mmu".into(),
                    "".into(),
                    "shih".into(),
                    Value::Int(1),
                    Value::Timestamp(0),
                ],
            )?;
            for i in 0..64u64 {
                let s = Script {
                    name: ScriptName::new(format!("s{i:05}")),
                    db: DbName::new("mmu"),
                    keywords: vec!["lecture".into(), format!("week{}", i % 13)],
                    author: UserId::new("author07"),
                    version: 1,
                    created: 1_000 + i,
                    description: format!("lecture script s{i:05}: outline, media list, quiz plan"),
                    expected_completion: (i % 2 == 0).then_some(9_000 + i),
                    percent_complete: (i % 101) as i64,
                };
                t.insert(Script::TABLE, s.to_row())?;
            }
            Ok(())
        })
        .unwrap();
        g.bench_function(&format!("select_then_from_row/{kind}"), |b| {
            b.iter(|| {
                let rows = db
                    .with_txn(|t| t.select(Script::TABLE, black_box(&by_author)))
                    .unwrap();
                let scripts: Vec<Script> = rows
                    .iter()
                    .map(|(_, r)| Script::from_row(RowRef::decoded(r)).unwrap())
                    .collect();
                assert_eq!(scripts.len(), 64);
                scripts
            });
        });
        g.bench_function(&format!("select_with/{kind}"), |b| {
            b.iter(|| {
                let scripts = db
                    .with_txn(|t| {
                        let mut out = Vec::new();
                        t.select_with(Script::TABLE, black_box(&by_author), &mut |_, row| {
                            out.push(Script::from_row(row)?);
                            Ok(())
                        })?;
                        Ok(out)
                    })
                    .unwrap();
                assert_eq!(scripts.len(), 64);
                scripts
            });
        });
    }
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
    targets = bench_relstore, bench_scan, bench_update, bench_blobstore, bench_byte_path,
        bench_row_views
}
criterion_main!(benches);
