//! Backend equivalence: a database on a tiny buffer pool spilling to
//! the log-structured page store — with merge compaction forced
//! mid-workload — must be observationally identical to one on the
//! default unbounded in-memory pool, for any workload. Eviction,
//! reload, page compaction, segment rotation, hint files, tombstones
//! and merge are implementation detail — never behavior.

use proptest::prelude::*;
use relstore::{ColumnType, Database, PoolBackend, PoolConfig, Predicate, TableSchema, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Clone)]
enum Op {
    Insert { key: i64, payload: String },
    Update { key: i64, payload: String },
    Delete { key: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..40, "[a-z]{0,24}").prop_map(|(key, payload)| Op::Insert { key, payload }),
        (0i64..40, "[a-z]{0,24}").prop_map(|(key, payload)| Op::Update { key, payload }),
        (0i64..40).prop_map(|key| Op::Delete { key }),
    ]
}

fn make_table(db: &Database) {
    db.create_table(
        TableSchema::builder("t")
            .column("k", ColumnType::Int)
            .column("v", ColumnType::Text)
            .primary_key(&["k"])
            .index("by_v", &["v"], false)
            .build()
            .unwrap(),
    )
    .unwrap();
}

/// Unique scratch location per proptest case (cases run in one process).
fn scratch() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("relstore-log-equiv-{}-{n}", std::process::id()))
}

fn apply(db: &Database, ops: &[Op], ids: &mut HashMap<i64, relstore::RowId>) {
    for op in ops {
        let txn = db.begin();
        match op {
            Op::Insert { key, payload } => {
                if let Ok(id) =
                    txn.insert("t", vec![Value::Int(*key), Value::from(payload.clone())])
                {
                    ids.insert(*key, id);
                }
            }
            Op::Update { key, payload } => {
                if let Some(id) = ids.get(key) {
                    let _ = txn.update_cols("t", *id, &[("v", Value::from(payload.clone()))]);
                }
            }
            Op::Delete { key } => {
                if let Some(id) = ids.remove(key) {
                    txn.delete("t", id).unwrap();
                }
            }
        }
        txn.commit().unwrap();
    }
}

fn snapshot_json(db: &Database) -> String {
    serde_json::to_string(&db.snapshot().unwrap()).unwrap()
}

/// The buffer economy at five pool budgets: 400 rows of ~120 bytes (a
/// 15-page working set), then 400 seeded point reads (80 %) and
/// updates by primary key, on log-spilling pools of 1, 5, 25, 50 and
/// 100 % of the working set and on the unbounded pool as the oracle.
/// Answers never depend on the budget; the hit rate rises with it,
/// resident memory stays inside it, and a budget covering the working
/// set reproduces the oracle's counters exactly.
#[test]
fn pool_budget_sweep_counts() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    const PAGE: usize = 4096;
    // (reads, bytes read, heap bytes, snapshot) — what every cell must
    // answer identically.
    let workload = |db: &Database| {
        db.create_table(
            TableSchema::builder("doc")
                .column("id", ColumnType::Int)
                .column("body", ColumnType::Text)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let t = db.begin();
        for i in 0..400i64 {
            t.insert("doc", vec![Value::Int(i), Value::from(format!("{i:<120}"))])
                .unwrap();
        }
        t.commit().unwrap();
        let mut rng = StdRng::seed_from_u64(16);
        let (mut reads, mut read_bytes) = (0u64, 0usize);
        for op in 0..400u64 {
            let id = rng.gen_range(0..400i64);
            let t = db.begin();
            let rows = t.select("doc", &Predicate::eq("id", id)).unwrap();
            if rng.gen_bool(0.8) {
                reads += 1;
                read_bytes += rows[0].1[1].as_text().unwrap().len();
            } else {
                t.update_cols(
                    "doc",
                    rows[0].0,
                    &[("body", Value::from(format!("{op:<120}")))],
                )
                .unwrap();
            }
            t.commit().unwrap();
        }
        (
            reads,
            read_bytes,
            db.heap_bytes("doc").unwrap(),
            snapshot_json(db),
        )
    };

    let oracle_db = Database::new();
    let oracle = workload(&oracle_db);
    let o = oracle_db.pool().stats();
    assert_eq!(
        (o.resident_pages, o.hits, o.misses, o.resident_peak),
        (15, 993, 0, 61_440)
    );

    // (pool %, pages, hits, misses, evictions, writeback bytes, peak).
    let cells = [
        (1, 1, 601, 392, 406, 425_984, 4096),
        (5, 1, 601, 392, 406, 425_984, 4096),
        (25, 4, 682, 311, 322, 413_696, 16_384),
        (50, 8, 789, 204, 211, 385_024, 32_768),
        (100, 15, 993, 0, 0, 0, 61_440),
    ];
    let mut last_hits = 0;
    for (pct, pages, hits, misses, evictions, writeback, peak) in cells {
        let max_pages = (15 * pct as usize).div_ceil(100);
        assert_eq!(max_pages, pages);
        let dir = scratch();
        let db = Database::with_pool(&PoolConfig {
            page_size: PAGE,
            ..PoolConfig::log(&dir, max_pages)
        })
        .unwrap();
        assert!(workload(&db) == oracle, "{pct}% pool changed an answer");
        let s = db.pool().stats();
        assert_eq!(
            (
                s.hits,
                s.misses,
                s.evictions,
                s.writeback_bytes,
                s.resident_peak
            ),
            (hits, misses, evictions, writeback, peak),
            "{pct}% pool"
        );
        assert!(s.resident_peak <= ((max_pages + 2) * PAGE) as u64);
        assert!(hits >= last_hits, "hit rate falls as the budget grows");
        last_hits = hits;
        if pct == 100 {
            // The full budget is the unbounded pool, counter for counter.
            assert_eq!(
                (s.hits, s.misses, s.resident_peak),
                (o.hits, o.misses, o.resident_peak)
            );
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same ops against (a) the unbounded in-memory pool and (b) a
    /// 4-page pool with 256-byte pages over a log-structured store
    /// with 2 KiB segments — small enough that nearly every access
    /// evicts and reloads through the spill and every workload rotates
    /// segments — with a merge compaction forced halfway through the
    /// tape on (b). All observations must agree byte for byte.
    #[test]
    fn log_backed_tiny_pool_equals_in_memory(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        probe in "[a-z]{0,3}",
    ) {
        let mem = Database::new();
        make_table(&mem);

        let log_dir = scratch();
        let log_cfg = PoolConfig {
            backend: PoolBackend::Log(
                log_dir.clone(),
                logstore::LogConfig {
                    segment_bytes: 2048,
                    min_sealed_segments: 1,
                    auto_compact: false,
                    ..logstore::LogConfig::default()
                },
            ),
            max_pages: Some(4),
            page_size: 256,
        };
        let logged = Database::with_pool(&log_cfg).unwrap();
        make_table(&logged);

        let mid = ops.len() / 2;
        let mut mem_ids = HashMap::new();
        let mut log_ids = HashMap::new();

        apply(&mem, &ops[..mid], &mut mem_ids);
        apply(&logged, &ops[..mid], &mut log_ids);

        // Force a merge compaction mid-tape on the log backend; the
        // memory backend compacts trivially (default no-op returning 0).
        logged.pool().compact_backend().unwrap();
        prop_assert_eq!(mem.pool().compact_backend().unwrap(), 0);

        apply(&mem, &ops[mid..], &mut mem_ids);
        apply(&logged, &ops[mid..], &mut log_ids);

        prop_assert_eq!(&mem_ids, &log_ids, "row-id allocation diverged");

        // Point/index selects agree.
        {
            let tm = mem.begin();
            let tl = logged.begin();
            let by_probe = Predicate::eq("v", probe.clone());
            prop_assert_eq!(
                tm.select("t", &by_probe).unwrap(),
                tl.select("t", &by_probe).unwrap()
            );
            prop_assert_eq!(
                tm.select("t", &Predicate::True).unwrap(),
                tl.select("t", &Predicate::True).unwrap()
            );
        }

        // Whole-database snapshots agree byte for byte.
        prop_assert_eq!(
            snapshot_json(&mem),
            snapshot_json(&logged),
            "snapshot JSON diverged between backends"
        );

        // Logical accounting is backend-independent.
        prop_assert_eq!(
            mem.heap_bytes("t").unwrap(),
            logged.heap_bytes("t").unwrap()
        );

        drop(logged);
        let _ = std::fs::remove_dir_all(&log_dir);
    }
}
