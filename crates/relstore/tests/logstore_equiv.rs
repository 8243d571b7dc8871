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
