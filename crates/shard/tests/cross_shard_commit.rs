//! A cross-shard commit is all or nothing in memory too: under MVCC a
//! part that loses first-committer-wins on one shard must not have
//! published its rows on another. The interleaving is fixed by hand,
//! so the test is deterministic; its name starts `concurrent_` so the
//! release concurrency step runs it beside the race batteries.

use obs::Registry;
use relstore::{ColumnType, EngineKind, Error, Predicate, RowId, TableSchema, Value};
use shard::{Router, RoutingSpec, ShardMap};

/// A two-shard MVCC router with one table `t(id, v)` hashed on `id`.
fn router() -> Router {
    let router = Router::new(EngineKind::Mvcc, ShardMap::uniform(2), Registry::new());
    let schema = TableSchema::builder("t")
        .column("id", ColumnType::Int)
        .column("v", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap();
    router
        .create_table(schema, RoutingSpec::ByColumn("id".into()))
        .unwrap();
    router
}

/// The first id that routes to `shard` (probed by a rolled-back insert).
fn id_on(router: &Router, shard: usize) -> i64 {
    (0..)
        .find(|&id| {
            let probe = router.begin();
            probe
                .insert("t", vec![Value::Int(id), Value::Int(0)])
                .unwrap();
            probe.dirty_shards() == [shard]
        })
        .unwrap()
}

fn row_of(router: &Router, id: i64) -> (RowId, i64) {
    let rows = router
        .with_txn(|t| t.select("t", &Predicate::Eq("id".into(), Value::Int(id))))
        .unwrap();
    (rows[0].0, rows[0].1[1].as_int().unwrap())
}

#[test]
fn concurrent_mvcc_cross_shard_commit_that_loses_on_one_shard_publishes_nothing() {
    let router = router();
    let (a, b) = (id_on(&router, 0), id_on(&router, 1));
    router
        .with_txn(|t| {
            t.insert("t", vec![Value::Int(a), Value::Int(0)])?;
            t.insert("t", vec![Value::Int(b), Value::Int(0)])
        })
        .unwrap();
    let (ga, gb) = (row_of(&router, a).0, row_of(&router, b).0);

    // T1 writes a row on each shard, so both of its parts hold a
    // snapshot from before T2.
    let t1 = router.begin();
    t1.update_cols("t", ga, &[("v", Value::Int(1))]).unwrap();
    t1.update_cols("t", gb, &[("v", Value::Int(1))]).unwrap();
    assert_eq!(t1.dirty_shards(), [0, 1]);
    // T2 commits to T1's second-shard row first.
    router
        .with_txn(|t| t.update_cols("t", gb, &[("v", Value::Int(2))]))
        .unwrap();

    match t1.commit() {
        Err(Error::WriteConflict { .. }) => {}
        other => panic!("T1 must lose first-committer-wins on shard 1, got {other:?}"),
    }
    assert_eq!(
        row_of(&router, a).1,
        0,
        "the losing commit published its shard-0 row"
    );
    assert_eq!(row_of(&router, b).1, 2, "T2's committed write was lost");
    // Nothing is left holding a commit fence: both shards still commit.
    router
        .with_txn(|t| {
            t.update_cols("t", ga, &[("v", Value::Int(3))])?;
            t.update_cols("t", gb, &[("v", Value::Int(3))])
        })
        .unwrap();
    assert_eq!((row_of(&router, a).1, row_of(&router, b).1), (3, 3));
}
