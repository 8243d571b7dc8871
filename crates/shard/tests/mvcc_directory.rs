//! The router's gid directory has one committed version, while an MVCC
//! part reads at its snapshot. A transaction whose snapshot still shows
//! a row that a newer commit deleted cannot name that row: the read
//! must fail with the retryable abort, never panic, and a retry at a
//! fresh snapshot must succeed.

use obs::Registry;
use relstore::{ColumnType, EngineKind, Error, Predicate, TableSchema, Value};
use shard::{Router, RoutingSpec, ShardMap};

#[test]
fn snapshot_read_of_a_row_deleted_since_aborts_and_retries() {
    let r = Router::new(EngineKind::Mvcc, ShardMap::uniform(4), Registry::new());
    r.create_table(
        TableSchema::builder("t")
            .column("id", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap(),
        RoutingSpec::ByColumn("id".into()),
    )
    .unwrap();
    for i in 0..8i64 {
        r.with_txn(|t| t.insert("t", vec![Value::Int(i)]).map(|_| ()))
            .unwrap();
    }
    // The reader's first scatter fixes its snapshot on every shard.
    let reader = r.begin();
    assert_eq!(reader.select("t", &Predicate::True).unwrap().len(), 8);
    r.with_txn(|t| {
        let (gid, _) = t.select("t", &Predicate::eq("id", 3i64))?[0].clone();
        t.delete("t", gid)
    })
    .unwrap();
    let err = reader.select("t", &Predicate::True).unwrap_err();
    assert!(matches!(err, Error::TxnAborted { .. }), "{err:?}");
    drop(reader);
    let rows = r.with_txn(|t| t.select("t", &Predicate::True)).unwrap();
    assert_eq!(rows.len(), 7);
}
