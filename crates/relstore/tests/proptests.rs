//! Property-based tests for the storage engine's core invariants.

use proptest::prelude::*;
use relstore::{ColumnType, Database, Key, Predicate, TableSchema, Value};
use std::collections::HashMap;

/// Model-based test: a sequence of random ops applied both to the engine
/// and to a plain HashMap model must agree at every step.
#[derive(Debug, Clone)]
enum Op {
    Insert { key: i64, payload: String },
    Update { key: i64, payload: String },
    Delete { key: i64 },
    Lookup { key: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..50, "[a-z]{0,8}").prop_map(|(key, payload)| Op::Insert { key, payload }),
        (0i64..50, "[a-z]{0,8}").prop_map(|(key, payload)| Op::Update { key, payload }),
        (0i64..50).prop_map(|key| Op::Delete { key }),
        (0i64..50).prop_map(|key| Op::Lookup { key }),
    ]
}

/// `op_strategy`'s ops plus updates that rewrite a row's value at its
/// current length less `shrink` bytes (0: same length), the images an
/// update overwrites in place; random payloads rarely are.
#[derive(Debug, Clone)]
enum HeapOp {
    Op(Op),
    Resize { key: i64, shrink: usize },
}

fn heap_op_strategy() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        op_strategy().prop_map(HeapOp::Op),
        op_strategy().prop_map(HeapOp::Op),
        (0i64..50).prop_map(|key| HeapOp::Resize { key, shrink: 0 }),
        (0i64..50, 1usize..4).prop_map(|(key, shrink)| HeapOp::Resize { key, shrink }),
    ]
}

fn fresh_table(db: &Database) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_agrees_with_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let db = Database::new();
        fresh_table(&db);
        let mut model: HashMap<i64, String> = HashMap::new();
        let mut ids: HashMap<i64, relstore::RowId> = HashMap::new();

        for op in ops {
            let txn = db.begin();
            match op {
                Op::Insert { key, payload } => {
                    let res = txn.insert("t", vec![Value::Int(key), Value::from(payload.clone())]);
                    if let std::collections::hash_map::Entry::Vacant(slot) = model.entry(key) {
                        let id = res.unwrap();
                        slot.insert(payload);
                        ids.insert(key, id);
                    } else {
                        prop_assert!(res.is_err(), "duplicate PK accepted");
                    }
                }
                Op::Update { key, payload } => {
                    if let Some(&id) = ids.get(&key) {
                        txn.update_cols("t", id, &[("v", Value::from(payload.clone()))]).unwrap();
                        model.insert(key, payload);
                    }
                }
                Op::Delete { key } => {
                    if let Some(id) = ids.remove(&key) {
                        txn.delete("t", id).unwrap();
                        model.remove(&key);
                    }
                }
                Op::Lookup { key } => {
                    let rows = txn.select("t", &Predicate::eq("k", key)).unwrap();
                    match model.get(&key) {
                        None => prop_assert!(rows.is_empty()),
                        Some(v) => {
                            prop_assert_eq!(rows.len(), 1);
                            prop_assert_eq!(rows[0].1[1].as_text().unwrap(), v.as_str());
                        }
                    }
                }
            }
            txn.commit().unwrap();
        }

        // Final state agrees in full.
        let txn = db.begin();
        let all = txn.select("t", &Predicate::True).unwrap();
        prop_assert_eq!(all.len(), model.len());
        for (_, row) in &all {
            let k = row[0].as_int().unwrap();
            prop_assert_eq!(row[1].as_text().unwrap(), model[&k].as_str());
        }
    }

    /// Index lookups always agree with a full scan, for any data set.
    #[test]
    fn index_matches_scan(
        entries in proptest::collection::btree_map(0i64..200, "[a-c]{1,2}", 0..60),
        probe in "[a-c]{1,2}",
    ) {
        let db = Database::new();
        fresh_table(&db);
        let txn = db.begin();
        for (k, v) in &entries {
            txn.insert("t", vec![Value::Int(*k), Value::from(v.clone())]).unwrap();
        }
        let indexed = txn.select("t", &Predicate::eq("v", probe.clone())).unwrap();
        let expected = entries.values().filter(|v| **v == probe).count();
        prop_assert_eq!(indexed.len(), expected);
        txn.commit().unwrap();
    }

    /// Rollback is a perfect inverse of any batch of mutations.
    #[test]
    fn rollback_is_identity(
        seed in proptest::collection::vec((0i64..30, "[a-z]{1,4}"), 1..20),
        muts in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let db = Database::new();
        fresh_table(&db);
        let mut ids = HashMap::new();
        {
            let txn = db.begin();
            for (k, v) in &seed {
                if let Ok(id) = txn.insert("t", vec![Value::Int(*k), Value::from(v.clone())]) {
                    ids.insert(*k, id);
                }
            }
            txn.commit().unwrap();
        }
        let before = {
            let txn = db.begin();
            txn.select("t", &Predicate::True).unwrap()
        };
        {
            let txn = db.begin();
            for op in &muts {
                match op {
                    Op::Insert { key, payload } => {
                        let _ = txn.insert("t", vec![Value::Int(*key), Value::from(payload.clone())]);
                    }
                    Op::Update { key, payload } => {
                        if let Some(id) = ids.get(key) {
                            let _ = txn.update_cols("t", *id, &[("v", Value::from(payload.clone()))]);
                        }
                    }
                    Op::Delete { key } => {
                        if let Some(id) = ids.get(key) {
                            let _ = txn.delete("t", *id);
                        }
                    }
                    Op::Lookup { .. } => {}
                }
            }
            txn.rollback();
        }
        let after = {
            let txn = db.begin();
            txn.select("t", &Predicate::True).unwrap()
        };
        prop_assert_eq!(before, after);
    }

    /// Composite keys compare lexicographically.
    #[test]
    fn key_order_is_lexicographic(a in any::<(i64, i64)>(), b in any::<(i64, i64)>()) {
        let ka = Key(vec![Value::Int(a.0), Value::Int(a.1)]);
        let kb = Key(vec![Value::Int(b.0), Value::Int(b.1)]);
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
    }

    /// snapshot → restore → snapshot is byte-for-byte idempotent after
    /// any randomized transactional workload (commits and rollbacks
    /// interleaved) — the backbone of both station backups and WAL
    /// checkpoints.
    #[test]
    fn snapshot_restore_roundtrips_byte_for_byte(
        batches in proptest::collection::vec(
            (proptest::collection::vec(op_strategy(), 1..15), any::<bool>()),
            1..10,
        ),
    ) {
        let db = Database::new();
        fresh_table(&db);
        let mut ids = HashMap::new();
        for (ops, commit) in &batches {
            let txn = db.begin();
            let mut added: Vec<i64> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert { key, payload } => {
                        if let Ok(id) = txn.insert("t", vec![Value::Int(*key), Value::from(payload.clone())]) {
                            ids.insert(*key, id);
                            added.push(*key);
                        }
                    }
                    Op::Update { key, payload } => {
                        if let Some(id) = ids.get(key) {
                            let _ = txn.update_cols("t", *id, &[("v", Value::from(payload.clone()))]);
                        }
                    }
                    Op::Delete { key } => {
                        if let Some(id) = ids.get(key) {
                            let _ = txn.delete("t", *id);
                        }
                    }
                    Op::Lookup { .. } => {}
                }
            }
            if *commit {
                txn.commit().unwrap();
            } else {
                txn.rollback();
                for k in added {
                    ids.remove(&k);
                }
            }
        }

        let first = db.snapshot().unwrap();
        let restored = Database::restore(&first).unwrap();
        let second = restored.snapshot().unwrap();
        prop_assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap(),
            "restore must reproduce the snapshot exactly"
        );
        // And the restored engine keeps working: the next insert gets a
        // row id that does not collide with any restored row.
        let txn = restored.begin();
        let id = txn.insert("t", vec![Value::Int(10_000), Value::from("fresh")]).unwrap();
        prop_assert!(!first.tables["t"].rows.iter().any(|(rid, _)| *rid == id));
        txn.commit().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The incrementally maintained `heap_bytes` counter always equals
    /// a from-scratch recomputation over the live rows — across any
    /// interleaving of inserts, updates, deletes and rollbacks. Guards
    /// the paged heap's accounting: rows move between pages, pages are
    /// allocated and freed, but logical payload bytes must track
    /// exactly.
    #[test]
    fn heap_bytes_matches_recomputation(
        batches in proptest::collection::vec(
            (proptest::collection::vec(heap_op_strategy(), 1..12), any::<bool>()),
            1..8,
        ),
    ) {
        let db = Database::new();
        fresh_table(&db);
        let mut ids = HashMap::new();
        for (ops, commit) in &batches {
            let txn = db.begin();
            let mut added: Vec<i64> = Vec::new();
            for op in ops {
                let op = match op {
                    HeapOp::Op(op) => op,
                    HeapOp::Resize { key, shrink } => {
                        if let Some(id) = ids.get(key) {
                            let old = txn.get("t", *id).unwrap()[1].as_text().unwrap().to_owned();
                            let new: String = old
                                .chars()
                                .skip(*shrink)
                                .map(|c| if c == 'z' { 'a' } else { 'z' })
                                .collect();
                            txn.update_cols("t", *id, &[("v", Value::from(new))]).unwrap();
                        }
                        continue;
                    }
                };
                match op {
                    Op::Insert { key, payload } => {
                        if let Ok(id) = txn.insert("t", vec![Value::Int(*key), Value::from(payload.clone())]) {
                            ids.insert(*key, id);
                            added.push(*key);
                        }
                    }
                    Op::Update { key, payload } => {
                        if let Some(id) = ids.get(key) {
                            let _ = txn.update_cols("t", *id, &[("v", Value::from(payload.clone()))]);
                        }
                    }
                    Op::Delete { key } => {
                        if let Some(id) = ids.get(key) {
                            let _ = txn.delete("t", *id);
                            ids.remove(key);
                        }
                    }
                    Op::Lookup { .. } => {}
                }
            }
            if *commit {
                txn.commit().unwrap();
            } else {
                txn.rollback();
                for k in added {
                    ids.remove(&k);
                }
            }

            let recomputed: usize = {
                let txn = db.begin();
                let rows = txn.select("t", &Predicate::True).unwrap();
                rows.iter()
                    .map(|(_, row)| row.iter().map(Value::heap_size).sum::<usize>())
                    .sum()
            };
            prop_assert_eq!(
                db.heap_bytes("t").unwrap(),
                recomputed,
                "incremental heap_bytes drifted from recomputation"
            );
        }
    }
}

fn cell() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<i64>().prop_map(|m| Value::Float(m as f64 / 64.0)),
        "[a-zé]{0,6}".prop_map(Value::Text),
        proptest::collection::vec(any::<u8>(), 0..6).prop_map(Value::Bytes),
        any::<u64>().prop_map(Value::Timestamp),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile bytes through the row codec: arbitrary images and
    /// bit-flipped valid ones decode to a row or a typed error — never
    /// a panic, never an allocation sized by an unchecked length field
    /// (which aborts the process) — and intact images round-trip.
    #[test]
    fn row_codec_survives_hostile_bytes(
        row in proptest::collection::vec(cell(), 0..8),
        junk in proptest::collection::vec(any::<u8>(), 0..48),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
        upto in 0usize..10,
    ) {
        use relstore::pagestore::page::{decode_row, encode_row, RowScratch};
        let image = encode_row(&row);
        prop_assert_eq!(decode_row(&image).unwrap(), row.clone());
        let mut scratch = RowScratch::default();
        prop_assert_eq!(scratch.load(&image, upto).is_ok(), upto <= row.len());

        let mut flipped = image.clone();
        for (at, bit) in flips {
            let at = at % flipped.len();
            flipped[at] ^= 1 << bit;
        }
        for bytes in [&junk, &flipped] {
            let _ = decode_row(bytes);
            let _ = scratch.load(bytes, upto);
        }
    }

    /// Hostile bytes through a row view: over arbitrary and bit-flipped
    /// images, and over an image other than the one its scratch walked,
    /// every accessor returns a value or a typed error — never a panic
    /// — and a view of an image that decodes reads what `decode_row`
    /// does.
    #[test]
    fn row_view_survives_hostile_bytes(
        row in proptest::collection::vec(cell(), 0..8),
        junk in proptest::collection::vec(any::<u8>(), 0..48),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
        upto in 0usize..10,
    ) {
        use relstore::pagestore::page::{decode_row, encode_row, RowRef, RowScratch};
        fn read_all(view: RowRef<'_>, upto: usize) {
            for i in 0..upto + 2 {
                let _ = (view.is_null(i), view.text(i), view.bytes(i));
                let _ = (view.int(i), view.timestamp(i), view.value(i));
            }
            let _ = view.to_row();
        }
        let image = encode_row(&row);
        let mut scratch = RowScratch::default();
        scratch.load(&image, row.len()).unwrap();
        prop_assert_eq!(scratch.view(&image).to_row().unwrap(), row.clone());
        prop_assert_eq!(RowRef::decoded(&row).to_row().unwrap(), row.clone());
        read_all(RowRef::decoded(&row), row.len());

        let mut flipped = image.clone();
        for (at, bit) in flips {
            let at = at % flipped.len();
            flipped[at] ^= 1 << bit;
        }
        for bytes in [&junk, &flipped] {
            // The walk of the image this scratch loaded, over other bytes.
            scratch.load(&image, row.len()).unwrap();
            read_all(scratch.view(bytes), row.len());
            if scratch.load(bytes, upto).is_ok() {
                read_all(scratch.view(bytes), upto);
            }
            if let Ok(decoded) = decode_row(bytes) {
                scratch.load(bytes, decoded.len()).unwrap();
                prop_assert_eq!(scratch.view(bytes).to_row().unwrap(), decoded);
            }
        }
    }
}
