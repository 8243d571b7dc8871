//! Property: the raw scan path is observationally identical to the
//! decoded path.
//!
//! Two oracles guard the PR-5 predicate overhaul:
//!
//! - [`Compiled::matches_raw`] over encoded row bytes must agree with
//!   [`Compiled::eval`] over the decoded `Row` for every row and every
//!   predicate — including cross-type comparands, NULLs in every
//!   column, float edge values (NaN, negative zero), and nested
//!   And/Or/Not.
//! - `Txn::select` (which now runs the raw path, with index selection
//!   and conjunct pruning on top) must return exactly the rows a
//!   brute-force decoded filter keeps.

use proptest::prelude::*;
use relstore::pagestore::page::RowScratch;
use relstore::{ColumnType, Database, Predicate, RowId, Table, TableSchema, Value};

fn schema(name: &str) -> TableSchema {
    TableSchema::builder(name)
        .column("id", ColumnType::Int)
        .nullable_column("flag", ColumnType::Bool)
        .nullable_column("score", ColumnType::Float)
        .nullable_column("name", ColumnType::Text)
        .nullable_column("blob", ColumnType::Bytes)
        .nullable_column("seen", ColumnType::Timestamp)
        .primary_key(&["id"])
        .index("by_seen", &["seen"], false)
        .build()
        .unwrap()
}

const COLS: [&str; 6] = ["id", "flag", "score", "name", "blob", "seen"];

fn cols() -> BoxedStrategy<String> {
    (0usize..COLS.len())
        .prop_map(|i| COLS[i].to_string())
        .boxed()
}

fn texts() -> BoxedStrategy<String> {
    prop_oneof![
        Just(String::new()),
        Just("a".to_string()),
        Just("doc".to_string()),
        Just("web doc".to_string()),
        Just("αβ-doc".to_string()),
    ]
    .boxed()
}

fn floats() -> BoxedStrategy<f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        Just(2.5f64),
        Just(-3.25f64),
        Just(f64::NAN),
        (-1000i64..1000).prop_map(|m| m as f64 / 64.0),
    ]
    .boxed()
}

/// Any comparand, deliberately including NULL and values whose type
/// does not match the column they are compared against.
fn values() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-5i64..50).prop_map(Value::Int),
        floats().prop_map(Value::Float),
        texts().prop_map(Value::Text),
        proptest::collection::vec(any::<u8>(), 0..4).prop_map(Value::Bytes),
        (0u64..100).prop_map(Value::Timestamp),
    ]
    .boxed()
}

fn leaf() -> BoxedStrategy<Predicate> {
    prop_oneof![
        Just(Predicate::True),
        (cols(), 0usize..6, values()).prop_map(|(c, op, v)| match op {
            0 => Predicate::Eq(c, v),
            1 => Predicate::Ne(c, v),
            2 => Predicate::Lt(c, v),
            3 => Predicate::Le(c, v),
            4 => Predicate::Gt(c, v),
            _ => Predicate::Ge(c, v),
        }),
        (cols(), texts()).prop_map(|(c, s)| Predicate::Contains(c, s)),
        cols().prop_map(Predicate::IsNull),
    ]
    .boxed()
}

/// Fixed expression shapes over random leaves stand in for
/// `prop_recursive` (absent from the vendored proptest): up to three
/// levels of And/Or/Not.
fn predicates() -> impl Strategy<Value = Predicate> {
    (leaf(), leaf(), leaf(), leaf(), 0usize..8).prop_map(|(a, b, c, d, shape)| match shape {
        0 => a,
        1 => a.and(b),
        2 => a.or(b),
        3 => Predicate::Not(Box::new(a)),
        4 => a.and(b).or(c),
        5 => Predicate::Not(Box::new(a.or(b))).and(c),
        6 => a.and(b).and(c.or(d)),
        _ => Predicate::Not(Box::new(a.and(Predicate::Not(Box::new(b))))).or(c.and(d)),
    })
}

/// Non-key fields of one row; the unique primary key is the row index.
type Fields = (
    Option<bool>,
    Option<f64>,
    Option<String>,
    Option<Vec<u8>>,
    Option<u64>,
);

fn opt<T: 'static>(s: BoxedStrategy<T>) -> BoxedStrategy<Option<T>> {
    prop_oneof![
        s.prop_map(Some),
        Just(()).prop_map(|()| None),
        Just(()).prop_map(|()| None),
    ]
    .boxed()
}

fn rows() -> impl Strategy<Value = Vec<Fields>> {
    let field = (
        opt(any::<bool>().boxed()),
        opt(floats()),
        opt(texts()),
        opt(proptest::collection::vec(any::<u8>(), 0..5).boxed()),
        opt((0u64..100).boxed()),
    );
    proptest::collection::vec(field, 0..40)
}

fn build_row(i: usize, f: &Fields) -> Vec<Value> {
    vec![
        Value::Int(i as i64),
        f.0.map_or(Value::Null, Value::Bool),
        f.1.map_or(Value::Null, Value::Float),
        f.2.clone().map_or(Value::Null, Value::Text),
        f.3.clone().map_or(Value::Null, Value::Bytes),
        f.4.map_or(Value::Null, Value::Timestamp),
    ]
}

proptest! {
    #[test]
    fn raw_scan_matches_decoded_eval(rows in rows(), pred in predicates()) {
        let mut t = Table::new(schema("docs")).unwrap();
        for (i, f) in rows.iter().enumerate() {
            t.insert(build_row(i, f)).unwrap();
        }
        let compiled = pred.compile(t.schema()).unwrap();
        let mut scratch = RowScratch::default();
        let mut raw = Vec::new();
        t.scan_encoded(|id, bytes| {
            if compiled.matches_raw(bytes, &mut scratch)? {
                raw.push(id);
            }
            Ok(())
        })
        .unwrap();
        let decoded: Vec<RowId> = t
            .iter()
            .filter(|(_, row)| compiled.eval(row))
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(raw, decoded, "predicate: {:?}", pred);
    }

    #[test]
    fn select_matches_brute_force(rows in rows(), pred in predicates()) {
        let db = Database::new();
        db.create_table(schema("docs")).unwrap();
        let txn = db.begin();
        for (i, f) in rows.iter().enumerate() {
            txn.insert("docs", build_row(i, f)).unwrap();
        }
        txn.commit().unwrap();

        let txn = db.begin();
        let selected = txn.select("docs", &pred).unwrap();
        let compiled = pred.compile(&schema("docs")).unwrap();
        let brute: Vec<(RowId, Vec<Value>)> = txn
            .select("docs", &Predicate::True)
            .unwrap()
            .into_iter()
            .filter(|(_, row)| compiled.eval(row))
            .collect();
        prop_assert_eq!(selected, brute, "predicate: {:?}", pred);
    }
}

/// `parent(id, grp, val)` indexed on `grp`; `child(id, parent, w)`
/// indexed on `parent`, ON DELETE CASCADE.
fn family_schemas() -> [TableSchema; 2] {
    use relstore::FkAction;
    [
        TableSchema::builder("parent")
            .column("id", ColumnType::Int)
            .column("grp", ColumnType::Int)
            .nullable_column("val", ColumnType::Int)
            .primary_key(&["id"])
            .index("by_grp", &["grp"], false)
            .build()
            .unwrap(),
        TableSchema::builder("child")
            .column("id", ColumnType::Int)
            .column("parent", ColumnType::Int)
            .column("w", ColumnType::Int)
            .primary_key(&["id"])
            .index("by_parent", &["parent"], false)
            .foreign_key(&["parent"], "parent", &["id"], FkAction::Cascade)
            .build()
            .unwrap(),
    ]
}

/// One write: `(kind, a, b, c)` — insert, key-changing update or
/// delete of a parent or a child, addressed by primary key. Writes a
/// constraint refuses are simply skipped.
type Write = (u8, u8, u8, u8);

fn apply_write(t: &relstore::AnyTxn, &(kind, a, b, c): &Write) {
    let (table, pk) = if kind % 2 == 0 {
        ("parent", i64::from(a % 16))
    } else {
        ("child", i64::from(a % 32))
    };
    // A parent's group, a child's parent, and a payload.
    let (grp, parent) = (Value::Int(i64::from(b % 4)), Value::Int(i64::from(b % 16)));
    let c = Value::Int(i64::from(c));
    let id = t
        .select(table, &Predicate::eq("id", pk))
        .unwrap()
        .first()
        .map(|(id, _)| *id);
    let _ = match (kind % 6, id) {
        (0, _) => t.insert(table, vec![Value::Int(pk), grp, c]).map(drop),
        (1, _) => t.insert(table, vec![Value::Int(pk), parent, c]).map(drop),
        (2, Some(id)) => t.update_cols(table, id, &[("grp", grp), ("val", c)]),
        (3, Some(id)) => t.update_cols(table, id, &[("parent", parent)]),
        (4 | 5, Some(id)) => t.delete(table, id),
        _ => Ok(()),
    };
}

fn brute(t: &relstore::AnyTxn, schema: &TableSchema, pred: &Predicate) -> Vec<(RowId, Vec<Value>)> {
    let compiled = pred.compile(schema).unwrap();
    t.select(&schema.name, &Predicate::True)
        .unwrap()
        .into_iter()
        .filter(|(_, row)| compiled.eval(row))
        .collect()
}

fn writes(n: usize) -> impl Strategy<Value = Vec<Write>> {
    proptest::collection::vec(any::<(u8, u8, u8, u8)>(), 0..n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An old snapshot reads through the index exactly what it would
    /// by filtering its own full view: history committed before and
    /// after the reader began (inserts, key-changing updates, deletes),
    /// optional GC at both points, then the reader's own puts and
    /// deletes. A CASCADE delete by the reader removes exactly the
    /// referencing rows its view holds. Both engines, each against
    /// itself.
    #[test]
    fn old_snapshot_index_reads_match_brute_force(
        before in writes(40),
        after in writes(40),
        own in writes(8),
        gc in any::<(bool, bool)>(),
        probes in proptest::collection::vec((0u8..6, 0i64..18), 1..6),
    ) {
        use relstore::{AnyEngine, EngineKind};
        for kind in [EngineKind::TwoPl, EngineKind::Mvcc] {
            let db = AnyEngine::new(kind);
            let [parent, child] = family_schemas();
            db.create_table(parent.clone()).unwrap();
            db.create_table(child.clone()).unwrap();
            let commit_each = |ws: &[Write]| {
                for w in ws {
                    let t = db.begin();
                    apply_write(&t, w);
                    t.commit().unwrap();
                }
            };
            commit_each(&before);
            if gc.0 {
                db.gc();
            }
            let reader = db.begin();
            commit_each(&after);
            if gc.1 {
                db.gc();
            }
            for w in &own {
                apply_write(&reader, w);
            }
            for &(shape, v) in &probes {
                let (schema, col, sum) = if shape < 4 {
                    (&parent, "grp", "val")
                } else {
                    (&child, "parent", "w")
                };
                let pred = match shape % 4 {
                    0 => Predicate::eq(col, v % 4),
                    1 => Predicate::Ge(col.into(), Value::Int(v % 4))
                        .and(Predicate::Lt(col.into(), Value::Int(v % 4 + 2))),
                    2 => Predicate::eq("id", v),
                    _ => Predicate::eq(col, v % 16).and(Predicate::Gt(sum.into(), Value::Int(100))),
                };
                let table = schema.name.as_str();
                let expect = brute(&reader, schema, &pred);
                let total: i64 = expect
                    .iter()
                    .map(|(_, r)| r[2].as_int().unwrap_or(0))
                    .sum();
                prop_assert_eq!(&reader.select(table, &pred).unwrap(), &expect, "{:?} {:?}", kind, pred);
                prop_assert_eq!(reader.count(table, &pred).unwrap(), expect.len(), "{:?} {:?}", kind, pred);
                prop_assert_eq!(reader.sum_int(table, &pred, sum).unwrap(), total, "{:?} {:?}", kind, pred);
            }
            // CASCADE: deleting a parent removes exactly the children
            // the reader's view holds under it.
            if let Some((id, row)) = reader.select("parent", &Predicate::True).unwrap().first().cloned() {
                let children = reader.select("child", &Predicate::True).unwrap();
                let (doomed, kept): (Vec<_>, Vec<_>) =
                    children.into_iter().partition(|(_, c)| c[1] == row[0]);
                prop_assert_eq!(&brute(&reader, &child, &Predicate::Eq("parent".into(), row[0].clone())), &doomed);
                reader.delete("parent", id).unwrap();
                prop_assert_eq!(reader.select("child", &Predicate::True).unwrap(), kept, "{:?}", kind);
            }
            reader.rollback();
        }
    }
}

/// The six columns of [`schema`] in the order `order`, with a secondary
/// index on `COLS[index]` when that column is indexable and not the key.
fn shuffled_schema(order: &[usize], index: usize) -> TableSchema {
    let types = [
        ColumnType::Int,
        ColumnType::Bool,
        ColumnType::Float,
        ColumnType::Text,
        ColumnType::Bytes,
        ColumnType::Timestamp,
    ];
    let mut b = TableSchema::builder("docs");
    for &c in order {
        b = if c == 0 {
            b.column(COLS[c], types[c])
        } else {
            b.nullable_column(COLS[c], types[c])
        };
    }
    b = b.primary_key(&["id"]);
    if !matches!(index, 0 | 4) {
        b = b.index("by_col", &[COLS[index]], false);
    }
    b.build().unwrap()
}

/// A permutation of `0..keys.len()`: the positions in key order.
fn argsort(keys: &[u32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    order
}

/// `select_with` over `pred`, rows copied out of the views, and the
/// rows examined it counted.
fn visited(
    t: &relstore::AnyTxn,
    db: &relstore::AnyEngine,
    pred: &Predicate,
) -> (Vec<(RowId, Vec<Value>)>, u64) {
    let examined = || db.metrics().counter("relstore.select.rows_examined");
    let before = examined();
    let mut rows = Vec::new();
    t.select_with("docs", pred, &mut |id, row| {
        rows.push((id, row.to_row()?));
        Ok(())
    })
    .unwrap();
    (rows, examined() - before)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `select_with` visits exactly the rows `select` returns, field for
    /// field and in the same order, and counts the same rows examined:
    /// over random column orders and secondary indexes, predicates that
    /// take each access path, and a transaction's own inserts, updates
    /// and deletes on top of committed rows (what MVCC hands over
    /// decoded). Both engines.
    #[test]
    fn select_with_visits_what_select_returns(
        keys in proptest::collection::vec(any::<u32>(), 6),
        index in 0usize..6,
        committed in rows(),
        own in proptest::collection::vec((0u8..3, 0usize..48, rows()), 0..6),
        preds in proptest::collection::vec(predicates(), 1..4),
    ) {
        use relstore::{AnyEngine, EngineKind};
        let order = argsort(&keys);
        let schema = shuffled_schema(&order, index);
        let place = |row: Vec<Value>| -> Vec<Value> { order.iter().map(|&c| row[c].clone()).collect() };
        for kind in [EngineKind::TwoPl, EngineKind::Mvcc] {
            let db = AnyEngine::new(kind);
            db.create_table(schema.clone()).unwrap();
            let t = db.begin();
            for (i, f) in committed.iter().enumerate() {
                t.insert("docs", place(build_row(i, f))).unwrap();
            }
            t.commit().unwrap();
            let t = db.begin();
            for (n, (op, at, fields)) in own.iter().enumerate() {
                let Some(f) = fields.first() else { continue };
                let key = Predicate::eq("id", (at % committed.len().max(1)) as i64);
                let hit = t.select("docs", &key).unwrap().first().map(|(id, _)| *id);
                match (op, hit) {
                    (0, _) => {
                        t.insert("docs", place(build_row(100 + n, f))).unwrap();
                    }
                    (1, Some(id)) => {
                        let pk = (at % committed.len().max(1)) as i64;
                        let mut row = build_row(0, f);
                        row[0] = Value::Int(pk);
                        t.update("docs", id, place(row)).unwrap();
                    }
                    (2, Some(id)) => t.delete("docs", id).unwrap(),
                    _ => {}
                }
            }
            for pred in preds.iter().chain([&Predicate::True]) {
                let examined = || db.metrics().counter("relstore.select.rows_examined");
                let before = examined();
                let selected = t.select("docs", pred).unwrap();
                let select_examined = examined() - before;
                let (seen, seen_examined) = visited(&t, &db, pred);
                prop_assert_eq!(&seen, &selected, "{:?} {:?}", kind, pred);
                prop_assert_eq!(seen_examined, select_examined, "{:?} {:?}", kind, pred);
            }
            t.rollback();
        }
    }
}

/// Two readers walk the table through `select_with` — full scans,
/// secondary-index probes and primary-key probes — while a writer
/// rewrites rows in place (same-length images) on a 2-page pool, so
/// pages are evicted and reloaded under the readers. The writer sets a
/// row's `ver` and its `pad` in two updates of one transaction, so
/// only a committed version has the two agree, and every row a view
/// shows must.
#[test]
fn concurrent_select_with_sees_only_committed_versions() {
    use relstore::pagestore::page::RowRef;
    use relstore::{AnyEngine, EngineKind, PoolConfig, Result};
    const ROWS: i64 = 96;
    let schema = TableSchema::builder("t")
        .column("id", ColumnType::Int)
        .column("grp", ColumnType::Int)
        .column("ver", ColumnType::Int)
        .column("pad", ColumnType::Text)
        .primary_key(&["id"])
        .index("by_grp", &["grp"], false)
        .build()
        .unwrap();
    let pad = |ver: i64| Value::from(format!("{ver:0>48}"));
    let check = |row: RowRef<'_>| -> Result<()> {
        let ver = row.int(2)?.expect("ver is an int");
        assert_eq!(
            row.text(3)?,
            Some(format!("{ver:0>48}").as_str()),
            "a torn row"
        );
        Ok(())
    };
    let pool = PoolConfig {
        max_pages: Some(2),
        page_size: 512,
        ..PoolConfig::default()
    };
    for kind in [EngineKind::TwoPl, EngineKind::Mvcc] {
        let db = AnyEngine::with_pool(kind, &pool).unwrap();
        db.create_table(schema.clone()).unwrap();
        db.with_txn(|t| {
            for i in 0..ROWS {
                t.insert(
                    "t",
                    vec![Value::Int(i), Value::Int(i % 8), Value::Int(0), pad(0)],
                )?;
            }
            Ok(())
        })
        .unwrap();
        std::thread::scope(|s| {
            let db = &db;
            s.spawn(move || {
                let mut x = 7u64;
                for ver in 1..=400i64 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let id = (x >> 33) as i64 % ROWS;
                    db.with_txn(|t| {
                        let key = Predicate::eq("id", id);
                        let (rid, _) = t.select("t", &key)?.pop().expect("row exists");
                        // Two writes: between them the row is torn.
                        t.update_cols("t", rid, &[("ver", Value::Int(ver))])?;
                        t.update_cols("t", rid, &[("pad", pad(ver))])
                    })
                    .unwrap();
                }
            });
            for reader in 0..2i64 {
                s.spawn(move || {
                    for round in 0..60i64 {
                        let pred = match round % 3 {
                            0 => Predicate::True,
                            1 => Predicate::eq("grp", (round + reader) % 8),
                            _ => Predicate::eq("id", (round * 7 + reader) % ROWS),
                        };
                        let seen = db
                            .with_txn(|t| {
                                let mut seen = 0;
                                t.select_with("t", &pred, &mut |_, row| {
                                    seen += 1;
                                    check(row)
                                })?;
                                Ok(seen)
                            })
                            .unwrap();
                        let want = match round % 3 {
                            0 => ROWS,
                            1 => ROWS / 8,
                            _ => 1,
                        };
                        assert_eq!(seen, want, "{kind} {pred:?}");
                    }
                });
            }
        });
    }
}
