//! Database-level tests: transactions, foreign keys, concurrency.

use relstore::{ColumnType, Database, Error, FkAction, Predicate, RowId, TableSchema, Value};

fn courses_db() -> Database {
    let db = Database::new();
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
    db.create_table(
        TableSchema::builder("implementation")
            .column("url", ColumnType::Text)
            .column("script", ColumnType::Text)
            .primary_key(&["url"])
            .index("by_script", &["script"], false)
            .foreign_key(&["script"], "script", &["name"], FkAction::Cascade)
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("test_record")
            .column("name", ColumnType::Text)
            .nullable_column("url", ColumnType::Text)
            .primary_key(&["name"])
            .index("by_url", &["url"], false)
            .foreign_key(&["url"], "implementation", &["url"], FkAction::SetNull)
            .build()
            .unwrap(),
    )
    .unwrap();
    db
}

fn script(name: &str, author: &str) -> Vec<Value> {
    vec![name.into(), author.into(), Value::Int(1)]
}

#[test]
fn insert_select_commit() {
    let db = courses_db();
    let txn = db.begin();
    txn.insert("script", script("s1", "shih")).unwrap();
    txn.insert("script", script("s2", "ma")).unwrap();
    txn.commit().unwrap();

    let txn = db.begin();
    let rows = txn
        .select("script", &Predicate::eq("author", "shih"))
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1[0], Value::from("s1"));
}

#[test]
fn rollback_restores_everything() {
    let db = courses_db();
    let t1 = db.begin();
    let id = t1.insert("script", script("keep", "a")).unwrap();
    t1.commit().unwrap();

    let t2 = db.begin();
    t2.insert("script", script("gone", "b")).unwrap();
    t2.update_cols("script", id, &[("version", Value::Int(9))])
        .unwrap();
    t2.rollback();

    let t3 = db.begin();
    assert_eq!(t3.count("script", &Predicate::True).unwrap(), 1);
    assert_eq!(t3.get("script", id).unwrap()[2], Value::Int(1));
}

#[test]
fn drop_aborts_uncommitted() {
    let db = courses_db();
    {
        let t = db.begin();
        t.insert("script", script("x", "y")).unwrap();
        // dropped without commit
    }
    let t = db.begin();
    assert_eq!(t.count("script", &Predicate::True).unwrap(), 0);
    // All locks were released by the drop.
    drop(t);
    assert_eq!(db.locked_resources(), 0);
}

#[test]
fn forward_fk_enforced() {
    let db = courses_db();
    let t = db.begin();
    let err = t
        .insert("implementation", vec!["u1".into(), "missing".into()])
        .unwrap_err();
    assert!(matches!(err, Error::ForeignKeyViolation { .. }));
    t.insert("script", script("s", "a")).unwrap();
    t.insert("implementation", vec!["u1".into(), "s".into()])
        .unwrap();
    t.commit().unwrap();
}

#[test]
fn cascade_delete_removes_children() {
    let db = courses_db();
    let t = db.begin();
    let sid = t.insert("script", script("s", "a")).unwrap();
    t.insert("implementation", vec!["u1".into(), "s".into()])
        .unwrap();
    t.insert("implementation", vec!["u2".into(), "s".into()])
        .unwrap();
    t.commit().unwrap();

    let t = db.begin();
    t.delete("script", sid).unwrap();
    assert_eq!(t.count("implementation", &Predicate::True).unwrap(), 0);
    t.commit().unwrap();
}

#[test]
fn set_null_on_delete() {
    let db = courses_db();
    let t = db.begin();
    t.insert("script", script("s", "a")).unwrap();
    let impl_id = t
        .insert("implementation", vec!["u1".into(), "s".into()])
        .unwrap();
    t.insert("test_record", vec!["tr1".into(), "u1".into()])
        .unwrap();
    t.commit().unwrap();

    let t = db.begin();
    t.delete("implementation", impl_id).unwrap();
    let rows = t.select("test_record", &Predicate::True).unwrap();
    assert_eq!(rows.len(), 1);
    assert!(rows[0].1[1].is_null());
    t.commit().unwrap();
}

#[test]
fn restrict_blocks_delete() {
    let db = Database::new();
    db.create_table(
        TableSchema::builder("parent")
            .column("id", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("child")
            .column("id", ColumnType::Int)
            .column("parent", ColumnType::Int)
            .primary_key(&["id"])
            .foreign_key(&["parent"], "parent", &["id"], FkAction::Restrict)
            .build()
            .unwrap(),
    )
    .unwrap();

    let t = db.begin();
    let pid = t.insert("parent", vec![Value::Int(1)]).unwrap();
    t.insert("child", vec![Value::Int(10), Value::Int(1)])
        .unwrap();
    let err = t.delete("parent", pid).unwrap_err();
    assert!(matches!(err, Error::RestrictViolation { .. }));
}

#[test]
fn updating_referenced_key_is_restricted() {
    let db = courses_db();
    let t = db.begin();
    let sid = t.insert("script", script("s", "a")).unwrap();
    t.insert("implementation", vec!["u1".into(), "s".into()])
        .unwrap();
    let err = t
        .update_cols("script", sid, &[("name", Value::from("renamed"))])
        .unwrap_err();
    assert!(matches!(err, Error::RestrictViolation { .. }));
    // Non-key columns update fine.
    t.update_cols("script", sid, &[("version", Value::Int(2))])
        .unwrap();
    t.commit().unwrap();
}

#[test]
fn fk_to_nonexistent_table_rejected_at_create() {
    let db = Database::new();
    let err = db
        .create_table(
            TableSchema::builder("child")
                .column("id", ColumnType::Int)
                .column("p", ColumnType::Int)
                .primary_key(&["id"])
                .foreign_key(&["p"], "nope", &["id"], FkAction::Restrict)
                .build()
                .unwrap(),
        )
        .unwrap_err();
    assert!(matches!(err, Error::NoSuchTable(_)));
}

#[test]
fn fk_to_non_unique_columns_rejected_at_create() {
    let db = courses_db();
    let err = db
        .create_table(
            TableSchema::builder("bad")
                .column("id", ColumnType::Int)
                .column("a", ColumnType::Text)
                .primary_key(&["id"])
                .foreign_key(&["a"], "script", &["author"], FkAction::Restrict)
                .build()
                .unwrap(),
        )
        .unwrap_err();
    assert!(matches!(err, Error::BadSchema(_)));
}

#[test]
fn self_referencing_fk() {
    let db = Database::new();
    db.create_table(
        TableSchema::builder("node")
            .column("id", ColumnType::Int)
            .nullable_column("parent", ColumnType::Int)
            .primary_key(&["id"])
            .index("by_parent", &["parent"], false)
            .foreign_key(&["parent"], "node", &["id"], FkAction::Cascade)
            .build()
            .unwrap(),
    )
    .unwrap();
    let t = db.begin();
    let root = t.insert("node", vec![Value::Int(1), Value::Null]).unwrap();
    t.insert("node", vec![Value::Int(2), Value::Int(1)])
        .unwrap();
    t.insert("node", vec![Value::Int(3), Value::Int(2)])
        .unwrap();
    // Dangling parent refused.
    let err = t
        .insert("node", vec![Value::Int(4), Value::Int(99)])
        .unwrap_err();
    assert!(matches!(err, Error::ForeignKeyViolation { .. }));
    // Cascade follows the chain.
    t.delete("node", root).unwrap();
    assert_eq!(t.count("node", &Predicate::True).unwrap(), 0);
    t.commit().unwrap();
}

#[test]
fn with_txn_retries_wait_die_aborts() {
    use std::sync::Arc;
    let db = Arc::new(courses_db());
    {
        let t = db.begin();
        t.insert("script", script("seed", "a")).unwrap();
        t.commit().unwrap();
    }
    // Hammer the same row from many threads; every increment must land.
    let threads = 8;
    let per = 25;
    let mut handles = Vec::new();
    for _ in 0..threads {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for _ in 0..per {
                db.with_txn(|t| {
                    let rows = t.select("script", &Predicate::eq("name", "seed"))?;
                    let (id, row) = &rows[0];
                    let v = row[2].as_int().unwrap();
                    t.update_cols("script", *id, &[("version", Value::Int(v + 1))])
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let t = db.begin();
    let rows = t.select("script", &Predicate::eq("name", "seed")).unwrap();
    assert_eq!(
        rows[0].1[2],
        Value::Int(1 + i64::from(threads * per)),
        "lost update detected"
    );
}

#[test]
fn update_cols_no_cross_column_lost_updates() {
    // Two writers each increment a *different* column of the same row;
    // update_cols must not clobber the other's column with a stale
    // read (it takes the row X lock before reading).
    use std::sync::Arc;
    let db = Arc::new(Database::new());
    db.create_table(
        TableSchema::builder("counters")
            .column("id", ColumnType::Int)
            .column("a", ColumnType::Int)
            .column("b", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let id = {
        let t = db.begin();
        let id = t
            .insert(
                "counters",
                vec![Value::Int(1), Value::Int(0), Value::Int(0)],
            )
            .unwrap();
        t.commit().unwrap();
        id
    };
    let mut handles = Vec::new();
    for col in ["a", "b"] {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            // Monotone writes to ONE column, no prior read in the
            // caller: update_cols's internal base-row read is the only
            // thing protecting the *other* column.
            for i in 1..=100i64 {
                db.with_txn(|t| t.update_cols("counters", id, &[(col, Value::Int(i))]))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let t = db.begin();
    let row = t.get("counters", id).unwrap();
    assert_eq!(
        row[1],
        Value::Int(100),
        "column a regressed to a stale value"
    );
    assert_eq!(
        row[2],
        Value::Int(100),
        "column b regressed to a stale value"
    );
}

#[test]
fn concurrent_inserts_disjoint_keys() {
    use std::sync::Arc;
    let db = Arc::new(courses_db());
    let mut handles = Vec::new();
    for th in 0..4 {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                db.with_txn(|t| {
                    t.insert("script", script(&format!("s-{th}-{i}"), "auth"))
                        .map(|_| ())
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let t = db.begin();
    assert_eq!(t.count("script", &Predicate::True).unwrap(), 200);
}

#[test]
fn select_uses_secondary_index_results_match_scan() {
    let db = courses_db();
    let t = db.begin();
    for i in 0..100 {
        t.insert(
            "script",
            script(&format!("s{i}"), if i % 3 == 0 { "a" } else { "b" }),
        )
        .unwrap();
    }
    // Indexed equality vs an equivalent non-indexable predicate.
    let by_index = t.select("script", &Predicate::eq("author", "a")).unwrap();
    let by_scan = t
        .select(
            "script",
            &Predicate::Not(Box::new(Predicate::eq("author", "b"))),
        )
        .unwrap();
    assert_eq!(by_index, by_scan);
    assert_eq!(by_index.len(), 34);
    t.commit().unwrap();
}

#[test]
fn select_ordered_and_limit() {
    let db = courses_db();
    let t = db.begin();
    for (i, name) in ["delta", "alpha", "charlie", "bravo"].iter().enumerate() {
        t.insert(
            "script",
            vec![(*name).into(), "a".into(), Value::Int(i as i64)],
        )
        .unwrap();
    }
    let rows = t
        .select_ordered("script", &Predicate::True, "name", false, None)
        .unwrap();
    let names: Vec<&str> = rows.iter().map(|(_, r)| r[0].as_text().unwrap()).collect();
    assert_eq!(names, vec!["alpha", "bravo", "charlie", "delta"]);
    let top2 = t
        .select_ordered("script", &Predicate::True, "version", true, Some(2))
        .unwrap();
    assert_eq!(top2.len(), 2);
    assert_eq!(top2[0].1[2], Value::Int(3));
    // Unknown order column errors out.
    assert!(t
        .select_ordered("script", &Predicate::True, "nope", false, None)
        .is_err());
}

#[test]
fn sum_int_aggregates() {
    let db = courses_db();
    let t = db.begin();
    for i in 1..=4i64 {
        t.insert(
            "script",
            script(&format!("s{i}"), if i % 2 == 0 { "a" } else { "b" }),
        )
        .unwrap();
        t.update_cols(
            "script",
            t.select("script", &Predicate::eq("name", format!("s{i}")))
                .unwrap()[0]
                .0,
            &[("version", Value::Int(i * 10))],
        )
        .unwrap();
    }
    assert_eq!(
        t.sum_int("script", &Predicate::True, "version").unwrap(),
        100
    );
    assert_eq!(
        t.sum_int("script", &Predicate::eq("author", "a"), "version")
            .unwrap(),
        60
    );
}

#[test]
fn equi_join_matches_nested_loop() {
    let db = courses_db();
    let t = db.begin();
    for i in 0..6i64 {
        t.insert(
            "script",
            script(&format!("s{i}"), if i % 2 == 0 { "a" } else { "b" }),
        )
        .unwrap();
    }
    for i in 0..12i64 {
        t.insert(
            "implementation",
            vec![format!("u{i}").into(), format!("s{}", i % 6).into()],
        )
        .unwrap();
    }
    // Join scripts by author "a" with their implementations.
    let joined = t
        .join(
            "script",
            "name",
            &Predicate::eq("author", "a"),
            "implementation",
            "script",
            &Predicate::True,
        )
        .unwrap();
    // 3 "a" scripts × 2 implementations each.
    assert_eq!(joined.len(), 6);
    for (s, i) in &joined {
        assert_eq!(s[0], i[1], "join key matches");
        assert_eq!(s[1], Value::from("a"));
    }
    // NULL keys never join.
    let joined = t
        .join(
            "test_record",
            "url",
            &Predicate::True,
            "implementation",
            "url",
            &Predicate::True,
        )
        .unwrap();
    assert!(joined.is_empty());
    // Unknown columns error.
    assert!(t
        .join(
            "script",
            "nope",
            &Predicate::True,
            "implementation",
            "script",
            &Predicate::True
        )
        .is_err());
}

#[test]
fn wait_die_resolves_opposite_lock_orders() {
    // Two transaction shapes that would deadlock under plain 2PL:
    // A updates script then implementation, B the reverse. with_txn
    // must drive both to completion via wait-die retries.
    use std::sync::Arc;
    let db = Arc::new(courses_db());
    {
        let t = db.begin();
        t.insert("script", script("s", "a")).unwrap();
        t.insert("implementation", vec!["u".into(), "s".into()])
            .unwrap();
        t.commit().unwrap();
    }
    let mut handles = Vec::new();
    for flip in [false, true] {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                db.with_txn(|t| {
                    let order = if flip {
                        ["implementation", "script"]
                    } else {
                        ["script", "implementation"]
                    };
                    for table in order {
                        let rows = t.select(table, &Predicate::True)?;
                        let (id, row) = &rows[0];
                        // Rewrite the row unchanged: takes X locks.
                        t.update(table, *id, row.clone())?;
                    }
                    Ok(())
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.locked_resources(), 0, "all locks released");
}

#[test]
fn get_missing_row_errors() {
    let db = courses_db();
    let t = db.begin();
    let err = t.get("script", RowId(999)).unwrap_err();
    assert!(matches!(err, Error::NoSuchRow { .. }));
    let err = t.get("nope", RowId(1)).unwrap_err();
    assert!(matches!(err, Error::NoSuchTable(_)));
}

#[test]
fn duplicate_table_rejected() {
    let db = courses_db();
    let err = db
        .create_table(
            TableSchema::builder("script")
                .column("id", ColumnType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap_err();
    assert!(matches!(err, Error::TableExists(_)));
}

#[test]
fn closed_txn_refuses_work() {
    let db = courses_db();
    let t = db.begin();
    let t2 = db.begin();
    t.commit().unwrap();
    // t is consumed; use a fresh one and close it by rollback.
    t2.rollback();
    // Both consumed — compile-time safety. Double-commit caught at runtime
    // through with_txn's interior checks is covered in unit tests.
}

#[test]
fn metrics_count_commits_aborts_and_wait_die() {
    let db = courses_db();
    let t = db.begin();
    t.insert("script", script("s1", "shih")).unwrap();
    t.commit().unwrap();
    let t = db.begin();
    t.insert("script", script("s2", "ma")).unwrap();
    t.rollback();
    // Wait-die kill: older txn holds X on a row, younger reads it and dies.
    let older = db.begin();
    let rid = older.insert("script", script("s3", "huang")).unwrap();
    let younger = db.begin();
    let err = younger.get("script", rid).unwrap_err();
    assert!(matches!(err, Error::TxnAborted { .. }));
    drop(younger);
    older.commit().unwrap();

    let snap = db.metrics().snapshot();
    assert_eq!(snap.counter("relstore.txn.commits"), 2);
    // Explicit rollback + the dying younger txn.
    assert_eq!(snap.counter("relstore.txn.aborts"), 2);
    assert_eq!(snap.counter("relstore.lock.wait_die_aborts"), 1);
    let commit_lat = snap.histogram("relstore.txn.commit_us").unwrap();
    assert_eq!(commit_lat.count(), 2);
}

/// Range predicates on an indexed column use index range scans, not
/// full heap scans: the `relstore.select.rows_examined` counter proves
/// the planner walked only the qualifying key range.
#[test]
fn range_predicates_use_index_scans() {
    let db = Database::new();
    db.create_table(
        TableSchema::builder("points")
            .column("id", ColumnType::Int)
            .column("label", ColumnType::Text)
            .primary_key(&["id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let t = db.begin();
    for i in 0..1000i64 {
        t.insert("points", vec![Value::Int(i), Value::from(format!("p{i}"))])
            .unwrap();
    }
    t.commit().unwrap();

    let examined = |f: &dyn Fn()| {
        let before = db
            .metrics()
            .snapshot()
            .counter("relstore.select.rows_examined");
        f();
        db.metrics()
            .snapshot()
            .counter("relstore.select.rows_examined")
            - before
    };

    // id >= 900: the index scan starts at 900 and examines ~100 rows,
    // not all 1000.
    let t = db.begin();
    let ge = examined(&|| {
        let rows = t
            .select("points", &Predicate::Ge("id".into(), Value::Int(900)))
            .unwrap();
        assert_eq!(rows.len(), 100);
    });
    assert!(ge <= 110, "Ge scanned {ge} rows, expected ~100");

    // 450 <= id < 460: both bounds narrow the scan.
    let both = examined(&|| {
        let pred = Predicate::Ge("id".into(), Value::Int(450))
            .and(Predicate::Lt("id".into(), Value::Int(460)));
        let rows = t.select("points", &pred).unwrap();
        assert_eq!(rows.len(), 10);
    });
    assert!(
        both <= 15,
        "bounded range scanned {both} rows, expected ~10"
    );

    // id < 10: upper bound alone also prunes.
    let lt = examined(&|| {
        let rows = t
            .select("points", &Predicate::Lt("id".into(), Value::Int(10)))
            .unwrap();
        assert_eq!(rows.len(), 10);
    });
    assert!(lt <= 15, "Lt scanned {lt} rows, expected ~10");

    // An unindexed column still needs the full scan.
    let full = examined(&|| {
        let rows = t
            .select("points", &Predicate::Contains("label".into(), "p99".into()))
            .unwrap();
        assert_eq!(rows.len(), 11); // p99, p990..p999
    });
    assert_eq!(full, 1000, "unindexed predicate must examine every row");
    t.commit().unwrap();
}

/// An index range scan no longer re-checks the inclusive range
/// conjuncts its own bounds already satisfy: the
/// `relstore.select.conjuncts_pruned` counter ticks once per covered
/// conjunct, results stay exactly what unpruned evaluation produces
/// (including NULL rows swept up by a one-sided scan), and
/// `rows_examined` still reflects the bounded candidate set.
#[test]
fn range_scans_prune_covered_conjuncts() {
    let db = Database::new();
    db.create_table(
        TableSchema::builder("grades")
            .column("id", ColumnType::Int)
            .nullable_column("score", ColumnType::Int)
            .primary_key(&["id"])
            .index("by_score", &["score"], false)
            .build()
            .unwrap(),
    )
    .unwrap();
    let t = db.begin();
    for i in 0..100i64 {
        // Every fifth row has a NULL score; the rest score 0..=98.
        let score = if i % 5 == 0 {
            Value::Null
        } else {
            Value::Int(i - 1)
        };
        t.insert("grades", vec![Value::Int(i), score]).unwrap();
    }
    t.commit().unwrap();
    let snap = |name: &str| db.metrics().snapshot().counter(name);

    // Both inclusive bounds are covered by the scan hull [10, 20].
    let t = db.begin();
    let before = snap("relstore.select.conjuncts_pruned");
    let pred = Predicate::Ge("score".into(), Value::Int(10))
        .and(Predicate::Le("score".into(), Value::Int(20)));
    let rows = t.select("grades", &pred).unwrap();
    assert_eq!(snap("relstore.select.conjuncts_pruned") - before, 2);
    let ids: Vec<i64> = rows.iter().map(|(_, r)| r[0].as_int().unwrap()).collect();
    let expect: Vec<i64> = (0..100i64)
        .filter(|i| i % 5 != 0 && (10..=20).contains(&(i - 1)))
        .collect();
    assert_eq!(ids, expect);

    // A one-sided upper bound leaves the scan start unbounded, so NULL
    // keys enter the candidate set; the pruned conjunct's NULL-check
    // residue must still reject them.
    let before_pruned = snap("relstore.select.conjuncts_pruned");
    let before_examined = snap("relstore.select.rows_examined");
    let rows = t
        .select("grades", &Predicate::Le("score".into(), Value::Int(4)))
        .unwrap();
    assert_eq!(snap("relstore.select.conjuncts_pruned") - before_pruned, 1);
    assert!(rows.iter().all(|(_, r)| !r[1].is_null()));
    assert_eq!(rows.len(), 4); // scores 0, 1, 2, 3 (4 would be row 5, which is NULL)
    let examined = snap("relstore.select.rows_examined") - before_examined;
    assert_eq!(
        examined, 24,
        "candidate set = 20 NULL keys + 4 scored rows, got {examined}"
    );

    // Strict bounds are never pruned (the hull over-approximates them).
    let before = snap("relstore.select.conjuncts_pruned");
    let rows = t
        .select("grades", &Predicate::Gt("score".into(), Value::Int(95)))
        .unwrap();
    assert_eq!(snap("relstore.select.conjuncts_pruned") - before, 0);
    assert_eq!(rows.len(), 3); // scores 96, 97, 98
    t.commit().unwrap();
}

#[test]
fn every_way_a_transaction_ends_releases_all_its_locks() {
    let db = courses_db();
    for i in 0..30 {
        let name = format!("s{i}");
        let t = db.begin();
        let id = t.insert("script", script(&name, "a")).unwrap();
        t.insert("implementation", vec![format!("u{i}").into(), name.into()])
            .unwrap();
        t.update_cols("script", id, &[("version", Value::Int(2))])
            .unwrap();
        assert!(db.locked_resources() > 0);
        match i % 3 {
            0 => t.commit().unwrap(),
            1 => t.rollback(),
            _ => drop(t),
        }
        assert_eq!(db.locked_resources(), 0, "after ending txn {i}");
    }
    // A transaction killed by wait-die lets go of what it had, too.
    let old = db.begin();
    let young = db.begin();
    old.select("script", &Predicate::True).unwrap();
    young.select("implementation", &Predicate::True).unwrap();
    let err = young.insert("script", script("late", "a")).unwrap_err();
    assert!(matches!(err, Error::TxnAborted { .. }));
    drop(young);
    old.commit().unwrap();
    assert_eq!(db.locked_resources(), 0);
}

#[test]
fn concurrent_writers_of_one_key_never_duplicate_it() {
    // Four threads fight over the same three primary keys, each step
    // either inserting the key or deleting — by row id, so without the
    // table-shared lock a select would take — the row last committed
    // under it, and rolling a third of those writes back. An insert
    // that slipped in under a delete which then rolled back would leave
    // two rows under one key.
    use std::sync::Mutex;
    let db = courses_db();
    let known: [Mutex<Option<RowId>>; 3] = Default::default();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (db, known) = (&db, &known);
            s.spawn(move || {
                let mut x = t + 1;
                for _ in 0..10_000 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let k = (x >> 33) as usize % 3;
                    let (delete, commit) = ((x >> 40) % 2 == 0, (x >> 41) % 3 != 0);
                    let txn = db.begin();
                    if delete {
                        let Some(id) = *known[k].lock().unwrap() else {
                            continue;
                        };
                        if txn.delete("script", id).is_ok() && commit {
                            // Forget the id first: a committed delete
                            // must not be retried by a later step.
                            let mut slot = known[k].lock().unwrap();
                            if *slot == Some(id) {
                                *slot = None;
                            }
                            drop(slot);
                            txn.commit().unwrap();
                        }
                    } else if let Ok(id) = txn.insert("script", script(&format!("k{k}"), "a")) {
                        if commit {
                            txn.commit().unwrap();
                            *known[k].lock().unwrap() = Some(id);
                        }
                    }
                }
            });
        }
    });
    assert_eq!(db.locked_resources(), 0);
    let t = db.begin();
    let all = t.select("script", &Predicate::True).unwrap();
    for k in 0..3 {
        let key = format!("k{k}");
        let by_index = t
            .select("script", &Predicate::eq("name", key.as_str()))
            .unwrap();
        let by_scan = all.iter().filter(|(_, r)| r[0] == key.as_str().into());
        assert!(by_index.len() <= 1, "{key}: {by_index:?}");
        assert_eq!(by_scan.count(), by_index.len(), "{key}");
    }
    t.commit().unwrap();
}
