//! Whole-database snapshots.
//!
//! The 1999 system delegated durability to the commercial RDBMS behind
//! ODBC. The equivalent here: a [`Snapshot`] is a serde-serializable
//! value capturing every schema and row; [`Database::snapshot`] /
//! [`Database::restore`] round-trip it. Serialization format is the
//! caller's choice (any serde backend); the crate itself stays
//! format-agnostic.
//!
//! Restore rebuilds tables in foreign-key dependency order, reloads
//! rows with their original [`RowId`]s, and then *verifies* referential
//! integrity — a corrupted snapshot fails loudly instead of producing a
//! database that lies.

use crate::database::Database;
use crate::error::{Error, Result};
use crate::schema::TableSchema;
use crate::table::{Row, RowId};
use crate::value::Key;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Serialized form of one table. Two snapshots are equal when their
/// schemas, row ids and row values are: `Value`'s equality means one
/// variant and one bit pattern, so `==` tells apart what their
/// serialized bytes would.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSnapshot {
    /// The schema, verbatim.
    pub schema: TableSchema,
    /// All rows with their ids.
    pub rows: Vec<(RowId, Row)>,
}

/// Serialized form of a whole database.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Snapshot {
    /// Tables, keyed by name.
    pub tables: BTreeMap<String, TableSnapshot>,
}

impl Snapshot {
    /// Total number of rows across tables.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.tables.values().map(|t| t.rows.len()).sum()
    }
}

/// Order table names so every foreign key's target comes first.
/// Self-references are fine (the table exists when its rows load).
/// Shared with the MVCC engine's restore path.
pub(crate) fn fk_order(tables: &BTreeMap<String, TableSnapshot>) -> Result<Vec<&str>> {
    let mut order: Vec<&str> = Vec::with_capacity(tables.len());
    let mut placed: BTreeSet<&str> = BTreeSet::new();
    let mut remaining: Vec<&str> = tables.keys().map(String::as_str).collect();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|name| {
            let deps_met = tables[*name]
                .schema
                .foreign_keys
                .iter()
                .all(|fk| fk.ref_table == *name || placed.contains(fk.ref_table.as_str()));
            if deps_met {
                placed.insert(name);
                order.push(name);
                false
            } else {
                true
            }
        });
        if remaining.len() == before {
            return Err(Error::BadSchema(format!(
                "cyclic foreign-key dependencies among tables {remaining:?}"
            )));
        }
    }
    Ok(order)
}

impl Database {
    /// Capture the full state. Runs inside one transaction-equivalent:
    /// table-shared locks would be the strict reading, but snapshots
    /// are taken through a dedicated transaction to keep writers out.
    pub fn snapshot(&self) -> Result<Snapshot> {
        let txn = self.begin();
        let mut tables = BTreeMap::new();
        for name in self.table_names() {
            // A full select takes the table-shared lock (phantom-safe).
            let rows = txn.select(&name, &crate::query::Predicate::True)?;
            let schema = self.schema_of(&name)?;
            tables.insert(name, TableSnapshot { schema, rows });
        }
        txn.commit()?;
        Ok(Snapshot { tables })
    }

    /// Rebuild a database from a snapshot (default in-memory pool).
    pub fn restore(snapshot: &Snapshot) -> Result<Database> {
        Self::restore_with(snapshot, &crate::pagestore::PoolConfig::default())
    }

    /// Rebuild a database from a snapshot onto a buffer pool built
    /// from `cfg` — used by WAL recovery so a bounded, log-backed
    /// database comes back bounded and log-backed.
    pub fn restore_with(
        snapshot: &Snapshot,
        cfg: &crate::pagestore::PoolConfig,
    ) -> Result<Database> {
        let db = Database::with_pool(cfg)?;
        for name in fk_order(&snapshot.tables)? {
            let snap = &snapshot.tables[name];
            db.create_table(snap.schema.clone())?;
            db.bulk_load(name, &snap.rows)?;
        }
        // Verify every foreign key of every row.
        let txn = db.begin();
        for (name, snap) in &snapshot.tables {
            for fk in &snap.schema.foreign_keys {
                let cols = snap.schema.resolve_columns(&fk.columns)?;
                for (_, row) in &snap.rows {
                    let key = Key::from_row(row, &cols);
                    if key.has_null() {
                        continue;
                    }
                    let mut pred = crate::query::Predicate::True;
                    for (col_name, value) in fk.ref_columns.iter().zip(&key.0) {
                        pred =
                            pred.and(crate::query::Predicate::Eq(col_name.clone(), value.clone()));
                    }
                    if txn.count(&fk.ref_table, &pred)? == 0 {
                        return Err(Error::ForeignKeyViolation {
                            table: name.clone(),
                            references: fk.ref_table.clone(),
                        });
                    }
                }
            }
        }
        txn.commit()?;
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FkAction;
    use crate::value::{ColumnType, Value};
    use crate::Predicate;

    fn sample_db() -> Database {
        let db = Database::new();
        db.create_table(
            TableSchema::builder("parent")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
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
                .index("by_parent", &["parent"], false)
                .foreign_key(&["parent"], "parent", &["id"], FkAction::Cascade)
                .build()
                .unwrap(),
        )
        .unwrap();
        let t = db.begin();
        for i in 0..5 {
            t.insert("parent", vec![Value::Int(i), Value::from(format!("p{i}"))])
                .unwrap();
        }
        for i in 0..20 {
            t.insert("child", vec![Value::Int(i), Value::Int(i % 5)])
                .unwrap();
        }
        t.commit().unwrap();
        db
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let db = sample_db();
        let snap = db.snapshot().unwrap();
        assert_eq!(snap.row_count(), 25);
        let db2 = Database::restore(&snap).unwrap();
        let t = db2.begin();
        assert_eq!(t.count("parent", &Predicate::True).unwrap(), 5);
        assert_eq!(t.count("child", &Predicate::True).unwrap(), 20);
        // Secondary indexes were rebuilt.
        let rows = t.select("child", &Predicate::eq("parent", 3i64)).unwrap();
        assert_eq!(rows.len(), 4);
        t.commit().unwrap();
        // Row ids survive (updates by old id still work).
        let snap2 = db2.snapshot().unwrap();
        assert_eq!(
            snap.tables["child"].rows, snap2.tables["child"].rows,
            "row ids and contents identical after round trip"
        );
    }

    #[test]
    fn restored_db_enforces_constraints() {
        let db = Database::restore(&sample_db().snapshot().unwrap()).unwrap();
        let t = db.begin();
        // FK still enforced.
        let err = t
            .insert("child", vec![Value::Int(99), Value::Int(42)])
            .unwrap_err();
        assert!(matches!(err, Error::ForeignKeyViolation { .. }));
        // PK uniqueness still enforced.
        let err = t
            .insert("parent", vec![Value::Int(0), Value::from("dup")])
            .unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        // New ids do not collide with restored ones.
        let id = t
            .insert("parent", vec![Value::Int(100), Value::from("new")])
            .unwrap();
        assert!(id.0 > 5);
    }

    #[test]
    fn corrupted_snapshot_rejected() {
        let mut snap = sample_db().snapshot().unwrap();
        // Point a child at a parent that does not exist.
        snap.tables.get_mut("child").unwrap().rows[0].1[1] = Value::Int(777);
        let err = match Database::restore(&snap) {
            Err(e) => e,
            Ok(_) => panic!("corrupted snapshot must be rejected"),
        };
        assert!(matches!(err, Error::ForeignKeyViolation { .. }));
    }

    #[test]
    fn serde_roundtrip_through_json() {
        // The snapshot is format-agnostic; JSON exercises the serde
        // derives end to end.
        let snap = sample_db().snapshot().unwrap();
        let json = serde_json::to_string(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        let db = Database::restore(&back).unwrap();
        assert_eq!(db.row_count("child").unwrap(), 20);
    }

    #[test]
    fn fk_order_handles_chains_and_self_refs() {
        let db = Database::new();
        db.create_table(
            TableSchema::builder("a")
                .column("id", ColumnType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("b")
                .column("id", ColumnType::Int)
                .column("a", ColumnType::Int)
                .primary_key(&["id"])
                .foreign_key(&["a"], "a", &["id"], FkAction::Restrict)
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("c")
                .column("id", ColumnType::Int)
                .column("b", ColumnType::Int)
                .nullable_column("self_ref", ColumnType::Int)
                .primary_key(&["id"])
                .foreign_key(&["b"], "b", &["id"], FkAction::Restrict)
                .foreign_key(&["self_ref"], "c", &["id"], FkAction::Restrict)
                .build()
                .unwrap(),
        )
        .unwrap();
        let snap = db.snapshot().unwrap();
        let order = fk_order(&snap.tables).unwrap();
        let pos = |n: &str| order.iter().position(|x| *x == n).unwrap();
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("c"));
    }
}
