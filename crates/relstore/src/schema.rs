//! Table schema declarations: columns, keys, indexes and foreign keys.

use crate::error::{Error, Result};
use crate::value::{ColumnType, Value};
use serde::{Deserialize, Serialize};

/// A single column declaration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name, unique within the table.
    pub name: String,
    /// Declared type; writes are checked against it.
    pub ty: ColumnType,
    /// Whether NULL is accepted.
    pub nullable: bool,
}

/// What to do with referencing rows when a referenced row disappears.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FkAction {
    /// Refuse the delete/update while references exist.
    Restrict,
    /// Delete the referencing rows too (recursively).
    Cascade,
    /// Null out the referencing columns (they must be nullable).
    SetNull,
}

/// A foreign-key constraint: `columns` of this table reference
/// `ref_columns` of `ref_table` (which must form a unique key there).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForeignKey {
    /// Referencing column names in the declaring table.
    pub columns: Vec<String>,
    /// Referenced table name.
    pub ref_table: String,
    /// Referenced column names (must be a unique key of `ref_table`).
    pub ref_columns: Vec<String>,
    /// Action on delete of the referenced row.
    pub on_delete: FkAction,
}

/// An index declaration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexDef {
    /// Index name, unique within the table.
    pub name: String,
    /// Indexed column names, in key order.
    pub columns: Vec<String>,
    /// Whether the key must be unique (NULL keys exempt, as in SQL).
    pub unique: bool,
}

/// A full table schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSchema {
    /// Table name, unique within the database.
    pub name: String,
    /// Ordered column declarations.
    pub columns: Vec<ColumnDef>,
    /// Column names forming the primary key (backed by a unique index).
    pub primary_key: Vec<String>,
    /// Secondary index declarations (the primary key gets an implicit one).
    pub indexes: Vec<IndexDef>,
    /// Foreign-key constraints.
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableSchema {
    /// Start building a schema for table `name`.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> SchemaBuilder {
        SchemaBuilder {
            schema: TableSchema {
                name: name.into(),
                columns: Vec::new(),
                primary_key: Vec::new(),
                indexes: Vec::new(),
                foreign_keys: Vec::new(),
            },
        }
    }

    /// Index of a column by name.
    #[must_use]
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Look up a column index, with a typed error on failure.
    pub fn require_column(&self, name: &str) -> Result<usize> {
        self.column_index(name).ok_or_else(|| Error::NoSuchColumn {
            table: self.name.clone(),
            column: name.to_owned(),
        })
    }

    /// Resolve a list of column names into indices.
    pub fn resolve_columns(&self, names: &[String]) -> Result<Vec<usize>> {
        names.iter().map(|n| self.require_column(n)).collect()
    }

    /// Validate a row against the schema: arity first, then per column
    /// (in column order) NULL-ability and type. Every engine and the
    /// shard router reject through this one body, so they agree on
    /// *which* violation a malformed row reports.
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::ArityMismatch {
                table: self.name.clone(),
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (col, val) in self.columns.iter().zip(row) {
            match val.column_type() {
                None => {
                    if !col.nullable {
                        return Err(Error::NullViolation {
                            table: self.name.clone(),
                            column: col.name.clone(),
                        });
                    }
                }
                Some(ty) if ty != col.ty => {
                    return Err(Error::TypeMismatch {
                        table: self.name.clone(),
                        column: col.name.clone(),
                        expected: col.ty,
                        got: format!("{val}"),
                    });
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Validate internal consistency: unique column names, resolvable
    /// keys/indexes, indexable column types, sane foreign keys
    /// (referenced side is checked against the catalog at CREATE time).
    pub fn validate(&self) -> Result<()> {
        if self.columns.is_empty() {
            return Err(Error::BadSchema(format!(
                "table `{}` has no columns",
                self.name
            )));
        }
        for (i, c) in self.columns.iter().enumerate() {
            if self.columns[..i].iter().any(|p| p.name == c.name) {
                return Err(Error::BadSchema(format!(
                    "duplicate column `{}` in table `{}`",
                    c.name, self.name
                )));
            }
        }
        if self.primary_key.is_empty() {
            return Err(Error::BadSchema(format!(
                "table `{}` has no primary key",
                self.name
            )));
        }
        for pk in &self.primary_key {
            let idx = self.require_column(pk)?;
            let col = &self.columns[idx];
            if col.nullable {
                return Err(Error::BadSchema(format!(
                    "primary-key column `{}.{}` must not be nullable",
                    self.name, pk
                )));
            }
            if !col.ty.indexable() {
                return Err(Error::Unindexable {
                    table: self.name.clone(),
                    column: pk.clone(),
                });
            }
        }
        for ix in &self.indexes {
            if ix.columns.is_empty() {
                return Err(Error::BadSchema(format!(
                    "index `{}` on `{}` has no columns",
                    ix.name, self.name
                )));
            }
            for c in &ix.columns {
                let idx = self.require_column(c)?;
                if !self.columns[idx].ty.indexable() {
                    return Err(Error::Unindexable {
                        table: self.name.clone(),
                        column: c.clone(),
                    });
                }
            }
        }
        let mut index_names: Vec<&str> = self.indexes.iter().map(|i| i.name.as_str()).collect();
        index_names.push(PRIMARY_INDEX);
        index_names.sort_unstable();
        if index_names.windows(2).any(|w| w[0] == w[1]) {
            return Err(Error::BadSchema(format!(
                "duplicate index name on table `{}`",
                self.name
            )));
        }
        for fk in &self.foreign_keys {
            if fk.columns.len() != fk.ref_columns.len() || fk.columns.is_empty() {
                return Err(Error::BadSchema(format!(
                    "foreign key on `{}` has mismatched column lists",
                    self.name
                )));
            }
            for c in &fk.columns {
                let idx = self.require_column(c)?;
                if fk.on_delete == FkAction::SetNull && !self.columns[idx].nullable {
                    return Err(Error::BadSchema(format!(
                        "SET NULL foreign key on non-nullable `{}.{}`",
                        self.name, c
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Name of the implicit primary-key index.
pub const PRIMARY_INDEX: &str = "__primary";

/// Fluent builder for [`TableSchema`].
#[derive(Debug)]
pub struct SchemaBuilder {
    schema: TableSchema,
}

impl SchemaBuilder {
    /// Add a non-nullable column.
    #[must_use]
    pub fn column(mut self, name: impl Into<String>, ty: ColumnType) -> Self {
        self.schema.columns.push(ColumnDef {
            name: name.into(),
            ty,
            nullable: false,
        });
        self
    }

    /// Add a nullable column.
    #[must_use]
    pub fn nullable_column(mut self, name: impl Into<String>, ty: ColumnType) -> Self {
        self.schema.columns.push(ColumnDef {
            name: name.into(),
            ty,
            nullable: true,
        });
        self
    }

    /// Declare the primary key.
    #[must_use]
    pub fn primary_key(mut self, cols: &[&str]) -> Self {
        self.schema.primary_key = cols.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// Declare a secondary index.
    #[must_use]
    pub fn index(mut self, name: impl Into<String>, cols: &[&str], unique: bool) -> Self {
        self.schema.indexes.push(IndexDef {
            name: name.into(),
            columns: cols.iter().map(|s| (*s).to_owned()).collect(),
            unique,
        });
        self
    }

    /// Declare a foreign key to `ref_table(ref_cols)`.
    #[must_use]
    pub fn foreign_key(
        mut self,
        cols: &[&str],
        ref_table: impl Into<String>,
        ref_cols: &[&str],
        on_delete: FkAction,
    ) -> Self {
        self.schema.foreign_keys.push(ForeignKey {
            columns: cols.iter().map(|s| (*s).to_owned()).collect(),
            ref_table: ref_table.into(),
            ref_columns: ref_cols.iter().map(|s| (*s).to_owned()).collect(),
            on_delete,
        });
        self
    }

    /// Validate and produce the schema.
    pub fn build(self) -> Result<TableSchema> {
        self.schema.validate()?;
        Ok(self.schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basic() -> SchemaBuilder {
        TableSchema::builder("t")
            .column("id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .primary_key(&["id"])
    }

    #[test]
    fn build_ok() {
        let s = basic().build().unwrap();
        assert_eq!(s.name, "t");
        assert_eq!(s.columns.len(), 2);
        assert_eq!(s.column_index("name"), Some(1));
    }

    #[test]
    fn rejects_missing_pk() {
        let err = TableSchema::builder("t")
            .column("id", ColumnType::Int)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::BadSchema(_)));
    }

    #[test]
    fn rejects_nullable_pk() {
        let err = TableSchema::builder("t")
            .nullable_column("id", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::BadSchema(_)));
    }

    #[test]
    fn rejects_duplicate_columns() {
        let err = TableSchema::builder("t")
            .column("id", ColumnType::Int)
            .column("id", ColumnType::Text)
            .primary_key(&["id"])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::BadSchema(_)));
    }

    #[test]
    fn rejects_bytes_index() {
        let err = TableSchema::builder("t")
            .column("id", ColumnType::Int)
            .column("payload", ColumnType::Bytes)
            .primary_key(&["id"])
            .index("by_payload", &["payload"], false)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Unindexable { .. }));
    }

    #[test]
    fn rejects_unknown_index_column() {
        let err = basic().index("bad", &["nope"], false).build().unwrap_err();
        assert!(matches!(err, Error::NoSuchColumn { .. }));
    }

    #[test]
    fn rejects_set_null_on_non_nullable() {
        let err = TableSchema::builder("t")
            .column("id", ColumnType::Int)
            .column("parent", ColumnType::Int)
            .primary_key(&["id"])
            .foreign_key(&["parent"], "t", &["id"], FkAction::SetNull)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::BadSchema(_)));
    }

    #[test]
    fn rejects_duplicate_index_names() {
        let err = basic()
            .index("i", &["name"], false)
            .index("i", &["name"], true)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::BadSchema(_)));
    }

    #[test]
    fn resolve_columns_maps_names() {
        let s = basic().build().unwrap();
        assert_eq!(
            s.resolve_columns(&["name".into(), "id".into()]).unwrap(),
            vec![1, 0]
        );
    }
}
