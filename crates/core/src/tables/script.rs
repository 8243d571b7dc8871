//! The Script table (§3): the specification object of a Web document.
//!
//! "A script, similar to a software system specification, can describe
//! a course material, or a quiz."

use super::{int, join_keywords, split_keywords, text, timestamp};
use crate::ids::{DbName, ScriptName, UserId};
use relstore::{ColumnType, FkAction, Result, Row, RowRef, TableSchema, Value};
use serde::{Deserialize, Serialize};

/// A document script.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Script {
    /// Unique script name.
    pub name: ScriptName,
    /// The Web document database this script belongs to.
    pub db: DbName,
    /// Keywords describing the script.
    pub keywords: Vec<String>,
    /// Author and copyright holder.
    pub author: UserId,
    /// Version of the document.
    pub version: i64,
    /// Creation date/time (simulation microseconds).
    pub created: u64,
    /// Textual content of the script. (A verbal description, when
    /// present, is a multimedia resource in the junction table.)
    pub description: String,
    /// Tentative completion date, if set.
    pub expected_completion: Option<u64>,
    /// Work status, 0–100.
    pub percent_complete: i64,
}

impl Script {
    /// Table name.
    pub const TABLE: &'static str = "script";
    /// Resource junction table name.
    pub const RESOURCES: &'static str = "script_resource";

    /// The relational schema.
    #[must_use]
    pub fn schema() -> TableSchema {
        TableSchema::builder(Self::TABLE)
            .column("name", ColumnType::Text)
            .column("db", ColumnType::Text)
            .column("keywords", ColumnType::Text)
            .column("author", ColumnType::Text)
            .column("version", ColumnType::Int)
            .column("created", ColumnType::Timestamp)
            .column("description", ColumnType::Text)
            .nullable_column("expected_completion", ColumnType::Timestamp)
            .column("percent_complete", ColumnType::Int)
            .primary_key(&["name"])
            .index("by_db", &["db"], false)
            .index("by_author", &["author"], false)
            .foreign_key(&["db"], "wdoc_database", &["name"], FkAction::Cascade)
            .build()
            .expect("static schema is valid")
    }

    /// Encode into a row.
    #[must_use]
    pub fn to_row(&self) -> Row {
        vec![
            self.name.as_str().into(),
            self.db.as_str().into(),
            join_keywords(&self.keywords).into(),
            self.author.as_str().into(),
            Value::Int(self.version),
            Value::Timestamp(self.created),
            self.description.as_str().into(),
            self.expected_completion
                .map_or(Value::Null, Value::Timestamp),
            Value::Int(self.percent_complete),
        ]
    }

    /// Decode from a row view: a stored image or a decoded row.
    pub fn from_row(row: RowRef<'_>) -> Result<Self> {
        Ok(Script {
            name: ScriptName::new(text(row, 0, "name")?),
            db: DbName::new(text(row, 1, "db")?),
            keywords: split_keywords(text(row, 2, "keywords")?),
            author: UserId::new(text(row, 3, "author")?),
            version: int(row, 4, "version")?,
            created: timestamp(row, 5, "created")?,
            description: text(row, 6, "description")?.to_owned(),
            expected_completion: row.timestamp(7)?,
            percent_complete: int(row, 8, "percent_complete")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Script {
        Script {
            name: ScriptName::new("intro-mm-l3"),
            db: DbName::new("mmu-courses"),
            keywords: vec!["multimedia".into(), "lecture".into()],
            author: UserId::new("shih"),
            version: 2,
            created: 1_000,
            description: "Lecture 3: synchronization models".into(),
            expected_completion: Some(9_000),
            percent_complete: 60,
        }
    }

    #[test]
    fn row_roundtrip() {
        let s = sample();
        assert_eq!(Script::from_row(RowRef::decoded(&s.to_row())).unwrap(), s);
    }

    #[test]
    fn roundtrip_with_null_completion() {
        let mut s = sample();
        s.expected_completion = None;
        s.keywords.clear();
        assert_eq!(Script::from_row(RowRef::decoded(&s.to_row())).unwrap(), s);
    }

    #[test]
    fn schema_arity_matches_row() {
        assert_eq!(Script::schema().columns.len(), sample().to_row().len());
    }
}
