//! The Annotation table (§3).
//!
//! "An instructor can use our annotation tool to draw lines and text to
//! add notes to a course implementation. Thus, an implementation may
//! have different annotations created by different instructors." The
//! table row carries the metadata; the drawing itself is the annotation
//! *file* (see [`crate::sci::AnnotationOverlay`]), stored inline as
//! bytes.

use super::{bytes, int, text, timestamp};
use crate::ids::{AnnotationName, ScriptName, StartUrl, UserId};
use crate::sci::AnnotationOverlay;
use relstore::{ColumnType, FkAction, Result, Row, RowRef, TableSchema, Value};
use serde::{Deserialize, Serialize};

/// An annotation over an implementation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Annotation {
    /// Unique annotation name.
    pub name: AnnotationName,
    /// The instructor who drew it.
    pub author: UserId,
    /// Version of the annotation.
    pub version: i64,
    /// Creation date/time.
    pub created: u64,
    /// The script this annotates.
    pub script: ScriptName,
    /// The implementation this annotates (nulled if it is deleted).
    pub url: Option<StartUrl>,
    /// The drawing overlay (serialized into the annotation-file column).
    pub overlay: AnnotationOverlay,
}

impl Annotation {
    /// Table name.
    pub const TABLE: &'static str = "annotation";

    /// The relational schema.
    #[must_use]
    pub fn schema() -> TableSchema {
        TableSchema::builder(Self::TABLE)
            .column("name", ColumnType::Text)
            .column("author", ColumnType::Text)
            .column("version", ColumnType::Int)
            .column("created", ColumnType::Timestamp)
            .column("script", ColumnType::Text)
            .nullable_column("url", ColumnType::Text)
            .column("file", ColumnType::Bytes)
            .primary_key(&["name"])
            .index("by_author", &["author"], false)
            .index("by_script", &["script"], false)
            .index("by_url", &["url"], false)
            .foreign_key(&["script"], "script", &["name"], FkAction::Cascade)
            .foreign_key(&["url"], "implementation", &["url"], FkAction::SetNull)
            .build()
            .expect("static schema is valid")
    }

    /// Encode into a row.
    #[must_use]
    pub fn to_row(&self) -> Row {
        vec![
            self.name.as_str().into(),
            self.author.as_str().into(),
            Value::Int(self.version),
            Value::Timestamp(self.created),
            self.script.as_str().into(),
            self.url.as_ref().map_or(Value::Null, |u| u.as_str().into()),
            Value::Bytes(self.overlay.encode()),
        ]
    }

    /// Decode from a row view: a stored image or a decoded row.
    pub fn from_row(row: RowRef<'_>) -> Result<Self> {
        let file = bytes(row, 6, "file")?;
        let overlay =
            AnnotationOverlay::decode(file).ok_or_else(|| super::bad("file", "<binary>"))?;
        Ok(Annotation {
            name: AnnotationName::new(text(row, 0, "name")?),
            author: UserId::new(text(row, 1, "author")?),
            version: int(row, 2, "version")?,
            created: timestamp(row, 3, "created")?,
            script: ScriptName::new(text(row, 4, "script")?),
            url: row.text(5)?.map(StartUrl::new),
            overlay,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sci::Stroke;

    fn sample() -> Annotation {
        Annotation {
            name: AnnotationName::new("ann-shih-l3"),
            author: UserId::new("shih"),
            version: 1,
            created: 42,
            script: ScriptName::new("intro-mm-l3"),
            url: Some(StartUrl::new("http://mmu/intro-mm/l3/")),
            overlay: AnnotationOverlay {
                author: UserId::new("shih"),
                page: "index.html".into(),
                strokes: vec![
                    Stroke::Line(vec![(0.0, 0.0), (10.0, 10.0)]),
                    Stroke::Text {
                        at: (5.0, 5.0),
                        content: "key point".into(),
                    },
                ],
            },
        }
    }

    #[test]
    fn row_roundtrip() {
        let a = sample();
        assert_eq!(
            Annotation::from_row(RowRef::decoded(&a.to_row())).unwrap(),
            a
        );
    }

    #[test]
    fn roundtrip_null_url() {
        let mut a = sample();
        a.url = None;
        assert_eq!(
            Annotation::from_row(RowRef::decoded(&a.to_row())).unwrap(),
            a
        );
    }

    #[test]
    fn schema_arity_matches_row() {
        assert_eq!(Annotation::schema().columns.len(), sample().to_row().len());
    }
}
