//! Relational mappings of the paper's document-layer tables (§3).
//!
//! Each submodule defines one of the five major tables — Script,
//! Implementation, TestRecord, BugReport, Annotation — as a typed Rust
//! struct plus its [`relstore::TableSchema`] and row conversions. The
//! auxiliary file tables (HTML files, program files, annotation files)
//! and the BLOB-descriptor junction tables live here too.
//!
//! Mapping conventions:
//!
//! * object names are `Text` primary keys, exactly as the paper keys
//!   every object by a unique name;
//! * keyword lists are stored comma-joined (`keywords` helpers below);
//! * multimedia resources are *descriptors* (content id + kind + size)
//!   in junction tables — payloads live in the BLOB layer;
//! * "foreign key to the X table" in the paper maps to a real
//!   `relstore` foreign key, with `CASCADE` along composition edges and
//!   `SET NULL` along advisory ones.

pub mod annotation;
pub mod bug_report;
pub mod implementation;
pub mod script;
pub mod test_record;

pub use annotation::Annotation;
pub use bug_report::BugReport;
pub use implementation::{HtmlFile, Implementation, ProgramFile};
pub use script::Script;
pub use test_record::{TestRecord, TestScope};

use blobstore::{BlobId, BlobMeta, MediaKind};
use relstore::{ColumnType, Error, FkAction, Result, Row, RowRef, TableSchema, Value};

/// Join keywords for storage.
#[must_use]
pub fn join_keywords(kw: &[String]) -> String {
    kw.join(",")
}

/// Split stored keywords.
#[must_use]
pub fn split_keywords(s: &str) -> Vec<String> {
    if s.is_empty() {
        Vec::new()
    } else {
        s.split(',').map(str::to_owned).collect()
    }
}

/// Schema of the database-layer table: one row per Web document
/// database ("Database name, Keywords, Author, Version, Date/time").
#[must_use]
pub fn database_schema() -> TableSchema {
    TableSchema::builder("wdoc_database")
        .column("name", ColumnType::Text)
        .column("keywords", ColumnType::Text)
        .column("author", ColumnType::Text)
        .column("version", ColumnType::Int)
        .column("created", ColumnType::Timestamp)
        .primary_key(&["name"])
        .index("by_author", &["author"], false)
        .build()
        .expect("static schema is valid")
}

/// Schema of a BLOB-descriptor junction table: `(owner, blob)` pairs
/// with the descriptor denormalized for cheap loading. `owner_table` /
/// `owner_col` select which document object owns the reference.
#[must_use]
pub fn resource_schema(name: &str, owner_table: &str, owner_col: &str) -> TableSchema {
    TableSchema::builder(name)
        .column("owner", ColumnType::Text)
        .column("blob", ColumnType::Text)
        .column("kind", ColumnType::Text)
        .column("size", ColumnType::Int)
        .primary_key(&["owner", "blob"])
        .index("by_owner", &["owner"], false)
        .foreign_key(&["owner"], owner_table, &[owner_col], FkAction::Cascade)
        .build()
        .expect("static schema is valid")
}

/// Encode a descriptor into a junction-table row.
#[must_use]
pub fn resource_row(owner: &str, meta: &BlobMeta) -> Row {
    vec![
        owner.into(),
        meta.id.to_string().into(),
        meta.kind.label().into(),
        Value::Int(meta.size as i64),
    ]
}

/// Decode a junction-table row back into a descriptor.
pub fn resource_from_row(row: RowRef<'_>) -> Result<BlobMeta> {
    let blob = text(row, 1, "blob")?;
    let id: BlobId = blob.parse().map_err(|_| bad("blob", blob))?;
    let kind_label = text(row, 2, "kind")?;
    let kind = MediaKind::from_label(kind_label).ok_or_else(|| bad("kind", kind_label))?;
    let size = int(row, 3, "size")? as u64;
    Ok(BlobMeta { id, kind, size })
}

// --- small row-decoding helpers shared by the table modules ---

pub(crate) fn bad(column: &str, got: &str) -> Error {
    Error::TypeMismatch {
        table: "<decode>".to_owned(),
        column: column.to_owned(),
        expected: ColumnType::Text,
        got: got.to_owned(),
    }
}

/// Field `i` shown in a decode error.
fn shown(row: RowRef<'_>, i: usize) -> String {
    row.value(i)
        .map_or_else(|e| e.to_string(), |v| v.to_string())
}

pub(crate) fn text<'r>(row: RowRef<'r>, i: usize, col: &str) -> Result<&'r str> {
    row.text(i)?.ok_or_else(|| bad(col, &shown(row, i)))
}

pub(crate) fn bytes<'r>(row: RowRef<'r>, i: usize, col: &str) -> Result<&'r [u8]> {
    row.bytes(i)?.ok_or_else(|| bad(col, &shown(row, i)))
}

pub(crate) fn int(row: RowRef<'_>, i: usize, col: &str) -> Result<i64> {
    row.int(i)?.ok_or_else(|| bad(col, &shown(row, i)))
}

pub(crate) fn timestamp(row: RowRef<'_>, i: usize, col: &str) -> Result<u64> {
    row.timestamp(i)?.ok_or_else(|| bad(col, &shown(row, i)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_roundtrip() {
        let kw = vec!["multimedia".to_owned(), "www".to_owned()];
        assert_eq!(split_keywords(&join_keywords(&kw)), kw);
        assert!(split_keywords("").is_empty());
        assert_eq!(join_keywords(&[]), "");
    }

    #[test]
    fn database_schema_valid() {
        let s = database_schema();
        assert_eq!(s.name, "wdoc_database");
        assert_eq!(s.primary_key, vec!["name".to_owned()]);
    }

    #[test]
    fn resource_row_roundtrip() {
        let meta = BlobMeta {
            id: BlobId::of(b"clip"),
            kind: MediaKind::Video,
            size: 4,
        };
        let row = resource_row("script-1", &meta);
        assert_eq!(resource_from_row(RowRef::decoded(&row)).unwrap(), meta);
        // The stored image decodes to the same descriptor.
        let image = relstore::pagestore::page::encode_row(&row);
        let mut scratch = relstore::pagestore::page::RowScratch::default();
        scratch.load(&image, row.len()).unwrap();
        assert_eq!(resource_from_row(scratch.view(&image)).unwrap(), meta);
    }

    #[test]
    fn resource_from_row_rejects_garbage() {
        let row: Row = vec![
            "o".into(),
            "not an id".into(),
            "video".into(),
            Value::Int(4),
        ];
        assert!(resource_from_row(RowRef::decoded(&row)).is_err());
        let row: Row = vec![
            "o".into(),
            BlobId::of(b"x").to_string().into(),
            "holodeck".into(),
            Value::Int(4),
        ];
        assert!(resource_from_row(RowRef::decoded(&row)).is_err());
        // A short row is an error, not a panic.
        assert!(resource_from_row(RowRef::decoded(&row[..2])).is_err());
    }
}
