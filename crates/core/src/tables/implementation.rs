//! The Implementation table and its file tables (§3).
//!
//! "With respect to a script, the instructor can have different tries
//! of implementation. Each implementation contains at least one HTML
//! file, and some optional program files, which may use some multimedia
//! resources."

use super::{bytes, int, text, timestamp};
use crate::ids::{ScriptName, StartUrl, UserId};
use bytes::Bytes;
use relstore::{ColumnType, FkAction, Result, Row, RowRef, TableSchema, Value};
use serde::{Deserialize, Serialize};

/// An implementation of a script, keyed by its unique starting URL.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Implementation {
    /// Unique starting URL.
    pub url: StartUrl,
    /// The script this implements.
    pub script: ScriptName,
    /// The instructor who built this try.
    pub author: UserId,
    /// Creation date/time.
    pub created: u64,
}

impl Implementation {
    /// Table name.
    pub const TABLE: &'static str = "implementation";
    /// Resource junction table name.
    pub const RESOURCES: &'static str = "impl_resource";

    /// The relational schema.
    #[must_use]
    pub fn schema() -> TableSchema {
        TableSchema::builder(Self::TABLE)
            .column("url", ColumnType::Text)
            .column("script", ColumnType::Text)
            .column("author", ColumnType::Text)
            .column("created", ColumnType::Timestamp)
            .primary_key(&["url"])
            .index("by_script", &["script"], false)
            .index("by_author", &["author"], false)
            .foreign_key(&["script"], "script", &["name"], FkAction::Cascade)
            .build()
            .expect("static schema is valid")
    }

    /// Encode into a row.
    #[must_use]
    pub fn to_row(&self) -> Row {
        vec![
            self.url.as_str().into(),
            self.script.as_str().into(),
            self.author.as_str().into(),
            Value::Timestamp(self.created),
        ]
    }

    /// Decode from a row view: a stored image or a decoded row.
    pub fn from_row(row: RowRef<'_>) -> Result<Self> {
        Ok(Implementation {
            url: StartUrl::new(text(row, 0, "url")?),
            script: ScriptName::new(text(row, 1, "script")?),
            author: UserId::new(text(row, 2, "author")?),
            created: timestamp(row, 3, "created")?,
        })
    }
}

/// An HTML (or XML) file of an implementation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HtmlFile {
    /// Owning implementation.
    pub url: StartUrl,
    /// Path within the implementation (e.g. `lesson3.html`).
    pub path: String,
    /// The markup itself.
    pub content: Bytes,
}

impl HtmlFile {
    /// Table name.
    pub const TABLE: &'static str = "html_file";

    /// The relational schema: composite key `(url, path)`.
    #[must_use]
    pub fn schema() -> TableSchema {
        TableSchema::builder(Self::TABLE)
            .column("url", ColumnType::Text)
            .column("path", ColumnType::Text)
            .column("content", ColumnType::Bytes)
            .column("size", ColumnType::Int)
            .primary_key(&["url", "path"])
            .index("by_url", &["url"], false)
            .foreign_key(&["url"], "implementation", &["url"], FkAction::Cascade)
            .build()
            .expect("static schema is valid")
    }

    /// Encode into a row.
    #[must_use]
    pub fn to_row(&self) -> Row {
        vec![
            self.url.as_str().into(),
            self.path.as_str().into(),
            Value::Bytes(self.content.to_vec()),
            Value::Int(self.content.len() as i64),
        ]
    }

    /// Decode from a row view: a stored image or a decoded row.
    pub fn from_row(row: RowRef<'_>) -> Result<Self> {
        let content = bytes(row, 2, "content")?;
        let _ = int(row, 3, "size")?;
        Ok(HtmlFile {
            url: StartUrl::new(text(row, 0, "url")?),
            path: text(row, 1, "path")?.to_owned(),
            content: Bytes::copy_from_slice(content),
        })
    }
}

/// The language of a control program file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProgramLang {
    /// A Java applet (§1: "Java application programs … embedded into
    /// HTML documents").
    JavaApplet,
    /// A server-side ASP program.
    Asp,
}

impl ProgramLang {
    /// Storage label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProgramLang::JavaApplet => "java",
            ProgramLang::Asp => "asp",
        }
    }

    /// Inverse of [`ProgramLang::label`].
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "java" => Some(ProgramLang::JavaApplet),
            "asp" => Some(ProgramLang::Asp),
            _ => None,
        }
    }
}

/// An add-on control program file of an implementation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramFile {
    /// Owning implementation.
    pub url: StartUrl,
    /// Path within the implementation (e.g. `quiz.class`).
    pub path: String,
    /// Program language.
    pub lang: ProgramLang,
    /// The program payload.
    pub content: Bytes,
}

impl ProgramFile {
    /// Table name.
    pub const TABLE: &'static str = "program_file";

    /// The relational schema: composite key `(url, path)`.
    #[must_use]
    pub fn schema() -> TableSchema {
        TableSchema::builder(Self::TABLE)
            .column("url", ColumnType::Text)
            .column("path", ColumnType::Text)
            .column("lang", ColumnType::Text)
            .column("content", ColumnType::Bytes)
            .column("size", ColumnType::Int)
            .primary_key(&["url", "path"])
            .index("by_url", &["url"], false)
            .foreign_key(&["url"], "implementation", &["url"], FkAction::Cascade)
            .build()
            .expect("static schema is valid")
    }

    /// Encode into a row.
    #[must_use]
    pub fn to_row(&self) -> Row {
        vec![
            self.url.as_str().into(),
            self.path.as_str().into(),
            self.lang.label().into(),
            Value::Bytes(self.content.to_vec()),
            Value::Int(self.content.len() as i64),
        ]
    }

    /// Decode from a row view: a stored image or a decoded row.
    pub fn from_row(row: RowRef<'_>) -> Result<Self> {
        let lang_label = text(row, 2, "lang")?;
        let lang =
            ProgramLang::from_label(lang_label).ok_or_else(|| super::bad("lang", lang_label))?;
        let content = bytes(row, 3, "content")?;
        Ok(ProgramFile {
            url: StartUrl::new(text(row, 0, "url")?),
            path: text(row, 1, "path")?.to_owned(),
            lang,
            content: Bytes::copy_from_slice(content),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implementation_roundtrip() {
        let i = Implementation {
            url: StartUrl::new("http://mmu/intro-mm/l3/"),
            script: ScriptName::new("intro-mm-l3"),
            author: UserId::new("shih"),
            created: 77,
        };
        assert_eq!(
            Implementation::from_row(RowRef::decoded(&i.to_row())).unwrap(),
            i
        );
        assert_eq!(Implementation::schema().columns.len(), i.to_row().len());
    }

    #[test]
    fn html_file_roundtrip() {
        let h = HtmlFile {
            url: StartUrl::new("http://mmu/intro-mm/l3/"),
            path: "index.html".into(),
            content: Bytes::from_static(b"<html><body>L3</body></html>"),
        };
        assert_eq!(HtmlFile::from_row(RowRef::decoded(&h.to_row())).unwrap(), h);
    }

    #[test]
    fn program_file_roundtrip() {
        let p = ProgramFile {
            url: StartUrl::new("http://mmu/intro-mm/l3/"),
            path: "quiz.class".into(),
            lang: ProgramLang::JavaApplet,
            content: Bytes::from_static(&[0xCA, 0xFE, 0xBA, 0xBE]),
        };
        assert_eq!(
            ProgramFile::from_row(RowRef::decoded(&p.to_row())).unwrap(),
            p
        );
    }

    #[test]
    fn program_lang_labels() {
        assert_eq!(
            ProgramLang::from_label("java"),
            Some(ProgramLang::JavaApplet)
        );
        assert_eq!(ProgramLang::from_label("asp"), Some(ProgramLang::Asp));
        assert_eq!(ProgramLang::from_label("cobol"), None);
    }
}
