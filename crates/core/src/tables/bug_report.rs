//! The BugReport table (§3).
//!
//! "Bug reports are created for each test record." A report captures
//! the QA engineer, the procedure, and the four failure lists the paper
//! enumerates: bad URLs, missing objects, inconsistencies, redundant
//! objects.

use super::{text, timestamp};
use crate::ids::{BugReportName, TestRecordName, UserId};
use relstore::{ColumnType, FkAction, Result, Row, RowRef, TableSchema, Value};
use serde::{Deserialize, Serialize};

fn join_list(items: &[String]) -> String {
    items.join("\n")
}

fn split_list(s: &str) -> Vec<String> {
    if s.is_empty() {
        Vec::new()
    } else {
        s.split('\n').map(str::to_owned).collect()
    }
}

/// A bug report attached to a test record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BugReport {
    /// Unique report name.
    pub name: BugReportName,
    /// The quality-assurance engineer who filed it.
    pub qa_engineer: UserId,
    /// A short description of the test procedure.
    pub procedure: String,
    /// The test result.
    pub description: String,
    /// URLs that could not be reached.
    pub bad_urls: Vec<String>,
    /// Multimedia or HTML files missing from the implementation.
    pub missing_objects: Vec<String>,
    /// A text description of inconsistency found.
    pub inconsistency: String,
    /// Redundant files that nothing references.
    pub redundant_objects: Vec<String>,
    /// The test record this report belongs to.
    pub test_record: TestRecordName,
    /// When the report was filed.
    pub created: u64,
}

impl BugReport {
    /// Table name.
    pub const TABLE: &'static str = "bug_report";

    /// The relational schema.
    #[must_use]
    pub fn schema() -> TableSchema {
        TableSchema::builder(Self::TABLE)
            .column("name", ColumnType::Text)
            .column("qa_engineer", ColumnType::Text)
            .column("procedure", ColumnType::Text)
            .column("description", ColumnType::Text)
            .column("bad_urls", ColumnType::Text)
            .column("missing_objects", ColumnType::Text)
            .column("inconsistency", ColumnType::Text)
            .column("redundant_objects", ColumnType::Text)
            .column("test_record", ColumnType::Text)
            .column("created", ColumnType::Timestamp)
            .primary_key(&["name"])
            .index("by_test_record", &["test_record"], false)
            .index("by_qa", &["qa_engineer"], false)
            .foreign_key(
                &["test_record"],
                "test_record",
                &["name"],
                FkAction::Cascade,
            )
            .build()
            .expect("static schema is valid")
    }

    /// True when the report found nothing wrong.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.bad_urls.is_empty()
            && self.missing_objects.is_empty()
            && self.inconsistency.is_empty()
            && self.redundant_objects.is_empty()
    }

    /// Total number of findings.
    #[must_use]
    pub fn finding_count(&self) -> usize {
        self.bad_urls.len()
            + self.missing_objects.len()
            + usize::from(!self.inconsistency.is_empty())
            + self.redundant_objects.len()
    }

    /// Encode into a row.
    #[must_use]
    pub fn to_row(&self) -> Row {
        vec![
            self.name.as_str().into(),
            self.qa_engineer.as_str().into(),
            self.procedure.as_str().into(),
            self.description.as_str().into(),
            join_list(&self.bad_urls).into(),
            join_list(&self.missing_objects).into(),
            self.inconsistency.as_str().into(),
            join_list(&self.redundant_objects).into(),
            self.test_record.as_str().into(),
            Value::Timestamp(self.created),
        ]
    }

    /// Decode from a row view: a stored image or a decoded row.
    pub fn from_row(row: RowRef<'_>) -> Result<Self> {
        Ok(BugReport {
            name: BugReportName::new(text(row, 0, "name")?),
            qa_engineer: UserId::new(text(row, 1, "qa_engineer")?),
            procedure: text(row, 2, "procedure")?.to_owned(),
            description: text(row, 3, "description")?.to_owned(),
            bad_urls: split_list(text(row, 4, "bad_urls")?),
            missing_objects: split_list(text(row, 5, "missing_objects")?),
            inconsistency: text(row, 6, "inconsistency")?.to_owned(),
            redundant_objects: split_list(text(row, 7, "redundant_objects")?),
            test_record: TestRecordName::new(text(row, 8, "test_record")?),
            created: timestamp(row, 9, "created")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BugReport {
        BugReport {
            name: BugReportName::new("bug-l3-1"),
            qa_engineer: UserId::new("huang"),
            procedure: "black-box traversal of lecture 3".into(),
            description: "two dead links, one orphan clip".into(),
            bad_urls: vec!["http://mmu/x".into(), "http://mmu/y".into()],
            missing_objects: vec!["talk.wav".into()],
            inconsistency: "index lists 5 sections, body has 4".into(),
            redundant_objects: vec!["old-logo.gif".into()],
            test_record: TestRecordName::new("tr-l3-1"),
            created: 9,
        }
    }

    #[test]
    fn row_roundtrip() {
        let b = sample();
        assert_eq!(
            BugReport::from_row(RowRef::decoded(&b.to_row())).unwrap(),
            b
        );
    }

    #[test]
    fn clean_report() {
        let mut b = sample();
        b.bad_urls.clear();
        b.missing_objects.clear();
        b.inconsistency.clear();
        b.redundant_objects.clear();
        assert!(b.is_clean());
        assert_eq!(b.finding_count(), 0);
        assert_eq!(
            BugReport::from_row(RowRef::decoded(&b.to_row())).unwrap(),
            b
        );
    }

    #[test]
    fn finding_count() {
        assert_eq!(sample().finding_count(), 5);
        assert!(!sample().is_clean());
    }
}
