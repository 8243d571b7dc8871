//! The TestRecord table (§3).
//!
//! "To test the implementation, test records are generated for each
//! implementation." A record stores its testing scope and the Web
//! traversal messages — "windowing messages which control a Web
//! document traversal" — that replay the test.

use super::{text, timestamp};
use crate::ids::{ScriptName, StartUrl, TestRecordName};
use relstore::{ColumnType, FkAction, Result, Row, RowRef, TableSchema, Value};
use serde::{Deserialize, Serialize};

/// Scope of a test: a single document subtree or the whole database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TestScope {
    /// Local to one implementation.
    Local,
    /// Global across documents (link integrity over the library).
    Global,
}

impl TestScope {
    /// Storage label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TestScope::Local => "local",
            TestScope::Global => "global",
        }
    }

    /// Inverse of [`TestScope::label`].
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "local" => Some(TestScope::Local),
            "global" => Some(TestScope::Global),
            _ => None,
        }
    }
}

/// One replayable traversal step (a simplified windowing message).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraversalMsg {
    /// Navigate to a page path.
    Navigate(String),
    /// Follow the n-th link on the current page.
    FollowLink(u32),
    /// Activate an embedded control (applet button etc.).
    Activate(String),
    /// Scroll by the given number of lines.
    Scroll(i32),
    /// Go back in history.
    Back,
}

impl TraversalMsg {
    /// Encode one message as a compact text token.
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            TraversalMsg::Navigate(p) => format!("N:{p}"),
            TraversalMsg::FollowLink(n) => format!("L:{n}"),
            TraversalMsg::Activate(c) => format!("A:{c}"),
            TraversalMsg::Scroll(d) => format!("S:{d}"),
            TraversalMsg::Back => "B".to_owned(),
        }
    }

    /// Decode a token produced by [`TraversalMsg::encode`].
    #[must_use]
    pub fn decode(tok: &str) -> Option<Self> {
        if tok == "B" {
            return Some(TraversalMsg::Back);
        }
        let (tag, rest) = tok.split_once(':')?;
        match tag {
            "N" => Some(TraversalMsg::Navigate(rest.to_owned())),
            "L" => rest.parse().ok().map(TraversalMsg::FollowLink),
            "A" => Some(TraversalMsg::Activate(rest.to_owned())),
            "S" => rest.parse().ok().map(TraversalMsg::Scroll),
            _ => None,
        }
    }

    /// Encode a whole message sequence (semicolon separated; paths with
    /// semicolons are not supported by the 1999 system either).
    #[must_use]
    pub fn encode_seq(msgs: &[TraversalMsg]) -> String {
        msgs.iter().map(Self::encode).collect::<Vec<_>>().join(";")
    }

    /// Decode a sequence; unknown tokens are dropped.
    #[must_use]
    pub fn decode_seq(s: &str) -> Vec<TraversalMsg> {
        if s.is_empty() {
            return Vec::new();
        }
        s.split(';').filter_map(Self::decode).collect()
    }
}

/// A test record over an implementation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TestRecord {
    /// Unique record name.
    pub name: TestRecordName,
    /// Testing scope.
    pub scope: TestScope,
    /// Replayable traversal messages.
    pub messages: Vec<TraversalMsg>,
    /// The script under test.
    pub script: ScriptName,
    /// The implementation under test (nulled if it is deleted).
    pub url: Option<StartUrl>,
    /// When the test ran.
    pub created: u64,
}

impl TestRecord {
    /// Table name.
    pub const TABLE: &'static str = "test_record";

    /// The relational schema.
    #[must_use]
    pub fn schema() -> TableSchema {
        TableSchema::builder(Self::TABLE)
            .column("name", ColumnType::Text)
            .column("scope", ColumnType::Text)
            .column("messages", ColumnType::Text)
            .column("script", ColumnType::Text)
            .nullable_column("url", ColumnType::Text)
            .column("created", ColumnType::Timestamp)
            .primary_key(&["name"])
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
            self.scope.label().into(),
            TraversalMsg::encode_seq(&self.messages).into(),
            self.script.as_str().into(),
            self.url.as_ref().map_or(Value::Null, |u| u.as_str().into()),
            Value::Timestamp(self.created),
        ]
    }

    /// Decode from a row view: a stored image or a decoded row.
    pub fn from_row(row: RowRef<'_>) -> Result<Self> {
        let scope_label = text(row, 1, "scope")?;
        let scope =
            TestScope::from_label(scope_label).ok_or_else(|| super::bad("scope", scope_label))?;
        Ok(TestRecord {
            name: TestRecordName::new(text(row, 0, "name")?),
            scope,
            messages: TraversalMsg::decode_seq(text(row, 2, "messages")?),
            script: ScriptName::new(text(row, 3, "script")?),
            url: row.text(4)?.map(StartUrl::new),
            created: timestamp(row, 5, "created")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TestRecord {
        TestRecord {
            name: TestRecordName::new("tr-l3-1"),
            scope: TestScope::Local,
            messages: vec![
                TraversalMsg::Navigate("index.html".into()),
                TraversalMsg::FollowLink(2),
                TraversalMsg::Activate("quiz".into()),
                TraversalMsg::Scroll(-3),
                TraversalMsg::Back,
            ],
            script: ScriptName::new("intro-mm-l3"),
            url: Some(StartUrl::new("http://mmu/intro-mm/l3/")),
            created: 5,
        }
    }

    #[test]
    fn row_roundtrip() {
        let t = sample();
        assert_eq!(
            TestRecord::from_row(RowRef::decoded(&t.to_row())).unwrap(),
            t
        );
    }

    #[test]
    fn roundtrip_null_url_and_empty_messages() {
        let mut t = sample();
        t.url = None;
        t.messages.clear();
        t.scope = TestScope::Global;
        assert_eq!(
            TestRecord::from_row(RowRef::decoded(&t.to_row())).unwrap(),
            t
        );
    }

    #[test]
    fn traversal_msg_roundtrip() {
        let msgs = sample().messages;
        let enc = TraversalMsg::encode_seq(&msgs);
        assert_eq!(TraversalMsg::decode_seq(&enc), msgs);
        assert!(TraversalMsg::decode("X:??").is_none());
        assert!(TraversalMsg::decode("L:notanumber").is_none());
    }
}
