//! Typed identifiers for the Web document database.
//!
//! The paper identifies every object by a unique *name* (script name,
//! starting URL, test-record name, ...). Newtypes keep those name spaces
//! from being mixed up at compile time.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! name_id {
    ($($(#[$doc:meta])* $name:ident)*) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        pub struct $name(pub String);

        impl $name {
            /// Wrap a raw name.
            pub fn new(s: impl Into<String>) -> Self {
                $name(s.into())
            }

            /// The raw name.
            #[must_use]
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                $name(s.to_owned())
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                $name(s)
            }
        }
    )*};
}

name_id! {
    /// Unique name of a Web document database (database layer).
    DbName
    /// Unique name of a document script — the specification object.
    ScriptName
    /// Unique starting URL of an implementation.
    StartUrl
    /// Unique name of a test record.
    TestRecordName
    /// Unique name of a bug report.
    BugReportName
    /// Unique name of an annotation.
    AnnotationName
    /// A user of the system (instructor, student or administrator).
    UserId
    /// A course number/title used by the virtual library.
    CourseId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_display() {
        let s = ScriptName::new("intro-mm");
        assert_eq!(s.as_str(), "intro-mm");
        assert_eq!(s.to_string(), "intro-mm");
        assert_eq!(ScriptName::from("intro-mm"), s);
        assert_eq!(ScriptName::from(String::from("intro-mm")), s);
    }

    #[test]
    fn distinct_namespaces() {
        // Different newtypes with the same inner string are different
        // types — this is a compile-time property; here we just confirm
        // equality works within one namespace.
        assert_ne!(ScriptName::new("a"), ScriptName::new("b"));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(UserId::new("alice") < UserId::new("bob"));
    }
}
