//! Error type for the Web document database core.

use crate::hierarchy::ObjectKind;
use std::fmt;

/// Errors surfaced by the core library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An error bubbled up from the relational substrate.
    Store(relstore::Error),
    /// A named object does not exist.
    NotFound {
        /// Kind of the missing object.
        kind: ObjectKind,
        /// The name that was looked up.
        name: String,
    },
    /// The operation conflicts with a held document lock.
    Locked(String),
    /// The caller violated an API precondition.
    InvalidInput(String),
    /// A permission check failed in the three-tier layer.
    Forbidden {
        /// Who attempted the operation.
        user: String,
        /// What they attempted.
        action: String,
    },
    /// The durability layer failed: log I/O, corruption, or recovery.
    Durability(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Store(e) => write!(f, "storage error: {e}"),
            CoreError::NotFound { kind, name } => {
                write!(f, "no {} named `{name}`", kind.label())
            }
            CoreError::Locked(msg) => write!(f, "locked: {msg}"),
            CoreError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            CoreError::Forbidden { user, action } => {
                write!(f, "`{user}` is not permitted to {action}")
            }
            CoreError::Durability(msg) => write!(f, "durability: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<relstore::Error> for CoreError {
    fn from(e: relstore::Error) -> Self {
        CoreError::Store(e)
    }
}

impl From<wal::WalError> for CoreError {
    fn from(e: wal::WalError) -> Self {
        CoreError::Durability(e.to_string())
    }
}

impl CoreError {
    /// A [`CoreError::NotFound`] for the `kind` object named `name`.
    pub(crate) fn not_found(kind: ObjectKind, name: impl fmt::Display) -> Self {
        let name = name.to_string();
        CoreError::NotFound { kind, name }
    }
}

/// Result alias for the core crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = CoreError::NotFound {
            kind: ObjectKind::Script,
            name: "x".into(),
        };
        assert_eq!(e.to_string(), "no script named `x`");
        let e: CoreError = relstore::Error::NoSuchTable("t".into()).into();
        assert!(e.to_string().contains("storage error"));
        let e = CoreError::Forbidden {
            user: "student-1".into(),
            action: "delete document instances".into(),
        };
        assert!(e.to_string().contains("not permitted"));
    }
}
