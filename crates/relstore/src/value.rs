//! Typed values and column types.
//!
//! The engine is dynamically typed at the row level but statically typed at
//! the schema level: every column declares a [`ColumnType`] and every write
//! is checked against it. Values carry a total order (`Key` ordering) so
//! they can serve as B-tree index keys; `Float` uses IEEE total ordering.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 text.
    Text,
    /// Raw bytes (small payloads; large media lives in the BLOB store).
    Bytes,
    /// Microseconds since an arbitrary epoch (simulation time).
    Timestamp,
}

impl ColumnType {
    /// Whether values of this type may be used in index keys.
    ///
    /// Everything except raw byte payloads is indexable; indexing large
    /// byte blobs is never what the layers above want, so we refuse it
    /// loudly at schema-declaration time.
    #[must_use]
    pub fn indexable(self) -> bool {
        !matches!(self, ColumnType::Bytes)
    }
}

/// A single dynamically-typed value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL-style NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// Microseconds since an arbitrary epoch.
    Timestamp(u64),
}

impl Value {
    /// The runtime type of this value, or `None` for NULL (which is
    /// compatible with every nullable column).
    #[must_use]
    pub fn column_type(&self) -> Option<ColumnType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(ColumnType::Bool),
            Value::Int(_) => Some(ColumnType::Int),
            Value::Float(_) => Some(ColumnType::Float),
            Value::Text(_) => Some(ColumnType::Text),
            Value::Bytes(_) => Some(ColumnType::Bytes),
            Value::Timestamp(_) => Some(ColumnType::Timestamp),
        }
    }

    /// True if this value is NULL.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an `i64`, if this is an `Int`.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a `&str`, if this is `Text`.
    #[must_use]
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Extract a `bool`, if this is `Bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract an `f64`, if this is `Float`.
    #[must_use]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a timestamp, if this is `Timestamp`.
    #[must_use]
    pub fn as_timestamp(&self) -> Option<u64> {
        match self {
            Value::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract the byte payload, if this is `Bytes`.
    #[must_use]
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Approximate in-memory footprint in bytes, used by storage
    /// accounting experiments.
    #[must_use]
    pub fn heap_size(&self) -> usize {
        match self {
            Value::Text(s) => s.len(),
            Value::Bytes(b) => b.len(),
            _ => 0,
        }
    }

    /// Rank used to order values of *different* types, so that a total
    /// order exists over heterogeneous keys. NULL sorts first, mirroring
    /// `NULLS FIRST` semantics.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Text(_) => 4,
            Value::Bytes(_) => 5,
            Value::Timestamp(_) => 6,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

/// Agrees with `Eq`: equal values have one variant and, floats
/// included (total order), one bit pattern.
impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u8(self.type_rank());
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(v) => v.hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Text(s) => s.hash(state),
            Value::Bytes(b) => b.hash(state),
            Value::Timestamp(v) => v.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => write!(f, "x'{} bytes'", b.len()),
            Value::Timestamp(t) => write!(f, "@{t}"),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// A composite index key: an ordered tuple of values.
///
/// Keys compare lexicographically; the component order comes from the
/// index's column list.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Key(pub Vec<Value>);

impl Key {
    /// Build a key from the given columns of a row.
    #[must_use]
    pub fn from_row(row: &[Value], cols: &[usize]) -> Self {
        Key(cols.iter().map(|&c| row[c].clone()).collect())
    }

    /// True if any component is NULL (NULL keys do not participate in
    /// uniqueness checks, as in SQL).
    #[must_use]
    pub fn has_null(&self) -> bool {
        self.0.iter().any(Value::is_null)
    }
}

/// A key looks up by its components: `Key`'s order is its vector's,
/// which is the slice order.
impl std::borrow::Borrow<[Value]> for Key {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl From<Value> for Key {
    fn from(v: Value) -> Self {
        Key(vec![v])
    }
}

impl From<Vec<Value>> for Key {
    fn from(v: Vec<Value>) -> Self {
        Key(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_checks() {
        assert_eq!(Value::Int(3).column_type(), Some(ColumnType::Int));
        assert_eq!(Value::Null.column_type(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Timestamp(5).as_timestamp(), Some(5));
        assert_eq!(Value::Int(7).as_text(), None);
        assert_eq!(Value::Bytes(vec![1, 2]).as_bytes(), Some(&[1u8, 2][..]));
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Text("a".into()) < Value::Text("b".into()));
        assert!(Value::Float(1.0) < Value::Float(1.5));
        assert!(Value::Timestamp(1) < Value::Timestamp(2));
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Text(String::new()));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        let inf = Value::Float(f64::INFINITY);
        // total_cmp puts +NaN above +inf; the point is it does not panic
        // and is consistent.
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(nan > inf);
    }

    #[test]
    fn key_from_row_and_null_detection() {
        let row = vec![Value::Int(1), Value::Null, Value::Text("t".into())];
        let k = Key::from_row(&row, &[0, 2]);
        assert_eq!(k, Key(vec![Value::Int(1), Value::Text("t".into())]));
        assert!(!k.has_null());
        assert!(Key::from_row(&row, &[1]).has_null());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
        assert_eq!(Value::from(Some(4i64)), Value::Int(4));
        assert_eq!(Value::from(None::<i64>), Value::Null);
    }

    #[test]
    fn heap_size_counts_payload() {
        assert_eq!(Value::Text("abcd".into()).heap_size(), 4);
        assert_eq!(Value::Bytes(vec![0; 10]).heap_size(), 10);
        assert_eq!(Value::Int(9).heap_size(), 0);
    }

    #[test]
    fn bytes_not_indexable() {
        assert!(!ColumnType::Bytes.indexable());
        assert!(ColumnType::Text.indexable());
        assert!(ColumnType::Timestamp.indexable());
    }
}
