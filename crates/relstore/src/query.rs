//! Predicate trees, predicate compilation and simple planning helpers.
//!
//! Queries in this engine are programmatic: a [`Predicate`] names
//! columns by string and carries dynamically-typed comparands. Before
//! evaluation it is compiled against a table schema into a [`Compiled`]
//! form that has done *all* per-query work up front, so the per-row
//! inner loop does none of it:
//!
//! * column names resolve to ordinals once;
//! * each comparison leaf picks a **typed comparator** from the
//!   column's declared type (`Int` leaves compare `i64`s, `Text` leaves
//!   compare byte slices, …) instead of re-dispatching on both sides'
//!   runtime types per row;
//! * comparisons that can never vary per row constant-fold at compile
//!   time: a NULL comparand folds to *false* (SQL semantics), and a
//!   comparand of a different type than the column folds to the
//!   constant outcome of [`Value`]'s cross-type rank order (true
//!   becomes a cheap NULL-check, false becomes a `False` leaf);
//! * `And`/`Or` chains flatten into vectors and absorb constant
//!   children.
//!
//! The compiled form evaluates two ways: [`Compiled::eval`] over a
//! decoded `&[Value]` row, and [`Compiled::matches_raw`] directly over
//! an *encoded* row image from a page — no `Value` is materialised, no
//! text or byte payload is copied. The raw path is what
//! [`crate::database::Txn::select`] drives through
//! [`crate::table::Table::scan_encoded`]; the two paths agree exactly
//! (`raw_agrees_with_eval` below, plus the proptest in
//! `tests/scan_equiv.rs`).
//!
//! [`Predicate::eq_binding`] and [`Predicate::range_binding`] find
//! the equality/range conjuncts on a column so `select` can satisfy
//! them from an index instead of a full scan; after an index range scan is chosen,
//! [`Compiled::prune_covered`] drops the conjuncts the scan provably
//! satisfied so candidates are not re-checked against them.

use crate::error::Result;
use crate::pagestore::page::{
    FieldRef, RowScratch, TAG_BOOL, TAG_BYTES, TAG_FLOAT, TAG_INT, TAG_NULL, TAG_TEXT,
    TAG_TIMESTAMP,
};
use crate::schema::TableSchema;
use crate::value::{ColumnType, Value};
use std::cmp::Ordering;

/// A boolean predicate over a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (full scan).
    True,
    /// `column = value`.
    Eq(String, Value),
    /// `column <> value` (NULL-safe: NULL <> x is true only if x not NULL).
    Ne(String, Value),
    /// `column < value`.
    Lt(String, Value),
    /// `column <= value`.
    Le(String, Value),
    /// `column > value`.
    Gt(String, Value),
    /// `column >= value`.
    Ge(String, Value),
    /// Text column contains the given substring.
    Contains(String, String),
    /// `column IS NULL`.
    IsNull(String),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `a AND b` convenience.
    #[must_use]
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `a OR b` convenience.
    #[must_use]
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// `column = value` convenience.
    pub fn eq(col: impl Into<String>, val: impl Into<Value>) -> Predicate {
        Predicate::Eq(col.into(), val.into())
    }

    /// Compile against a schema, resolving column names to ordinals and
    /// picking typed comparators from the declared column types. The
    /// compiled form borrows its text and byte comparands from `self`.
    pub fn compile(&self, schema: &TableSchema) -> Result<Compiled<'_>> {
        let node = self.compile_node(schema)?;
        let width = node.max_col().map_or(0, |c| c + 1);
        Ok(Compiled { node, width })
    }

    fn compile_node(&self, schema: &TableSchema) -> Result<Node<'_>> {
        use Predicate as P;
        Ok(match self {
            P::True => Node::True,
            P::Eq(c, v) => Node::cmp(schema, c, CmpOp::Eq, v)?,
            P::Ne(c, v) => Node::cmp(schema, c, CmpOp::Ne, v)?,
            P::Lt(c, v) => Node::cmp(schema, c, CmpOp::Lt, v)?,
            P::Le(c, v) => Node::cmp(schema, c, CmpOp::Le, v)?,
            P::Gt(c, v) => Node::cmp(schema, c, CmpOp::Gt, v)?,
            P::Ge(c, v) => Node::cmp(schema, c, CmpOp::Ge, v)?,
            P::Contains(c, s) => {
                let col = schema.require_column(c)?;
                // A substring match on a non-text column is false for
                // every row; fold it away.
                if schema.columns[col].ty == ColumnType::Text {
                    Node::Contains(col, s.as_bytes())
                } else {
                    Node::False
                }
            }
            P::IsNull(c) => Node::IsNull(schema.require_column(c)?),
            P::And(a, b) => Node::and2(a.compile_node(schema)?, b.compile_node(schema)?),
            P::Or(a, b) => Node::or2(a.compile_node(schema)?, b.compile_node(schema)?),
            P::Not(a) => match a.compile_node(schema)? {
                Node::True => Node::False,
                Node::False => Node::True,
                n => Node::Not(Box::new(n)),
            },
        })
    }

    /// The value the top-level AND chain binds `col` to by equality
    /// (its last `Eq` leaf on `col`), if any. Used for index selection.
    #[must_use]
    pub fn eq_binding(&self, col: &str) -> Option<&Value> {
        match self {
            Predicate::Eq(c, v) if c == col => Some(v),
            Predicate::And(a, b) => b.eq_binding(col).or_else(|| a.eq_binding(col)),
            _ => None,
        }
    }

    /// The inclusive-hull range the `<`/`<=`/`>`/`>=`/`=` conjuncts of
    /// the top-level AND chain bind `col` to, if any. Strictness is
    /// deliberately dropped (an index range scan over the hull is a
    /// superset; evaluation re-filters), and repeated bounds on the
    /// column tighten the hull. NULL comparands are skipped — SQL
    /// comparison with NULL never matches, so they bound nothing an
    /// index could use.
    #[must_use]
    pub fn range_binding(&self, col: &str) -> Option<ColRange<'_>> {
        let mut range = None;
        self.fold_range(col, &mut range);
        range
    }

    fn fold_range<'a>(&'a self, col: &str, range: &mut Option<ColRange<'a>>) {
        match self.range_leaf() {
            Some((c, lo, hi)) if c == col => {
                range.get_or_insert_with(ColRange::default).tighten(lo, hi);
            }
            Some(_) => {}
            None => {
                if let Predicate::And(a, b) = self {
                    a.fold_range(col, range);
                    b.fold_range(col, range);
                }
            }
        }
    }

    /// The column and bounds of a non-NULL `=`/`<`/`<=`/`>`/`>=` leaf.
    fn range_leaf(&self) -> Option<(&str, Option<&Value>, Option<&Value>)> {
        match self {
            Predicate::Eq(c, v) if !v.is_null() => Some((c, Some(v), Some(v))),
            Predicate::Lt(c, v) | Predicate::Le(c, v) if !v.is_null() => Some((c, None, Some(v))),
            Predicate::Gt(c, v) | Predicate::Ge(c, v) if !v.is_null() => Some((c, Some(v), None)),
            _ => None,
        }
    }
}

/// Inclusive hull of the values a column may take under a predicate's
/// top-level AND chain: `lo <= column <= hi`, either side optionally
/// unbounded. Produced by [`Predicate::range_binding`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ColRange<'a> {
    /// Inclusive lower bound, if any.
    pub lo: Option<&'a Value>,
    /// Inclusive upper bound, if any.
    pub hi: Option<&'a Value>,
}

impl<'a> ColRange<'a> {
    /// Narrow the hull by one conjunct's bounds.
    fn tighten(&mut self, lo: Option<&'a Value>, hi: Option<&'a Value>) {
        if let Some(lo) = lo {
            self.lo = Some(self.lo.map_or(lo, |cur| if lo > cur { lo } else { cur }));
        }
        if let Some(hi) = hi {
            self.hi = Some(self.hi.map_or(hi, |cur| if hi < cur { hi } else { cur }));
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Truth of `cell OP comparand` given `cell.cmp(comparand)`.
    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Cross-type rank of a non-null value; identical to both
/// `Value::type_rank` and the row codec's tag bytes, which is what lets
/// the raw path decide cross-type comparisons from tags alone.
fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => TAG_NULL,
        Value::Bool(_) => TAG_BOOL,
        Value::Int(_) => TAG_INT,
        Value::Float(_) => TAG_FLOAT,
        Value::Text(_) => TAG_TEXT,
        Value::Bytes(_) => TAG_BYTES,
        Value::Timestamp(_) => TAG_TIMESTAMP,
    }
}

fn rank_of_type(t: ColumnType) -> u8 {
    match t {
        ColumnType::Bool => TAG_BOOL,
        ColumnType::Int => TAG_INT,
        ColumnType::Float => TAG_FLOAT,
        ColumnType::Text => TAG_TEXT,
        ColumnType::Bytes => TAG_BYTES,
        ColumnType::Timestamp => TAG_TIMESTAMP,
    }
}

/// A compiled predicate node. Comparison leaves are typed: the
/// comparand is stored unboxed in its native representation (text and
/// byte comparands borrowed from the predicate) and the column ordinal
/// is resolved. `Text` comparands are kept as bytes — `str`'s `Ord` is
/// byte-wise lexicographic, so encoded UTF-8 payloads compare correctly
/// without validation or decoding.
#[derive(Debug, Clone)]
enum Node<'p> {
    True,
    False,
    /// Cheap residue of a conjunct an index scan (or a constant-folded
    /// cross-type comparison) already guarantees for non-null cells.
    NotNull(usize),
    IsNull(usize),
    Bool(usize, CmpOp, bool),
    Int(usize, CmpOp, i64),
    Float(usize, CmpOp, f64),
    Text(usize, CmpOp, &'p [u8]),
    Bytes(usize, CmpOp, &'p [u8]),
    Ts(usize, CmpOp, u64),
    Contains(usize, &'p [u8]),
    And(Vec<Node<'p>>),
    Or(Vec<Node<'p>>),
    Not(Box<Node<'p>>),
}

impl<'p> Node<'p> {
    /// Build a typed comparison leaf, constant-folding NULL and
    /// cross-type comparands.
    fn cmp(schema: &TableSchema, col: &str, op: CmpOp, v: &'p Value) -> Result<Node<'p>> {
        let idx = schema.require_column(col)?;
        if v.is_null() {
            // `cell OP NULL` is false for every row.
            return Ok(Node::False);
        }
        let decl = schema.columns[idx].ty;
        Ok(match (decl, v) {
            (ColumnType::Bool, Value::Bool(b)) => Node::Bool(idx, op, *b),
            (ColumnType::Int, Value::Int(i)) => Node::Int(idx, op, *i),
            (ColumnType::Float, Value::Float(x)) => Node::Float(idx, op, *x),
            (ColumnType::Text, Value::Text(s)) => Node::Text(idx, op, s.as_bytes()),
            (ColumnType::Bytes, Value::Bytes(b)) => Node::Bytes(idx, op, b),
            (ColumnType::Timestamp, Value::Timestamp(t)) => Node::Ts(idx, op, *t),
            _ => {
                // Mismatched types: every non-null cell compares to the
                // comparand by type rank, so the outcome is fixed at
                // compile time; only the NULL check survives per row.
                if op.test(rank_of_type(decl).cmp(&rank(v))) {
                    Node::NotNull(idx)
                } else {
                    Node::False
                }
            }
        })
    }

    /// `a AND b`, flattening chains and absorbing constants.
    fn and2(a: Node<'p>, b: Node<'p>) -> Node<'p> {
        let mut kids = Vec::new();
        for n in [a, b] {
            match n {
                Node::True => {}
                Node::False => return Node::False,
                Node::And(mut inner) => kids.append(&mut inner),
                n => kids.push(n),
            }
        }
        match kids.len() {
            0 => Node::True,
            1 => kids.pop().expect("len checked"),
            _ => Node::And(kids),
        }
    }

    /// `a OR b`, flattening chains and absorbing constants.
    fn or2(a: Node<'p>, b: Node<'p>) -> Node<'p> {
        let mut kids = Vec::new();
        for n in [a, b] {
            match n {
                Node::False => {}
                Node::True => return Node::True,
                Node::Or(mut inner) => kids.append(&mut inner),
                n => kids.push(n),
            }
        }
        match kids.len() {
            0 => Node::False,
            1 => kids.pop().expect("len checked"),
            _ => Node::Or(kids),
        }
    }

    /// Highest column ordinal referenced, if any.
    fn max_col(&self) -> Option<usize> {
        match self {
            Node::True | Node::False => None,
            Node::NotNull(c)
            | Node::IsNull(c)
            | Node::Bool(c, _, _)
            | Node::Int(c, _, _)
            | Node::Float(c, _, _)
            | Node::Text(c, _, _)
            | Node::Bytes(c, _, _)
            | Node::Ts(c, _, _)
            | Node::Contains(c, _) => Some(*c),
            Node::And(kids) | Node::Or(kids) => kids.iter().filter_map(Node::max_col).max(),
            Node::Not(a) => a.max_col(),
        }
    }

    /// Column and operator of a typed comparison leaf.
    fn leaf(&self) -> Option<(usize, CmpOp)> {
        match self {
            Node::Bool(c, op, _)
            | Node::Int(c, op, _)
            | Node::Float(c, op, _)
            | Node::Text(c, op, _)
            | Node::Bytes(c, op, _)
            | Node::Ts(c, op, _) => Some((*c, *op)),
            _ => None,
        }
    }

    /// `v` against a comparison leaf's comparand under [`Value`]'s
    /// total order (a bound of another type compares by type rank), so
    /// cross-type hull bounds compare as `range_binding` compared
    /// them. Only called on leaves.
    fn comparand_cmp(&self, v: &Value) -> Ordering {
        match (self, v) {
            (Node::Bool(_, _, k), Value::Bool(x)) => x.cmp(k),
            (Node::Int(_, _, k), Value::Int(x)) => x.cmp(k),
            (Node::Float(_, _, k), Value::Float(x)) => x.total_cmp(k),
            (Node::Text(_, _, k), Value::Text(x)) => x.as_bytes().cmp(k),
            (Node::Bytes(_, _, k), Value::Bytes(x)) => x[..].cmp(k),
            (Node::Ts(_, _, k), Value::Timestamp(x)) => x.cmp(k),
            (n, v) => rank(v).cmp(&n.rank()),
        }
    }

    /// Type rank of a comparison leaf's comparand.
    fn rank(&self) -> u8 {
        match self {
            Node::Bool(..) => TAG_BOOL,
            Node::Int(..) => TAG_INT,
            Node::Float(..) => TAG_FLOAT,
            Node::Text(..) => TAG_TEXT,
            Node::Bytes(..) => TAG_BYTES,
            Node::Ts(..) => TAG_TIMESTAMP,
            _ => unreachable!("only comparison leaves have a comparand"),
        }
    }

    /// Evaluate over a decoded row. Matches the raw path exactly: NULL
    /// cells fail every comparison, cross-type cells (possible only
    /// through `eval` on hand-built rows) compare by rank.
    fn eval(&self, row: &[Value]) -> bool {
        match self {
            Node::True => true,
            Node::False => false,
            Node::NotNull(c) => !row[*c].is_null(),
            Node::IsNull(c) => row[*c].is_null(),
            Node::Bool(c, op, k) => match &row[*c] {
                Value::Null => false,
                Value::Bool(x) => op.test(x.cmp(k)),
                other => op.test(rank(other).cmp(&TAG_BOOL)),
            },
            Node::Int(c, op, k) => match &row[*c] {
                Value::Null => false,
                Value::Int(x) => op.test(x.cmp(k)),
                other => op.test(rank(other).cmp(&TAG_INT)),
            },
            Node::Float(c, op, k) => match &row[*c] {
                Value::Null => false,
                Value::Float(x) => op.test(x.total_cmp(k)),
                other => op.test(rank(other).cmp(&TAG_FLOAT)),
            },
            Node::Text(c, op, k) => match &row[*c] {
                Value::Null => false,
                Value::Text(x) => op.test(x.as_bytes().cmp(k)),
                other => op.test(rank(other).cmp(&TAG_TEXT)),
            },
            Node::Bytes(c, op, k) => match &row[*c] {
                Value::Null => false,
                Value::Bytes(x) => op.test(x[..].cmp(k)),
                other => op.test(rank(other).cmp(&TAG_BYTES)),
            },
            Node::Ts(c, op, k) => match &row[*c] {
                Value::Null => false,
                Value::Timestamp(x) => op.test(x.cmp(k)),
                other => op.test(rank(other).cmp(&TAG_TIMESTAMP)),
            },
            Node::Contains(c, needle) => row[*c]
                .as_text()
                .is_some_and(|t| contains_bytes(t.as_bytes(), needle)),
            Node::And(kids) => kids.iter().all(|k| k.eval(row)),
            Node::Or(kids) => kids.iter().any(|k| k.eval(row)),
            Node::Not(a) => !a.eval(row),
        }
    }

    /// Evaluate over an encoded row image whose leading fields have
    /// been walked into `scratch`.
    fn eval_raw(&self, bytes: &[u8], scratch: &RowScratch) -> bool {
        #[inline]
        fn payload(bytes: &[u8], f: FieldRef) -> &[u8] {
            &bytes[f.start..f.end]
        }
        match self {
            Node::True => true,
            Node::False => false,
            Node::NotNull(c) => scratch.field(*c).tag != TAG_NULL,
            Node::IsNull(c) => scratch.field(*c).tag == TAG_NULL,
            Node::Bool(c, op, k) => {
                let f = scratch.field(*c);
                match f.tag {
                    TAG_NULL => false,
                    TAG_BOOL => op.test((payload(bytes, f)[0] != 0).cmp(k)),
                    t => op.test(t.cmp(&TAG_BOOL)),
                }
            }
            Node::Int(c, op, k) => {
                let f = scratch.field(*c);
                match f.tag {
                    TAG_NULL => false,
                    TAG_INT => {
                        let x = i64::from_le_bytes(payload(bytes, f).try_into().unwrap());
                        op.test(x.cmp(k))
                    }
                    t => op.test(t.cmp(&TAG_INT)),
                }
            }
            Node::Float(c, op, k) => {
                let f = scratch.field(*c);
                match f.tag {
                    TAG_NULL => false,
                    TAG_FLOAT => {
                        let x = f64::from_le_bytes(payload(bytes, f).try_into().unwrap());
                        op.test(x.total_cmp(k))
                    }
                    t => op.test(t.cmp(&TAG_FLOAT)),
                }
            }
            Node::Text(c, op, k) => {
                let f = scratch.field(*c);
                match f.tag {
                    TAG_NULL => false,
                    // UTF-8 compares byte-wise exactly like `str`.
                    TAG_TEXT => op.test(payload(bytes, f).cmp(k)),
                    t => op.test(t.cmp(&TAG_TEXT)),
                }
            }
            Node::Bytes(c, op, k) => {
                let f = scratch.field(*c);
                match f.tag {
                    TAG_NULL => false,
                    TAG_BYTES => op.test(payload(bytes, f).cmp(k)),
                    t => op.test(t.cmp(&TAG_BYTES)),
                }
            }
            Node::Ts(c, op, k) => {
                let f = scratch.field(*c);
                match f.tag {
                    TAG_NULL => false,
                    TAG_TIMESTAMP => {
                        let x = u64::from_le_bytes(payload(bytes, f).try_into().unwrap());
                        op.test(x.cmp(k))
                    }
                    t => op.test(t.cmp(&TAG_TIMESTAMP)),
                }
            }
            Node::Contains(c, needle) => {
                let f = scratch.field(*c);
                // UTF-8 is self-synchronizing: a byte-level substring
                // hit is always a character-level hit.
                f.tag == TAG_TEXT && contains_bytes(payload(bytes, f), needle)
            }
            Node::And(kids) => kids.iter().all(|k| k.eval_raw(bytes, scratch)),
            Node::Or(kids) => kids.iter().any(|k| k.eval_raw(bytes, scratch)),
            Node::Not(a) => !a.eval_raw(bytes, scratch),
        }
    }
}

/// Byte-level substring search, matching `str::contains` for UTF-8
/// haystacks and needles.
fn contains_bytes(hay: &[u8], needle: &[u8]) -> bool {
    needle.is_empty() || hay.windows(needle.len()).any(|w| w == needle)
}

/// A predicate compiled against one table's schema. See the module docs
/// for what compilation precomputes.
#[derive(Debug, Clone)]
pub struct Compiled<'p> {
    node: Node<'p>,
    /// Leading fields a raw evaluation must walk: max referenced column
    /// ordinal + 1.
    width: usize,
}

impl Compiled<'_> {
    /// Evaluate against a decoded row. NULL comparisons follow SQL-ish
    /// semantics: any comparison with NULL is false, except `IsNull`.
    #[must_use]
    pub fn eval(&self, row: &[Value]) -> bool {
        self.node.eval(row)
    }

    /// Evaluate against an *encoded* row image (see
    /// [`crate::pagestore::page::encode_row`]) without decoding it.
    /// `scratch` is reusable walk state; pass the same instance for
    /// every row of a scan. Agrees exactly with [`Compiled::eval`] on
    /// the decoded row; errors only on malformed images.
    pub fn matches_raw(&self, bytes: &[u8], scratch: &mut RowScratch) -> Result<bool> {
        scratch.load(bytes, self.width)?;
        Ok(self.node.eval_raw(bytes, scratch))
    }

    /// Ensure raw evaluation walks at least the first `width` fields,
    /// so a caller can read extra fields from the scratch after
    /// [`Compiled::matches_raw`] returns (e.g. an aggregated column).
    pub fn widen(&mut self, width: usize) {
        self.width = self.width.max(width);
    }

    /// Drop top-level AND conjuncts on column `col` that an index range
    /// scan over the inclusive hull `[lo, hi]` (the *applied* scan
    /// bounds, from [`Predicate::range_binding`]) provably satisfies:
    /// `Ge(col, v)` with `lo >= v`, `Le(col, v)` with `hi <= v`, and
    /// `Eq(col, v)` with `lo == hi == v`. Strict bounds are never
    /// dropped — the hull is inclusive, so the scan over-approximates
    /// them.
    ///
    /// Each covered conjunct is replaced by a NULL check rather than
    /// `True`: a scan whose lower bound is unbounded starts before the
    /// NULL keys (NULL sorts first), and a comparison is false for a
    /// NULL cell even when the scan guarantee holds for every non-null
    /// one. Returns how many conjuncts were covered.
    pub fn prune_covered(&mut self, col: usize, lo: Option<&Value>, hi: Option<&Value>) -> usize {
        fn covered(n: &Node<'_>, col: usize, lo: Option<&Value>, hi: Option<&Value>) -> bool {
            let Some((c, op)) = n.leaf() else {
                return false;
            };
            if c != col {
                return false;
            }
            let vs = |b: &Value| n.comparand_cmp(b);
            match op {
                CmpOp::Ge => lo.is_some_and(|l| vs(l).is_ge()),
                CmpOp::Le => hi.is_some_and(|h| vs(h).is_le()),
                CmpOp::Eq => lo.is_some_and(|l| vs(l).is_eq()) && hi.is_some_and(|h| vs(h).is_eq()),
                _ => false,
            }
        }
        let mut pruned = 0;
        let mut replace = |n: &mut Node| {
            if covered(n, col, lo, hi) {
                let c = n.max_col().expect("covered nodes reference a column");
                *n = Node::NotNull(c);
                pruned += 1;
            }
        };
        match &mut self.node {
            Node::And(kids) => kids.iter_mut().for_each(&mut replace),
            root => replace(root),
        }
        pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagestore::page::encode_row;
    use crate::schema::TableSchema;
    use crate::value::ColumnType;

    fn schema() -> TableSchema {
        TableSchema::builder("t")
            .column("id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .nullable_column("score", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    fn row(id: i64, name: &str, score: Option<i64>) -> Vec<Value> {
        vec![Value::Int(id), Value::from(name), Value::from(score)]
    }

    #[test]
    fn eq_and_range() {
        let s = schema();
        let p = Predicate::eq("id", 3i64);
        let p = p.compile(&s).unwrap();
        assert!(p.eval(&row(3, "x", None)));
        assert!(!p.eval(&row(4, "x", None)));

        let p = Predicate::Ge("id".into(), Value::Int(3))
            .and(Predicate::Lt("id".into(), Value::Int(5)));
        let p = p.compile(&s).unwrap();
        assert!(p.eval(&row(3, "x", None)));
        assert!(p.eval(&row(4, "x", None)));
        assert!(!p.eval(&row(5, "x", None)));
    }

    #[test]
    fn contains_and_or_not() {
        let s = schema();
        let p = Predicate::Contains("name".into(), "web".into()).or(Predicate::eq("id", 1i64));
        let p = p.compile(&s).unwrap();
        assert!(p.eval(&row(9, "my web doc", None)));
        assert!(p.eval(&row(1, "zzz", None)));
        assert!(!p.eval(&row(2, "zzz", None)));

        let p = Predicate::Not(Box::new(Predicate::eq("id", 1i64)));
        let p = p.compile(&s).unwrap();
        assert!(p.eval(&row(2, "x", None)));
        assert!(!p.eval(&row(1, "x", None)));
    }

    #[test]
    fn null_semantics() {
        let s = schema();
        let p = Predicate::eq("score", 5i64);
        let p = p.compile(&s).unwrap();
        assert!(!p.eval(&row(1, "x", None))); // NULL = 5 is false
        let p = Predicate::Ne("score".into(), Value::Int(5));
        let p = p.compile(&s).unwrap();
        assert!(!p.eval(&row(1, "x", None))); // NULL <> 5 is false too
        let p = Predicate::IsNull("score".into());
        let p = p.compile(&s).unwrap();
        assert!(p.eval(&row(1, "x", None)));
        assert!(!p.eval(&row(1, "x", Some(5))));
    }

    #[test]
    fn unknown_column_errors() {
        let s = schema();
        assert!(Predicate::eq("nope", 1i64).compile(&s).is_err());
    }

    #[test]
    fn eq_bindings_from_and_chain() {
        let p = Predicate::eq("a", 1i64)
            .and(Predicate::eq("b", "x").and(Predicate::Gt("c".into(), Value::Int(0))));
        assert_eq!(p.eq_binding("a"), Some(&Value::Int(1)));
        assert_eq!(p.eq_binding("b"), Some(&Value::from("x")));
        assert_eq!(p.eq_binding("c"), None);
        // The last of two bindings of one column counts.
        let p = p.and(Predicate::eq("a", 2i64));
        assert_eq!(p.eq_binding("a"), Some(&Value::Int(2)));
        // Or-branches contribute nothing.
        let p = Predicate::eq("a", 1i64).or(Predicate::eq("b", 2i64));
        assert_eq!((p.eq_binding("a"), p.eq_binding("b")), (None, None));
    }

    #[test]
    fn cross_type_comparand_folds_to_constant() {
        let s = schema();
        // Text comparand on an Int column: rank(Int) < rank(Text), so
        // `id < "z"` is true for every non-null id and `id > "z"` for
        // none; `id = "z"` never holds and `id <> "z"` always does.
        let lt = Predicate::Lt("id".into(), Value::from("z"));
        let lt = lt.compile(&s).unwrap();
        let gt = Predicate::Gt("id".into(), Value::from("z"));
        let gt = gt.compile(&s).unwrap();
        let eq = Predicate::Eq("id".into(), Value::from("z"));
        let eq = eq.compile(&s).unwrap();
        let ne = Predicate::Ne("id".into(), Value::from("z"));
        let ne = ne.compile(&s).unwrap();
        let r = row(1, "x", None);
        assert!(lt.eval(&r));
        assert!(!gt.eval(&r));
        assert!(!eq.eval(&r));
        assert!(ne.eval(&r));
        // On a nullable column the NULL check survives the fold.
        let ne_null = Predicate::Ne("score".into(), Value::from("z"));
        let ne_null = ne_null.compile(&s).unwrap();
        assert!(!ne_null.eval(&row(1, "x", None)));
        assert!(ne_null.eval(&row(1, "x", Some(3))));
        // NULL comparand folds to false outright.
        let p = Predicate::Eq("id".into(), Value::Null);
        let p = p.compile(&s).unwrap();
        assert!(!p.eval(&row(1, "x", Some(1))));
    }

    #[test]
    fn raw_agrees_with_eval() {
        let s = schema();
        let preds = [
            Predicate::True,
            Predicate::eq("id", 2i64),
            Predicate::Ne("name".into(), Value::from("beta")),
            Predicate::Lt("id".into(), Value::Int(3)),
            Predicate::Ge("score".into(), Value::Int(10)),
            Predicate::Contains("name".into(), "et".into()),
            Predicate::Contains("name".into(), String::new()),
            Predicate::IsNull("score".into()),
            Predicate::eq("id", 1i64).and(Predicate::Gt("score".into(), Value::Int(5))),
            Predicate::eq("name", "alpha").or(Predicate::Le("id".into(), Value::Int(1))),
            Predicate::Not(Box::new(Predicate::eq("id", 2i64))),
            Predicate::Lt("id".into(), Value::from("z")), // cross-type fold
        ];
        let rows = [
            row(1, "alpha", Some(10)),
            row(2, "beta", None),
            row(3, "gamma", Some(4)),
            row(4, "", Some(11)),
        ];
        let mut scratch = RowScratch::default();
        for p in &preds {
            let c = p.compile(&s).unwrap();
            for r in &rows {
                let bytes = encode_row(r);
                assert_eq!(
                    c.matches_raw(&bytes, &mut scratch).unwrap(),
                    c.eval(r),
                    "raw/eval disagree on {p:?} over {r:?}"
                );
            }
        }
    }

    #[test]
    fn matches_raw_rejects_short_rows() {
        let s = schema();
        let c = Predicate::IsNull("score".into());
        let c = c.compile(&s).unwrap();
        let short = encode_row(&[Value::Int(1)]);
        let mut scratch = RowScratch::default();
        assert!(c.matches_raw(&short, &mut scratch).is_err());
    }

    #[test]
    fn prune_covered_drops_satisfied_range_conjuncts() {
        let s = schema();
        let pred = Predicate::Ge("id".into(), Value::Int(3))
            .and(Predicate::Le("id".into(), Value::Int(7)))
            .and(Predicate::Gt("score".into(), Value::Int(0)));
        let mut c = pred.compile(&s).unwrap();
        let (lo, hi) = (Value::Int(3), Value::Int(7));
        // The scan hull [3, 7] covers both inclusive id conjuncts; the
        // score conjunct is on another column and must survive.
        assert_eq!(c.prune_covered(0, Some(&lo), Some(&hi)), 2);
        assert!(c.eval(&row(5, "x", Some(1))));
        assert!(!c.eval(&row(5, "x", Some(0))));
        // Re-pruning finds nothing new.
        assert_eq!(c.prune_covered(0, Some(&lo), Some(&hi)), 0);

        // A *wider* hull than the conjunct does not cover it.
        let mut c = pred.compile(&s).unwrap();
        let wide_lo = Value::Int(1);
        assert_eq!(c.prune_covered(0, Some(&wide_lo), Some(&hi)), 1);

        // Strict bounds are never pruned: hulls are inclusive.
        let c = Predicate::Gt("id".into(), Value::Int(3));
        let mut c = c.compile(&s).unwrap();
        assert_eq!(c.prune_covered(0, Some(&lo), None), 0);
        assert!(!c.eval(&row(3, "x", None)));

        // An Eq conjunct is covered only by a point hull.
        let c = Predicate::eq("id", 4i64);
        let mut c = c.compile(&s).unwrap();
        let point = Value::Int(4);
        assert_eq!(c.prune_covered(0, Some(&point), Some(&point)), 1);
        assert!(c.eval(&row(4, "x", None)));

        // A pruned conjunct on a nullable column still rejects NULLs
        // (matters when the scan's lower bound is unbounded).
        let c = Predicate::Le("score".into(), Value::Int(9));
        let mut c = c.compile(&s).unwrap();
        let h = Value::Int(9);
        assert_eq!(c.prune_covered(2, None, Some(&h)), 1);
        assert!(!c.eval(&row(1, "x", None)));
        assert!(c.eval(&row(1, "x", Some(4))));
    }
}
