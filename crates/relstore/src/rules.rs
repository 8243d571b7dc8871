//! The relational rules, written once.
//!
//! The paper's station enforces its referential-integrity diagram in
//! one place — the RDBMS under it. This module is that place for the
//! reproduction: every rule whose outcome must not depend on *which*
//! engine (strict 2PL, MVCC) or router runs it lives here, and the
//! implementations call in with their own reads and writes.
//!
//! * Derived query shapes — [`order_and_limit`] and [`hash_join`] —
//!   are pure functions fed by the caller's own `select`.
//! * Write-path helpers shared with the shard router:
//!   [`changed_columns`] and [`overlay_cols`] (row validation is
//!   [`TableSchema::check_row`]).
//! * The foreign-key policy — ON DELETE RESTRICT / CASCADE / SET NULL
//!   (`enforce_delete`), and for updates the changed-column filter on
//!   forward keys plus key-change RESTRICT (`enforce_update`) — is
//!   crate-private: it runs over `RuleTxn`, the few primitives each
//!   engine supplies from its own view of the data (locks and page
//!   reads under 2PL, snapshot + write-set overlay under MVCC).
//! * The access-path planner (`plan`, crate-private) picks, for a
//!   predicate over a table's indexes, an index probe, an index range
//!   scan or a full scan — the one choice under both engines' reads.
//!
//! The functions are generic and inlined into each engine: none of
//! this sits behind a `dyn` call on a per-row path.

use crate::error::{Error, Result};
use crate::pagestore::page::RowScratch;
use crate::query::{ColRange, Predicate};
use crate::schema::{FkAction, ForeignKey, IndexDef, TableSchema, PRIMARY_INDEX};
use crate::table::{Index, Row, RowId};
use crate::value::{Key, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Stable-sort `rows` by column `col` (ascending or descending, NULLs
/// first) and truncate to `limit`. Ties keep the input order, which
/// every `select` delivers id-ascending.
#[must_use]
pub fn order_and_limit(
    mut rows: Vec<(RowId, Row)>,
    col: usize,
    descending: bool,
    limit: Option<usize>,
) -> Vec<(RowId, Row)> {
    rows.sort_by(|(_, a), (_, b)| {
        let ord = a[col].cmp(&b[col]);
        if descending {
            ord.reverse()
        } else {
            ord
        }
    });
    if let Some(n) = limit {
        rows.truncate(n);
    }
    rows
}

/// Equi-join of two already-filtered sides on `left[lcol] =
/// right[rcol]`: left-major output, right matches in input order, NULL
/// keys never join (SQL semantics). `Value` is `Ord`, not `Hash` —
/// floats use total order — so a `BTreeMap` serves as the join table.
#[must_use]
pub fn hash_join(
    left: &[(RowId, Row)],
    lcol: usize,
    right: &[(RowId, Row)],
    rcol: usize,
) -> Vec<(Row, Row)> {
    let mut table: BTreeMap<&Value, Vec<&Row>> = BTreeMap::new();
    for (_, row) in right {
        if !row[rcol].is_null() {
            table.entry(&row[rcol]).or_default().push(row);
        }
    }
    let mut out = Vec::new();
    for (_, lrow) in left {
        if lrow[lcol].is_null() {
            continue;
        }
        if let Some(matches) = table.get(&lrow[lcol]) {
            for rrow in matches {
                out.push((lrow.clone(), (*rrow).clone()));
            }
        }
    }
    out
}

/// Names of the columns whose value differs between `old` and `new`
/// (both already valid for `schema`).
#[must_use]
pub fn changed_columns<'s>(schema: &'s TableSchema, old: &[Value], new: &[Value]) -> Vec<&'s str> {
    (0..old.len())
        .filter(|&i| old[i] != new[i])
        .map(|i| schema.columns[i].name.as_str())
        .collect()
}

/// `row` with the named columns replaced — the image `update_cols`
/// hands to a full `update`. Unknown names are [`Error::NoSuchColumn`].
pub fn overlay_cols(schema: &TableSchema, mut row: Row, cols: &[(&str, Value)]) -> Result<Row> {
    for (name, value) in cols {
        let ix = schema.require_column(name)?;
        row[ix] = value.clone();
    }
    Ok(row)
}

/// What the foreign-key policy needs from a transaction. Each engine
/// answers from its own effective view and takes whatever locks its
/// protocol requires while doing so.
pub(crate) trait RuleTxn {
    /// `(referencing table, fk)` pairs targeting `table`, in
    /// table-creation order — the order checks and cascades observe.
    fn referrers_of(&self, table: &str) -> Vec<(String, ForeignKey)>;
    /// Rows of `rtable` whose `fk.columns` equal `key`, id-ascending.
    fn find_referencing(&self, rtable: &str, fk: &ForeignKey, key: &Key) -> Result<Vec<RowId>>;
    /// Every non-NULL key of `row` under `fks` must hit a referenced row.
    fn check_forward_fks(&self, table: &str, fks: &[ForeignKey], row: &[Value]) -> Result<()>;
    /// The engine's full `delete` verb (cascades recurse through it).
    fn delete(&self, table: &str, id: RowId) -> Result<()>;
    /// The engine's full `update_cols` verb (SET NULL goes through it).
    fn update_cols(&self, table: &str, id: RowId, cols: &[(&str, Value)]) -> Result<()>;
}

/// Rows of `rtable` referencing `old` through `fk` — none when the
/// referenced key holds a NULL (such a key is referenced by nothing).
fn referencing<T: RuleTxn>(
    txn: &T,
    schema: &TableSchema,
    old: &[Value],
    rtable: &str,
    fk: &ForeignKey,
) -> Result<Vec<RowId>> {
    let ref_cols = schema.resolve_columns(&fk.ref_columns)?;
    let key = Key::from_row(old, &ref_cols);
    if key.has_null() {
        return Ok(Vec::new());
    }
    txn.find_referencing(rtable, fk, &key)
}

/// Apply the ON DELETE policy of every foreign key referencing `old`
/// (the row of `table` about to be deleted): RESTRICT refuses, CASCADE
/// deletes the referencing rows first, SET NULL nulls their columns.
#[inline]
pub(crate) fn enforce_delete<T: RuleTxn>(
    txn: &T,
    table: &str,
    schema: &TableSchema,
    old: &[Value],
) -> Result<()> {
    for (rtable, fk) in txn.referrers_of(table) {
        let hits = referencing(txn, schema, old, &rtable, &fk)?;
        if hits.is_empty() {
            continue;
        }
        match fk.on_delete {
            FkAction::Restrict => {
                return Err(Error::RestrictViolation {
                    table: table.to_owned(),
                    referenced_by: rtable,
                });
            }
            FkAction::Cascade => {
                for hit in hits {
                    // The referencing row may already be gone if a
                    // previous cascade in this very delete removed it.
                    match txn.delete(&rtable, hit) {
                        Ok(()) | Err(Error::NoSuchRow { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
            FkAction::SetNull => {
                let nulls: Vec<(&str, Value)> = fk
                    .columns
                    .iter()
                    .map(|c| (c.as_str(), Value::Null))
                    .collect();
                for hit in hits {
                    txn.update_cols(&rtable, hit, &nulls)?;
                }
            }
        }
    }
    Ok(())
}

/// The foreign-key checks of replacing `old` with `new` in `table`:
/// forward keys are re-checked only where one of their columns
/// changed, and changing a referenced key is refused while referencing
/// rows exist (ON UPDATE actions are not supported) — looked up only
/// when a primary-key or unique-index column changed, the only keys a
/// foreign key may target (`check_fk_targets`).
#[inline]
pub(crate) fn enforce_update<T: RuleTxn>(
    txn: &T,
    table: &str,
    schema: &TableSchema,
    old: &[Value],
    new: &[Value],
) -> Result<()> {
    let changed = |c: &String| schema.column_index(c).is_some_and(|i| old[i] != new[i]);
    let touches = |cols: &[String]| cols.iter().any(changed);
    let affected: Vec<ForeignKey> = schema
        .foreign_keys
        .iter()
        .filter(|fk| touches(&fk.columns))
        .cloned()
        .collect();
    if !affected.is_empty() {
        txn.check_forward_fks(table, &affected, new)?;
    }
    let unique = |ix: &IndexDef| ix.unique && touches(&ix.columns);
    if !touches(&schema.primary_key) && !schema.indexes.iter().any(unique) {
        return Ok(());
    }
    for (rtable, fk) in txn.referrers_of(table) {
        if touches(&fk.ref_columns) && !referencing(txn, schema, old, &rtable, &fk)?.is_empty() {
            return Err(Error::RestrictViolation {
                table: table.to_owned(),
                referenced_by: rtable,
            });
        }
    }
    Ok(())
}

/// Whether `cols` (as a set) is the primary key or a unique index of
/// `schema` — what a foreign key may reference.
fn unique_key_exists(schema: &TableSchema, cols: &[String]) -> bool {
    fn sorted(names: &[String]) -> Vec<&str> {
        let mut v: Vec<&str> = names.iter().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
    let want = sorted(cols);
    sorted(&schema.primary_key) == want
        || schema
            .indexes
            .iter()
            .any(|ix| ix.unique && sorted(&ix.columns) == want)
}

/// CREATE-time rule: every foreign key of `schema` references a unique
/// key of an existing table (or of `schema` itself). `schema_of` looks
/// other tables up in the engine's catalog.
pub(crate) fn check_fk_targets(
    schema: &TableSchema,
    schema_of: impl Fn(&str) -> Option<TableSchema>,
) -> Result<()> {
    for fk in &schema.foreign_keys {
        let ok = if fk.ref_table == schema.name {
            unique_key_exists(schema, &fk.ref_columns)
        } else {
            let target =
                schema_of(&fk.ref_table).ok_or_else(|| Error::NoSuchTable(fk.ref_table.clone()))?;
            unique_key_exists(&target, &fk.ref_columns)
        };
        if !ok {
            return Err(Error::BadSchema(format!(
                "foreign key on `{}` references `{}({:?})` which is not a unique key",
                schema.name, fk.ref_table, fk.ref_columns
            )));
        }
    }
    Ok(())
}

/// Where a forward foreign-key probe looks: the position (engine index
/// order — primary first, then declared) of the unique index of
/// `schema` covering exactly the column *set* `declared`, and `key`
/// (whose components follow `declared` order) rebuilt in that index's
/// own column order.
pub(crate) fn fk_target(
    schema: &TableSchema,
    indexes: &[Index],
    declared: &[String],
    key: &Key,
) -> Result<(usize, Key)> {
    let mut want = schema.resolve_columns(declared)?;
    want.sort_unstable();
    for (pos, ix) in indexes.iter().enumerate() {
        let mut have = ix.columns().to_vec();
        have.sort_unstable();
        if !ix.is_unique() || have != want {
            continue;
        }
        let lookup = ix
            .columns()
            .iter()
            .map(|&ci| {
                let name = &schema.columns[ci].name;
                let at = declared.iter().position(|d| d == name);
                at.map(|at| key.0[at].clone())
                    .ok_or_else(|| Error::NoSuchColumn {
                        table: schema.name.clone(),
                        column: name.clone(),
                    })
            })
            .collect::<Result<Vec<Value>>>()?;
        return Ok((pos, Key(lookup)));
    }
    Err(Error::NoSuchIndex {
        table: schema.name.clone(),
        index: PRIMARY_INDEX.to_owned(),
    })
}

/// `cols[i] = key[i]` for every `i`, as one AND chain: the predicate a
/// key lookup hands to [`plan`].
pub(crate) fn key_predicate(cols: &[String], key: &Key) -> Predicate {
    cols.iter().zip(&key.0).fold(Predicate::True, |p, (c, v)| {
        p.and(Predicate::Eq(c.clone(), v.clone()))
    })
}

/// How a read reaches the rows a predicate can match.
pub(crate) enum AccessPath<'p> {
    /// Every column of `indexes[ix]` is bound by equality: probe `key`
    /// (borrowed from the predicate for a one-column index).
    IndexProbe { ix: usize, key: Cow<'p, [Value]> },
    /// The first column of `indexes[ix]` is bounded: scan the inclusive
    /// hull `range` of that column.
    IndexRange { ix: usize, range: ColRange<'p> },
    /// No index helps: visit every row.
    FullScan,
}

/// The access path for `pred` over a table whose indexes are `indexes`
/// (primary first): the first index every column of which is bound by
/// equality in the predicate's top-level AND chain; failing that, the
/// first index whose *first* column has a `<`/`<=`/`>`/`>=`/`=` bound
/// there; else a full scan. Both engines' `select`, `count`, `sum_int`
/// and `find_referencing` ask this one question.
pub(crate) fn plan<'p>(
    schema: &TableSchema,
    indexes: &[Index],
    pred: &'p Predicate,
) -> AccessPath<'p> {
    let bound = |c: usize| pred.eq_binding(&schema.columns[c].name);
    for (ix, index) in indexes.iter().enumerate() {
        let key = match index.columns() {
            &[c] => bound(c).map(|v| Cow::Borrowed(std::slice::from_ref(v))),
            cols => cols
                .iter()
                .map(|&c| bound(c).cloned())
                .collect::<Option<Vec<Value>>>()
                .map(Cow::Owned),
        };
        if let Some(key) = key {
            return AccessPath::IndexProbe { ix, key };
        }
    }
    for (ix, index) in indexes.iter().enumerate() {
        let first = index.columns().first();
        if let Some(range) = first.and_then(|&c| pred.range_binding(&schema.columns[c].name)) {
            return AccessPath::IndexRange { ix, range };
        }
    }
    AccessPath::FullScan
}

impl AccessPath<'_> {
    /// Fill `ids` with the row ids the path reaches in `indexes`, or
    /// return `false` for a full scan. Under MVCC an id may appear once
    /// per retained version key, so callers that need a set sort and
    /// dedup.
    pub(crate) fn candidates(&self, indexes: &[Index], ids: &mut Vec<RowId>) -> bool {
        ids.clear();
        match self {
            AccessPath::IndexProbe { ix, key } => ids.extend(indexes[*ix].ids(key)),
            AccessPath::IndexRange { ix, range } => {
                indexes[*ix].scan_first_column_into(range.lo, range.hi, ids);
            }
            AccessPath::FullScan => return false,
        }
        true
    }
}

/// What a read keeps from one scan to the next within a transaction,
/// so a select allocates nothing beyond its result: the candidate ids
/// and the field table of the row under test.
#[derive(Debug, Default)]
pub(crate) struct ScanBufs {
    pub(crate) ids: Vec<RowId>,
    pub(crate) scratch: RowScratch,
}
