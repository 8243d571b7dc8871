//! Cross-engine differential test harness.
//!
//! The headline deliverable of the engine abstraction is the proof that
//! the MVCC engine is observably equivalent to the 2PL engine on every
//! *sequential* workload: identical results, identical errors,
//! identical row-id allocation, identical committed state at every
//! commit point. This module provides the machinery that proof runs on:
//!
//! * [`standard_schemas`] — a three-table catalog exercising primary
//!   keys, a nullable unique secondary index, and foreign keys with
//!   CASCADE and SET NULL actions;
//! * [`run_differential`] — a deterministic interpreter that turns a
//!   flat decision vector into an op script (insert / update /
//!   update-cols / delete / select / count / sum / commit / abort) and
//!   applies it to **both engines in lockstep**, comparing the outcome
//!   of every single operation and the full committed state (snapshots,
//!   row counts, heap bytes, and a select battery) at every commit and
//!   abort point;
//! * [`run_tape`] — the same idea over any two [`TapeTarget`]s, which
//!   is how a [`Router`] is held to a single engine;
//! * [`backend_contract`] — the clauses every [`DocBackend`] honours.
//!
//! The decision-vector encoding is what makes property tests shrink
//! well: `proptest` shrinks the `Vec<u32>` and the interpreter maps any
//! prefix/mutation of it to a valid (shorter) script — no custom
//! shrinker needed. The crate deliberately has no dependency on
//! `proptest`; `engine_equiv.rs`'s `fixed_scripts_agree` drives it
//! with hand-written vectors.

use relstore::{
    AnyEngine, AnyTxn, ColumnType, DocBackend, DocTxn, EngineKind, Error, FkAction, Predicate,
    Result, RowId, TableSchema, Value,
};
use shard::{DistTxn, Router};
use std::collections::BTreeMap;

/// The differential catalog: `parent` (unique nullable tag), `child`
/// (CASCADE FK to parent, non-unique secondary index), `review`
/// (SET NULL FK to child). Chosen so a random script naturally hits
/// unique violations, forward/reverse FK violations, cascading deletes,
/// and SET NULL fix-ups.
#[must_use]
pub fn standard_schemas() -> Vec<TableSchema> {
    vec![
        TableSchema::builder("parent")
            .column("id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .nullable_column("tag", ColumnType::Text)
            .primary_key(&["id"])
            .index("by_tag", &["tag"], true)
            .build()
            .expect("static schema"),
        TableSchema::builder("child")
            .column("id", ColumnType::Int)
            .column("parent", ColumnType::Int)
            .column("score", ColumnType::Int)
            .primary_key(&["id"])
            .index("by_parent", &["parent"], false)
            .foreign_key(&["parent"], "parent", &["id"], FkAction::Cascade)
            .build()
            .expect("static schema"),
        TableSchema::builder("review")
            .column("id", ColumnType::Int)
            .nullable_column("child", ColumnType::Int)
            .column("stars", ColumnType::Int)
            .primary_key(&["id"])
            .foreign_key(&["child"], "child", &["id"], FkAction::SetNull)
            .build()
            .expect("static schema"),
    ]
}

/// A pair of engines (2PL, MVCC) loaded with the standard catalog.
pub fn engine_pair() -> (AnyEngine, AnyEngine) {
    let a = AnyEngine::new(EngineKind::TwoPl);
    let b = AnyEngine::new(EngineKind::Mvcc);
    for schema in standard_schemas() {
        a.create_table(schema.clone()).expect("catalog on 2PL");
        b.create_table(schema).expect("catalog on MVCC");
    }
    (a, b)
}

const TABLES: [&str; 3] = ["parent", "child", "review"];

/// Cursor over the decision vector; exhausted decisions read as 0, so
/// any prefix of a vector is itself a valid (shorter) script.
struct Decisions<'a> {
    data: &'a [u32],
    pos: usize,
}

impl Decisions<'_> {
    fn next(&mut self) -> u32 {
        let v = self.data.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        v
    }
}

fn gen_row(table: &str, d: &mut Decisions<'_>) -> Vec<Value> {
    match table {
        "parent" => {
            let id = i64::from(d.next() % 24);
            let tag = d.next();
            vec![
                Value::Int(id),
                Value::from(format!("p{id}")),
                if tag % 3 == 0 {
                    Value::Null
                } else {
                    Value::from(format!("t{}", tag % 8))
                },
            ]
        }
        "child" => vec![
            Value::Int(i64::from(d.next() % 48)),
            Value::Int(i64::from(d.next() % 24)),
            Value::Int(i64::from(d.next() % 100)),
        ],
        _ => {
            let id = i64::from(d.next() % 64);
            let c = d.next();
            vec![
                Value::Int(id),
                if c % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(i64::from(c % 48))
                },
                Value::Int(i64::from(d.next() % 5)),
            ]
        }
    }
}

fn gen_pred(table: &str, d: &mut Decisions<'_>) -> Predicate {
    match d.next() % 4 {
        0 => Predicate::True,
        1 => Predicate::eq("id", i64::from(d.next() % 64)),
        2 => match table {
            "parent" => Predicate::Eq("tag".into(), Value::from(format!("t{}", d.next() % 8))),
            "child" => Predicate::Gt("score".into(), Value::Int(i64::from(d.next() % 100))),
            _ => Predicate::IsNull("child".into()),
        },
        _ => Predicate::eq("id", i64::from(d.next() % 64))
            .and(Predicate::Not(Box::new(Predicate::IsNull("id".into())))),
    }
}

/// A row-id the script refers to: usually one a previous insert
/// produced, occasionally a bogus one (the `NoSuchRow` path).
fn pick_id(known: &[RowId], d: &mut Decisions<'_>) -> RowId {
    let n = d.next();
    if known.is_empty() || n % 7 == 0 {
        RowId(u64::from(n % 64) + 1)
    } else {
        known[(n as usize / 7) % known.len()]
    }
}

fn expect_same<T: PartialEq + std::fmt::Debug>(
    what: &str,
    step: usize,
    a: &Result<T>,
    b: &Result<T>,
) -> std::result::Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "step {step}: engines diverged on {what}:\n  2pl:  {a:?}\n  mvcc: {b:?}"
        ))
    }
}

/// Compare every observable facet of the two engines' *committed*
/// state: snapshots (schemas, row ids, row values), per-table row
/// counts and heap bytes, and a battery of predicate selects run
/// through fresh read transactions.
pub fn compare_committed(
    step: usize,
    a: &AnyEngine,
    b: &AnyEngine,
) -> std::result::Result<(), String> {
    let sa = a.snapshot().map_err(|e| format!("2pl snapshot: {e}"))?;
    let sb = b.snapshot().map_err(|e| format!("mvcc snapshot: {e}"))?;
    if sa != sb {
        return Err(format!(
            "step {step}: committed snapshots diverged\n  2pl:  {sa:?}\n  mvcc: {sb:?}"
        ));
    }
    for table in TABLES {
        expect_same(
            &format!("row_count({table})"),
            step,
            &a.row_count(table),
            &b.row_count(table),
        )?;
        expect_same(
            &format!("heap_bytes({table})"),
            step,
            &a.heap_bytes(table),
            &b.heap_bytes(table),
        )?;
    }
    let ta = a.begin();
    let tb = b.begin();
    for table in TABLES {
        let preds = [
            Predicate::True,
            Predicate::eq("id", 3i64),
            Predicate::Gt("id".into(), Value::Int(10)),
        ];
        for (i, pred) in preds.iter().enumerate() {
            expect_same(
                &format!("select({table}, battery {i})"),
                step,
                &ta.select(table, pred),
                &tb.select(table, pred),
            )?;
            expect_same(
                &format!("count({table}, battery {i})"),
                step,
                &ta.count(table, pred),
                &tb.count(table, pred),
            )?;
        }
    }
    expect_same(
        "join(child, parent)",
        step,
        &ta.join(
            "child",
            "parent",
            &Predicate::True,
            "parent",
            "id",
            &Predicate::True,
        ),
        &tb.join(
            "child",
            "parent",
            &Predicate::True,
            "parent",
            "id",
            &Predicate::True,
        ),
    )?;
    expect_same(
        "sum_int(child.score)",
        step,
        &ta.sum_int("child", &Predicate::True, "score"),
        &tb.sum_int("child", &Predicate::True, "score"),
    )?;
    ta.commit()
        .map_err(|e| format!("2pl battery commit: {e}"))?;
    tb.commit()
        .map_err(|e| format!("mvcc battery commit: {e}"))?;
    Ok(())
}

/// Interpret `decisions` as an op script and run it against both
/// engines in lockstep. Returns `Err` with a human-readable divergence
/// report on the first mismatch — per-op outcome, row-id allocation, or
/// committed state at a commit/abort point.
pub fn run_differential(decisions: &[u32]) -> std::result::Result<(), String> {
    let (a, b) = engine_pair();
    let mut d = Decisions {
        data: decisions,
        pos: 0,
    };
    let mut known: BTreeMap<&'static str, Vec<RowId>> = BTreeMap::new();
    let mut ta = Some(a.begin());
    let mut tb = Some(b.begin());
    let steps = decisions.len();
    for step in 0..steps {
        let (ja, jb) = (ta.as_ref().expect("open"), tb.as_ref().expect("open"));
        match d.next() % 12 {
            0..=2 => {
                let table = TABLES[(d.next() as usize) % TABLES.len()];
                let mut side = Decisions {
                    data: d.data,
                    pos: d.pos,
                };
                let row_a = gen_row(table, &mut side);
                let row_b = gen_row(table, &mut d);
                debug_assert_eq!(row_a, row_b);
                let ra = ja.insert(table, row_a);
                let rb = jb.insert(table, row_b);
                expect_same(&format!("insert({table})"), step, &ra, &rb)?;
                if let Ok(id) = ra {
                    known.entry(table).or_default().push(id);
                }
            }
            3 | 4 => {
                let table = TABLES[(d.next() as usize) % TABLES.len()];
                let id = pick_id(known.get(table).map_or(&[][..], Vec::as_slice), &mut d);
                let mut side = Decisions {
                    data: d.data,
                    pos: d.pos,
                };
                let row_a = gen_row(table, &mut side);
                let row_b = gen_row(table, &mut d);
                expect_same(
                    &format!("update({table}, {id:?})"),
                    step,
                    &ja.update(table, id, row_a),
                    &jb.update(table, id, row_b),
                )?;
            }
            5 => {
                let table = TABLES[(d.next() as usize) % TABLES.len()];
                let id = pick_id(known.get(table).map_or(&[][..], Vec::as_slice), &mut d);
                let cols: Vec<(&str, Value)> = match table {
                    "parent" => vec![("tag", Value::from(format!("t{}", d.next() % 8)))],
                    "child" => vec![("score", Value::Int(i64::from(d.next() % 100)))],
                    _ => vec![("stars", Value::Int(i64::from(d.next() % 5)))],
                };
                expect_same(
                    &format!("update_cols({table}, {id:?})"),
                    step,
                    &ja.update_cols(table, id, &cols),
                    &jb.update_cols(table, id, &cols),
                )?;
            }
            6 => {
                let table = TABLES[(d.next() as usize) % TABLES.len()];
                let id = pick_id(known.get(table).map_or(&[][..], Vec::as_slice), &mut d);
                expect_same(
                    &format!("delete({table}, {id:?})"),
                    step,
                    &ja.delete(table, id),
                    &jb.delete(table, id),
                )?;
            }
            7 | 8 => {
                let table = TABLES[(d.next() as usize) % TABLES.len()];
                let mut side = Decisions {
                    data: d.data,
                    pos: d.pos,
                };
                let pred_a = gen_pred(table, &mut side);
                let pred_b = gen_pred(table, &mut d);
                expect_same(
                    &format!("select({table})"),
                    step,
                    &ja.select(table, &pred_a),
                    &jb.select(table, &pred_b),
                )?;
            }
            9 => {
                let table = TABLES[(d.next() as usize) % TABLES.len()];
                let mut side = Decisions {
                    data: d.data,
                    pos: d.pos,
                };
                let pred_a = gen_pred(table, &mut side);
                let pred_b = gen_pred(table, &mut d);
                expect_same(
                    &format!("count({table})"),
                    step,
                    &ja.count(table, &pred_a),
                    &jb.count(table, &pred_b),
                )?;
            }
            10 => {
                // Commit point: publish, then compare everything.
                expect_same(
                    "commit",
                    step,
                    &ta.take().expect("open").commit(),
                    &tb.take().expect("open").commit(),
                )?;
                compare_committed(step, &a, &b)?;
                ta = Some(a.begin());
                tb = Some(b.begin());
            }
            _ => {
                // Abort point: both engines must restore the same
                // committed state.
                ta.take().expect("open").rollback();
                tb.take().expect("open").rollback();
                compare_committed(step, &a, &b)?;
                // Uncommitted inserts are gone; forget their ids so
                // later ops reference committed rows (or valid misses).
                known.clear();
                for table in TABLES {
                    let t = a.begin();
                    if let Ok(rows) = t.select(table, &Predicate::True) {
                        known
                            .entry(table)
                            .or_default()
                            .extend(rows.iter().map(|(id, _)| *id));
                    }
                    t.commit().map_err(|e| format!("refresh commit: {e}"))?;
                }
                ta = Some(a.begin());
                tb = Some(b.begin());
            }
        }
    }
    expect_same(
        "final commit",
        steps,
        &ta.take().expect("open").commit(),
        &tb.take().expect("open").commit(),
    )?;
    compare_committed(steps, &a, &b)?;
    Ok(())
}

/// One side of a tape differential: anything that hands out
/// transactions speaking [`DocTxn`] over the standard catalog.
/// [`AnyEngine`] and the `shard` crate's [`Router`] implement it, which
/// is how the sharded-vs-unsharded equivalence proof runs — same tape,
/// one side a single engine, the other a hash-partitioned cluster,
/// every outcome (including allocated row ids) compared op by op.
///
/// Implementations must present **global** row ids: the tape feeds ids
/// returned by `insert` back into later ops and demands identical
/// errors for identical ids on both sides.
pub trait TapeTarget {
    /// The target's transaction handle.
    type Txn<'a>: DocTxn
    where
        Self: 'a;
    /// Begin a transaction.
    fn begin(&self) -> Self::Txn<'_>;
    /// Commit the transaction.
    fn commit(&self, txn: Self::Txn<'_>) -> Result<()>;
    /// Roll the transaction back.
    fn rollback(&self, txn: Self::Txn<'_>);
}

impl TapeTarget for AnyEngine {
    type Txn<'a> = AnyTxn;
    fn begin(&self) -> AnyTxn {
        AnyEngine::begin(self)
    }
    fn commit(&self, txn: AnyTxn) -> Result<()> {
        txn.commit()
    }
    fn rollback(&self, txn: AnyTxn) {
        txn.rollback();
    }
}

/// The router plays the op tapes directly: this is what the
/// sharded-vs-unsharded differential proof (`shard`'s
/// `tests/router_equiv.rs`) runs on — the router's own semantics are
/// the thing under test, so nothing is adapted here.
impl TapeTarget for Router {
    type Txn<'a> = DistTxn<'a>;
    fn begin(&self) -> DistTxn<'_> {
        Router::begin(self)
    }
    fn commit(&self, txn: DistTxn<'_>) -> Result<()> {
        txn.commit()
    }
    fn rollback(&self, txn: DistTxn<'_>) {
        txn.rollback();
    }
}

/// Order-by column per table for the tape's `select_ordered` op —
/// deliberately non-unique (and nullable for `parent`) so the stable
/// tie-break over the base id order is what's actually under test.
fn order_col(table: &str) -> &'static str {
    match table {
        "parent" => "tag",
        "child" => "score",
        _ => "stars",
    }
}

/// Compare the committed state of two tape targets through fresh
/// transactions: full-table contents (ids and values), a predicate
/// battery, the standard join, and an aggregate.
pub fn compare_tape_committed<A: TapeTarget, B: TapeTarget>(
    step: usize,
    a: &A,
    b: &B,
) -> std::result::Result<(), String> {
    let ta = a.begin();
    let tb = b.begin();
    for table in TABLES {
        let preds = [
            Predicate::True,
            Predicate::eq("id", 3i64),
            Predicate::Gt("id".into(), Value::Int(10)),
        ];
        for (i, pred) in preds.iter().enumerate() {
            expect_same(
                &format!("committed select({table}, battery {i})"),
                step,
                &ta.select(table, pred),
                &tb.select(table, pred),
            )?;
            expect_same(
                &format!("committed count({table}, battery {i})"),
                step,
                &ta.count(table, pred),
                &tb.count(table, pred),
            )?;
        }
        expect_same(
            &format!("committed select_ordered({table})"),
            step,
            &ta.select_ordered(table, &Predicate::True, order_col(table), false, None),
            &tb.select_ordered(table, &Predicate::True, order_col(table), false, None),
        )?;
    }
    expect_same(
        "committed join(child, parent)",
        step,
        &ta.join(
            "child",
            "parent",
            &Predicate::True,
            "parent",
            "id",
            &Predicate::True,
        ),
        &tb.join(
            "child",
            "parent",
            &Predicate::True,
            "parent",
            "id",
            &Predicate::True,
        ),
    )?;
    expect_same(
        "committed sum_int(child.score)",
        step,
        &ta.sum_int("child", &Predicate::True, "score"),
        &tb.sum_int("child", &Predicate::True, "score"),
    )?;
    a.commit(ta)
        .map_err(|e| format!("left battery commit: {e}"))?;
    b.commit(tb)
        .map_err(|e| format!("right battery commit: {e}"))?;
    Ok(())
}

/// Interpret `decisions` as an op tape and play it against two
/// [`TapeTarget`]s in lockstep — the generic core behind the
/// sharded-vs-unsharded equivalence proof. Uses a richer palette than
/// [`run_differential`] (adds point gets, ordered selects and joins,
/// which exercise a router's scatter-gather paths); the decision-vector
/// shrinking properties are the same.
pub fn run_tape<A: TapeTarget, B: TapeTarget>(
    a: &A,
    b: &B,
    decisions: &[u32],
) -> std::result::Result<(), String> {
    let mut d = Decisions {
        data: decisions,
        pos: 0,
    };
    let mut known: BTreeMap<&'static str, Vec<RowId>> = BTreeMap::new();
    let mut ta = Some(a.begin());
    let mut tb = Some(b.begin());
    let steps = decisions.len();
    for step in 0..steps {
        let (ja, jb) = (ta.as_ref().expect("open"), tb.as_ref().expect("open"));
        let table = TABLES[(d.next() as usize) % TABLES.len()];
        match d.next() % 16 {
            0..=2 => {
                let mut side = Decisions {
                    data: d.data,
                    pos: d.pos,
                };
                let row_a = gen_row(table, &mut side);
                let row_b = gen_row(table, &mut d);
                let ra = ja.insert(table, row_a);
                let rb = jb.insert(table, row_b);
                expect_same(&format!("insert({table})"), step, &ra, &rb)?;
                if let Ok(id) = ra {
                    known.entry(table).or_default().push(id);
                }
            }
            3 | 4 => {
                let id = pick_id(known.get(table).map_or(&[][..], Vec::as_slice), &mut d);
                let mut side = Decisions {
                    data: d.data,
                    pos: d.pos,
                };
                let row_a = gen_row(table, &mut side);
                let row_b = gen_row(table, &mut d);
                expect_same(
                    &format!("update({table}, {id:?})"),
                    step,
                    &ja.update(table, id, row_a),
                    &jb.update(table, id, row_b),
                )?;
            }
            5 => {
                let id = pick_id(known.get(table).map_or(&[][..], Vec::as_slice), &mut d);
                let cols: Vec<(&str, Value)> = match table {
                    "parent" => vec![("tag", Value::from(format!("t{}", d.next() % 8)))],
                    "child" => vec![
                        ("parent", Value::Int(i64::from(d.next() % 24))),
                        ("score", Value::Int(i64::from(d.next() % 100))),
                    ],
                    _ => vec![("stars", Value::Int(i64::from(d.next() % 5)))],
                };
                expect_same(
                    &format!("update_cols({table}, {id:?})"),
                    step,
                    &ja.update_cols(table, id, &cols),
                    &jb.update_cols(table, id, &cols),
                )?;
            }
            6 => {
                let id = pick_id(known.get(table).map_or(&[][..], Vec::as_slice), &mut d);
                expect_same(
                    &format!("delete({table}, {id:?})"),
                    step,
                    &ja.delete(table, id),
                    &jb.delete(table, id),
                )?;
            }
            7 => {
                let id = pick_id(known.get(table).map_or(&[][..], Vec::as_slice), &mut d);
                expect_same(
                    &format!("get({table}, {id:?})"),
                    step,
                    &ja.get(table, id),
                    &jb.get(table, id),
                )?;
            }
            8 | 9 => {
                let mut side = Decisions {
                    data: d.data,
                    pos: d.pos,
                };
                let pred_a = gen_pred(table, &mut side);
                let pred_b = gen_pred(table, &mut d);
                expect_same(
                    &format!("select({table})"),
                    step,
                    &ja.select(table, &pred_a),
                    &jb.select(table, &pred_b),
                )?;
            }
            10 => {
                let mut side = Decisions {
                    data: d.data,
                    pos: d.pos,
                };
                let pred_a = gen_pred(table, &mut side);
                let pred_b = gen_pred(table, &mut d);
                let desc = d.next() % 2 == 1;
                let limit = match d.next() % 3 {
                    0 => None,
                    n => Some(n as usize * 4),
                };
                expect_same(
                    &format!("select_ordered({table})"),
                    step,
                    &ja.select_ordered(table, &pred_a, order_col(table), desc, limit),
                    &jb.select_ordered(table, &pred_b, order_col(table), desc, limit),
                )?;
            }
            11 => {
                let mut side = Decisions {
                    data: d.data,
                    pos: d.pos,
                };
                let pred_a = gen_pred("child", &mut side);
                let pred_b = gen_pred("child", &mut d);
                expect_same(
                    "join(child, parent)",
                    step,
                    &ja.join("child", "parent", &pred_a, "parent", "id", &Predicate::True),
                    &jb.join("child", "parent", &pred_b, "parent", "id", &Predicate::True),
                )?;
            }
            12 => {
                let mut side = Decisions {
                    data: d.data,
                    pos: d.pos,
                };
                let pred_a = gen_pred(table, &mut side);
                let pred_b = gen_pred(table, &mut d);
                expect_same(
                    &format!("count({table})"),
                    step,
                    &ja.count(table, &pred_a),
                    &jb.count(table, &pred_b),
                )?;
            }
            13 | 14 => {
                expect_same(
                    "commit",
                    step,
                    &a.commit(ta.take().expect("open")),
                    &b.commit(tb.take().expect("open")),
                )?;
                compare_tape_committed(step, a, b)?;
                ta = Some(a.begin());
                tb = Some(b.begin());
            }
            _ => {
                a.rollback(ta.take().expect("open"));
                b.rollback(tb.take().expect("open"));
                compare_tape_committed(step, a, b)?;
                known.clear();
                for table in TABLES {
                    let t = a.begin();
                    if let Ok(rows) = t.select(table, &Predicate::True) {
                        known
                            .entry(table)
                            .or_default()
                            .extend(rows.iter().map(|(id, _)| *id));
                    }
                    a.commit(t).map_err(|e| format!("refresh commit: {e}"))?;
                }
                ta = Some(a.begin());
                tb = Some(b.begin());
            }
        }
    }
    expect_same(
        "final commit",
        steps,
        &a.commit(ta.take().expect("open")),
        &b.commit(tb.take().expect("open")),
    )?;
    compare_tape_committed(steps, a, b)?;
    Ok(())
}

/// The [`DocBackend`] contract, asserted on one fresh in-memory backend
/// (it creates its own `people` table). Every implementor runs this:
/// commit on `Ok` and read back; `Err` from the closure rolls back —
/// no row survives *and* the row id the failed insert consumed stays
/// burned; questions the backend cannot answer come back as
/// [`Error::Unsupported`] / `None`, never a panic.
///
/// # Panics
/// On the first violated clause.
pub fn backend_contract(backend: &dyn DocBackend) {
    let people = TableSchema::builder("people")
        .column("name", ColumnType::Text)
        .column("age", ColumnType::Int)
        .primary_key(&["name"])
        .build()
        .expect("static schema");
    backend.create_table(people).expect("create_table");
    assert!(backend.shards() >= 1);

    let mut lost = None;
    let res = backend.with_txn_dyn(&mut |t| {
        lost = Some(t.insert("people", vec!["bob".into(), Value::Int(1)])?);
        Err(Error::TxnClosed)
    });
    assert_eq!(res, Err(Error::TxnClosed), "closure error is the result");
    assert_eq!(lost, Some(RowId(1)));

    let mut kept = None;
    backend
        .with_txn_dyn(&mut |t| {
            assert_eq!(t.count("people", &Predicate::True)?, 0, "rollback on Err");
            kept = Some(t.insert("people", vec!["ada".into(), Value::Int(36)])?);
            Ok(())
        })
        .expect("commit on Ok");
    let id = kept.expect("closure ran");
    assert_eq!(id, RowId(2), "a rolled-back insert burns its row id");
    backend
        .with_txn_dyn(&mut |t| {
            assert_eq!(t.get("people", id)?[1], Value::Int(36));
            assert_eq!(t.count("people", &Predicate::True)?, 1);
            Ok(())
        })
        .expect("read back");
    assert!(backend.heap_bytes("people").expect("heap_bytes") > 0);

    assert_eq!(backend.checkpoint(), Ok(None), "no log, no checkpoint");
    match backend.snapshot() {
        Ok(snap) => assert_eq!(snap.tables.len(), 1),
        Err(Error::Unsupported(_)) => assert!(backend.as_engine().is_none()),
        Err(e) => panic!("snapshot: {e}"),
    }
}
