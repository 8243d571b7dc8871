//! The oracles are tested too: a differential that always answered
//! `Ok` would pass every property built on it. Each case loads the
//! same committed rows into both sides of a pair, plants one differing
//! row (a different value, or the same row under a different row id)
//! on one side, and wants the oracle to report the divergence at the
//! step it was asked about.

use obs::Registry;
use relstore::{AnyEngine, DocTxn, EngineKind, RowId, Value};
use shard::{Router, RoutingSpec, ShardMap};
use testkit::{
    compare_committed, compare_tape_committed, engine_pair, standard_schemas, TapeTarget,
};

/// The step every comparison below is asked about.
const STEP: usize = 7;

/// How the planted row differs from its twin.
#[derive(Clone, Copy, Debug)]
enum Plant {
    /// Same row id, another value.
    Value,
    /// Same value, the next row id.
    Id,
}

fn parent(id: i64, name: &str) -> Vec<Value> {
    vec![Value::Int(id), Value::from(name), Value::Null]
}

/// Commit `parent(1, name)` through `target`, after burning one row
/// id (an insert rolled back) when `burn` is set.
fn load<T: TapeTarget>(target: &T, burn: bool, name: &str) -> RowId {
    if burn {
        let txn = target.begin();
        txn.insert("parent", parent(2, "rolled back")).unwrap();
        target.rollback(txn);
    }
    let txn = target.begin();
    let id = txn.insert("parent", parent(1, name)).unwrap();
    target.commit(txn).unwrap();
    id
}

/// The two sides' rows: identical, or differing as `plant` says.
fn rows(plant: Option<Plant>) -> [(bool, &'static str); 2] {
    match plant {
        None => [(false, "p1"); 2],
        Some(Plant::Value) => [(false, "p1"), (false, "planted")],
        Some(Plant::Id) => [(false, "p1"), (true, "p1")],
    }
}

fn assert_reported(report: std::result::Result<(), String>, plant: Option<Plant>) {
    match (plant, report) {
        (None, Ok(())) => {}
        (None, Err(e)) => panic!("identical sides reported as diverged: {e}"),
        (Some(p), Ok(())) => panic!("{p:?} divergence went unreported"),
        (Some(p), Err(e)) => assert!(
            e.starts_with(&format!("step {STEP}: ")),
            "{p:?} divergence reported without its step: {e}"
        ),
    }
}

#[test]
fn compare_committed_reports_a_planted_row() {
    for plant in [None, Some(Plant::Value), Some(Plant::Id)] {
        let (a, b) = engine_pair();
        let [(burn_a, name_a), (burn_b, name_b)] = rows(plant);
        let id_a = load(&a, burn_a, name_a);
        let id_b = load(&b, burn_b, name_b);
        assert_eq!(id_a == id_b, !matches!(plant, Some(Plant::Id)));
        assert_reported(compare_committed(STEP, &a, &b), plant);
    }
}

#[test]
fn compare_tape_committed_reports_a_planted_row_against_a_router() {
    for plant in [None, Some(Plant::Value), Some(Plant::Id)] {
        let single = AnyEngine::new(EngineKind::TwoPl);
        let router = Router::new(EngineKind::TwoPl, ShardMap::uniform(1), Registry::new());
        for schema in standard_schemas() {
            let spec = RoutingSpec::ByColumn(schema.primary_key[0].clone());
            single.create_table(schema.clone()).unwrap();
            router.create_table(schema, spec).unwrap();
        }
        // The router holds the planted row.
        let [(burn_a, name_a), (burn_b, name_b)] = rows(plant);
        let id_a = load(&single, burn_a, name_a);
        let id_b = load(&router, burn_b, name_b);
        assert_eq!(id_a == id_b, !matches!(plant, Some(Plant::Id)));
        assert_reported(compare_tape_committed(STEP, &single, &router), plant);
    }
}
