//! Sharded-vs-unsharded differential equivalence: the same op tapes
//! the cross-engine proof runs (see `testkit::differential`) are replayed
//! against a single engine and a hash-partitioned [`Router`] in
//! lockstep. Every per-op outcome must match — results, errors, *and
//! allocated row ids* — and the committed state (full table contents,
//! predicate battery, join, aggregate) must match at every commit and
//! abort point. A shard count of 1 pins the degenerate case the E19
//! benchmark gates on; higher counts exercise scatter-gather reads,
//! cross-shard unique checks, update-as-move, and two-phase commit.

use obs::Registry;
use proptest::prelude::*;
use relstore::{AnyEngine, EngineKind, Predicate};
use shard::{Router, RoutingSpec, ShardMap};
use testkit::{run_tape, standard_schemas};

/// Routing for the differential catalog: `parent` hashes on its own
/// pk, `child` hashes on its FK column (co-located with its parent —
/// CASCADE never crosses shards), `review` lives with the child it
/// references (SET NULL stays local), falling back to its own pk hash
/// when `child` is NULL.
fn spec_of(table: &str) -> RoutingSpec {
    match table {
        "parent" => RoutingSpec::ByColumn("id".into()),
        "child" => RoutingSpec::ByColumn("parent".into()),
        _ => RoutingSpec::ByParent {
            col: "child".into(),
            parent: "child".into(),
            fallback: "id".into(),
        },
    }
}

fn pair(shards: u32) -> (AnyEngine, Router) {
    let single = AnyEngine::new(EngineKind::TwoPl);
    let router = Router::new(
        EngineKind::TwoPl,
        ShardMap::uniform(shards),
        Registry::new(),
    );
    for schema in standard_schemas() {
        let spec = spec_of(schema.name.as_str());
        single.create_table(schema.clone()).expect("single catalog");
        router.create_table(schema, spec).expect("sharded catalog");
    }
    (single, router)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: no sequential workload can tell a
    /// 4-shard cluster from a single engine.
    #[test]
    fn four_shards_match_single_engine(decisions in proptest::collection::vec(any::<u32>(), 0..200)) {
        let (single, router) = pair(4);
        if let Err(report) = run_tape(&single, &router, &decisions) {
            prop_assert!(false, "{report}");
        }
    }

    /// The degenerate cluster: one shard must behave *identically* —
    /// this is the property the E19 one-shard gate relies on.
    #[test]
    fn one_shard_matches_single_engine(decisions in proptest::collection::vec(any::<u32>(), 0..160)) {
        let (single, router) = pair(1);
        if let Err(report) = run_tape(&single, &router, &decisions) {
            prop_assert!(false, "{report}");
        }
    }

    /// Write-heavy re-encoding (op selectors 0..13 dominate) over a
    /// 3-shard cluster: dense inserts, moves, cascades and commit
    /// points, so the 2PC path and the gid directory churn hard.
    #[test]
    fn three_shards_survive_write_heavy_tapes(
        seeds in proptest::collection::vec((0u32..13, any::<u32>(), any::<u32>(), any::<u32>()), 0..64)
    ) {
        let mut decisions = Vec::with_capacity(seeds.len() * 4);
        for (op, a, b, c) in seeds {
            decisions.push(op);
            decisions.extend_from_slice(&[a, b, c]);
        }
        let (single, router) = pair(3);
        if let Err(report) = run_tape(&single, &router, &decisions) {
            prop_assert!(false, "{report}");
        }
    }
}

/// Deterministic regression tapes across several shard counts: the
/// empty tape, a read-only tape, a dense pseudo-random tape, and a
/// write/commit/abort alternation.
#[test]
fn fixed_tapes_agree() {
    for shards in [1, 2, 5, 8] {
        let (single, router) = pair(shards);
        run_tape(&single, &router, &[]).unwrap();
        let (single, router) = pair(shards);
        run_tape(&single, &router, &[6, 0, 7, 1, 9, 2, 10, 3, 12]).unwrap();
        let mut dense = Vec::new();
        for i in 0u32..200 {
            dense.push(i.wrapping_mul(2_654_435_761));
        }
        let (single, router) = pair(shards);
        run_tape(&single, &router, &dense).unwrap();
        let mut alt = Vec::new();
        for i in 0u32..40 {
            alt.extend_from_slice(&[i % 3, 0, i, i * 3, i * 5, i * 7]);
            alt.extend_from_slice(&[0, 13 + (i % 3)]);
        }
        let (single, router) = pair(shards);
        run_tape(&single, &router, &alt).unwrap();
    }
}

/// A `Global` table participates too: writes fan out to every shard,
/// reads come from shard 0, and ids still match the single engine.
#[test]
fn global_tables_stay_identical() {
    use relstore::{ColumnType, TableSchema, Value};
    use testkit::TapeTarget;
    let schema = TableSchema::builder("hub")
        .column("id", ColumnType::Int)
        .column("name", ColumnType::Text)
        .primary_key(&["id"])
        .build()
        .expect("static schema");
    let single = AnyEngine::new(EngineKind::TwoPl);
    single.create_table(schema.clone()).unwrap();
    let router = Router::new(EngineKind::TwoPl, ShardMap::uniform(4), Registry::new());
    router.create_table(schema, RoutingSpec::Global).unwrap();

    let ts = TapeTarget::begin(&single);
    let tr = TapeTarget::begin(&router);
    for i in 0..20i64 {
        let row = vec![Value::Int(i % 12), Value::from(format!("n{i}"))];
        let a = ts.insert("hub", row.clone());
        let b = tr.insert("hub", row);
        assert_eq!(a, b, "insert {i}");
    }
    let a = ts.select("hub", &Predicate::True).unwrap();
    let b = tr.select("hub", &Predicate::True).unwrap();
    assert_eq!(a, b);
    single.commit(ts).unwrap();
    router.commit(tr).unwrap();
    // Every shard holds the full hub table.
    for s in 0..router.shards() {
        let t = router.engine(s).begin();
        assert_eq!(t.count("hub", &Predicate::True).unwrap(), 12);
        t.commit().unwrap();
    }
}
