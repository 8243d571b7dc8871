//! The Bloom side structure behind global-unique probes, and the
//! routed-select pruner: a *cold* unique key — one never attempted
//! anywhere in the cluster — needs no remote scatter at all (the only
//! touch left is the home-shard write itself, so per-insert probes
//! drop from `shards` to ~1), while a *warm* key still scatters and
//! catches the real conflict. Also pins the `scatter_batched` and
//! `routed_selects` counters the E21 benchmark reports.

use obs::Registry;
use relstore::{ColumnType, EngineKind, Predicate, TableSchema, Value};
use shard::{Router, RoutingSpec, ShardMap};

const SHARDS: u32 = 4;

/// Routed on `id` (so the pk is index-local), with a globally-unique
/// `email` that hashes independently of the routing column — the worst
/// case the Bloom filter exists for.
fn users() -> TableSchema {
    TableSchema::builder("users")
        .column("id", ColumnType::Int)
        .column("email", ColumnType::Text)
        .primary_key(&["id"])
        .index("users_email", &["email"], true)
        .build()
        .unwrap()
}

fn router() -> Router {
    let r = Router::new(
        EngineKind::TwoPl,
        ShardMap::uniform(SHARDS),
        Registry::new(),
    );
    r.create_table(users(), RoutingSpec::ByColumn("id".into()))
        .unwrap();
    r
}

#[test]
fn cold_keys_skip_the_unique_scatter() {
    let r = router();
    for i in 0..32i64 {
        r.with_txn(|t| {
            t.insert(
                "users",
                vec![Value::Int(i), Value::from(format!("u{i}@mmu"))],
            )
            .map(|_| ())
        })
        .unwrap();
    }
    // Without the filter every insert would probe the SHARDS-1 remote
    // shards for the email (32 * 3 = 96 checks); with it, every one of
    // the 32 cold emails was declared definitely-absent and skipped.
    assert_eq!(r.metrics().counter("shard.router.unique_probe_skips"), 32);
    assert_eq!(r.metrics().counter("shard.router.scatter_checks"), 0);
}

#[test]
fn warm_keys_still_scatter_and_conflict() {
    let r = router();
    r.with_txn(|t| {
        t.insert("users", vec![Value::Int(0), Value::from("taken@mmu")])
            .map(|_| ())
    })
    .unwrap();
    let skips_before = r.metrics().counter("shard.router.unique_probe_skips");
    // Same email, different routing value: possibly a different home
    // shard, so only the scattered probe (or the co-located engine) can
    // see the collision. The filter has fed this key once already, so
    // it must NOT grant a skip.
    let err = r
        .with_txn(|t| {
            t.insert("users", vec![Value::Int(7), Value::from("taken@mmu")])
                .map(|_| ())
        })
        .unwrap_err();
    assert!(
        matches!(err, relstore::Error::UniqueViolation { ref index, .. } if index == "users_email"),
        "{err:?}"
    );
    assert_eq!(
        r.metrics().counter("shard.router.unique_probe_skips"),
        skips_before
    );
    // And the dup never landed anywhere.
    let n = r.with_txn(|t| t.count("users", &Predicate::True)).unwrap();
    assert_eq!(n, 1);
}

#[test]
fn pinned_selects_probe_one_shard() {
    let r = router();
    for i in 0..24i64 {
        r.with_txn(|t| {
            t.insert(
                "users",
                vec![Value::Int(i), Value::from(format!("p{i}@mmu"))],
            )
            .map(|_| ())
        })
        .unwrap();
    }
    let pinned = r
        .with_txn(|t| {
            t.select(
                "users",
                &Predicate::And(
                    Box::new(Predicate::Eq("id".into(), Value::Int(5))),
                    Box::new(Predicate::Contains("email".into(), "@mmu".into())),
                ),
            )
        })
        .unwrap();
    assert_eq!(pinned.len(), 1);
    assert_eq!(pinned[0].1[0], Value::Int(5));
    // The equality conjunct on the routing column pinned the scatter
    // to exactly one shard; the batched gather ran once per select.
    assert!(r.metrics().counter("shard.router.routed_selects") >= 1);
    assert!(r.metrics().counter("shard.router.scatter_batched") >= 1);
    // An un-pinned predicate still sees everything.
    let all = r.with_txn(|t| t.select("users", &Predicate::True)).unwrap();
    assert_eq!(all.len(), 24);
}
