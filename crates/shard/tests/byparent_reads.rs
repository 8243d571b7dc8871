//! Reads of a `ByParent` table pinned to one parent go to the parent's
//! home shard only. A child row with a non-NULL parent key lives with
//! its parent (inserts route through the homes directory, a move drags
//! the children along), so a `select`, `count` or `sum_int` whose
//! predicate fixes the parent column by equality reads one shard and
//! must return exactly what the full scatter returns — also right
//! after a move, and while another thread moves the parent back and
//! forth.

use obs::Registry;
use relstore::{ColumnType, EngineKind, FkAction, Predicate, RowId, TableSchema, Value};
use shard::{Router, RoutingSpec, ShardMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SHARDS: u32 = 4;
const PARTS: i64 = 6;

/// A document routed by `site`, so changing `site` moves it.
fn doc() -> TableSchema {
    TableSchema::builder("doc")
        .column("id", ColumnType::Int)
        .column("site", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

/// A document's parts: they ride `ByParent` on `doc`.
fn part() -> TableSchema {
    TableSchema::builder("part")
        .column("id", ColumnType::Int)
        .nullable_column("doc", ColumnType::Int)
        .column("size", ColumnType::Int)
        .primary_key(&["id"])
        .index("part_doc", &["doc"], false)
        .foreign_key(&["doc"], "doc", &["id"], FkAction::Cascade)
        .build()
        .unwrap()
}

fn router() -> Router {
    let r = Router::new(
        EngineKind::TwoPl,
        ShardMap::uniform(SHARDS),
        Registry::new(),
    );
    r.create_table(doc(), RoutingSpec::ByColumn("site".into()))
        .unwrap();
    r.create_table(
        part(),
        RoutingSpec::ByParent {
            col: "doc".into(),
            parent: "doc".into(),
            fallback: "id".into(),
        },
    )
    .unwrap();
    r
}

/// Documents 0..8, each on site `d`, with `PARTS` parts of size `d`
/// and `k`; plus one part with no document.
fn load(r: &Router) {
    for d in 0..8i64 {
        r.with_txn(|t| {
            t.insert("doc", vec![Value::Int(d), Value::Int(d)])?;
            for k in 0..PARTS {
                t.insert(
                    "part",
                    vec![Value::Int(d * 100 + k), Value::Int(d), Value::Int(d + k)],
                )?;
            }
            Ok(())
        })
        .unwrap();
    }
    r.with_txn(|t| {
        t.insert("part", vec![Value::Int(999), Value::Null, Value::Int(1)])
            .map(|_| ())
    })
    .unwrap();
}

/// The shard whose engine holds the rows of `table` matching `pred`.
fn holder(r: &Router, table: &str, pred: &Predicate) -> usize {
    let holders: Vec<usize> = (0..r.shards())
        .filter(|&s| r.engine(s).with_txn(|t| t.count(table, pred)).unwrap() > 0)
        .collect();
    assert_eq!(holders.len(), 1, "{table} {pred:?} on {holders:?}");
    holders[0]
}

/// Engine transactions each shard has finished so far.
fn finished(r: &Router) -> Vec<u64> {
    (0..r.shards())
        .map(|s| {
            let m = r.engine(s).metrics();
            m.counter("relstore.txn.commits") + m.counter("relstore.txn.aborts")
        })
        .collect()
}

/// Run `f` in one router transaction; return its value, the shards it
/// opened an engine transaction on, and how many reads were routed.
fn traced<T>(
    r: &Router,
    f: impl Fn(&shard::DistTxn<'_>) -> relstore::Result<T>,
) -> (T, Vec<usize>, u64) {
    let before = finished(r);
    let routed = r.metrics().counter("shard.router.routed_selects");
    let v = r.with_txn(f).unwrap();
    let after = finished(r);
    let touched = (0..r.shards()).filter(|&s| after[s] > before[s]).collect();
    (
        v,
        touched,
        r.metrics().counter("shard.router.routed_selects") - routed,
    )
}

/// The children of `d` as the full scatter sees them.
fn scattered(r: &Router, d: i64) -> Vec<(RowId, Vec<Value>)> {
    let all = r.with_txn(|t| t.select("part", &Predicate::True)).unwrap();
    all.into_iter()
        .filter(|(_, row)| row[1] == Value::Int(d))
        .collect()
}

#[test]
fn pinned_byparent_reads_touch_the_home_shard_only() {
    let r = router();
    load(&r);
    for d in 0..8i64 {
        let home = holder(&r, "doc", &Predicate::eq("id", d));
        let want = scattered(&r, d);
        assert_eq!(want.len(), PARTS as usize);
        let pinned = Predicate::eq("doc", d).and(Predicate::Gt("size".into(), Value::Int(-1)));

        let (rows, shards, routed) = traced(&r, |t| t.select("part", &pinned));
        assert_eq!(rows, want);
        assert_eq!((shards, routed), (vec![home], 1));

        let (n, shards, routed) = traced(&r, |t| t.count("part", &pinned));
        assert_eq!(n, want.len());
        assert_eq!((shards, routed), (vec![home], 1));

        let (sum, shards, routed) = traced(&r, |t| t.sum_int("part", &pinned, "size"));
        let want_sum: i64 = want
            .iter()
            .map(|(_, row)| match row[2] {
                Value::Int(v) => v,
                _ => unreachable!(),
            })
            .sum();
        assert_eq!(sum, want_sum);
        assert_eq!((shards, routed), (vec![home], 1));
    }
    // A NULL parent key and an unknown parent both scatter.
    for pred in [
        Predicate::Eq("doc".into(), Value::Null),
        Predicate::eq("doc", 77i64),
    ] {
        let (_, shards, routed) = traced(&r, |t| t.select("part", &pred));
        assert_eq!((shards.len(), routed), (SHARDS as usize, 0));
    }
}

/// A site (one of `load`'s) that hashes away from shard `from`.
fn site_off(r: &Router, from: usize) -> i64 {
    (0..8)
        .find(|&site| holder(r, "doc", &Predicate::eq("id", site)) != from)
        .expect("8 sites over 4 shards")
}

fn doc_gid(r: &Router, d: i64) -> RowId {
    r.with_txn(|t| t.select("doc", &Predicate::eq("id", d)))
        .unwrap()[0]
        .0
}

#[test]
fn pinned_byparent_reads_follow_a_move() {
    let r = router();
    load(&r);
    let d = 3i64;
    let want = scattered(&r, d);
    let from = holder(&r, "doc", &Predicate::eq("id", d));
    let site = site_off(&r, from);
    let gid = doc_gid(&r, d);
    let pinned = Predicate::eq("doc", d);

    // In the moving transaction itself, the read finds the dragged
    // children on the new shard.
    let (rows, shards, routed) = traced(&r, |t| {
        t.update("doc", gid, vec![Value::Int(d), Value::Int(site)])?;
        t.select("part", &pinned)
    });
    assert_eq!(rows, want, "same gids, same rows, new shard");
    let to = holder(&r, "doc", &Predicate::eq("id", d));
    assert_ne!(to, from);
    assert_eq!(holder(&r, "part", &pinned), to);
    assert!(shards.contains(&to) && routed == 1, "{shards:?} {routed}");

    // And in a fresh one.
    let (rows, shards, routed) = traced(&r, |t| t.select("part", &pinned));
    assert_eq!(rows, want);
    assert_eq!((shards, routed), (vec![to], 1));
    let (n, shards, _) = traced(&r, |t| t.count("part", &pinned));
    assert_eq!((n, shards), (want.len(), vec![to]));
}

/// One thread moves a document back and forth between two shards
/// while another reads its parts by the pinned parent column under
/// 2PL. A read that looked the home up before a move published, and
/// read the old home after the move committed, finds nothing there;
/// the router must notice the new home and scatter.
#[test]
fn concurrent_byparent_reads_follow_moves() {
    let r = Arc::new(router());
    load(&r);
    let d = 5i64;
    let want = scattered(&r, d);
    let sites = [d, site_off(&r, holder(&r, "doc", &Predicate::eq("id", d)))];
    let gid = doc_gid(&r, d);
    let stop = Arc::new(AtomicBool::new(false));
    let mover = {
        let (r, stop) = (Arc::clone(&r), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut moves = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let site = sites[(moves % 2) as usize ^ 1];
                r.with_txn(|t| t.update("doc", gid, vec![Value::Int(d), Value::Int(site)]))
                    .unwrap();
                moves += 1;
            }
            moves
        })
    };
    let pinned = Predicate::eq("doc", d);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3);
    let mut reads = 0u64;
    let mut failure = None;
    while std::time::Instant::now() < deadline {
        let rows = r.with_txn(|t| t.select("part", &pinned)).unwrap();
        let n = r.with_txn(|t| t.count("part", &pinned)).unwrap();
        reads += 1;
        if rows != want || n != want.len() {
            failure = Some((reads, rows.len(), n));
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    let moves = mover.join().unwrap();
    assert!(
        failure.is_none(),
        "read {failure:?} (read no., rows, count) missed parts, want {} ({moves} moves)",
        want.len()
    );
    assert!(moves > 10 && reads > 10, "{moves} moves, {reads} reads");
}
