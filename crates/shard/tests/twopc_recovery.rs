//! Crash recovery of a cross-shard transaction at each stage of its
//! commit, over the real station log of a durable router
//! ([`Router::recover`]). A router commit prepares every part — each
//! part's records reach the log, nothing is published — and then one
//! joint commit frame naming every part is its commit point. So:
//!
//! * a crash **after** the joint commit frame is durable recovers the
//!   whole transaction, its rows partitioned exactly once across the
//!   shards;
//! * a crash with every part **prepared** but the frame absent or torn
//!   presumes abort: no row of the transaction survives anywhere;
//! * one log can hold every fate at once — committed, prepared and
//!   never committed, committed after that — and recovery keeps each
//!   apart;
//! * the writes made after such a recovery are themselves cut at every
//!   byte, a segment boundary's new file absent, torn or bare, and each
//!   cut recovers to the state before the write or after it.
//!
//! Every case reopens what it recovered a second time and expects the
//! same rows: recovery writes nothing that a reopen reads differently.

use relstore::testkit::standard_schemas;
use relstore::{AnyEngine, EngineKind, Predicate, RowId, Value};
use shard::{Router, RoutingSpec, ShardMap};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use wal::segments::{encode_seg_header, read_segments, segment_path};
use wal::{crash, WalOptions, WalRecord};

const SHARDS: u32 = 2;

/// Both engines: every case below runs once per kind.
const ENGINES: [EngineKind; 2] = [EngineKind::TwoPl, EngineKind::Mvcc];

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shard-2pc-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

fn log_dir(dir: &Path) -> PathBuf {
    dir.join("wal.d")
}

fn options(kind: EngineKind) -> WalOptions {
    WalOptions {
        engine: kind,
        sync_data: false,
        ..WalOptions::default()
    }
}

/// The durable router under `dir` with the standard catalog mounted.
fn open_router(dir: &Path, opts: WalOptions) -> Router {
    let (router, _reports) =
        Router::recover(ShardMap::uniform(SHARDS), dir, opts).expect("open durable router");
    for schema in standard_schemas() {
        let spec = spec_of(schema.name.as_str());
        router.mount_table(schema, spec).expect("sharded catalog");
    }
    router
}

fn parent_row(id: i64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Text(format!("p{id}")),
        Value::Text(format!("tag-{id}")),
    ]
}

fn review_row(id: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::Null, Value::Int(3)]
}

/// Commit `ids` as parents in one router transaction, which must span
/// every shard (with 16 ids over two shards anything else would be a
/// hash catastrophe, not flakiness).
fn commit_parents(router: &Router, ids: &[i64]) {
    let txn = router.begin();
    for &id in ids {
        txn.insert("parent", parent_row(id)).expect("insert parent");
    }
    assert_eq!(
        txn.dirty_shards().len(),
        SHARDS as usize,
        "the transaction must span every shard"
    );
    txn.commit().expect("commit");
}

/// Insert `ids` as reviews on every shard's engine and prepare each
/// part — its records go to the log — then leak it, as a crash between
/// the prepares and the joint commit frame would: no commit ever names
/// these parts. Reviews with a NULL child touch no parent, so the
/// leaked 2PL locks never block a later transaction on `parent`.
fn prepare_and_leak_reviews(router: &Router, ids: &[i64]) {
    let per_shard = ids.len().div_ceil(SHARDS as usize);
    for (s, chunk) in ids.chunks(per_shard).enumerate() {
        let txn = router.engine(s).begin();
        for &id in chunk {
            txn.insert("review", review_row(id)).expect("insert review");
        }
        let prepared = txn.prepare().expect("prepare");
        assert!(prepared.logged(), "shard {s}: the part logged nothing");
        // The prepared half is dropped (an MVCC part gives its commit
        // fence back); the transaction itself never ends.
        drop(prepared);
        std::mem::forget(txn);
    }
}

/// Each shard's parent ids, read from its engine.
fn parents_per_shard(router: &Router) -> Vec<BTreeSet<i64>> {
    router
        .engines()
        .iter()
        .map(|e| ids_of(e, "parent"))
        .collect()
}

fn ids_of(engine: &AnyEngine, table: &str) -> BTreeSet<i64> {
    engine
        .with_txn(|t| t.select(table, &Predicate::True))
        .expect("select")
        .iter()
        .map(|(_, row)| row[0].as_int().expect("int pk"))
        .collect()
}

/// The union of per-shard id sets; no id may sit on two shards.
fn union(sets: &[BTreeSet<i64>]) -> BTreeSet<i64> {
    let mut all = BTreeSet::new();
    let mut total = 0usize;
    for s in sets {
        total += s.len();
        all.extend(s.iter().copied());
    }
    assert_eq!(all.len(), total, "a parent id appears on two shards");
    all
}

/// Every frame of the unpruned log under `log`: `(lsn, end, record)`.
fn frames(log: &Path) -> Vec<(u64, u64, WalRecord)> {
    crash::frames(&crash::read_log(log))
}

/// The `(shard, txn)` parts a joint commit names.
type Parts = Vec<(usize, u64)>;

/// `(lsn, end, parts)` of every joint commit frame, in log order.
fn joint_commits(log: &Path) -> Vec<(u64, u64, Parts)> {
    frames(log)
        .into_iter()
        .filter_map(|(lsn, end, rec)| match rec {
            WalRecord::JointCommit { parts } => Some((lsn, end, parts)),
            _ => None,
        })
        .collect()
}

/// `(shard, txn)` of every insert into `table` in the log under `log`
/// that lies before `before`.
fn inserts_before(log: &Path, table: &str, before: u64) -> BTreeSet<(usize, u64)> {
    let mut out = BTreeSet::new();
    for (lsn, _, rec) in frames(log) {
        if lsn >= before {
            break;
        }
        let (shard, rec) = match rec {
            WalRecord::Shard { shard, record } => (shard, *record),
            rec => (0, rec),
        };
        if let WalRecord::Insert { txn, table: t, .. } = rec {
            if t == table {
                out.insert((shard, txn));
            }
        }
    }
    out
}

/// A copy of the station under `from` as a crash at `cut` leaves it.
fn crash_copy(from: &Path, to: &Path, cut: u64) {
    let _ = std::fs::remove_dir_all(to);
    crash::cut_segments(&log_dir(from), &log_dir(to), cut).expect("cut log");
}

/// Recover the station under `dir` twice and expect `expected` parent
/// ids both times, each on one shard only, and no review anywhere; then
/// commit `extra` and expect it recovered too — a transaction id reused
/// after recovery would show here.
fn check_recovers(
    dir: &Path,
    opts: &WalOptions,
    expected: &BTreeSet<i64>,
    extra: &[i64],
    what: &str,
) {
    let first = parents_per_shard(&open_router(dir, opts.clone()));
    assert_eq!(&union(&first), expected, "{what}: wrong parents");
    let router = open_router(dir, opts.clone());
    assert_eq!(parents_per_shard(&router), first, "{what}: reopen differs");
    for (s, engine) in router.engines().iter().enumerate() {
        assert!(
            ids_of(engine, "review").is_empty(),
            "{what}: reviews on shard {s}"
        );
    }
    if extra.is_empty() {
        return;
    }
    router
        .with_txn(|t| {
            for &id in extra {
                t.insert("parent", parent_row(id))?;
            }
            Ok(())
        })
        .expect("write after recovery");
    drop(router);
    let mut later = expected.clone();
    later.extend(extra);
    let after = parents_per_shard(&open_router(dir, opts.clone()));
    assert_eq!(union(&after), later, "{what}: write after recovery");
}

/// Crash after the joint commit frame is durable: the commit point was
/// reached, so recovery keeps every part and the whole transaction.
#[test]
fn decided_crash_recovers_to_commit() {
    for kind in ENGINES {
        decided_crash_recovers_to_commit_on(kind);
    }
}

fn decided_crash_recovers_to_commit_on(kind: EngineKind) {
    let dir = tmp(&format!("decided-{}", kind.name()));
    let work = tmp(&format!("decided-work-{}", kind.name()));
    let baseline: Vec<i64> = (1..=4).collect();
    let crash_ids: Vec<i64> = (10..=25).collect();
    {
        let router = open_router(&dir, options(kind));
        router
            .with_txn(|t| {
                for &id in &baseline {
                    t.insert("parent", parent_row(id))?;
                }
                Ok(())
            })
            .expect("baseline commit");
        commit_parents(&router, &crash_ids);
    }
    let (_, end, parts) = joint_commits(&log_dir(&dir)).pop().expect("a joint commit");
    assert_eq!(parts.len(), SHARDS as usize, "the frame names every part");

    crash_copy(&dir, &work, end);
    let per_shard = parents_per_shard(&open_router(&work, options(kind)));
    assert!(
        per_shard.iter().all(|s| s.iter().any(|id| *id >= 10)),
        "the crash transaction spanned both shards, so both must hold its rows"
    );
    let expected: BTreeSet<i64> = baseline.iter().chain(&crash_ids).copied().collect();
    check_recovers(
        &work,
        &options(kind),
        &expected,
        &[90, 91, 92, 93],
        "decided",
    );
    for d in [&dir, &work] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// Crash with every part prepared — each part's inserts in the log —
/// but the joint commit frame absent or torn: nothing reached the
/// commit point, so recovery presumes abort everywhere and only the
/// baseline survives.
#[test]
fn prepared_crash_presumes_abort() {
    for kind in ENGINES {
        prepared_crash_presumes_abort_on(kind);
    }
}

fn prepared_crash_presumes_abort_on(kind: EngineKind) {
    let dir = tmp(&format!("prepared-{}", kind.name()));
    let work = tmp(&format!("prepared-work-{}", kind.name()));
    let baseline: Vec<i64> = (1..=4).collect();
    {
        let router = open_router(&dir, options(kind));
        router
            .with_txn(|t| {
                for &id in &baseline {
                    t.insert("parent", parent_row(id))?;
                }
                Ok(())
            })
            .expect("baseline commit");
        commit_parents(&router, &(10..=25).collect::<Vec<_>>());
    }
    let log = log_dir(&dir);
    let (lsn, end, parts) = joint_commits(&log).pop().expect("a joint commit");
    let logged = inserts_before(&log, "parent", lsn);
    for part in &parts {
        assert!(
            logged.contains(part),
            "part {part:?} has no insert before the frame"
        );
    }

    let expected: BTreeSet<i64> = baseline.iter().copied().collect();
    for (cut, what) in [(lsn, "frame absent"), (lsn + (end - lsn) / 2, "frame torn")] {
        crash_copy(&dir, &work, cut);
        check_recovers(&work, &options(kind), &expected, &[90, 91, 92, 93], what);
    }
    for d in [&dir, &work] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// Writes a station log with every fate in it and returns the ids of
/// the two committed transactions: a committed transaction; the parts
/// of one on `review`, prepared on every shard and never committed;
/// and a committed one after them, whose flush makes those prepared
/// parts durable too.
fn mixed_fates(dir: &Path, kind: EngineKind) -> (Vec<i64>, Vec<i64>) {
    let committed: Vec<i64> = (1..=16).collect();
    let decided: Vec<i64> = (20..=35).collect();
    let router = open_router(dir, options(kind));
    commit_parents(&router, &committed);
    prepare_and_leak_reviews(&router, &(50..=65).collect::<Vec<_>>());
    commit_parents(&router, &decided);
    (committed, decided)
}

/// Three fates in one log: a committed transaction, a prepared one
/// that no joint commit frame names, and a committed one after it.
/// Recovery keeps the first and the third and drops the second on
/// every shard.
#[test]
fn mixed_fates_in_one_log() {
    for kind in ENGINES {
        mixed_fates_in_one_log_on(kind);
    }
}

fn mixed_fates_in_one_log_on(kind: EngineKind) {
    let dir = tmp(&format!("mixed-{}", kind.name()));
    let (committed, decided) = mixed_fates(&dir, kind);
    let log = log_dir(&dir);
    let joints = joint_commits(&log);
    assert_eq!(joints.len(), 2, "the prepared parts have no commit frame");
    let reviews = inserts_before(&log, "review", u64::MAX);
    assert_eq!(
        reviews.iter().map(|p| p.0).collect::<BTreeSet<_>>().len(),
        SHARDS as usize,
        "every shard logged its prepared part"
    );
    assert!(
        joints
            .iter()
            .all(|j| j.2.iter().all(|p| !reviews.contains(p))),
        "a commit frame names a prepared part"
    );

    let expected: BTreeSet<i64> = committed.iter().chain(&decided).copied().collect();
    check_recovers(&dir, &options(kind), &expected, &[90, 91, 92, 93], "mixed");

    // Each shard's surviving row ids are unique.
    let router = open_router(&dir, options(kind));
    for (s, engine) in router.engines().iter().enumerate() {
        let rows = engine
            .with_txn(|t| t.select("parent", &Predicate::True))
            .expect("select parent");
        let ids: BTreeSet<RowId> = rows.iter().map(|(rid, _)| *rid).collect();
        assert_eq!(ids.len(), rows.len(), "duplicate row ids on shard {s}");
    }
    drop(router);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The first write after a recovery follows a torn tail and prepared
/// parts that never committed. Cut at **every byte** of that write —
/// including each boundary where it rotated into a new segment, whose
/// file may be absent, torn or bare — the log must recover to the
/// state before the write or after it, and a second recovery must read
/// the same.
#[test]
fn resolve_log_patch_cut_at_every_byte_is_idempotent() {
    for kind in ENGINES {
        resolve_log_patch_cut_at_every_byte_is_idempotent_on(kind);
    }
}

fn resolve_log_patch_cut_at_every_byte_is_idempotent_on(kind: EngineKind) {
    let dir = tmp(&format!("patch-{}", kind.name()));
    let patched = tmp(&format!("patch-patched-{}", kind.name()));
    let work = tmp(&format!("patch-work-{}", kind.name()));
    let (committed, decided) = mixed_fates(&dir, kind);
    {
        // A fourth transaction whose joint commit frame the crash tears.
        let router = open_router(&dir, options(kind));
        commit_parents(&router, &(40..=55).collect::<Vec<_>>());
    }
    let (lsn, end, _) = joint_commits(&log_dir(&dir)).pop().expect("a joint commit");
    crash_copy(&dir, &patched, lsn + (end - lsn) / 2);

    // Small segments: the write after recovery rotates, so the sweep
    // crosses a segment boundary.
    let opts = WalOptions {
        segment_bytes: Some(256),
        ..options(kind)
    };
    let write: Vec<i64> = (70..=77).collect();
    let pre_len;
    {
        let router = open_router(&patched, opts.clone());
        pre_len = router.wal().expect("durable").end_lsn();
        assert_eq!(pre_len, lsn, "recovery ends the log before the torn frame");
        commit_parents(&router, &write);
    }
    let patched_log = log_dir(&patched);
    let post_len = crash::read_log(&patched_log).len() as u64;
    let new_bases: Vec<u64> = read_segments(&patched_log)
        .unwrap()
        .segments
        .iter()
        .map(|s| s.base)
        .filter(|b| *b >= pre_len)
        .collect();
    assert!(!new_bases.is_empty(), "the write must rotate a segment");
    let (_, write_end, _) = joint_commits(&patched_log)
        .pop()
        .expect("the write's commit");
    assert_eq!(write_end, post_len);
    let boundaries: BTreeSet<u64> = frames(&patched_log)
        .iter()
        .map(|f| f.1)
        .filter(|e| *e >= pre_len)
        .collect();

    let before: BTreeSet<i64> = committed.iter().chain(&decided).copied().collect();
    let after: BTreeSet<i64> = before.iter().chain(&write).copied().collect();
    let work_log = log_dir(&work);
    for cut in pre_len..=post_len {
        let expected = if cut >= write_end { &after } else { &before };
        // At frame boundaries, also write after recovery.
        let extra: &[i64] = if boundaries.contains(&cut) {
            &[90, 91]
        } else {
            &[]
        };
        crash_copy(&patched, &work, cut);
        check_recovers(
            &work,
            &opts,
            expected,
            extra,
            &format!("{kind:?} cut at {cut}"),
        );
        if new_bases.contains(&cut) {
            crash_copy(&patched, &work, cut);
            std::fs::write(segment_path(&work_log, cut), &encode_seg_header(cut)[..5]).unwrap();
            check_recovers(
                &work,
                &opts,
                expected,
                extra,
                &format!("{kind:?} cut at {cut}, torn header"),
            );
            crash_copy(&patched, &work, cut);
            std::fs::write(segment_path(&work_log, cut), encode_seg_header(cut)).unwrap();
            check_recovers(
                &work,
                &opts,
                expected,
                extra,
                &format!("{kind:?} cut at {cut}, bare header"),
            );
        }
    }
    for d in [&dir, &patched, &work] {
        std::fs::remove_dir_all(d).unwrap();
    }
}
