//! End-to-end 2PC recovery over *real* WAL files: a durable router
//! ([`Router::recover`] on a fresh directory) crashes mid-commit at each protocol stage
//! (via [`DistTxn::commit_until`], which leaks the prepared engine
//! transactions exactly as a power cut would), and every shard's log
//! is then recovered independently with
//! [`twopc::recover_participant`], using the coordinator's decision
//! table read back from shard 0's WAL as the oracle.
//!
//! The invariants:
//!
//! * crash **after** the forced `CommitDecision` frame → every
//!   participant resolves to commit and the transaction's rows appear
//!   in full, partitioned exactly once across the shards;
//! * crash **before** any decision frame → presumed abort: every
//!   participant resolves to abort and no row of the transaction
//!   survives anywhere;
//! * recovery patches the logs ([`twopc::resolve_log`]) by appending,
//!   so a second recovery pass finds nothing in doubt and reproduces
//!   the same state without consulting the oracle — and a crash at any
//!   byte of the patch loses nothing;
//! * a `CommitDecision` outlives checkpoint pruning of the
//!   coordinator's log until every participant has resolved.

use obs::Registry;
use relstore::testkit::standard_schemas;
use relstore::{EngineKind, Predicate, RowId, Value};
use shard::twopc::{self, Decision};
use shard::{CommitStage, Router, RoutingSpec, ShardMap};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use wal::segments::{encode_seg_header, read_segments, segment_path};
use wal::{crash, WalError, WalOptions};

const SHARDS: u32 = 2;

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

fn log_dir(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard-{shard}.wal.d"))
}

fn durable_router(dir: &Path) -> Router {
    open_router(dir, SHARDS, WalOptions::default())
}

fn open_router(dir: &Path, shards: u32, opts: WalOptions) -> Router {
    let (router, _reports) =
        Router::recover(ShardMap::uniform(shards), dir, opts).expect("open durable router");
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

/// Commit `ids` as parents in one distributed transaction, stopping at
/// `stage`. Returns the ids that made the transaction span both
/// shards (panics if the spread never happens — with 16 ids over two
/// shards that would be a hash catastrophe, not flakiness).
fn crash_txn(router: &Router, ids: &[i64], stage: CommitStage) {
    let txn = router.begin();
    for &id in ids {
        txn.insert("parent", parent_row(id)).expect("insert parent");
    }
    assert!(
        txn.dirty_shards().len() == SHARDS as usize,
        "crash txn must span every shard to exercise 2PC"
    );
    txn.commit_until(stage).expect("commit_until");
}

/// Recover every shard WAL in `dir` against the coordinator's durable
/// decision table (shard 0's log), returning each shard's committed
/// parent ids plus the resolutions recovery applied.
fn recover_all(dir: &Path) -> Result<(Vec<BTreeSet<i64>>, Vec<Decision>), WalError> {
    let decisions = twopc::read_decisions(&log_dir(dir, 0))?;
    let mut per_shard = Vec::new();
    let mut applied = Vec::new();
    for i in 0..SHARDS {
        let path = log_dir(dir, i);
        let metrics = Registry::new();
        let opts = WalOptions {
            engine: EngineKind::TwoPl,
            metrics: metrics.clone(),
            ..WalOptions::default()
        };
        let (engine, _wal, _report, resolved) =
            twopc::recover_participant(&path, opts, &metrics, |gtid| {
                *decisions.get(&gtid).unwrap_or(&Decision::Abort)
            })?;
        applied.extend(resolved.iter().map(|(_, d)| *d));
        let txn = engine.begin();
        let rows = txn.select("parent", &Predicate::True).expect("select");
        per_shard.push(
            rows.iter()
                .map(|(_, row)| match row[0] {
                    Value::Int(v) => v,
                    ref other => panic!("non-int parent id {other:?}"),
                })
                .collect(),
        );
        txn.rollback();
    }
    Ok((per_shard, applied))
}

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

/// Crash after the forced `CommitDecision`: the commit point was
/// reached, so recovery must drive every prepared participant forward
/// and materialise the whole transaction.
#[test]
fn decided_crash_recovers_to_commit() {
    let dir = tmp("decided");
    let baseline: Vec<i64> = (1..=4).collect();
    let crash_ids: Vec<i64> = (10..=25).collect();
    {
        let router = durable_router(&dir);
        router
            .with_txn(|t| {
                for &id in &baseline {
                    t.insert("parent", parent_row(id))?;
                }
                Ok(())
            })
            .expect("baseline commit");
        crash_txn(&router, &crash_ids, CommitStage::Decided);

        // The crash left both participants prepared and unresolved.
        for i in 0..SHARDS {
            assert!(
                !twopc::in_doubt(&log_dir(&dir, i)).unwrap().is_empty(),
                "shard {i} should be in doubt after the simulated crash"
            );
        }
    }

    let (per_shard, applied) = recover_all(&dir).expect("recovery");
    assert!(!applied.is_empty(), "recovery resolved nothing");
    assert!(
        applied.iter().all(|d| *d == Decision::Commit),
        "a durable CommitDecision must resolve forward: {applied:?}"
    );
    let expected: BTreeSet<i64> = baseline.iter().chain(&crash_ids).copied().collect();
    assert_eq!(union(&per_shard), expected, "rows lost or duplicated");
    assert!(
        per_shard.iter().all(|s| !s.is_empty()),
        "the crash transaction spanned both shards, so both must hold rows"
    );

    // resolve_log patched the logs: the second pass is a no-op with
    // identical state and an empty in-doubt set.
    let (again, reapplied) = recover_all(&dir).expect("second recovery");
    assert_eq!(again, per_shard, "recovery is not idempotent");
    assert!(reapplied.is_empty(), "patched logs still in doubt");
}

/// Crash after the `Prepare` frames but before any decision: nothing
/// reached the commit point, so recovery presumes abort everywhere
/// and only the baseline survives.
#[test]
fn prepared_crash_presumes_abort() {
    let dir = tmp("prepared");
    let baseline: Vec<i64> = (1..=4).collect();
    let crash_ids: Vec<i64> = (10..=25).collect();
    let decisions_before;
    {
        let router = durable_router(&dir);
        router
            .with_txn(|t| {
                for &id in &baseline {
                    t.insert("parent", parent_row(id))?;
                }
                Ok(())
            })
            .expect("baseline commit");
        decisions_before = twopc::read_decisions(&log_dir(&dir, 0)).unwrap();
        crash_txn(&router, &crash_ids, CommitStage::Prepared);
    }

    // The crash wrote no new decision frame (the baseline's own — if
    // it happened to span shards — was already durable before it).
    assert_eq!(
        twopc::read_decisions(&log_dir(&dir, 0)).unwrap(),
        decisions_before,
        "a Prepared-stage crash must leave no durable decision"
    );

    let (per_shard, applied) = recover_all(&dir).expect("recovery");
    assert!(!applied.is_empty(), "recovery resolved nothing");
    assert!(
        applied.iter().all(|d| *d == Decision::Abort),
        "no decision on disk must presume abort: {applied:?}"
    );
    let expected: BTreeSet<i64> = baseline.iter().copied().collect();
    assert_eq!(
        union(&per_shard),
        expected,
        "presumed abort leaked crash-transaction rows"
    );

    let (again, reapplied) = recover_all(&dir).expect("second recovery");
    assert_eq!(again, per_shard);
    assert!(reapplied.is_empty());
}

/// Three fates in one log: a fully committed transaction, a crashed
/// *undecided* one (on `review`, so its leaked 2PL locks never touch
/// the later transactions), and a crashed *decided* one. Recovery
/// must keep the first, roll the second back, and resolve the third
/// forward.
#[test]
fn mixed_fates_in_one_log() {
    let dir = tmp("mixed");
    let committed: Vec<i64> = (1..=8).collect();
    let undecided: Vec<i64> = (50..=65).collect();
    let decided: Vec<i64> = (20..=35).collect();
    {
        let router = durable_router(&dir);
        router
            .with_txn(|t| {
                for &id in &committed {
                    t.insert("parent", parent_row(id))?;
                }
                Ok(())
            })
            .expect("committed txn");
        // Undecided crash on `review` (NULL fk → routes by its own
        // pk, no FK lookup into the locked-later `parent` rows).
        let txn = router.begin();
        for &id in &undecided {
            txn.insert("review", vec![Value::Int(id), Value::Null, Value::Int(3)])
                .expect("insert review");
        }
        assert_eq!(txn.dirty_shards().len(), SHARDS as usize);
        txn.commit_until(CommitStage::Prepared)
            .expect("prepared crash");
        // Decided crash on `parent` rows disjoint from the committed
        // set (and on a table the leaked review txn never locked).
        crash_txn(&router, &decided, CommitStage::Decided);
    }

    let (per_shard, applied) = recover_all(&dir).expect("recovery");
    assert!(
        applied.contains(&Decision::Commit),
        "decided txn not resolved"
    );
    assert!(
        applied.contains(&Decision::Abort),
        "undecided txn not aborted"
    );
    let expected: BTreeSet<i64> = committed.iter().chain(&decided).copied().collect();
    assert_eq!(union(&per_shard), expected, "wrong parent survivor set");

    // The undecided review rows are gone everywhere, and each shard's
    // surviving RowIds are unique.
    for i in 0..SHARDS {
        let path = log_dir(&dir, i);
        let metrics = Registry::new();
        let opts = WalOptions {
            engine: EngineKind::TwoPl,
            metrics: metrics.clone(),
            ..WalOptions::default()
        };
        let (engine, _wal, _report, _resolved) =
            twopc::recover_participant(&path, opts, &metrics, |_| Decision::Abort)
                .expect("third recovery");
        let txn = engine.begin();
        let reviews = txn
            .select("review", &Predicate::True)
            .expect("select review");
        assert!(reviews.is_empty(), "undecided txn leaked rows on shard {i}");
        let rows = txn
            .select("parent", &Predicate::True)
            .expect("select parent");
        let ids: BTreeSet<RowId> = rows.iter().map(|(rid, _)| *rid).collect();
        assert_eq!(ids.len(), rows.len(), "duplicate row ids on shard {i}");
        txn.rollback();
    }
}

fn review_row(id: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::Null, Value::Int(3)]
}

/// What one participant log recovers to: its parent ids and review ids.
fn recovered_rows(
    log: &Path,
    opts: &WalOptions,
    decide: impl Fn(twopc::Gtid) -> Decision,
) -> (BTreeSet<i64>, BTreeSet<i64>, usize) {
    let (engine, _wal, _report, resolved) =
        twopc::recover_participant(log, opts.clone(), &Registry::disabled(), decide)
            .expect("participant recovery");
    let ids = |table: &str| -> BTreeSet<i64> {
        engine
            .with_txn(|t| t.select(table, &Predicate::True))
            .expect("select")
            .iter()
            .map(|(_, row)| row[0].as_int().expect("int pk"))
            .collect()
    };
    (ids("parent"), ids("review"), resolved.len())
}

/// `resolve_log` only ever appends, so a crash at **every byte** of
/// its patch — including the boundary where the patch rotated into a
/// new segment, whose file may be absent, torn or bare — leaves a log
/// that a second resolution completes: same rows as the uninterrupted
/// patch, no committed transaction lost, nothing left in doubt.
#[test]
fn resolve_log_patch_cut_at_every_byte_is_idempotent() {
    let dir = tmp("patch-cut");
    {
        let router = durable_router(&dir);
        router
            .with_txn(|t| {
                for id in 1..=8 {
                    t.insert("parent", parent_row(id))?;
                }
                Ok(())
            })
            .expect("committed txn");
        let txn = router.begin();
        for id in 50..=65 {
            txn.insert("review", review_row(id)).expect("insert review");
        }
        assert_eq!(txn.dirty_shards().len(), SHARDS as usize);
        txn.commit_until(CommitStage::Prepared)
            .expect("prepared crash");
        crash_txn(
            &router,
            &(20..=35).collect::<Vec<_>>(),
            CommitStage::Decided,
        );
    }
    let decisions = twopc::read_decisions(&log_dir(&dir, 0)).unwrap();
    let decide = |g| *decisions.get(&g).unwrap_or(&Decision::Abort);
    // Small segments: the patch's first frame rotates, so the sweep
    // crosses a segment boundary.
    let opts = WalOptions {
        segment_bytes: Some(256),
        ..WalOptions::default()
    };

    for i in 0..SHARDS {
        let src = log_dir(&dir, i);
        let pre_len = crash::read_log(&src).len() as u64;
        let in_doubt = twopc::in_doubt(&src).unwrap().len();
        assert_eq!(in_doubt, 2, "one undecided and one decided txn in doubt");

        let patched = tmp(&format!("patch-cut-patched-{i}"));
        crash::cut_segments(&src, &patched, u64::MAX).unwrap();
        let resolved = twopc::resolve_log(&patched, opts.clone(), decide).unwrap();
        assert_eq!(resolved.len(), in_doubt);
        let post_len = crash::read_log(&patched).len() as u64;
        let new_bases: Vec<u64> = read_segments(&patched)
            .unwrap()
            .segments
            .iter()
            .map(|s| s.base)
            .filter(|b| *b >= pre_len)
            .collect();
        assert!(!new_bases.is_empty(), "the patch must rotate a segment");

        let work = tmp(&format!("patch-cut-work-{i}"));
        crash::cut_segments(&patched, &work, post_len).unwrap();
        let (parents, reviews, again) = recovered_rows(&work, &opts, decide);
        assert_eq!(again, 0, "an uninterrupted patch leaves nothing in doubt");
        assert!(reviews.is_empty(), "the undecided txn must abort");
        assert!(
            parents.iter().any(|id| *id >= 20),
            "the decided txn must commit"
        );

        let check = |cut: u64, what: &str| {
            let got = recovered_rows(&work, &opts, decide);
            assert_eq!(
                (&got.0, &got.1),
                (&parents, &reviews),
                "shard {i}, patch cut at {cut} ({what}): rows differ from the whole patch"
            );
            assert!(
                twopc::in_doubt(&work).unwrap().is_empty(),
                "shard {i}, patch cut at {cut} ({what}): still in doubt after re-resolution"
            );
        };
        for cut in pre_len..=post_len {
            crash::cut_segments(&patched, &work, cut).unwrap();
            check(cut, "byte");
            if new_bases.contains(&cut) {
                crash::cut_segments(&patched, &work, cut).unwrap();
                std::fs::write(segment_path(&work, cut), &encode_seg_header(cut)[..5]).unwrap();
                check(cut, "boundary, torn header");
                crash::cut_segments(&patched, &work, cut).unwrap();
                std::fs::write(segment_path(&work, cut), encode_seg_header(cut)).unwrap();
                check(cut, "boundary, bare header");
            }
        }
        std::fs::remove_dir_all(&patched).unwrap();
        std::fs::remove_dir_all(&work).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The coordinator's log is pruned by checkpoints like any other, and
/// shard 0's snapshot knows nothing of what shards 1 and 2 have yet to
/// log. A `CommitDecision` whose participants are still prepared must
/// therefore survive any number of shard-0 checkpoints; once recovery
/// has resolved them, the next checkpoint may drop it.
#[test]
fn commit_decision_outlives_checkpoint_pruning() {
    const SEGMENT: u64 = 512;
    let dir = tmp("decision-prune");
    let opts = || WalOptions {
        segment_bytes: Some(SEGMENT),
        sync_data: false,
        ..WalOptions::default()
    };
    // Keys of `table` by the shard they route to (a review with a
    // NULL child hashes on its own key, like a parent).
    let ids_on = |router: &Router, table: &str, shard: usize, from: i64| -> Vec<i64> {
        (from..)
            .filter(|&id| {
                let probe = router.begin();
                let row = if table == "review" {
                    review_row(id)
                } else {
                    parent_row(id)
                };
                probe.insert(table, row).expect("probe insert");
                probe.dirty_shards() == [shard]
            })
            .take(if table == "review" { 3 } else { 48 })
            .collect()
    };
    // Grow shard 0's log by whole segments, checkpointing as we go —
    // on `parent`, which the crashed `review` transaction never locked
    // (its leaked participants keep their locks on shards 1 and 2).
    let churn_shard0 = |router: &Router, ids: &[i64]| {
        for round in ids.chunks(8) {
            for &id in round {
                router
                    .with_txn(|t| t.insert("parent", parent_row(id)).map(|_| ()))
                    .expect("shard-0 commit");
            }
            let wal = router.wal(0).expect("durable");
            wal.checkpoint_any(router.engine(0)).expect("checkpoint");
        }
    };

    let crash_ids: Vec<i64>;
    let decision_lsn;
    {
        let router = open_router(&dir, 3, opts());
        crash_ids = [
            ids_on(&router, "review", 1, 100),
            ids_on(&router, "review", 2, 100),
        ]
        .concat();
        let txn = router.begin();
        for &id in &crash_ids {
            txn.insert("review", review_row(id)).expect("insert review");
        }
        assert_eq!(txn.dirty_shards(), [1, 2], "participants are shards ≠ 0");
        decision_lsn = router.wal(0).unwrap().end_lsn();
        txn.commit_until(CommitStage::Decided)
            .expect("decided crash");

        churn_shard0(&router, &ids_on(&router, "parent", 0, 1_000));
        let log = read_segments(&log_dir(&dir, 0)).unwrap();
        assert!(
            router.wal(0).unwrap().durable_lsn() > decision_lsn + 4 * SEGMENT,
            "fixture: checkpoints must have covered the decision's segment several times over"
        );
        assert!(
            log.base <= decision_lsn,
            "the open decision at {decision_lsn} was pruned (log now starts at {})",
            log.base
        );
    } // crash

    {
        let router = open_router(&dir, 3, opts());
        let reviews: BTreeSet<i64> = router
            .with_txn(|t| t.select("review", &Predicate::True))
            .expect("select")
            .iter()
            .map(|(_, row)| row[0].as_int().expect("int pk"))
            .collect();
        for id in &crash_ids {
            assert!(
                reviews.contains(id),
                "decided review {id} lost to presumed abort"
            );
        }
        for s in [1, 2] {
            assert!(
                router.engine(s).row_count("review").unwrap() >= 3,
                "participant {s} did not commit"
            );
        }
        // Resolved everywhere: the hold is gone and the decision's
        // segment goes with the next checkpoints.
        churn_shard0(&router, &ids_on(&router, "parent", 0, 100_000));
        assert!(read_segments(&log_dir(&dir, 0)).unwrap().base > decision_lsn);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
