//! One station, one log: a durable router's shards write one `wal.d/`,
//! and a cross-shard commit is one joint commit frame. These cases cut
//! that log at every byte of a cross-shard commit, with a station
//! checkpoint and its pruning in the swept range, and check that
//! recovery keeps every commit whole or drops it whole; that a commit
//! costs one flush; that a checkpoint must cover every engine; and that
//! the earlier one-log-per-shard layout is refused.

use obs::Registry;
use relstore::{ColumnType, EngineKind, Predicate, TableSchema, Value};
use shard::{Router, RoutingSpec, ShardMap};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use wal::{crash, WalError, WalOptions, WalRecord};

const SHARDS: u32 = 2;
const ENGINES: [EngineKind; 2] = [EngineKind::TwoPl, EngineKind::Mvcc];

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shard-one-log-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(kind: EngineKind, segment_bytes: u64) -> WalOptions {
    WalOptions {
        engine: kind,
        sync_data: false,
        segment_bytes: Some(segment_bytes),
        ..WalOptions::default()
    }
}

/// The durable router under `dir`, with one table `t(id, v)` hashed on
/// `id` mounted.
fn open(dir: &Path, opts: WalOptions) -> Router {
    let (router, reports) =
        Router::recover(ShardMap::uniform(SHARDS), dir, opts).expect("open durable router");
    assert_eq!(reports.len(), SHARDS as usize, "one report per shard");
    let schema = TableSchema::builder("t")
        .column("id", ColumnType::Int)
        .column("v", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap();
    router
        .mount_table(schema, RoutingSpec::ByColumn("id".into()))
        .expect("mount");
    router
}

/// Every row as `id → v`.
fn rows(router: &Router) -> BTreeMap<i64, i64> {
    router
        .with_txn(|t| t.select("t", &Predicate::True))
        .unwrap()
        .into_iter()
        .map(|(_, r)| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect()
}

/// `n` ids from `from` on, alternating between the two shards.
fn spread(router: &Router, from: i64, n: usize) -> Vec<i64> {
    let on = |shard: usize| {
        (from..).filter(move |&id| {
            let probe = router.begin();
            probe
                .insert("t", vec![Value::Int(id), Value::Int(0)])
                .unwrap();
            probe.dirty_shards() == [shard]
        })
    };
    let (mut zero, mut one) = (on(0), on(1));
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                zero.next().unwrap()
            } else {
                one.next().unwrap()
            }
        })
        .collect()
}

fn insert_all(router: &Router, ids: &[i64], v: i64) {
    router
        .with_txn(|t| {
            for &id in ids {
                t.insert("t", vec![Value::Int(id), Value::Int(v)])?;
            }
            Ok(())
        })
        .unwrap();
}

/// Set `v` of every row in `ids`, in one transaction.
fn update_all(router: &Router, ids: &[i64], v: i64) {
    router
        .with_txn(|t| {
            for &id in ids {
                let pred = Predicate::Eq("id".into(), Value::Int(id));
                for (gid, _) in t.select("t", &pred)? {
                    t.update_cols("t", gid, &[("v", Value::Int(v))])?;
                }
            }
            Ok(())
        })
        .unwrap();
}

/// Every segment of `from` into `to`, replacing what `to` holds by the
/// same name: laid over a copy of the log taken before a checkpoint
/// pruned it, this is the whole log as a crash before that prune left
/// it.
fn overlay(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for f in std::fs::read_dir(from).unwrap() {
        let f = f.unwrap();
        std::fs::copy(f.path(), to.join(f.file_name())).unwrap();
    }
}

/// `(lsn, end, record)` of every frame of the (possibly pruned) log
/// under `dir`, in log order.
fn frames(dir: &Path) -> Vec<(u64, u64, WalRecord)> {
    let scan = wal::segments::read_segments(dir).unwrap();
    let raw = wal::record::scan_raw_from(&scan.bytes, scan.base).unwrap();
    let mut out = Vec::new();
    for (i, &(lsn, payload)) in raw.frames.iter().enumerate() {
        let end = raw.frames.get(i + 1).map_or(raw.end, |f| f.0);
        out.push((lsn, end, wal::record::decode(lsn, payload).unwrap()));
    }
    out
}

fn is_checkpoint(rec: &WalRecord) -> bool {
    match rec {
        WalRecord::Shard { record, .. } => is_checkpoint(record),
        rec => matches!(rec, WalRecord::Checkpoint { .. }),
    }
}

/// The crash sweep. A first checkpoint prunes the log's head; then, in
/// the swept range, cross-shard transaction A inserts rows on both
/// shards, a station checkpoint writes both shards' checkpoint frames
/// and prunes again, and cross-shard transaction B updates the
/// baseline and inserts more. A cut at every byte of that range must
/// recover A and B each whole or not at all — a cut between the two
/// checkpoint frames included — and the store must reopen a second
/// time to the same state, then take a write and recover it.
#[test]
fn cross_shard_commit_cut_at_every_byte_is_all_or_nothing() {
    for kind in ENGINES {
        let dir = tmp(&format!("sweep-{}", kind.name()));
        let log = dir.join("wal.d");
        let whole = tmp(&format!("sweep-whole-{}", kind.name()));
        let opts = || options(kind, 512);
        let (baseline, a, b, start);
        {
            let router = open(&dir, opts());
            baseline = spread(&router, 0, 4);
            a = spread(&router, 100, 4);
            b = spread(&router, 200, 4);
            insert_all(&router, &baseline, 0);
            for round in 0..6 {
                update_all(&router, &baseline, round);
            }
            update_all(&router, &baseline, 0);
            let wal = router.wal().expect("durable");
            wal.checkpoint_station(router.engines()).unwrap();
            assert!(
                wal::segments::read_segments(&log).unwrap().base > 8,
                "fixture: the first checkpoint prunes the log's head"
            );
            start = wal.end_lsn();
            insert_all(&router, &a, 1);
            // The second checkpoint prunes what the first left: keep
            // a copy of the log from before it.
            overlay(&log, &whole);
            wal.checkpoint_station(router.engines()).unwrap();
            router
                .with_txn(|t| {
                    for &id in &baseline {
                        let pred = Predicate::Eq("id".into(), Value::Int(id));
                        for (gid, _) in t.select("t", &pred)? {
                            t.update_cols("t", gid, &[("v", Value::Int(2))])?;
                        }
                    }
                    for &id in &b {
                        t.insert("t", vec![Value::Int(id), Value::Int(2)])?;
                    }
                    Ok(())
                })
                .unwrap();
        }
        overlay(&log, &whole);
        let swept: Vec<(u64, u64, WalRecord)> = frames(&whole)
            .into_iter()
            .filter(|f| f.0 >= start)
            .collect();
        let end = swept.last().unwrap().1;
        let ends = |is: fn(&WalRecord) -> bool| -> Vec<(u64, u64)> {
            swept
                .iter()
                .filter(|f| is(&f.2))
                .map(|f| (f.0, f.1))
                .collect()
        };
        let joints = ends(|r| matches!(r, WalRecord::JointCommit { .. }));
        assert_eq!(joints.len(), 2, "A and B each commit with one joint frame");
        let (a_end, b_end) = (joints[0].1, joints[1].1);
        let checkpoints = ends(is_checkpoint);
        assert_eq!(checkpoints.len(), SHARDS as usize, "one frame per shard");
        let pruned_at = checkpoints.last().unwrap().1;
        assert!(a_end <= checkpoints[0].0 && pruned_at < b_end);
        let boundaries: Vec<u64> = swept.iter().map(|f| f.1).collect();

        let expected = |cut: u64| {
            let mut rows: BTreeMap<i64, i64> = baseline.iter().map(|&id| (id, 0)).collect();
            if cut >= a_end {
                rows.extend(a.iter().map(|&id| (id, 1)));
            }
            if cut >= b_end {
                rows.extend(baseline.iter().chain(&b).map(|&id| (id, 2)));
            }
            rows
        };
        let work = tmp(&format!("sweep-work-{}", kind.name()));
        let check = |src: &Path, cut: u64, what: &str| {
            let _ = std::fs::remove_dir_all(&work);
            crash::cut_segments(src, &work.join("wal.d"), cut).unwrap();
            let first = rows(&open(&work, opts()));
            assert_eq!(first, expected(cut), "{kind:?} {what} cut at {cut}");
            let router = open(&work, opts());
            assert_eq!(rows(&router), first, "{kind:?} {what} cut at {cut}: reopen");
            if !boundaries.contains(&cut) {
                return;
            }
            // At frame boundaries, also write after recovery and
            // recover that: a reused transaction id would show here.
            let extra = spread(&router, 900, 2);
            insert_all(&router, &extra, 9);
            drop(router);
            let mut later = first;
            later.extend(extra.iter().map(|&id| (id, 9)));
            assert_eq!(
                rows(&open(&work, opts())),
                later,
                "{kind:?} {what} cut at {cut}: write after recovery"
            );
        };
        for cut in start..=end {
            check(&whole, cut, "unpruned");
            if cut >= pruned_at {
                check(&log, cut, "pruned");
            }
        }
        for d in [&dir, &whole, &work] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }
}

/// `wal.flushes` per commit: a cross-shard commit is one joint commit
/// frame in one group flush, on both engines, and so is a single-shard
/// one.
#[test]
fn a_cross_shard_commit_is_one_flush() {
    for kind in ENGINES {
        let dir = tmp(&format!("flushes-{}", kind.name()));
        let metrics = Registry::new();
        let opts = WalOptions {
            metrics: metrics.clone(),
            ..options(kind, 1 << 20)
        };
        let router = open(&dir, opts);
        let ids = spread(&router, 0, 4);
        let flushes = |f: &dyn Fn()| {
            let before = metrics.counter("wal.flushes");
            f();
            metrics.counter("wal.flushes") - before
        };
        assert_eq!(
            flushes(&|| insert_all(&router, &ids, 0)),
            1,
            "{kind:?} insert"
        );
        assert_eq!(
            flushes(&|| update_all(&router, &ids, 1)),
            1,
            "{kind:?} update"
        );
        assert_eq!(
            flushes(&|| update_all(&router, &ids[..1], 2)),
            1,
            "{kind:?} one shard"
        );
        assert_eq!(
            router.metrics().counter("shard.router.cross_shard_commits"),
            2
        );
        drop(router);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A checkpoint prunes the log below its oldest frame, so it must cover
/// every engine that writes the log: one of a single shard is refused
/// and leaves every file in place, and a station checkpoint over
/// segments smaller than any flush (each of its frames in a segment of
/// its own) keeps every engine's frame.
#[test]
fn a_checkpoint_must_cover_every_engine() {
    let dir = tmp("partial-checkpoint");
    let router = open(&dir, options(EngineKind::TwoPl, 64));
    let ids = spread(&router, 0, 8);
    for &id in &ids {
        insert_all(&router, &[id], 0);
    }
    let wal = router.wal().expect("durable");
    let before = wal.segments_live();
    assert!(before > 1);
    assert!(wal.checkpoint_any(router.engine(0)).is_err());
    assert_eq!(wal.segments_live(), before, "nothing pruned");
    wal.checkpoint_station(router.engines()).unwrap();
    assert!(wal.segments_live() < before);
    drop(router);
    assert_eq!(rows(&open(&dir, options(EngineKind::TwoPl, 64))).len(), 8);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A station directory in the earlier layout — one `shard-<i>.wal.d`
/// per shard — is refused with a typed error, and nothing is created,
/// rewritten or deleted.
#[test]
fn the_per_shard_log_layout_is_refused() {
    let dir = tmp("old-layout");
    let old = dir.join("shard-0.wal.d");
    std::fs::create_dir_all(&old).unwrap();
    std::fs::write(old.join("wal-0000000000000008.seg"), b"wdocwal1").unwrap();
    match Router::recover(ShardMap::uniform(SHARDS), &dir, WalOptions::default()) {
        Err(WalError::UnsupportedLayout { path }) => assert_eq!(path, old),
        Err(e) => panic!("expected the layout error, got {e}"),
        Ok(_) => panic!("the old layout opened"),
    }
    assert!(!dir.join("wal.d").exists(), "nothing created");
    assert_eq!(
        std::fs::read(old.join("wal-0000000000000008.seg")).unwrap(),
        b"wdocwal1"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The live segment files of the log under `from`, copied into `to` in
/// LSN order while the log keeps taking writes: a segment listed
/// before a newer one was sealed first, so the copy is a prefix of the
/// log, cut wherever the newest listed segment was at its copy.
fn copy_live(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    let mut names: Vec<_> = std::fs::read_dir(from)
        .unwrap()
        .map(|f| f.unwrap().file_name())
        .collect();
    names.sort();
    for name in names {
        std::fs::copy(from.join(&name), to.join(&name)).unwrap();
    }
}

/// Cross-shard commits racing station checkpoints, on both engines.
/// One thread commits transactions that each insert a row on both
/// shards and set a pair of rows, one per shard, to the commit's
/// number; the other keeps running `checkpoint_station` over 256-byte
/// segments, so every checkpoint prunes, and copies the log before
/// each. Cut at every frame boundary from the end of the previous
/// checkpoint's newest frame on, each copy and the final log must
/// recover a prefix of the commits, each one whole, with every row on
/// the shard its id routes to.
#[test]
fn concurrent_checkpoints_keep_cross_shard_commits_whole() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    const COMMITS: usize = 48;
    for kind in ENGINES {
        let dir = tmp(&format!("race-{}", kind.name()));
        let log = dir.join("wal.d");
        let opts = || options(kind, 256);
        let (pair, ids, home, copies);
        {
            let router = open(&dir, opts());
            pair = spread(&router, 0, 2);
            ids = spread(&router, 100, 2 * COMMITS);
            home = pair
                .iter()
                .chain(&ids)
                .enumerate()
                .map(|(i, &id)| (id, i % 2))
                .collect::<BTreeMap<i64, usize>>();
            insert_all(&router, &pair, 0);
            let wal = router.wal().expect("durable");
            let mut newest = wal.checkpoint_station(router.engines()).unwrap();
            let (committed, rounds) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let mut taken = std::thread::scope(|s| {
                s.spawn(|| {
                    for k in 1..=COMMITS {
                        // Run at most eight commits ahead of the
                        // checkpoints, so there are many of them.
                        while k > 4 * rounds.load(Ordering::Acquire) + 8 {
                            std::thread::yield_now();
                        }
                        let v = k as i64;
                        router
                            .with_txn(|t| {
                                for &id in &ids[2 * k - 2..2 * k] {
                                    t.insert("t", vec![Value::Int(id), Value::Int(v)])?;
                                }
                                for &id in &pair {
                                    let pred = Predicate::Eq("id".into(), Value::Int(id));
                                    for (gid, _) in t.select("t", &pred)? {
                                        t.update_cols("t", gid, &[("v", Value::Int(v))])?;
                                    }
                                }
                                Ok(())
                            })
                            .unwrap();
                        committed.store(k, Ordering::Release);
                    }
                });
                let mut copies = Vec::new();
                let mut seen = 0;
                while seen < COMMITS {
                    // Let a few commits land between two checkpoints.
                    while committed.load(Ordering::Acquire) < (seen + 4).min(COMMITS) {
                        std::thread::yield_now();
                    }
                    seen = committed.load(Ordering::Acquire);
                    // Nothing is pruned between the last checkpoint and
                    // this copy: every cut from that checkpoint's
                    // newest frame on is a crash the station can meet.
                    let copy = dir.join(format!("copy-{}", copies.len()));
                    copy_live(&log, &copy);
                    copies.push((copy, newest));
                    newest = wal.checkpoint_station(router.engines()).unwrap();
                    rounds.fetch_add(1, Ordering::Release);
                }
                copies
            });
            drop(router);
            let copy = dir.join("copy-final");
            copy_live(&log, &copy);
            taken.push((copy, newest));
            copies = taken;
        }

        let work = tmp(&format!("race-work-{}", kind.name()));
        let recovered = |copy: &Path, cut: u64| -> usize {
            let _ = std::fs::remove_dir_all(&work);
            crash::cut_segments(copy, &work.join("wal.d"), cut).unwrap();
            let router = open(&work, opts());
            let all = rows(&router);
            let m = all[&pair[0]];
            let mut want: BTreeMap<i64, i64> = pair.iter().map(|&id| (id, m)).collect();
            for k in 1..=m {
                let i = 2 * (k as usize - 1);
                want.extend(ids[i..i + 2].iter().map(|&id| (id, k)));
            }
            let at = format!("{kind:?} {} cut at {cut}", copy.display());
            assert_eq!(all, want, "{at}: not a prefix of whole commits");
            for (s, engine) in router.engines().iter().enumerate() {
                let held = engine
                    .with_txn(|t| t.select("t", &Predicate::True))
                    .unwrap();
                for (_, row) in held {
                    let id = row[0].as_int().unwrap();
                    assert_eq!(home[&id], s, "{at}: row {id} recovered on shard {s}");
                }
            }
            m as usize
        };
        let mut cuts = 0;
        for (copy, newest) in &copies {
            let mut prev = 0;
            for (lsn, end, _) in frames(copy) {
                if lsn < *newest {
                    continue;
                }
                let m = recovered(copy, end);
                assert!(m >= prev, "{kind:?}: a longer cut lost a commit");
                prev = m;
                cuts += 1;
            }
        }
        let (final_copy, _) = copies.last().unwrap();
        assert_eq!(
            recovered(final_copy, frames(final_copy).last().unwrap().1),
            COMMITS,
            "{kind:?}: the whole log recovers every commit"
        );
        assert!(
            copies.len() > COMMITS / 8 && cuts > COMMITS,
            "{kind:?}: fixture"
        );
        for d in [&dir, &work] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }
}
