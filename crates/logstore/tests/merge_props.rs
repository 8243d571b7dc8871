//! Compaction invariants, property-tested over random op tapes:
//!
//! 1. a merge is **observation-neutral** — every key's lookup is
//!    unchanged, version for version, value for value;
//! 2. a merge only **reclaims** — disk never grows, the report's
//!    accounting adds up, and merged output segments contain zero
//!    dead entries;
//! 3. a fresh open **from hints** reproduces the post-merge directory
//!    byte for byte, without scanning the merged data files.

use logstore::{LogConfig, LogStore};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use testkit::Fingerprint;

#[derive(Debug, Clone)]
enum Op {
    Put { key: u8, len: u8 },
    Remove { key: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..30, 0u8..48).prop_map(|(key, len)| Op::Put { key, len }),
        (0u8..30, 0u8..48).prop_map(|(key, len)| Op::Put { key, len }),
        (0u8..30, 0u8..48).prop_map(|(key, len)| Op::Put { key, len }),
        (0u8..30).prop_map(|key| Op::Remove { key }),
    ]
}

fn scratch() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("logstore-merge-props-{}-{n}", std::process::id()))
}

fn apply(store: &LogStore, ops: &[Op], seq: &mut u64) {
    for op in ops {
        *seq += 1;
        match op {
            Op::Put { key, len } => {
                let k = [b'k', *key];
                let v = format!("{seq}-{}", "z".repeat(*len as usize));
                store.put(&k, v.as_bytes()).unwrap();
            }
            Op::Remove { key } => {
                store.remove(&[b'k', *key]).unwrap();
            }
        }
    }
}

/// Compaction economy under churn: 48 keys of ~120 bytes overwritten
/// `churn` times (then every 4th key removed and every 8th rewritten)
/// on an append-only store and on the auto-compacting one, 2 KiB
/// segments. The stores agree key for key; from churn 4 on, the
/// compacted one needs at most half the disk, its advantage grows with
/// churn, and its footprint follows the live set, not the history.
#[test]
fn compaction_bounds_disk_by_the_live_set() {
    const SEG: u64 = 2048;
    let tape = |store: &LogStore, churn: u64| {
        let val = "x".repeat(120);
        for g in 0..churn {
            for k in 0..48 {
                let v = format!("g{g}-{val}");
                store
                    .put(format!("doc/{k:05}").as_bytes(), v.as_bytes())
                    .unwrap();
            }
        }
        for k in (0..48).step_by(4) {
            store.remove(format!("doc/{k:05}").as_bytes()).unwrap();
        }
        for k in (0..48).step_by(8) {
            let v = format!("re-{}", "y".repeat(120));
            store
                .put(format!("doc/{k:05}").as_bytes(), v.as_bytes())
                .unwrap();
        }
    };
    let open = |compacting: bool| {
        let mut cfg = LogConfig {
            segment_bytes: SEG,
            ..LogConfig::default()
        };
        if !compacting {
            cfg.min_sealed_segments = usize::MAX;
        }
        let dir = scratch();
        (LogStore::open(&dir, cfg).unwrap(), dir)
    };
    // (churn, appended, live, raw disk, compacted disk, raw segments,
    // compacted segments, merges, reclaimed).
    let cells = [
        (1, 8_622, 6_426, 8_702, 8_702, 5, 5, 0, 0),
        (4, 30_654, 6_426, 30_894, 6_490, 15, 4, 4, 67_327),
        (8, 60_030, 6_426, 60_494, 9_636, 29, 6, 8, 140_990),
    ];
    let mut last_reduction = 0.0;
    for (churn, appended, live, raw_disk, disk, raw_segs, segs, merges, reclaimed) in cells {
        let ((raw, raw_dir), (merged, merged_dir)) = (open(false), open(true));
        tape(&raw, churn);
        tape(&merged, churn);
        merged.maybe_merge().unwrap();
        let contents = |s: &LogStore| s.entries().unwrap().into_iter().collect::<BTreeMap<_, _>>();
        assert!(
            contents(&raw) == contents(&merged),
            "churn {churn}: compaction changed a lookup"
        );
        let (a, b) = (raw.stats(), merged.stats());
        assert_eq!(
            (a.appended_bytes, a.live_bytes, a.disk_bytes, a.segments),
            (appended, live, raw_disk, raw_segs),
            "churn {churn}: append-only store"
        );
        assert_eq!(
            (
                b.live_bytes,
                b.disk_bytes,
                b.segments,
                b.merges,
                b.reclaimed_bytes
            ),
            (live, disk, segs, merges, reclaimed),
            "churn {churn}: compacting store"
        );
        if churn >= 4 {
            assert!(
                2 * disk <= raw_disk,
                "churn {churn}: less than 2x reclaimed"
            );
        }
        let reduction = raw_disk as f64 / disk as f64;
        assert!(reduction >= last_reduction, "reduction shrank with churn");
        last_reduction = reduction;
        assert!(
            disk <= 2 * live + 2 * SEG,
            "churn {churn}: disk unmoored from the live set"
        );
        drop((raw, merged));
        let _ = std::fs::remove_dir_all(raw_dir);
        let _ = std::fs::remove_dir_all(merged_dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merge_preserves_lookups_and_reclaims(
        before in proptest::collection::vec(op_strategy(), 1..120),
        after in proptest::collection::vec(op_strategy(), 0..30),
    ) {
        let dir = scratch();
        let cfg = LogConfig {
            segment_bytes: 384,
            min_sealed_segments: usize::MAX,
            ..LogConfig::default()
        };
        let store = LogStore::open(&dir, cfg.clone()).unwrap();
        let mut seq = 0u64;
        apply(&store, &before, &mut seq);

        // Invariant 1: observation-neutral, key for key.
        let want: BTreeMap<Vec<u8>, Vec<u8>> =
            store.entries().unwrap().into_iter().collect();
        let pre = store.stats();
        let report = store.merge().unwrap();
        let got: BTreeMap<Vec<u8>, Vec<u8>> =
            store.entries().unwrap().into_iter().collect();
        prop_assert_eq!(&want, &got, "merge changed an observation");
        for (k, v) in &want {
            prop_assert_eq!(store.get(k).unwrap().as_deref(), Some(v.as_slice()));
        }

        // Invariant 2: reclaim-only, with honest accounting.
        let post = store.stats();
        prop_assert!(post.disk_bytes <= pre.disk_bytes, "merge grew the disk");
        prop_assert_eq!(
            post.reclaimed_bytes,
            pre.reclaimed_bytes + report.reclaimed_bytes
        );
        if !report.merged.is_empty() {
            prop_assert_eq!(post.merges, pre.merges + 1);
        }
        // Only keys whose current version sits in a sealed segment
        // move; the active tail's entries stay put.
        prop_assert!(report.live_records as usize <= want.len());
        for seg in store.segment_report() {
            if report.outputs.contains(&seg.id) {
                prop_assert_eq!(seg.dead_records, 0, "dead entry in merged output");
                prop_assert_eq!(seg.records, seg.live_records);
                prop_assert_eq!(seg.dead_bytes, 0, "dead bytes in a fresh output");
            }
        }
        // Merged inputs are really gone from the directory's world.
        for id in &report.merged {
            prop_assert!(
                !store.segment_report().iter().any(|s| s.id == *id),
                "merged segment survived"
            );
        }

        // The store stays fully writable after a merge.
        apply(&store, &after, &mut seq);
        let want2: BTreeMap<Vec<u8>, Vec<u8>> =
            store.entries().unwrap().into_iter().collect();
        let export = store.directory_export();
        let fp = store.fingerprint().unwrap();
        let hinted = store
            .segment_report()
            .iter()
            .filter(|s| s.sealed)
            .count();
        store.sync().unwrap();
        drop(store);

        // Invariant 3: reopen reproduces the directory byte for byte,
        // and every sealed segment loads from its hint (the unsealed
        // active tail is the only data file scanned).
        let store = LogStore::open(&dir, cfg).unwrap();
        prop_assert_eq!(store.directory_export(), export, "reopen directory diverged");
        prop_assert_eq!(store.fingerprint().unwrap(), fp);
        let got2: BTreeMap<Vec<u8>, Vec<u8>> =
            store.entries().unwrap().into_iter().collect();
        prop_assert_eq!(want2, got2);
        let stats = store.stats();
        prop_assert!(
            stats.hints_loaded >= hinted as u64,
            "sealed segments should reopen from hints ({} < {hinted})",
            stats.hints_loaded
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
