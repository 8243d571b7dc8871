//! Smoke tests for the log-structured store: roundtrips, rotation,
//! reopen (hints and scans), merge, and the compaction policy.

use logstore::{LogConfig, LogStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("logstore-basic-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn put_get_remove_roundtrip() {
    let dir = scratch("roundtrip");
    let store = LogStore::open(&dir, LogConfig::default()).unwrap();
    assert!(store.is_empty());
    store.put(b"alpha", b"1").unwrap();
    store.put(b"beta", b"2").unwrap();
    store.put(b"alpha", b"one").unwrap();
    assert_eq!(
        store.get(b"alpha").unwrap().as_deref(),
        Some(b"one".as_ref())
    );
    assert_eq!(store.get(b"beta").unwrap().as_deref(), Some(b"2".as_ref()));
    assert_eq!(store.get(b"gamma").unwrap(), None);
    assert!(store.remove(b"alpha").unwrap());
    assert!(!store.remove(b"alpha").unwrap());
    assert_eq!(store.get(b"alpha").unwrap(), None);
    assert_eq!(store.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rotation_seals_segments_and_reopen_uses_hints() {
    let dir = scratch("rotate");
    let cfg = LogConfig::small_for_tests(256);
    let store = LogStore::open(&dir, cfg.clone()).unwrap();
    for i in 0..50u32 {
        store
            .put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    store.remove(b"k007").unwrap();
    let stats = store.stats();
    assert!(
        stats.sealed_segments >= 2,
        "tiny segments must rotate: {stats:?}"
    );
    let export = store.directory_export();
    drop(store);

    let store = LogStore::open(&dir, cfg).unwrap();
    let reopened = store.stats();
    assert!(
        reopened.hints_loaded >= 2,
        "sealed segments reopen via hints: {reopened:?}"
    );
    assert_eq!(
        store.directory_export(),
        export,
        "hint reopen reproduces the directory"
    );
    assert_eq!(
        store.get(b"k007").unwrap(),
        None,
        "tombstone survives reopen"
    );
    assert_eq!(store.get(b"k008").unwrap().as_deref(), Some(b"v8".as_ref()));
    assert_eq!(store.len(), 49);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_without_hints_scans_data_files() {
    let dir = scratch("scan");
    let cfg = LogConfig::small_for_tests(256);
    let store = LogStore::open(&dir, cfg.clone()).unwrap();
    for i in 0..30u32 {
        store
            .put(format!("k{i:03}").as_bytes(), b"payload-payload")
            .unwrap();
    }
    store.remove(b"k004").unwrap();
    let fp = store.fingerprint().unwrap();
    drop(store);

    for entry in std::fs::read_dir(&dir).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().is_some_and(|e| e == "hint") {
            std::fs::remove_file(p).unwrap();
        }
    }
    let store = LogStore::open(&dir, cfg).unwrap();
    let stats = store.stats();
    assert_eq!(stats.hints_loaded, 0);
    assert!(
        stats.segments_scanned >= 2,
        "no hints: every sealed segment scans: {stats:?}"
    );
    assert_eq!(store.fingerprint().unwrap(), fp);
    assert_eq!(store.get(b"k004").unwrap(), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_reclaims_dead_bytes_and_preserves_content() {
    let dir = scratch("merge");
    let cfg = LogConfig::small_for_tests(512);
    let store = LogStore::open(&dir, cfg).unwrap();
    // Churn: overwrite the same 10 keys many times so most bytes die.
    for round in 0..40u32 {
        for k in 0..10u32 {
            store
                .put(
                    format!("key{k}").as_bytes(),
                    format!("round{round}-{k:08}").as_bytes(),
                )
                .unwrap();
        }
    }
    store.remove(b"key3").unwrap();
    let before = store.stats();
    let fp = store.fingerprint().unwrap();
    let report = store.merge().unwrap();
    assert!(!report.merged.is_empty());
    assert!(report.reclaimed_bytes > 0);
    let after = store.stats();
    assert!(
        after.disk_bytes < before.disk_bytes / 2,
        "churn workload compacts >2x: before {} after {}",
        before.disk_bytes,
        after.disk_bytes
    );
    assert_eq!(
        store.fingerprint().unwrap(),
        fp,
        "merge must not change content"
    );
    assert_eq!(store.get(b"key3").unwrap(), None);
    assert_eq!(
        store.get(b"key4").unwrap().as_deref(),
        Some(b"round39-00000004".as_ref())
    );
    // Merged output segments hold zero dead entries.
    for seg in store.segment_report() {
        if report.outputs.contains(&seg.id) {
            assert_eq!(
                seg.dead_records, 0,
                "fresh output has no dead entries: {seg:?}"
            );
            assert_eq!(seg.dead_bytes, 0);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auto_compaction_policy_fires_on_churn() {
    let dir = scratch("auto");
    let cfg = LogConfig {
        segment_bytes: 512,
        dead_ratio_pct: 30,
        min_sealed_segments: 2,
    };
    let store = LogStore::open(&dir, cfg).unwrap();
    for round in 0..60u32 {
        for k in 0..8u32 {
            store
                .put(
                    format!("key{k}").as_bytes(),
                    format!("r{round}-{k:010}").as_bytes(),
                )
                .unwrap();
        }
    }
    let stats = store.stats();
    assert!(
        stats.merges > 0,
        "auto compaction must have fired: {stats:?}"
    );
    assert!(stats.reclaimed_bytes > 0);
    // Disk stays bounded: a handful of segments, not one per round.
    assert!(
        stats.segments < 12,
        "compaction bounds segment count: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_then_reopen_from_hints_matches() {
    let dir = scratch("merge-reopen");
    let cfg = LogConfig::small_for_tests(512);
    let store = LogStore::open(&dir, cfg.clone()).unwrap();
    for round in 0..20u32 {
        for k in 0..12u32 {
            store
                .put(
                    format!("key{k:02}").as_bytes(),
                    format!("r{round}").as_bytes(),
                )
                .unwrap();
        }
    }
    store.remove(b"key05").unwrap();
    store.merge().unwrap();
    let export = store.directory_export();
    let fp = store.fingerprint().unwrap();
    drop(store);
    let store = LogStore::open(&dir, cfg).unwrap();
    assert_eq!(store.directory_export(), export);
    assert_eq!(store.fingerprint().unwrap(), fp);
    assert_eq!(store.get(b"key05").unwrap(), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopening_an_unchanged_store_adds_no_segment() {
    let dir = scratch("reopen-flat");
    let cfg = LogConfig::small_for_tests(256);
    let store = LogStore::open(&dir, cfg.clone()).unwrap();
    for i in 0..20u32 {
        store.put(format!("k{i:03}").as_bytes(), b"value").unwrap();
    }
    drop(store);
    let files = || std::fs::read_dir(&dir).unwrap().count();
    let reopen = || {
        let store = LogStore::open(&dir, cfg.clone()).unwrap();
        let stats = store.stats();
        (stats.segments, stats.segments_scanned, files())
    };
    // The first open finds the written segment active and starts a
    // fresh one; from then on nothing changes between opens.
    reopen();
    let first = reopen();
    for _ in 0..4 {
        assert_eq!(reopen(), first, "an open of an unchanged store");
    }

    // A write into the adopted segment survives the next open.
    let store = LogStore::open(&dir, cfg.clone()).unwrap();
    store.put(b"after", b"reopen").unwrap();
    drop(store);
    let store = LogStore::open(&dir, cfg).unwrap();
    assert_eq!(
        store.get(b"after").unwrap().as_deref(),
        Some(b"reopen".as_ref())
    );
    assert_eq!(store.len(), 21);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The segment that was active when the store dropped has no hint: the
/// next open scans it, and that session's first write hints it, so the
/// opens after load the hint. An open that writes nothing hints nothing.
#[test]
fn the_segment_active_at_drop_is_hinted_by_the_next_session() {
    let dir = scratch("active-hint");
    let cfg = LogConfig::small_for_tests(1 << 20);
    let store = LogStore::open(&dir, cfg.clone()).unwrap();
    for i in 0..20u32 {
        store
            .put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    drop(store);
    let opened = |write: bool| {
        let store = LogStore::open(&dir, cfg.clone()).unwrap();
        let stats = store.stats();
        if write {
            store.put(b"k007", b"seven").unwrap();
        }
        assert_eq!(store.len(), 20);
        (stats.hints_loaded, stats.segments_scanned)
    };
    assert_eq!(opened(false), (0, 1));
    // From here on the empty active segment the first open made is
    // scanned too (an empty segment has nothing to hint).
    for _ in 0..3 {
        assert_eq!(opened(false), (0, 2), "a read-only open wrote a hint");
    }
    assert_eq!(opened(true), (0, 2));
    // The 20-record segment now comes from its hint.
    for _ in 0..4 {
        assert_eq!(opened(false).0, 1);
    }
    let store = LogStore::open(&dir, cfg).unwrap();
    assert_eq!(
        store.get(b"k007").unwrap().as_deref(),
        Some(b"seven".as_ref())
    );
    assert_eq!(
        store.get(b"k019").unwrap().as_deref(),
        Some(b"v19".as_ref())
    );
    let _ = std::fs::remove_dir_all(&dir);
}
