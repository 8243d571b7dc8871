//! Merge's unlocked copy window: foreground traffic must proceed while
//! a merge is in flight, the version guard must keep mid-merge
//! overwrites, and a second merge must not touch the sealed set.

use logstore::{LogConfig, LogStore};
use testkit::Fingerprint;

fn tempdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("logstore-bg-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:04}").into_bytes()
}

/// Fill the store with overwritten keys so several sealed segments
/// exist and a healthy fraction of their bytes is dead.
fn churn(store: &LogStore, keys: u32, rounds: u32) {
    for r in 0..rounds {
        for i in 0..keys {
            store
                .put(&key(i), format!("value-{i}-round-{r}").as_bytes())
                .unwrap();
        }
    }
}

#[test]
fn foreground_writes_proceed_during_in_flight_merge() {
    let root = tempdir("hooked");
    let store = LogStore::open(&root, LogConfig::small_for_tests(512)).unwrap();
    churn(&store, 20, 4);
    let before = store.stats();
    assert!(before.sealed_segments >= 2, "need a merge-worthy set");

    // The hook runs in the window where the merge has copied every
    // live record but not yet swung the directory — the exact overlap
    // a real background merge exposes, made deterministic.
    let report = store
        .merge_hooked(|| {
            // A brand-new key, an overwrite of a key whose old record
            // was just copied, and a delete — all against the same
            // store the merge is compacting.
            store.put(b"during-merge", b"fresh").unwrap();
            store.put(&key(5), b"overwritten-mid-merge").unwrap();
            assert!(store.remove(&key(7)).unwrap());
            assert_eq!(
                store.get(&key(3)).unwrap().unwrap(),
                b"value-3-round-3".to_vec(),
                "reads see consistent data mid-merge"
            );
        })
        .unwrap();
    assert!(!report.merged.is_empty());
    assert!(report.live_records > 0);

    // The mid-merge writes all win over the stale copies.
    assert_eq!(
        store.get(b"during-merge").unwrap().unwrap(),
        b"fresh".to_vec()
    );
    assert_eq!(
        store.get(&key(5)).unwrap().unwrap(),
        b"overwritten-mid-merge".to_vec()
    );
    assert_eq!(store.get(&key(7)).unwrap(), None);
    for i in 0..20u32 {
        if i == 5 || i == 7 {
            continue;
        }
        assert_eq!(
            store.get(&key(i)).unwrap().unwrap(),
            format!("value-{i}-round-3").into_bytes()
        );
    }
    assert_eq!(store.stats().merges, before.merges + 1);

    // The on-disk state is a valid store: reopen agrees byte-for-byte.
    let fp = store.fingerprint().unwrap();
    let export = store.directory_export();
    drop(store);
    let reopened = LogStore::open(&root, LogConfig::small_for_tests(512)).unwrap();
    assert_eq!(reopened.fingerprint().unwrap(), fp);
    assert_eq!(reopened.directory_export(), export);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_merge_skips_when_one_is_in_flight() {
    let root = tempdir("reentry");
    let store = LogStore::open(&root, LogConfig::small_for_tests(512)).unwrap();
    churn(&store, 16, 3);
    let report = store
        .merge_hooked(|| {
            // A second merge must refuse to touch the sealed set
            // mid-flight.
            assert!(store.merge().unwrap().merged.is_empty());
        })
        .unwrap();
    assert!(!report.merged.is_empty(), "the outer merge still runs");
    let _ = std::fs::remove_dir_all(&root);
}
