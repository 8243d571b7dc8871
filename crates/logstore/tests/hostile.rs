//! Hostile bytes against the open path: random, truncated,
//! bit-flipped and forged-length segment and hint files. Opening never
//! panics; every value that comes back is one that was written under
//! its key (a bad CRC is never accepted); a forged hint length never
//! sizes a read (the hint is distrusted and the data file scanned);
//! and opening is linear in the bytes it scans. Run it optimized too
//! (`cargo test --release -p logstore --test hostile`).

use logstore::{crc32, data_path, hint_path, LogConfig, LogError, LogStats, LogStore, FILE_HEADER};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;
type History = BTreeSet<(Vec<u8>, Vec<u8>)>;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("logstore-hostile-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn cfg() -> LogConfig {
    LogConfig::small_for_tests(256)
}

/// A seeded tape of puts and removes over 12 keys, with a merge
/// halfway: the directory ends with hinted originals, a hinted merge
/// output and an unhinted active tail. Returns every `(key, value)`
/// ever stored and the final contents.
fn build(dir: &Path, seed: u64) -> (History, Model) {
    let mut rng = StdRng::seed_from_u64(seed);
    let store = LogStore::open(dir, cfg()).unwrap();
    let (mut history, mut model) = (History::new(), Model::new());
    for i in 0..80u32 {
        if i == 40 {
            store.merge().unwrap();
        }
        let key = format!("k{}", rng.gen_range(0..12)).into_bytes();
        if rng.gen_range(0..4) == 0 {
            store.remove(&key).unwrap();
            model.remove(&key);
        } else {
            let val = format!("v{i}-{}", "x".repeat(rng.gen_range(0..40))).into_bytes();
            store.put(&key, &val).unwrap();
            history.insert((key.clone(), val.clone()));
            model.insert(key, val);
        }
    }
    store.sync().unwrap();
    (history, model)
}

/// Open `dir`, read every key, merge and read again. Any step may fail
/// with a typed error; a value that does come back must have been
/// written under its key.
fn reads_only_written_values(dir: &Path, history: &History) {
    for _ in 0..2 {
        let Ok(store) = LogStore::open(dir, cfg()) else {
            return;
        };
        for key in store.keys() {
            if let Ok(Some(v)) = store.get(&key) {
                assert!(
                    history.contains(&(key.clone(), v.clone())),
                    "{:?} read back a value never written: {:?}",
                    String::from_utf8_lossy(&key),
                    String::from_utf8_lossy(&v)
                );
            }
        }
        let _ = store.merge();
    }
}

fn files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_files_never_panic_or_lie(seed in any::<u64>()) {
        let dir = scratch("mutate");
        let (history, _) = build(&dir, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let all = files(&dir);
        let target = &all[rng.gen_range(0..all.len())];
        let mut bytes = std::fs::read(target).unwrap();
        match rng.gen_range(0..5) {
            0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
            1 => {
                for _ in 0..rng.gen_range(1..4) {
                    let bit = rng.gen_range(0..bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            2 => {
                // A forged length: 0xFF runs read as the largest u32
                // frame lengths and u64 offsets there are.
                let at = rng.gen_range(0..bytes.len());
                let end = (at + rng.gen_range(1..9)).min(bytes.len());
                bytes[at..end].fill(0xFF);
            }
            3 => bytes.extend((0..rng.gen_range(1..64)).map(|_| rng.gen::<u8>())),
            _ => bytes = (0..rng.gen_range(0..64)).map(|_| rng.gen()).collect(),
        }
        std::fs::write(target, &bytes).unwrap();
        reads_only_written_values(&dir, &history);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Rewrite frame `index` of a hint file through `forge` and re-seal it
/// with a valid CRC, so only the open path's own checks can catch it.
/// Hint payload: version u64 | flags u8 | off u64 | flen u32 | klen
/// u32 | key.
fn forge_hint(path: &Path, index: usize, forge: impl Fn(&mut Vec<u8>, &[u8])) {
    let bytes = std::fs::read(path).unwrap();
    let mut out = bytes[..FILE_HEADER].to_vec();
    let (mut off, mut i, mut first) = (FILE_HEADER, 0, Vec::new());
    while off < bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let mut payload = bytes[off + 8..off + 8 + len].to_vec();
        if i == 0 {
            first = payload.clone();
        }
        if i == index {
            forge(&mut payload, &first);
        }
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        off += 8 + len;
        i += 1;
    }
    assert!(i > index, "hint has no frame {index}");
    std::fs::write(path, out).unwrap();
}

#[test]
fn forged_hint_entries_fall_back_to_a_scan() {
    let clean = scratch("forge-clean");
    let (_, model) = build(&clean, 7);
    let work = scratch("forge-work");
    copy_dir(&clean, &work);
    let base = LogStore::open(&work, cfg()).unwrap().stats();
    let seg = files(&clean)
        .iter()
        .find(|p| p.extension().is_some_and(|e| e == "hint"))
        .map(|p| {
            p.file_stem().unwrap().to_string_lossy()[4..]
                .parse::<u64>()
                .unwrap()
        })
        .unwrap();
    type Forge = fn(&mut Vec<u8>, &[u8]);
    let forgeries: [(&str, usize, Forge); 7] = [
        ("4 GiB frame length", 0, |p, _| p[17..21].fill(0xFF)),
        ("zero frame length", 0, |p, _| p[17..21].fill(0)),
        ("offset past u64", 0, |p, _| p[9..17].fill(0xFF)),
        ("offset inside the header", 0, |p, _| p[9..17].fill(0)),
        ("last version", 0, |p, _| p[..8].fill(0xFF)),
        ("overlapping frames", 1, |p, first| {
            p[9..17].copy_from_slice(&first[9..17])
        }),
        ("frame past the end", 1, |p, _| {
            let off = u64::from_le_bytes(p[9..17].try_into().unwrap());
            p[9..17].copy_from_slice(&(off + 4096).to_le_bytes());
        }),
    ];
    for (what, index, forge) in forgeries {
        copy_dir(&clean, &work);
        forge_hint(&hint_path(&work, seg), index, forge);
        let store = LogStore::open(&work, cfg()).unwrap();
        let stats = store.stats();
        assert_eq!(
            (stats.hints_loaded, stats.segments_scanned),
            (base.hints_loaded - 1, base.segments_scanned + 1),
            "{what}: the hint must be distrusted and its segment scanned"
        );
        let got: Model = store.entries().unwrap().into_iter().collect();
        assert_eq!(got, model, "{what}: the scan recovers every value");
    }
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn a_flipped_value_bit_never_passes_the_crc() {
    let dir = scratch("flip");
    let store = LogStore::open(&dir, cfg()).unwrap();
    for i in 0..40u32 {
        store
            .put(format!("k{i:02}").as_bytes(), b"a-value-to-flip")
            .unwrap();
    }
    assert!(store.stats().sealed_segments >= 2);
    drop(store);
    // Flip one bit in every value byte of segment 1's first frame.
    let data = data_path(&dir, 1);
    let clean = std::fs::read(&data).unwrap();
    let value_at = FILE_HEADER + 8 + 13 + 3;
    for at in value_at..value_at + 15 {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x04;
        std::fs::write(&data, &bytes).unwrap();
        // Opened from its hint, the store reads the frame on demand.
        let store = LogStore::open(&dir, cfg()).unwrap();
        assert!(matches!(store.get(b"k00"), Err(LogError::Corrupt { .. })));
        assert!(store.merge().is_err(), "merge never copies a bad frame");
        drop(store);
        // Without the hint, the scan refuses the segment.
        let hint = std::fs::read(hint_path(&dir, 1)).unwrap();
        std::fs::remove_file(hint_path(&dir, 1)).unwrap();
        assert!(matches!(
            LogStore::open(&dir, cfg()),
            Err(LogError::Corrupt { seg: 1, .. })
        ));
        std::fs::write(hint_path(&dir, 1), hint).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A merge that fails part-way — a bad frame in a later input, after
/// outputs holding earlier keys' copies are written — leaves no output
/// file behind. An untracked copy would outlive the tombstone a later
/// merge drops, and bring the removed key back at the next open.
#[test]
fn a_failed_merge_leaves_no_output_to_resurrect_a_key() {
    let dir = scratch("failed-merge");
    let store = LogStore::open(&dir, cfg()).unwrap();
    for i in 0..40u32 {
        store
            .put(format!("k{i:02}").as_bytes(), b"a-value-to-copy")
            .unwrap();
    }
    let sealed: Vec<u64> = store
        .segment_report()
        .iter()
        .filter(|s| s.sealed)
        .map(|s| s.id)
        .collect();
    // Flip a value bit of k30's frame in place, under the open store.
    let (seg, at) = sealed
        .iter()
        .find_map(|&id| {
            let bytes = std::fs::read(data_path(&dir, id)).unwrap();
            let pos = bytes.windows(3).position(|w| w == b"k30")?;
            Some((id, pos as u64 + 3))
        })
        .expect("k30 sits in a sealed segment");
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(data_path(&dir, seg))
        .unwrap();
    let mut byte = [0u8; 1];
    f.seek(SeekFrom::Start(at)).unwrap();
    f.read_exact(&mut byte).unwrap();
    f.seek(SeekFrom::Start(at)).unwrap();
    f.write_all(&[byte[0] ^ 0x04]).unwrap();
    drop(f);

    let before = files(&dir);
    assert!(matches!(store.merge(), Err(LogError::Corrupt { .. })));
    assert_eq!(files(&dir), before, "a failed merge leaves no file behind");

    // k00's copy had landed in the first output. Remove k00, replace
    // the bad frame, seal the tombstone and merge for real.
    assert!(store.remove(b"k00").unwrap());
    store.put(b"k30", b"replaced").unwrap();
    for i in 0..12u32 {
        store.put(format!("pad{i:02}").as_bytes(), b"-").unwrap();
    }
    store.merge().unwrap();
    drop(store);

    let store = LogStore::open(&dir, cfg()).unwrap();
    assert_eq!(store.get(b"k00").unwrap(), None, "k00 came back");
    assert_eq!(
        store.get(b"k30").unwrap().as_deref(),
        Some(&b"replaced"[..])
    );
    assert_eq!(
        store.get(b"k29").unwrap().as_deref(),
        Some(&b"a-value-to-copy"[..])
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One open of `dir` with no hints (every byte is scanned), by the
/// opening thread's own run time, with what the open found.
fn open_time(dir: &Path) -> (Duration, LogStats) {
    let (store, ran) = obs::time_on_cpu(|| LogStore::open(dir, cfg()).unwrap());
    let stats = store.stats();
    assert_eq!(stats.hints_loaded, 0);
    (ran, stats)
}

#[test]
fn opening_is_linear_in_the_scanned_bytes() {
    let make = |n: u32| {
        let dir = scratch("doubling");
        let cfg = LogConfig {
            segment_bytes: u64::MAX,
            ..LogConfig::default()
        };
        let store = LogStore::open(&dir, cfg).unwrap();
        for i in 0..n {
            store
                .put(format!("key-{i:08}").as_bytes(), &[b'v'; 32])
                .unwrap();
        }
        dir
    };
    let (n, two_n) = (make(20_000), make(40_000));
    // Five opens of each, the n and 2n samples alternating, so a slow
    // stretch of the host (a build beside the tests) lands on both
    // sizes; the minimum of each is kept.
    let ((mut t1, s1), (mut t2, s2)) = (open_time(&n), open_time(&two_n));
    for _ in 1..5 {
        t1 = t1.min(open_time(&n).0);
        t2 = t2.min(open_time(&two_n).0);
    }
    // Twice the records and twice the frame bytes over the same
    // segments: the input doubled exactly.
    assert_eq!(s1.segments_scanned, s2.segments_scanned);
    assert_eq!(s2.live_records, 2 * s1.live_records);
    assert_eq!(s2.live_bytes, 2 * s1.live_bytes);
    assert!(
        t2 < t1 * 3,
        "opening 2n records took {t2:?}, n took {t1:?}: not linear"
    );
    let _ = std::fs::remove_dir_all(n);
    let _ = std::fs::remove_dir_all(two_n);
}
