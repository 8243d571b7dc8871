//! Crash-point sweep: every byte-granular crash state the store's
//! write paths can leave on disk must reopen to exactly the committed
//! state — the "oracle" captured before the crash.
//!
//! Three write paths are swept:
//!
//! * **append tail** — a put/remove torn at every byte of the active
//!   segment recovers the committed *prefix* (whole frames below the
//!   cut);
//! * **merge** — output data files torn at every byte, hint writes
//!   torn at every byte of the tmp file, and every prefix of the
//!   input-deletion order: all must reopen to the full oracle, and a
//!   torn merge must never let a stale copy shadow a live record or
//!   resurrect a deleted key. Three merges are cut: one over the
//!   originals of a reopened store, a second merge over a first one's
//!   output (a tombstone in a lower id than the copy it shadows), and
//!   one with a put and a remove landing in its unlocked copy window;
//! * **segment creation** — a data file cut before its header
//!   completes is a creation artifact, dropped on reopen.
//!
//! Crash states are synthesized from real post-merge bytes: the merge
//! runs to completion in a scratch copy, and each crash state is
//! rebuilt from the pre-merge snapshot plus a prefix of the merge's
//! observable filesystem effects (outputs are written and hinted in
//! ascending order; inputs are deleted in the report's order, hint
//! before data).

use logstore::{data_path, hint_path, LogConfig, LogStore, FILE_HEADER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("logstore-crash-{tag}-{}", std::process::id()));
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

/// Reopen a crash state and return its full observable contents.
fn observed(dir: &Path, cfg: &LogConfig) -> Model {
    let store = LogStore::open(dir, cfg.clone()).unwrap();
    store.entries().unwrap().into_iter().collect()
}

/// Deterministic mixed workload: inserts, overwrites, deletes and
/// reinserts over a small key space, leaving live keys, shadowed
/// versions and tombstones spread across several segments. Returns
/// the committed-state oracle.
fn workload(store: &LogStore) -> Model {
    let mut model = Model::new();
    for i in 0..90u32 {
        let key = format!("k{:02}", i % 24).into_bytes();
        if i % 5 == 4 {
            store.remove(&key).unwrap();
            model.remove(&key);
        } else {
            let val = format!("v{i}-{}", "x".repeat((i % 9) as usize)).into_bytes();
            store.put(&key, &val).unwrap();
            model.insert(key, val);
        }
    }
    model
}

fn small_cfg() -> LogConfig {
    LogConfig {
        segment_bytes: 512,
        min_sealed_segments: usize::MAX,
        ..LogConfig::default()
    }
}

#[test]
fn torn_append_tail_recovers_committed_prefix() {
    let base = scratch("tail-base");
    // One big segment: every frame lands in seg 1 and the cut offset
    // maps 1:1 onto the op tape.
    let cfg = LogConfig {
        min_sealed_segments: usize::MAX,
        ..LogConfig::default()
    };
    let store = LogStore::open(&base, cfg.clone()).unwrap();

    // Apply ops one at a time, snapshotting (frame-end offset, model)
    // after each — the committed-prefix oracle for any cut.
    let mut model = Model::new();
    let mut steps: Vec<(u64, Model)> = vec![(FILE_HEADER as u64, model.clone())];
    for i in 0..48u32 {
        let key = format!("k{:02}", i % 12).into_bytes();
        if i % 4 == 3 {
            store.remove(&key).unwrap();
            model.remove(&key);
        } else {
            let val = format!("v{i}-{}", "y".repeat((i % 6) as usize)).into_bytes();
            store.put(&key, &val).unwrap();
            model.insert(key, val);
        }
        let end = FILE_HEADER as u64 + store.stats().appended_bytes;
        steps.push((end, model.clone()));
    }
    store.sync().unwrap();
    drop(store);

    let bytes = std::fs::read(data_path(&base, 1)).unwrap();
    assert_eq!(bytes.len() as u64, steps.last().unwrap().0);

    let work = scratch("tail-work");
    for cut in 0..=bytes.len() {
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).unwrap();
        std::fs::write(data_path(&work, 1), &bytes[..cut]).unwrap();
        let expect = if cut < FILE_HEADER {
            Model::new() // torn creation: no frame can exist
        } else {
            steps
                .iter()
                .rev()
                .find(|(end, _)| *end <= cut as u64)
                .expect("step 0 covers the header")
                .1
                .clone()
        };
        assert_eq!(observed(&work, &cfg), expect, "cut at byte {cut}");
    }
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&work);
}

/// The shared merge fixture: a committed multi-segment store (`pre`,
/// including the empty active segment a reopen creates), the oracle,
/// the input segment ids the merge consumes, and the completed merge's
/// output files (read from a scratch copy where the merge ran to the
/// end).
struct MergeFixture {
    pre: PathBuf,
    cfg: LogConfig,
    oracle: Model,
    inputs: Vec<u64>,
    /// Ascending output ids with their complete data and hint bytes.
    outputs: Vec<(u64, Vec<u8>, Vec<u8>)>,
}

fn merge_fixture(tag: &str) -> MergeFixture {
    let base = scratch(&format!("{tag}-base"));
    let cfg = small_cfg();
    let store = LogStore::open(&base, cfg.clone()).unwrap();
    let oracle = workload(&store);
    store.sync().unwrap();
    drop(store);

    // Pre-merge snapshot, as a crashed-then-reopened store sees it: a
    // reopen seals every existing segment and creates a fresh active.
    let pre = scratch(&format!("{tag}-pre"));
    copy_dir(&base, &pre);
    {
        let store = LogStore::open(&pre, cfg.clone()).unwrap();
        assert_eq!(
            store.entries().unwrap().into_iter().collect::<Model>(),
            oracle
        );
    }

    // Run the merge to completion in another copy to harvest the
    // outputs' final bytes and the consumed input ids.
    let done = scratch(&format!("{tag}-done"));
    copy_dir(&base, &done);
    let report = {
        let store = LogStore::open(&done, cfg.clone()).unwrap();
        store.merge().unwrap()
    };
    assert!(!report.merged.is_empty(), "fixture produced no merge work");
    assert!(!report.outputs.is_empty());
    let outputs = report
        .outputs
        .iter()
        .map(|&id| {
            (
                id,
                std::fs::read(data_path(&done, id)).unwrap(),
                std::fs::read(hint_path(&done, id)).unwrap(),
            )
        })
        .collect();
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&done);
    MergeFixture {
        pre,
        cfg,
        oracle,
        inputs: report.merged,
        outputs,
    }
}

impl MergeFixture {
    /// Build a crash dir: the pre-merge state plus the first
    /// `complete` outputs in full, then run `extra` on it.
    fn crash_state(&self, work: &Path, complete: usize, extra: impl FnOnce(&Path)) -> Model {
        copy_dir(&self.pre, work);
        for (id, data, hint) in &self.outputs[..complete] {
            std::fs::write(data_path(work, *id), data).unwrap();
            std::fs::write(hint_path(work, *id), hint).unwrap();
        }
        extra(work);
        observed(work, &self.cfg)
    }
}

/// Tear every output at every byte, on top of the complete outputs
/// written before it: each state must reopen to the oracle.
fn sweep_output_cuts(fx: &MergeFixture, work: &Path) {
    for (i, (id, data, _)) in fx.outputs.iter().enumerate() {
        for cut in 0..data.len() {
            let got = fx.crash_state(work, i, |w| {
                std::fs::write(data_path(w, *id), &data[..cut]).unwrap();
            });
            assert_eq!(
                got, fx.oracle,
                "output {id} torn at byte {cut}: recovery diverged from oracle"
            );
        }
    }
}

/// Stop the input deletion after every prefix of its steps, all
/// outputs complete: each state must reopen to the oracle.
fn sweep_deletions(fx: &MergeFixture, work: &Path) {
    let all = fx.outputs.len();
    // Inputs go in the report's order, hint before data: after any
    // prefix of steps, every surviving tombstone still shadows every
    // surviving value it must, and the outputs carry the rest.
    let mut steps: Vec<(PathBuf, String)> = Vec::new();
    for &id in &fx.inputs {
        steps.push((hint_path(&fx.pre, id), format!("hint {id}")));
        steps.push((data_path(&fx.pre, id), format!("data {id}")));
    }
    for k in 0..=steps.len() {
        let got = fx.crash_state(work, all, |w| {
            for (path, _) in &steps[..k] {
                let name = path.file_name().unwrap();
                // Seal-time hints may not exist for every input; a
                // missing hint is a legal (already absent) state.
                let _ = std::fs::remove_file(w.join(name));
            }
        });
        let label = if k == 0 { "none" } else { &steps[k - 1].1 };
        assert_eq!(
            got, fx.oracle,
            "crash after deleting through {label}: recovery diverged"
        );
    }
}

/// A fixture whose merge runs on the live store `build` leaves behind,
/// with no reopen first. `window` runs in the merge's copy window,
/// after the outputs are written and before they are installed: its
/// writes are part of every crash state and its effects of the oracle.
fn live_fixture(
    tag: &str,
    build: impl FnOnce(&LogStore) -> Model,
    window: impl FnOnce(&LogStore, &mut Model),
) -> MergeFixture {
    let base = scratch(&format!("{tag}-base"));
    let pre = scratch(&format!("{tag}-pre"));
    let cfg = small_cfg();
    let store = LogStore::open(&base, cfg.clone()).unwrap();
    let mut oracle = build(&store);
    let report = store
        .merge_hooked(|| {
            window(&store, &mut oracle);
            copy_dir(&base, &pre);
        })
        .unwrap();
    assert!(!report.outputs.is_empty(), "fixture produced no merge work");
    let mut outputs = Vec::new();
    for &id in &report.outputs {
        let (data, hint) = (data_path(&pre, id), hint_path(&pre, id));
        outputs.push((
            id,
            std::fs::read(&data).unwrap(),
            std::fs::read(&hint).unwrap(),
        ));
        std::fs::remove_file(data).unwrap();
        std::fs::remove_file(hint).unwrap();
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&base);
    MergeFixture {
        pre,
        cfg,
        oracle,
        inputs: report.merged,
        outputs,
    }
}

/// Put distinct filler keys until `sealed` segments are sealed.
fn fill_until_sealed(store: &LogStore, model: &mut Model, tag: &str, sealed: u64) {
    let mut i = 0u32;
    while store.stats().sealed_segments < sealed {
        let (key, val) = (
            format!("{tag}{i:03}").into_bytes(),
            b"filler-value".to_vec(),
        );
        store.put(&key, &val).unwrap();
        model.insert(key, val);
        i += 1;
    }
}

/// The first merge's output takes an id above the active segment, so
/// a later tombstone (in the old active) sits in a *lower* segment
/// than the stale copy it shadows. Deleting the second merge's inputs
/// by id would remove the tombstone first and bring the key back.
#[test]
fn two_merges_torn_at_every_byte_and_deletion_step_recover_oracle() {
    let build = |store: &LogStore| {
        let mut model = Model::new();
        store.put(b"victim", b"old-value").unwrap();
        fill_until_sealed(store, &mut model, "a", 2);
        let first = store.merge().unwrap();
        assert_eq!(first.merged.len(), 2);
        let active = store
            .segment_report()
            .iter()
            .find(|s| !s.sealed)
            .unwrap()
            .id;
        assert!(first.outputs.iter().all(|&o| o > active));
        assert!(store.remove(b"victim").unwrap());
        fill_until_sealed(store, &mut model, "b", first.outputs.len() as u64 + 1);
        model
    };
    let fx = live_fixture("twomerge", build, |_, _| {});
    assert!(!fx.oracle.contains_key(b"victim".as_slice()));
    let work = scratch("twomerge-work");
    sweep_output_cuts(&fx, &work);
    sweep_deletions(&fx, &work);
    let _ = std::fs::remove_dir_all(&fx.pre);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn merge_with_writes_in_its_copy_window_recovers_oracle() {
    let fx = live_fixture("window", workload, |store, model| {
        // Remove keys whose values the merge has just copied, overwrite
        // another, and add a new one: the copies of all four are stale
        // in the outputs, shadowed from the active segment.
        let keys: Vec<Vec<u8>> = model.keys().take(4).cloned().collect();
        for key in &keys[..3] {
            assert!(store.remove(key).unwrap());
            model.remove(key);
        }
        for (key, val) in [(&keys[3][..], &b"rewritten"[..]), (b"fresh", b"new")] {
            store.put(key, val).unwrap();
            model.insert(key.to_vec(), val.to_vec());
        }
    });
    let copied_then_removed = |key: &[u8]| {
        !fx.oracle.contains_key(key)
            && fx
                .outputs
                .iter()
                .any(|(_, data, _)| data.windows(key.len()).any(|w| w == key))
    };
    assert!(["k00", "k01", "k03"]
        .iter()
        .any(|k| copied_then_removed(k.as_bytes())));
    let work = scratch("window-work");
    sweep_output_cuts(&fx, &work);
    sweep_deletions(&fx, &work);
    let _ = std::fs::remove_dir_all(&fx.pre);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn merge_output_torn_at_every_byte_recovers_oracle() {
    let fx = merge_fixture("outdata");
    let work = scratch("outdata-work");
    sweep_output_cuts(&fx, &work);
    let _ = std::fs::remove_dir_all(&fx.pre);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn merge_hint_write_torn_at_every_byte_recovers_oracle() {
    let fx = merge_fixture("outhint");
    let work = scratch("outhint-work");
    // A hint publishes by tmp-write + rename, so a crash leaves the
    // output's data complete, no hint, and a partial `.hint.tmp` —
    // which reopen must ignore in favor of scanning the data file.
    let last = fx.outputs.len() - 1;
    let (id, data, hint) = fx.outputs[last].clone();
    for cut in 0..hint.len() {
        let got = fx.crash_state(&work, last, |w| {
            std::fs::write(data_path(w, id), &data).unwrap();
            let tmp = hint_path(w, id).with_extension("hint.tmp");
            std::fs::write(tmp, &hint[..cut]).unwrap();
        });
        assert_eq!(
            got, fx.oracle,
            "hint tmp for output {id} torn at byte {cut}: recovery diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&fx.pre);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn merge_deletion_interrupted_at_every_step_recovers_oracle() {
    let fx = merge_fixture("delete");
    let work = scratch("delete-work");
    sweep_deletions(&fx, &work);
    let _ = std::fs::remove_dir_all(&fx.pre);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn torn_segment_creation_is_dropped_on_reopen() {
    let dir = scratch("creation");
    let cfg = small_cfg();
    let store = LogStore::open(&dir, cfg.clone()).unwrap();
    let oracle = workload(&store);
    store.sync().unwrap();
    let max_id = store.segment_report().iter().map(|s| s.id).max().unwrap();
    drop(store);

    // A crash inside create_segment leaves the newest file shorter
    // than its 16-byte header, for every cut below it.
    let work = scratch("creation-work");
    for cut in 0..FILE_HEADER {
        copy_dir(&dir, &work);
        let torn = data_path(&work, max_id + 1);
        std::fs::write(&torn, vec![0xA5u8; cut]).unwrap();
        assert_eq!(
            observed(&work, &cfg),
            oracle,
            "creation torn at {cut} bytes"
        );
        assert!(!torn.exists(), "reopen removes the creation artifact");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&work);
}
