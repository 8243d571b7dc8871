//! The dense slot table against the three-map table it replaced
//! (`reference/`): random sequences of references, materializations,
//! demotions, accesses, quota changes and clones, bounded and unbounded,
//! must leave both tables answering every query alike after every step.

mod reference;

use proptest::prelude::*;
use wdoc_dist::StationDocs;

const NAMES: [&str; 10] = ["d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9"];

fn assert_same(new: &StationDocs, old: &reference::StationDocs, step: usize) {
    for name in NAMES {
        assert_eq!(
            new.replica(name),
            old.replica(name),
            "step {step}: replica of {name}"
        );
        assert_eq!(
            new.has_instance(name),
            old.has_instance(name),
            "step {step}: {name}"
        );
        assert_eq!(
            new.access_count(name),
            old.access_count(name),
            "step {step}: access count of {name}"
        );
    }
    assert_eq!(
        new.disk_bytes(),
        old.disk_bytes(),
        "step {step}: disk bytes"
    );
    assert_eq!(
        new.instance_count(),
        old.instance_count(),
        "step {step}: instances"
    );
    assert_eq!(new.quota(), old.quota(), "step {step}: quota");
}

/// Play `ops` (kind, name, bytes) on both tables, comparing every
/// return value and then every query. A clone step continues on copies
/// and keeps the originals, which must not see the copies' changes.
fn play(quota: Option<u64>, ops: &[(u8, usize, u64)]) {
    let (mut new, mut old) = match quota {
        Some(q) => (
            StationDocs::with_quota(q),
            reference::StationDocs::with_quota(q),
        ),
        None => (StationDocs::new(), reference::StationDocs::new()),
    };
    let mut kept = Vec::new();
    for (step, &(kind, name, bytes)) in ops.iter().enumerate() {
        let name = NAMES[name];
        match kind {
            0 => {
                new.add_reference(name);
                old.add_reference(name);
            }
            1 | 2 => assert_eq!(
                new.materialize(name, bytes),
                old.materialize(name, bytes),
                "step {step}: evictions materializing {name} ({bytes} bytes)"
            ),
            3 => assert_eq!(new.demote(name), old.demote(name), "step {step}: demote"),
            4 | 5 => assert_eq!(
                new.record_access(name),
                old.record_access(name),
                "step {step}: access"
            ),
            6 => {
                let q = (bytes % 4 != 0).then_some(bytes * 3);
                new.set_quota(q);
                old.set_quota(q);
            }
            _ => {
                kept.push((new.clone(), old.clone()));
            }
        }
        assert_same(&new, &old, step);
    }
    for (new, old) in &kept {
        assert_same(new, old, ops.len());
    }
}

fn ops() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
    proptest::collection::vec((0u8..8, 0usize..NAMES.len(), 0u64..120), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn unbounded_table_matches_the_reference(ops in ops()) {
        play(None, &ops);
    }

    #[test]
    fn quota_bound_table_matches_the_reference(quota in 0u64..400, ops in ops()) {
        play(Some(quota), &ops);
    }
}

#[test]
fn one_copy_evicts_several_in_lru_order_not_name_order() {
    let mut new = StationDocs::with_quota(100);
    let mut old = reference::StationDocs::with_quota(100);
    for name in ["d3", "d1", "d2"] {
        assert_eq!(new.materialize(name, 30), old.materialize(name, 30));
    }
    let evicted = new.materialize("d0", 100);
    assert_eq!(evicted, old.materialize("d0", 100));
    let names: Vec<&str> = evicted.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["d3", "d1", "d2"]);
    assert_same(&new, &old, 0);
}
