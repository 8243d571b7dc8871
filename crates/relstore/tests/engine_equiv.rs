//! Cross-engine differential equivalence: random op scripts applied to
//! the 2PL and MVCC engines in lockstep must produce identical per-op
//! outcomes (results *and* errors, including row-id allocation) and
//! identical committed state at every commit and abort point.
//!
//! The script generator lives in `testkit::differential` and is driven by a
//! plain `Vec<u32>` of decisions, so proptest's built-in `Vec` shrinker
//! minimises failures to short scripts automatically.

use proptest::prelude::*;
use testkit::{engine_pair, run_differential, run_tape};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline property: no sequential workload can tell the
    /// engines apart.
    #[test]
    fn engines_agree_on_random_scripts(decisions in proptest::collection::vec(any::<u32>(), 0..240)) {
        if let Err(report) = run_differential(&decisions) {
            prop_assert!(false, "{report}");
        }
    }

    /// Heavier mutation mix: bias the op selector toward writes and
    /// commit points so constraint cascades and snapshot publication
    /// get dense coverage.
    #[test]
    fn engines_agree_on_write_heavy_scripts(
        seeds in proptest::collection::vec((0u32..11, any::<u32>(), any::<u32>(), any::<u32>()), 0..80)
    ) {
        // Re-encode so ops 0-10 (insert..commit) dominate and the
        // payload decisions follow each selector.
        let mut decisions = Vec::with_capacity(seeds.len() * 4);
        for (op, a, b, c) in seeds {
            decisions.push(op);
            decisions.extend_from_slice(&[a, b, c]);
        }
        if let Err(report) = run_differential(&decisions) {
            prop_assert!(false, "{report}");
        }
    }

    /// The generic tape interpreter (the one the `shard` crate replays
    /// against its router) agrees with itself across engines too — this
    /// pins the interpreter before any sharded target trusts it.
    #[test]
    fn tape_targets_agree_on_random_scripts(decisions in proptest::collection::vec(any::<u32>(), 0..240)) {
        let (a, b) = engine_pair();
        if let Err(report) = run_tape(&a, &b, &decisions) {
            prop_assert!(false, "{report}");
        }
    }
}

/// Deterministic regression scripts: the empty script, a pure-read
/// script, and a dense commit/abort alternation.
#[test]
fn fixed_scripts_agree() {
    run_differential(&[]).unwrap();
    run_differential(&[6, 0, 7, 1, 9, 2, 10]).unwrap();
    let mut dense = Vec::new();
    for i in 0u32..160 {
        dense.push(i.wrapping_mul(2_654_435_761));
    }
    run_differential(&dense).unwrap();
    // Alternate writes with commit(10)/abort(11) markers.
    let mut alt = Vec::new();
    for i in 0u32..40 {
        alt.extend_from_slice(&[0, i, i * 3, i * 5, i * 7]);
        alt.push(10 + (i % 2));
    }
    run_differential(&alt).unwrap();
}
