//! # testkit — test aids and oracles, kept out of the production crates
//!
//! Everything here exists so tests and benches can check the
//! workspace's crates; no production crate depends on it (CI's lint
//! job fails if one does). A crate whose tests use an aid takes
//! `testkit` as a dev-dependency, and the test that calls it is an
//! integration test: a crate's unit-test build is a copy of the crate
//! whose types are not the ones `testkit` links against.
//!
//! * [`differential`] — the cross-engine and sharded-vs-unsharded
//!   differentials (op scripts and tapes played on two targets in
//!   lockstep, committed state compared at every commit point) and the
//!   [`backend_contract`] every `DocBackend` honours;
//! * [`crash`] — the WAL crash-point injector: cut a log at any byte
//!   or LSN, flip bits, list its frames, recover a cut stream;
//! * [`queue`] — the binary-heap event queue the timing wheel is
//!   checked against;
//! * [`Fingerprint`] — a location-independent digest of a
//!   [`LogStore`]'s live content.
//!
//! Seams that must stay in their crate because a test needs the
//! crate's private state are listed in DESIGN.md ("Where oracles
//! live").

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod crash;
pub mod differential;
pub mod queue;

pub use differential::{
    backend_contract, compare_committed, compare_tape_committed, engine_pair, run_differential,
    run_tape, standard_schemas, TapeTarget,
};
pub use queue::{HeapQueue, Queue};

use logstore::LogStore;

/// Order-independent FNV-1a fingerprint of a [`LogStore`]'s live
/// `(key, value)` content. It is location-independent, so a merge must
/// not change it.
pub trait Fingerprint {
    /// The fingerprint of the live content.
    ///
    /// # Errors
    /// When reading the live entries fails.
    fn fingerprint(&self) -> logstore::Result<u64>;
}

impl Fingerprint for LogStore {
    fn fingerprint(&self) -> logstore::Result<u64> {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, v) in self.entries()? {
            let mut h: u64 = 0x6c62_272e_07bb_0142;
            for &b in k.iter().chain([0xffu8].iter()).chain(v.iter()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            acc ^= h;
        }
        Ok(acc)
    }
}
