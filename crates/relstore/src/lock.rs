//! Multi-granularity lock manager with wait-die deadlock avoidance.
//!
//! Transactions lock at two granularities: whole tables and individual
//! rows, using the classical intent-mode hierarchy (IS/IX/S/SIX/X). A
//! transaction that wants to read a row takes `IS` on the table then `S`
//! on the row; a writer takes `IX` then `X`; a full scan takes `S` on the
//! table, which blocks concurrent writers and thereby prevents phantoms
//! at table granularity.
//!
//! Deadlocks are avoided with the *wait-die* scheme: transaction ids are
//! assigned from a monotone counter, so a smaller id means an older
//! transaction. An older requester waits for conflicting holders; a
//! younger requester is killed immediately ([`Error::TxnAborted`]) and is
//! expected to retry from the top. This guarantees both deadlock freedom
//! and livelock freedom (a transaction keeps its birth timestamp across
//! retries in [`crate::database::Database::with_txn`]).

use crate::error::{Error, Result};
use crate::table::RowId;
use obs::{Counter, HistogramHandle, Registry};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::time::Instant;

/// Lock modes, ordered by "strength" for upgrade purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Intent to take shared locks on descendants.
    IntentShared,
    /// Intent to take exclusive locks on descendants.
    IntentExclusive,
    /// Shared access to the whole resource.
    Shared,
    /// Shared access plus intent to write descendants.
    SharedIntentExclusive,
    /// Exclusive access to the whole resource.
    Exclusive,
}

use LockMode::*;

impl LockMode {
    /// The classical compatibility matrix.
    #[must_use]
    pub fn compatible(self, other: LockMode) -> bool {
        match (self, other) {
            (IntentShared, Exclusive) | (Exclusive, IntentShared) => false,
            (IntentShared, _) | (_, IntentShared) => true,
            (IntentExclusive, IntentExclusive) => true,
            (IntentExclusive, _) | (_, IntentExclusive) => false,
            (Shared, Shared) => true,
            (Shared, _) | (_, Shared) => false,
            _ => false, // SIX-SIX, SIX-X, X-anything
        }
    }

    /// Least upper bound of two held modes (for lock upgrades): the
    /// weakest single mode that grants both sets of rights.
    #[must_use]
    pub fn join(self, other: LockMode) -> LockMode {
        if self == other {
            return self;
        }
        match (self, other) {
            (Exclusive, _) | (_, Exclusive) => Exclusive,
            (SharedIntentExclusive, _) | (_, SharedIntentExclusive) => SharedIntentExclusive,
            (Shared, IntentExclusive) | (IntentExclusive, Shared) => SharedIntentExclusive,
            (Shared, _) | (_, Shared) => Shared,
            (IntentExclusive, _) | (_, IntentExclusive) => IntentExclusive,
            _ => IntentShared,
        }
    }
}

/// A lockable resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// A whole table (by catalog id).
    Table(u32),
    /// A single row.
    Row(u32, RowId),
    /// One key of a unique index: table, index position, key hash.
    /// Writers that add or remove the key take it exclusively, so a
    /// uniqueness check never rests on another transaction's
    /// uncommitted index entry. Two keys with one hash share a lock,
    /// which only ever costs a false conflict.
    Key(u32, u32, u64),
}

impl Resource {
    /// A well-mixed 64-bit digest: its top bits pick the stripe, all
    /// of it is the resource's hash in the lock maps. Resources are
    /// ids this engine handed out (and, for keys, already a hash), so
    /// nothing is lost by not keying the hash per process.
    fn digest(self) -> u64 {
        const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
        let (a, b) = match self {
            Resource::Table(t) => (u64::from(t), 0),
            Resource::Row(t, row) => (u64::from(t), row.0.wrapping_add(1)),
            Resource::Key(t, ix, key) => (u64::from(t) << 32 | u64::from(ix), !key),
        };
        let h = (a.wrapping_mul(MIX) ^ b).wrapping_mul(MIX);
        h ^ (h >> 32)
    }
}

impl Hash for Resource {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest());
    }
}

/// Passes [`Resource::digest`] through as the hash.
#[derive(Default)]
struct Digest(u64);

impl Hasher for Digest {
    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("only resources, which hash as one u64, key the lock maps");
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type ResourceMap<V> = HashMap<Resource, V, BuildHasherDefault<Digest>>;

/// Monotone transaction id; smaller is older (wait-die priority).
pub type TxnId = u64;

/// The locks one transaction holds, with the mode of each: the
/// transaction's own record. Re-acquiring a lock it already holds
/// strongly enough never reaches the shared table, and
/// [`LockManager::release_all`] visits exactly these resources.
#[derive(Debug, Default)]
pub struct Held(ResourceMap<LockMode>);

impl Held {
    /// The mode held on `res`, if any.
    #[must_use]
    pub fn mode(&self, res: Resource) -> Option<LockMode> {
        self.0.get(&res).copied()
    }
}

/// Stripes of the lock table. A power of two: the stripe of a resource
/// is the top bits of its hash.
const STRIPES: usize = 64;

/// One stripe: the granted locks of the resources that hash here, and
/// where transactions waiting for one of them sleep. Aligned so that
/// two stripes never share a cache line.
#[derive(Default)]
#[repr(align(64))]
struct Stripe {
    state: Mutex<StripeState>,
    released: Condvar,
}

#[derive(Default)]
struct StripeState {
    /// Granted locks per resource. Absent entry == unlocked.
    granted: ResourceMap<Vec<(TxnId, LockMode)>>,
    /// Transactions asleep on `released`; a release with none skips
    /// the wake-up (a system call on its own).
    waiters: usize,
}

impl StripeState {
    /// Grant `txn` the join of `mode` and whatever it holds on `res`,
    /// or name a holder whose lock is incompatible with that.
    fn grant(
        &mut self,
        txn: TxnId,
        res: Resource,
        mode: LockMode,
    ) -> std::result::Result<LockMode, TxnId> {
        let holders = self.granted.entry(res).or_default();
        let mine = holders.iter().position(|&(id, _)| id == txn);
        let want = mine.map_or(mode, |i| holders[i].1.join(mode));
        let conflict = holders
            .iter()
            .find(|&&(id, m)| id != txn && !want.compatible(m));
        if let Some(&(holder, _)) = conflict {
            return Err(holder);
        }
        match mine {
            Some(i) => holders[i].1 = want,
            None => holders.push((txn, want)),
        }
        Ok(want)
    }
}

/// The lock manager shared by all transactions of a database.
///
/// The table is striped by resource hash: each stripe has its own
/// mutex and condition variable, so transactions working on different
/// rows do not meet. Which locks a transaction holds is recorded in
/// its own [`Held`], not here.
///
/// Records `relstore.lock.*` metrics on its [`Registry`]: conflict
/// waits, wall-clock wait time (excluded from the obs determinism
/// contract — counts are exact, durations are not), and wait-die kills.
pub struct LockManager {
    stripes: Box<[Stripe]>,
    waits: Counter,
    wait_us: HistogramHandle,
    wait_die_aborts: Counter,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LockManager {
    /// Create an empty lock manager with its own registry.
    #[must_use]
    pub fn new() -> Self {
        Self::with_metrics(Registry::new())
    }

    /// Create an empty lock manager recording into `metrics` (shared
    /// with the owning database).
    #[must_use]
    pub fn with_metrics(metrics: Registry) -> Self {
        LockManager {
            stripes: (0..STRIPES).map(|_| Stripe::default()).collect(),
            waits: metrics.counter_handle("relstore.lock.waits"),
            wait_us: metrics.histogram_handle("relstore.lock.wait_us", obs::buckets::TIME_US),
            wait_die_aborts: metrics.counter_handle("relstore.lock.wait_die_aborts"),
        }
    }

    fn stripe(&self, res: Resource) -> &Stripe {
        &self.stripes[(res.digest() >> (u64::BITS - STRIPES.ilog2())) as usize]
    }

    /// Acquire `mode` on `res` for transaction `txn`, blocking if the
    /// wait-die rule says this (older) transaction may wait, or failing
    /// with [`Error::TxnAborted`] if it must die. `held` is `txn`'s own
    /// record of its locks.
    pub fn acquire(
        &self,
        txn: TxnId,
        held: &mut Held,
        res: Resource,
        mode: LockMode,
    ) -> Result<()> {
        if held.mode(res).is_some_and(|h| h.join(mode) == h) {
            return Ok(()); // already strong enough
        }
        let stripe = self.stripe(res);
        let mut st = stripe.state.lock();
        loop {
            match st.grant(txn, res, mode) {
                Ok(now) => {
                    held.0.insert(res, now);
                    return Ok(());
                }
                Err(holder) if txn < holder => {
                    // Older: wait for a release, then re-examine.
                    self.waits.inc();
                    let waited = Instant::now();
                    st.waiters += 1;
                    stripe.released.wait(&mut st);
                    st.waiters -= 1;
                    self.wait_us.observe(waited.elapsed().as_micros() as u64);
                }
                Err(holder) => {
                    self.wait_die_aborts.inc();
                    return Err(Error::TxnAborted {
                        reason: format!(
                            "wait-die: txn {txn} is younger than lock holder {holder} on {res:?}"
                        ),
                    });
                }
            }
        }
    }

    /// Try to acquire without ever blocking; `Ok(false)` means a
    /// conflicting holder exists.
    pub fn try_acquire(
        &self,
        txn: TxnId,
        held: &mut Held,
        res: Resource,
        mode: LockMode,
    ) -> Result<bool> {
        let granted = self.stripe(res).state.lock().grant(txn, res, mode);
        if let Ok(now) = granted {
            held.0.insert(res, now);
        }
        Ok(granted.is_ok())
    }

    /// Release every lock `txn` holds (commit or abort), waking the
    /// stripes — and only those — where someone waits.
    pub fn release_all(&self, txn: TxnId, held: &mut Held) {
        for (res, _) in held.0.drain() {
            let stripe = self.stripe(res);
            let mut st = stripe.state.lock();
            if let Some(holders) = st.granted.get_mut(&res) {
                holders.retain(|&(id, _)| id != txn);
                if holders.is_empty() {
                    st.granted.remove(&res);
                }
            }
            let wake = st.waiters > 0;
            drop(st);
            if wake {
                stripe.released.notify_all();
            }
        }
    }

    /// Number of resources currently locked (diagnostics / tests).
    #[must_use]
    pub fn locked_resources(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.state.lock().granted.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Resource = Resource::Table(1);

    /// A transaction as the lock manager sees one: an id and its own
    /// record of what it holds.
    struct Tx<'a> {
        lm: &'a LockManager,
        id: TxnId,
        held: Held,
    }

    impl<'a> Tx<'a> {
        fn new(lm: &'a LockManager, id: TxnId) -> Self {
            Tx {
                lm,
                id,
                held: Held::default(),
            }
        }
        fn acquire(&mut self, res: Resource, mode: LockMode) -> Result<()> {
            self.lm.acquire(self.id, &mut self.held, res, mode)
        }
        fn try_acquire(&mut self, res: Resource, mode: LockMode) -> bool {
            self.lm
                .try_acquire(self.id, &mut self.held, res, mode)
                .unwrap()
        }
        fn release_all(&mut self) {
            self.lm.release_all(self.id, &mut self.held);
        }
    }

    #[test]
    fn compatibility_matrix() {
        let modes = [
            IntentShared,
            IntentExclusive,
            Shared,
            SharedIntentExclusive,
            Exclusive,
        ];
        // Spot-check the canonical matrix row by row.
        let expect = [
            [true, true, true, true, false],     // IS
            [true, true, false, false, false],   // IX
            [true, false, true, false, false],   // S
            [true, false, false, false, false],  // SIX
            [false, false, false, false, false], // X
        ];
        for (i, a) in modes.iter().enumerate() {
            for (j, b) in modes.iter().enumerate() {
                assert_eq!(a.compatible(*b), expect[i][j], "{a:?} vs {b:?}");
                // Matrix is symmetric.
                assert_eq!(a.compatible(*b), b.compatible(*a));
            }
        }
    }

    #[test]
    fn join_lattice() {
        assert_eq!(Shared.join(IntentExclusive), SharedIntentExclusive);
        assert_eq!(IntentShared.join(Exclusive), Exclusive);
        assert_eq!(IntentShared.join(IntentExclusive), IntentExclusive);
        assert_eq!(Shared.join(Shared), Shared);
        assert_eq!(SharedIntentExclusive.join(Shared), SharedIntentExclusive);
        // Join is commutative and idempotent over the whole lattice.
        let modes = [
            IntentShared,
            IntentExclusive,
            Shared,
            SharedIntentExclusive,
            Exclusive,
        ];
        for a in modes {
            assert_eq!(a.join(a), a);
            for b in modes {
                assert_eq!(a.join(b), b.join(a));
            }
        }
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        let (mut t1, mut t2) = (Tx::new(&lm, 1), Tx::new(&lm, 2));
        t1.acquire(T, Shared).unwrap();
        t2.acquire(T, Shared).unwrap();
        assert_eq!(t1.held.mode(T), Some(Shared));
        assert_eq!(t2.held.mode(T), Some(Shared));
    }

    #[test]
    fn younger_dies_on_conflict() {
        let lm = LockManager::new();
        Tx::new(&lm, 1).acquire(T, Exclusive).unwrap();
        let err = Tx::new(&lm, 2).acquire(T, Shared).unwrap_err();
        assert!(matches!(err, Error::TxnAborted { .. }));
    }

    #[test]
    fn try_acquire_reports_conflict_without_blocking() {
        let lm = LockManager::new();
        let (mut t1, mut t5) = (Tx::new(&lm, 1), Tx::new(&lm, 5));
        t5.acquire(T, Exclusive).unwrap();
        assert!(!t1.try_acquire(T, Shared));
        assert_eq!(t1.held.mode(T), None);
        t5.release_all();
        assert!(t1.try_acquire(T, Shared));
        assert_eq!(t1.held.mode(T), Some(Shared));
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let lm = LockManager::new();
        let mut t1 = Tx::new(&lm, 1);
        t1.acquire(T, Shared).unwrap();
        t1.acquire(T, IntentExclusive).unwrap();
        assert_eq!(t1.held.mode(T), Some(SharedIntentExclusive));
        // The table agrees with the transaction's own record.
        assert!(matches!(Tx::new(&lm, 2).acquire(T, IntentShared), Ok(())));
        assert!(Tx::new(&lm, 3).acquire(T, IntentExclusive).is_err());
    }

    #[test]
    fn release_unblocks_older_waiter() {
        let lm = LockManager::new();
        // Younger txn 9 holds X; older txn 1 will wait for it.
        let mut t9 = Tx::new(&lm, 9);
        t9.acquire(T, Exclusive).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let mut t1 = Tx::new(&lm, 1);
                t1.acquire(T, Exclusive).map(|()| t1.held.mode(T))
            });
            // Release only once txn 1 is asleep on the stripe: a release
            // that finds no waiter would skip the wake-up.
            while lm.stripe(T).state.lock().waiters == 0 {
                std::thread::yield_now();
            }
            t9.release_all();
            assert_eq!(waiter.join().unwrap().unwrap(), Some(Exclusive));
        });
    }

    #[test]
    fn release_all_clears_every_resource() {
        let lm = LockManager::new();
        let mut t1 = Tx::new(&lm, 1);
        t1.acquire(Resource::Table(1), IntentExclusive).unwrap();
        t1.acquire(Resource::Row(1, RowId(7)), Exclusive).unwrap();
        t1.acquire(Resource::Key(1, 0, 0xfeed), Exclusive).unwrap();
        assert_eq!(lm.locked_resources(), 3);
        t1.release_all();
        assert_eq!(lm.locked_resources(), 0);
        assert_eq!(t1.held.mode(Resource::Table(1)), None);
    }

    #[test]
    fn intent_locks_coexist_rows_conflict() {
        let lm = LockManager::new();
        let (mut t1, mut t2) = (Tx::new(&lm, 1), Tx::new(&lm, 2));
        t1.acquire(Resource::Table(1), IntentExclusive).unwrap();
        t2.acquire(Resource::Table(1), IntentExclusive).unwrap();
        t1.acquire(Resource::Row(1, RowId(1)), Exclusive).unwrap();
        // Different row: fine.
        t2.acquire(Resource::Row(1, RowId(2)), Exclusive).unwrap();
        // Same row: younger dies.
        let err = Tx::new(&lm, 3)
            .acquire(Resource::Row(1, RowId(1)), Shared)
            .unwrap_err();
        assert!(matches!(err, Error::TxnAborted { .. }));
    }

    /// Two resources that hash to different stripes.
    fn two_stripes(lm: &LockManager) -> (Resource, Resource) {
        let a = Resource::Row(1, RowId(1));
        let b = (2..)
            .map(|r| Resource::Row(1, RowId(r)))
            .find(|&b| !std::ptr::eq(lm.stripe(a), lm.stripe(b)))
            .unwrap();
        (a, b)
    }

    #[test]
    fn concurrent_opposite_orders_across_stripes_resolve_by_wait_die() {
        // The classic deadlock shape, with the two resources under
        // different mutexes: old takes A then wants B, young takes B
        // then wants A. Wait-die decides per resource, so striping
        // changes nothing: the younger dies, the older gets through.
        let lm = LockManager::new();
        let (a, b) = two_stripes(&lm);
        let (mut old, mut young) = (Tx::new(&lm, 1), Tx::new(&lm, 2));
        old.acquire(a, Exclusive).unwrap();
        young.acquire(b, Exclusive).unwrap();
        std::thread::scope(|s| {
            let older = s.spawn(|| {
                old.acquire(b, Exclusive).unwrap();
                old.release_all();
            });
            while lm.stripe(b).state.lock().waiters == 0 {
                std::thread::yield_now();
            }
            // The older transaction is now asleep on B's stripe.
            let err = young.acquire(a, Exclusive).unwrap_err();
            assert!(matches!(err, Error::TxnAborted { .. }));
            young.release_all(); // the abort: wakes B's stripe
            older.join().unwrap();
        });
        assert_eq!(lm.locked_resources(), 0);
    }

    #[test]
    fn concurrent_release_wakes_only_stripes_with_a_waiter() {
        let lm = LockManager::new();
        let (a, b) = two_stripes(&lm);
        let mut holder = Tx::new(&lm, 9);
        holder.acquire(a, Exclusive).unwrap();
        holder.acquire(b, Exclusive).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| Tx::new(&lm, 1).acquire(a, Shared));
            while lm.stripe(a).state.lock().waiters == 0 {
                std::thread::yield_now();
            }
            assert_eq!(lm.stripe(b).state.lock().waiters, 0);
            holder.release_all();
            waiter.join().unwrap().unwrap();
        });
        assert_eq!(lm.stripe(a).state.lock().waiters, 0);
    }
}
