//! A growable table of slots that is read without taking a lock.
//!
//! The buffer pool's frame table and the database catalog are both
//! looked up on every row access and changed only on the slow path
//! (page allocation, DDL). A lock around them — even one only ever
//! read-locked — is a cache line every client thread writes. [`Slots`]
//! is the alternative: slots live in chunks that double in size, a
//! chunk is allocated once (all slots `T::default()`) and never moved
//! or freed, so `get` is two dependent loads of memory nobody writes.
//! What a slot holds, and how it changes, is the slot type's business
//! (atomics, a per-slot mutex, a `OnceLock`).
//!
//! Slots are never reclaimed: a table costs `size_of::<T>()` per index
//! ever made addressable, for as long as the table lives.

use std::sync::OnceLock;

/// Slots in the first chunk; chunk `k` holds `FIRST << k`.
const FIRST: usize = 64;
/// Enough doubling chunks to cover every `usize` index.
const CHUNKS: usize = (usize::BITS - FIRST.trailing_zeros()) as usize;

/// A value on a cache line of its own: something every thread writes
/// (a counter, a lock word) kept apart from neighbours every thread
/// only reads, which would otherwise be invalidated along with it.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct OwnLine<T>(pub(crate) T);

impl<T> std::ops::Deref for OwnLine<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// See the [module docs](self).
pub(crate) struct Slots<T> {
    chunks: [OnceLock<Box<[T]>>; CHUNKS],
}

impl<T: Default> Slots<T> {
    pub(crate) fn new() -> Self {
        Slots {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Chunk number and offset within it of slot `i`.
    fn locate(i: usize) -> Option<(usize, usize)> {
        let n = i.checked_add(FIRST)?;
        let chunk = (n.ilog2() - FIRST.ilog2()) as usize;
        Some((chunk, n - (FIRST << chunk)))
    }

    /// Slot `i`, if its chunk was ever made addressable.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        let (chunk, off) = Self::locate(i)?;
        Some(&self.chunks[chunk].get()?[off])
    }

    /// Slot `i`, allocating its chunk (as large again as all the
    /// chunks before it) on first use. Callers pass only indexes they
    /// handed out themselves, in order, so the table grows with use.
    ///
    /// # Panics
    /// If `i` is within `FIRST` of `usize::MAX`.
    pub(crate) fn ensure(&self, i: usize) -> &T {
        let (chunk, off) = Self::locate(i).expect("slot index out of range");
        let slots =
            self.chunks[chunk].get_or_init(|| (0..FIRST << chunk).map(|_| T::default()).collect());
        &slots[off]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn chunks_tile_the_index_space() {
        assert_eq!(Slots::<u8>::locate(0), Some((0, 0)));
        assert_eq!(Slots::<u8>::locate(FIRST - 1), Some((0, FIRST - 1)));
        assert_eq!(Slots::<u8>::locate(FIRST), Some((1, 0)));
        assert_eq!(Slots::<u8>::locate(3 * FIRST - 1), Some((1, 2 * FIRST - 1)));
        assert_eq!(Slots::<u8>::locate(3 * FIRST), Some((2, 0)));
        let (chunk, off) = Slots::<u8>::locate(usize::MAX - FIRST).unwrap();
        assert_eq!(chunk, CHUNKS - 1);
        assert!(off < FIRST << chunk);
        assert_eq!(Slots::<u8>::locate(usize::MAX), None);
    }

    #[test]
    fn slots_keep_their_address_as_the_table_grows() {
        let s: Slots<AtomicU64> = Slots::new();
        assert!(s.get(5).is_none());
        s.ensure(5).store(7, Ordering::Relaxed);
        let first = std::ptr::from_ref(s.get(5).unwrap());
        for i in 0..10 * FIRST {
            s.ensure(i);
        }
        assert_eq!(std::ptr::from_ref(s.get(5).unwrap()), first);
        assert_eq!(s.get(5).unwrap().load(Ordering::Relaxed), 7);
        assert_eq!(s.get(9 * FIRST).unwrap().load(Ordering::Relaxed), 0);
        assert!(s.get(1 << 20).is_none());
    }
}
