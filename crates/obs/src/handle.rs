//! Pre-registered metric handles: the hot-path side of the registry.
//!
//! A [`Counter`] or [`HistogramHandle`] is obtained once, by name, from
//! [`Registry::counter_handle`](crate::Registry::counter_handle) /
//! [`Registry::histogram_handle`](crate::Registry::histogram_handle),
//! and bumped from then on without the registry mutex and without a
//! name lookup. Each handle owns eight cache-line-sized cells; a
//! thread bumps the cell its stripe index selects, so two threads
//! bumping the same metric do not write the same line. The registry
//! folds the cells — addition is order-independent, like
//! [`Histogram::merge`] — only when it is read, snapshotted or reset.

use crate::hist::Histogram;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Cells per handle. Threads are dealt stripes round-robin in order of
/// first use, so up to this many threads never share a cell.
const STRIPES: usize = 8;

/// This thread's stripe index.
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Relaxed) % STRIPES;
    }
    SLOT.with(|s| *s)
}

#[derive(Debug, Default)]
#[repr(align(64))]
struct Cell(AtomicU64);

/// The shared storage behind every [`Counter`] of one name.
#[derive(Debug, Default)]
pub(crate) struct CounterCells {
    /// Set by the first bump (a bump of 0 included), so a handle nobody
    /// used stays out of the snapshot while `add(0)` still creates the
    /// counter, as the by-name path does.
    touched: AtomicBool,
    cells: [Cell; STRIPES],
}

impl CounterCells {
    /// The folded value, if any handle was bumped since the last reset.
    pub(crate) fn total(&self) -> Option<u64> {
        self.touched
            .load(Relaxed)
            .then(|| self.cells.iter().map(|c| c.0.load(Relaxed)).sum())
    }

    /// Back to never-bumped; handles stay valid.
    pub(crate) fn clear(&self) {
        for c in &self.cells {
            c.0.store(0, Relaxed);
        }
        self.touched.store(false, Relaxed);
    }
}

/// A pre-registered counter. Clones bump the same metric; a handle
/// from a disabled registry does nothing.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<CounterCells>>);

impl Counter {
    /// Add `delta` to the counter.
    pub fn add(&self, delta: u64) {
        let Some(c) = &self.0 else { return };
        // Load before store: once set, the flag's line stays shared.
        if !c.touched.load(Relaxed) {
            c.touched.store(true, Relaxed);
        }
        c.cells[stripe()].0.fetch_add(delta, Relaxed);
    }

    /// Increment the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }
}

#[derive(Debug)]
#[repr(align(64))]
struct HistStripe {
    /// Low and high words of the exact sample sum; the thread whose
    /// add wraps the low word carries into the high one.
    sum_lo: AtomicU64,
    sum_hi: AtomicU64,
    /// One count per bound plus the overflow bucket.
    counts: Box<[AtomicU64]>,
}

/// The shared storage behind every [`HistogramHandle`] of one name.
#[derive(Debug)]
pub(crate) struct HistCells {
    /// Never records: holds the bounds and places samples.
    empty: Histogram,
    stripes: [HistStripe; STRIPES],
}

impl HistCells {
    pub(crate) fn new(bounds: &[u64]) -> Self {
        let stripes = std::array::from_fn(|_| HistStripe {
            sum_lo: AtomicU64::new(0),
            sum_hi: AtomicU64::new(0),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
        });
        HistCells {
            empty: Histogram::new(bounds),
            stripes,
        }
    }

    pub(crate) fn bounds(&self) -> &[u64] {
        self.empty.bounds()
    }

    /// The folded histogram, if it holds any sample.
    pub(crate) fn fold(&self) -> Option<Histogram> {
        let mut counts = vec![0u64; self.bounds().len() + 1];
        let mut sum = 0u128;
        for s in &self.stripes {
            for (total, c) in counts.iter_mut().zip(s.counts.iter()) {
                *total += c.load(Relaxed);
            }
            sum += (u128::from(s.sum_hi.load(Relaxed)) << 64) + u128::from(s.sum_lo.load(Relaxed));
        }
        counts.iter().any(|&c| c > 0).then(|| {
            let mut h = self.empty.clone();
            h.absorb(&counts, sum);
            h
        })
    }

    /// Back to empty; handles stay valid.
    pub(crate) fn clear(&self) {
        for s in &self.stripes {
            for c in s.counts.iter() {
                c.store(0, Relaxed);
            }
            s.sum_lo.store(0, Relaxed);
            s.sum_hi.store(0, Relaxed);
        }
    }
}

/// A pre-registered histogram. Clones record into the same metric; a
/// handle from a disabled registry does nothing.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(pub(crate) Option<Arc<HistCells>>);

impl HistogramHandle {
    /// Record one sample.
    pub fn observe(&self, value: u64) {
        let Some(h) = &self.0 else { return };
        let s = &h.stripes[stripe()];
        s.counts[h.empty.bucket_for(value)].fetch_add(1, Relaxed);
        if s.sum_lo
            .fetch_add(value, Relaxed)
            .checked_add(value)
            .is_none()
        {
            s.sum_hi.fetch_add(1, Relaxed);
        }
    }
}
