//! Fixed-bucket histograms with exact totals.
//!
//! A histogram owns a strictly increasing list of upper bounds; a
//! sample `v` lands in the first bucket whose bound is `>= v`, or in
//! the implicit overflow bucket past the last bound. Alongside the
//! bucket counts it keeps the exact sample count and exact sum (u128,
//! so 2⁶⁴ samples of u64::MAX cannot overflow) — which is what makes
//! [`Histogram::merge`] lossless: merging preserves total count and
//! total sum bit-for-bit, and is associative and commutative (the
//! `hist_props` proptest suite pins all three).

use std::fmt;

/// A fixed-bucket histogram: counts per bucket plus exact count/sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One count per bound, plus a final overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Histogram {
    /// Create an empty histogram over `bounds` (upper bucket edges).
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must strictly increase"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Index of the bucket `v` lands in (last index = overflow).
    #[must_use]
    pub fn bucket_for(&self, v: u64) -> usize {
        self.bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len())
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let i = self.bucket_for(v);
        self.counts[i] += 1;
        self.count += 1;
        self.sum += u128::from(v);
    }

    /// Merge two histograms over identical bounds into a new one.
    /// Preserves total count and sum exactly; associative and
    /// commutative.
    ///
    /// # Panics
    /// Panics if the bounds differ — merging histograms of different
    /// shapes has no meaningful result.
    #[must_use]
    pub fn merge(&self, other: &Histogram) -> Histogram {
        let mut out = self.clone();
        out.merge_from(other);
        out
    }

    /// In-place [`Histogram::merge`]: add `other`'s buckets, count and
    /// sum into `self`. Same exactness and bounds requirements.
    ///
    /// # Panics
    /// Panics if the bounds differ.
    pub fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Add pre-bucketed samples: one count per bucket and their exact
    /// sum (how the registry folds a handle's cells into a histogram).
    pub(crate) fn absorb(&mut self, counts: &[u64], sum: u128) {
        debug_assert_eq!(counts.len(), self.counts.len());
        for (a, b) in self.counts.iter_mut().zip(counts) {
            *a += b;
            self.count += b;
        }
        self.sum += sum;
    }

    /// The bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean sample value (0.0 when empty). For reports only — the
    /// stored state is integer-exact.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "count={} sum={} [", self.count, self.sum)?;
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            match self.bounds.get(i) {
                Some(b) => write!(f, "<={b}:{c}")?,
                None => write!(f, ">:{c}")?,
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_placement_is_first_bound_geq() {
        let h = Histogram::new(&[10, 100, 1000]);
        assert_eq!(h.bucket_for(0), 0);
        assert_eq!(h.bucket_for(10), 0);
        assert_eq!(h.bucket_for(11), 1);
        assert_eq!(h.bucket_for(100), 1);
        assert_eq!(h.bucket_for(1000), 2);
        assert_eq!(h.bucket_for(1001), 3, "overflow bucket");
    }

    #[test]
    fn record_tracks_exact_totals() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [1, 10, 11, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 5022);
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert!((h.mean() - 1255.5).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Histogram::new(&[10]);
        let mut b = Histogram::new(&[10]);
        a.record(5);
        b.record(50);
        let m = a.merge(&b);
        assert_eq!(m.count(), 2);
        assert_eq!(m.sum(), 55);
        assert_eq!(m.counts(), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn merge_rejects_mismatched_bounds() {
        let a = Histogram::new(&[10]);
        let b = Histogram::new(&[20]);
        let _ = a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn bounds_must_strictly_increase() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn display_renders_buckets() {
        let mut h = Histogram::new(&[10]);
        h.record(3);
        h.record(30);
        assert_eq!(h.to_string(), "count=2 sum=33 [<=10:1 >:1]");
    }
}
