//! Percentiles, slice medians and quartiles.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
/// Empty input reads 0.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and reads its percentile.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    samples.sort_unstable();
    percentile_sorted(samples, p)
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The latency percentile the end-to-end metrics report: cut the timed
/// tape into `slices.len()` consecutive slices, take each slice's
/// percentile, report the median of those. One slow stretch (a
/// checkpoint, a noisy neighbour) then moves one slice, not the number.
pub fn slice_median_percentile(slices: &mut [Vec<u64>], p: f64) -> f64 {
    let mut per_slice: Vec<f64> = slices
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| percentile(s, p) as f64)
        .collect();
    median_f64(&mut per_slice)
}

/// What an invocation reports from its repetitions' values: the one a
/// third of the way in from the better end — the third best of eight,
/// the second best of five, the only one of one. The host's
/// interference is one-sided — it only ever slows a repetition, in
/// bursts of seconds to minutes — so the better end of the sample is the
/// steadier one: two thirds of the repetitions can be disturbed before
/// the number moves. The very best are left out as the lucky extremes:
/// about one repetition in ten of `authoring_durable` has a read p50
/// 30–50 % below the others'. In a quiet hour it spreads like the
/// median; in a disturbed one it holds while the median follows the
/// disturbance. Empty input reads 0.
pub fn better_third(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    match v.len() {
        0 => 0.0,
        n => v[n.div_ceil(3) - 1],
    }
}

/// The first quartile (nearest rank) of many short timings: what
/// [`better_third`] is to a few long ones. A timing of tens of
/// milliseconds is moved 10–20 % by a single scheduling hiccup, so the
/// sample is large, taken in batches all through the invocation, and
/// read at its quiet end — three quarters of the sample would have to be
/// disturbed to move it. Empty input reads 0.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[n.div_ceil(4) - 1],
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (exclusive method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut [7], 0.99), 7);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn slice_median_ignores_one_bad_slice() {
        // Four quiet slices and one with a stall: the p99 of the whole
        // sample would be the stall, the slice median is not.
        let mut slices: Vec<Vec<u64>> = (0..5).map(|_| (1..=100).collect()).collect();
        slices[2].iter_mut().for_each(|x| *x += 10_000);
        assert_eq!(slice_median_percentile(&mut slices, 0.99), 99.0);
        assert_eq!(slice_median_percentile(&mut slices, 0.50), 50.0);
        // Empty slices (a class absent from a stretch) are skipped.
        let mut sparse = vec![vec![], vec![5, 6, 7], vec![]];
        assert_eq!(slice_median_percentile(&mut sparse, 0.5), 6.0);
    }

    #[test]
    fn better_third_of_repetitions() {
        assert_eq!(better_third(&[5.0, 1.0, 9.0, 3.0, 7.0], false), 3.0);
        assert_eq!(better_third(&[5.0, 1.0, 9.0, 3.0, 7.0], true), 7.0);
        let eight = [8.0, 2.0, 6.0, 4.0, 1.0, 7.0, 3.0, 5.0];
        assert_eq!(better_third(&eight, false), 3.0);
        assert_eq!(better_third(&eight, true), 6.0);
        assert_eq!(better_third(&[4.0], true), 4.0);
        assert_eq!(better_third(&[], true), 0.0);
    }

    #[test]
    fn lower_quartile_holds_while_most_of_the_sample_is_disturbed() {
        let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(lower_quartile(&v), 10.0);
        v[10..].iter_mut().for_each(|x| *x *= 3.0);
        assert_eq!(lower_quartile(&v), 10.0);
        assert_eq!(lower_quartile(&[4.0]), 4.0);
        assert_eq!(lower_quartile(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
