//! Order statistics over measured samples.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice: the
/// smallest sample with at least `q · len` samples at or below it.
///
/// # Panics
/// On an empty slice or a `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`] of `values` (sorted in place), or 0 when there are none.
pub fn percentile_or_zero(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sort(values);
    percentile(values, q)
}

/// Percentile `q` of a histogram of whole-nanosecond samples
/// (`counts[i]` samples read `i` ns), as grouped data: the nearest-rank
/// bucket, with the rank's place among the samples tied in it spread
/// evenly over the bucket's nanosecond, so the result stays within half a
/// nanosecond of the nearest-rank sample but moves with the share of
/// samples on either side of it. 0 for an empty histogram.
///
/// # Panics
/// On a `q` outside `(0, 1]`.
pub fn hist_percentile(counts: &[u32], q: f64) -> f64 {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let n: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    if n == 0 {
        return 0.0;
    }
    let rank = q * n as f64;
    let needed = (rank.ceil() as u64).clamp(1, n);
    let mut below = 0u64;
    for (ns, &c) in counts.iter().enumerate() {
        let c = u64::from(c);
        if below + c >= needed {
            return ns as f64 - 0.5 + (rank - below as f64) / c as f64;
        }
        below += c;
    }
    unreachable!("the ranks sum to n")
}

/// How many samples a percentile leaves strictly beyond its rank — the
/// guide for which tail percentile a sample count can support (at least
/// ten samples beyond it).
pub fn samples_beyond(len: usize, q: f64) -> usize {
    if len == 0 {
        return 0;
    }
    len - ((q * len as f64).ceil() as usize).clamp(1, len)
}

/// Sort `values` ascending (total order; callers pass finite samples).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of a non-empty sample set (sorts it in place).
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    percentile(values, 0.5)
}

/// The nearest-rank value `share` of the way from the best of `values`
/// to the worst (sorting `values` in place): with `higher_is_better` the
/// best is the largest, otherwise the smallest. 0 when there are none.
///
/// # Panics
/// On a `share` outside `(0, 1]`.
pub fn from_best(values: &mut [f64], share: f64, higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sort(values);
    if higher_is_better {
        values.reverse();
    }
    percentile(values, share)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selection() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // Ten samples: p50 is the 5th, p90 the 9th, p99 rounds up to the 10th.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.5), 5.0);
        assert_eq!(percentile(&w, 0.9), 9.0);
        assert_eq!(percentile(&w, 0.99), 10.0);
        // A single sample is every percentile.
        assert_eq!(percentile(&[7.0], 0.01), 7.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
    }

    #[test]
    fn hist_percentile_interpolates_within_ties() {
        // Samples 1, 2, 2, 2, 3 ns.
        let h = [0, 1, 3, 1];
        // Rank 2.5 of 5 is halfway through the three tied 2s.
        assert!((hist_percentile(&h, 0.5) - 2.0).abs() < 1e-12);
        // Rank 2 is a third of the way in: 1.5 + 1/3.
        assert!((hist_percentile(&h, 0.4) - (1.5 + 1.0 / 3.0)).abs() < 1e-12);
        // An untied sample at full rank sits at the top of its bucket.
        assert!((hist_percentile(&h, 1.0) - 3.5).abs() < 1e-12);
        // More ties above the rank pull the value down within the bucket.
        let w = [0, 0, 0, 0, 0, 10];
        assert!((hist_percentile(&w, 0.1) - 4.6).abs() < 1e-12);
        // The interpolated value stays within half a bucket of the
        // nearest-rank sample.
        let v: Vec<f64> = (0..100).map(|i| f64::from(i % 7 + 3)).collect();
        let mut h = vec![0u32; 16];
        for &x in &v {
            h[x as usize] += 1;
        }
        let mut sorted = v.clone();
        sort(&mut sorted);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert!((hist_percentile(&h, q) - percentile(&sorted, q)).abs() <= 0.5);
        }
        assert_eq!(hist_percentile(&[0, 0], 0.5), 0.0);
    }

    #[test]
    fn tail_sample_counts() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(10, 0.5), 5);
        assert_eq!(samples_beyond(1, 0.5), 0);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn median_sorts_and_mean_averages() {
        let mut v = vec![3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn from_best_counts_from_either_end() {
        let mut v: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        // A third of nine values: the third best.
        assert_eq!(from_best(&mut v, 1.0 / 3.0, false), 3.0);
        assert_eq!(from_best(&mut v, 1.0 / 3.0, true), 7.0);
        // Ten values: rank ceil(10 / 3) = 4.
        let mut w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(from_best(&mut w, 1.0 / 3.0, false), 4.0);
        assert_eq!(from_best(&mut w, 1.0 / 3.0, true), 7.0);
        assert_eq!(from_best(&mut [2.0], 1.0 / 3.0, true), 2.0);
        assert_eq!(from_best(&mut [], 0.5, false), 0.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_percentile_panics() {
        percentile(&[], 0.5);
    }
}
