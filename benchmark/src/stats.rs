//! Order statistics used for every reported timing.
//!
//! Percentiles follow one rule from the metric catalogue: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it;
//! otherwise the next lower rung of the ladder p99 → p95 → p90 → p75 → p50
//! is used, so a tail is never read off a handful of samples.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

const LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Sorts `xs` ascending in place (NaNs are a bug in the caller).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// Linearly interpolated quantile of an ascending-sorted, non-empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample (0.0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    quantile_sorted(&v, 0.5)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), which is what the acceptance spread is defined over.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |i: usize| -> f64 {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Interquartile distance as a share of the median: the steadiness figure
/// the benchmark contract is judged by.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The highest rung of the ladder at or below `wanted` that `n` samples
/// support under the ten-samples-beyond rule.
pub fn supported_quantile(n: usize, wanted: f64) -> f64 {
    for &q in LADDER.iter().filter(|&&q| q <= wanted + 1e-12) {
        // The epsilon keeps 0.1 × 100 from flooring to 9.
        let beyond = ((1.0 - q) * n as f64 + 1e-9).floor() as usize;
        if beyond >= MIN_BEYOND {
            return q;
        }
    }
    0.5
}

/// `wanted` percentile of an unsorted sample, lowered by
/// [`supported_quantile`] when the sample is too small for it. Returns the
/// value and the quantile actually used.
pub fn percentile(xs: &[f64], wanted: f64) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.5);
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let q = supported_quantile(v.len(), wanted);
    (quantile_sorted(&v, q), q)
}

/// Share of the per-round values dropped at each end by [`trimmed_mean`].
pub const TRIM: f64 = 0.1;

/// Mean of what is left after dropping the lowest and the highest
/// [`TRIM`] share of `xs` (rounded down, so fewer than ten values are all
/// kept). 0.0 for an empty sample.
///
/// This is how a run reduces its per-round values to one figure. On a
/// shared host the rounds of one run fall into fast and slow stretches;
/// the median of such a two-humped sample jumps between the humps from
/// run to run, while the mean moves smoothly with the share of slow
/// rounds, and the trim keeps a single stalled round from counting.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let cut = (v.len() as f64 * TRIM).floor() as usize;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_interpolation() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile_sorted(&v, 0.0), 10.0);
        assert_eq!(quantile_sorted(&v, 1.0), 50.0);
        assert!((quantile_sorted(&v, 0.9) - 46.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (a, b, c) = quartiles(&[2.0, 1.0]);
        assert_eq!((a, b, c), (0.75, 1.5, 2.25));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1000 samples, p90 needs 100, p75 needs 40.
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        assert_eq!(supported_quantile(999, 0.99), 0.95);
        assert_eq!(supported_quantile(100, 0.90), 0.90);
        assert_eq!(supported_quantile(99, 0.90), 0.75);
        assert_eq!(supported_quantile(39, 0.90), 0.50);
        assert_eq!(supported_quantile(5, 0.99), 0.50);
        // A wanted p90 is never raised to p95 even when p95 is supported.
        assert_eq!(supported_quantile(10_000, 0.90), 0.90);
        let xs: Vec<f64> = (0..50).map(f64::from).collect();
        let (v, q) = percentile(&xs, 0.99);
        assert_eq!(q, 0.75);
        assert!((v - 36.75).abs() < 1e-9);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        assert_eq!(trimmed_mean(&[]), 0.0);
        assert_eq!(trimmed_mean(&[4.0]), 4.0);
        // Fewer than ten values: nothing is dropped.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 9.0]), 4.0);
        // Ten values: the lowest and the highest go.
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        xs[9] = 1000.0;
        xs[0] = -1000.0;
        assert!((trimmed_mean(&xs) - 5.5).abs() < 1e-12);
        // A two-humped sample lands between the humps, by their shares.
        let humps: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 2.0 }).collect();
        assert!((trimmed_mean(&humps) - 1.5).abs() < 1e-12);
    }
}
