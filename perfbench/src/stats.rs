//! Order statistics and means over timing samples.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The percentile ladder a tail is picked from, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples that must lie beyond a percentile for it to count as measured.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of a sample: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)`. With too
/// few samples for any ladder step the maximum is reported, as percentile
/// 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for p in TAIL_LADDER {
        // Nearest-rank percentile: the smallest value with at least p% of
        // the sample at or below it (the epsilon absorbs rounding in p·n).
        let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
        if rank >= 1 && n - rank >= TAIL_MIN_BEYOND {
            return (p, sorted[rank - 1]);
        }
    }
    (100.0, sorted.last().copied().unwrap_or(0.0))
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        // 1..=1000: p99 is 990 with exactly ten samples above it.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values), (99.0, 990.0));
        // 10000 samples reach p99.9.
        let values: Vec<f64> = (1..=10000).map(f64::from).collect();
        assert_eq!(tail(&values), (99.9, 9990.0));
        // 150 samples: p95 leaves 7, p90 leaves 15.
        let values: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&values), (90.0, 135.0));
        // Too few samples for any ladder step: the maximum.
        assert_eq!(tail(&[2.0, 9.0, 4.0]), (100.0, 9.0));
        assert_eq!(tail(&[]), (100.0, 0.0));
    }

    #[test]
    fn tail_selection_never_leaves_fewer_than_ten_beyond() {
        for n in 1..=400usize {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (p, v) = tail(&values);
            let beyond = values.iter().filter(|&&x| x > v).count();
            if p < 100.0 {
                assert!(beyond >= TAIL_MIN_BEYOND, "n={n} p={p} beyond={beyond}");
            } else {
                assert_eq!(beyond, 0);
            }
        }
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
