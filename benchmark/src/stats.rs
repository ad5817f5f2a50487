//! Order statistics for the noise protocol: medians and quartiles over
//! repetitions, percentiles over pooled latency samples.

/// `(q1, median, q3)` of `xs`, computed like Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) so the spreads printed
/// here match the ones the acceptance driver computes. One sample is its own
/// quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Median of `xs` (`NaN` when empty).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// `(q3 - q1) / median`: the run-to-run spread the bounds are judged against.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile of an ascending-sorted slice, `q` in `0..=1`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Tail percentiles worth reporting, ascending.
pub const TAILS: [(f64, &str); 4] = [
    (0.90, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
];

/// The highest tail percentile that still has at least ten samples beyond
/// it — anything higher is decided by a handful of outliers. `None` below
/// 100 samples, where even p90 has fewer than ten.
pub fn highest_supported_tail(samples: usize) -> Option<(f64, &'static str)> {
    TAILS
        .iter()
        .rev()
        .find(|(q, _)| (samples as f64 * (1.0 - q) + 1e-6).floor() >= 10.0)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 0.5), 50.0);
        assert_eq!(percentile_sorted(&xs, 0.99), 99.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 100.0);
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
    }

    #[test]
    fn tail_picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100).unwrap().1, "p90");
        assert_eq!(highest_supported_tail(999).unwrap().1, "p90");
        assert_eq!(highest_supported_tail(1_000).unwrap().1, "p99");
        assert_eq!(highest_supported_tail(20_000).unwrap().1, "p99.9");
        assert_eq!(highest_supported_tail(100_000).unwrap().1, "p99.99");
    }
}
