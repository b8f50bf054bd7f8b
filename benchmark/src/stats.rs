//! Order statistics used for every reported figure.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank `ceil(q · n)` (rank 1 for `q = 0`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile at most `want` that still has at least ten
/// samples beyond it, never below the median. Tail percentiles of a small
/// sample degrade towards the median instead of reporting one outlier.
pub fn supported_percentile(samples: usize, want: f64) -> f64 {
    if samples == 0 {
        return 0.5;
    }
    want.min(1.0 - 10.0 / samples as f64).max(0.5)
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median`: the run-to-run spread printed beside every
/// median-of-repetitions figure.
pub fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (max - min) / med
    }
}

/// Interquartile range over the median, quartiles by the exclusive method
/// Python's `statistics.quantiles(values, n=4)` uses — the acceptance
/// figure `--agree` reproduces.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / med
    }
}

/// Sorts a latency sample (milliseconds) in place and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_by_hand() {
        // Ten samples: p50 is rank ceil(5.0) = 5, p95 rank ceil(9.5) = 10,
        // p10 rank 1, p11 rank ceil(1.1) = 2.
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 5.0);
        assert_eq!(percentile(&s, 0.95), 10.0);
        assert_eq!(percentile(&s, 0.10), 1.0);
        assert_eq!(percentile(&s, 0.11), 2.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        assert_eq!(supported_percentile(500, 0.99), 0.98);
        assert_eq!(supported_percentile(500, 0.95), 0.95);
        assert_eq!(supported_percentile(100, 0.95), 0.90);
        assert_eq!(supported_percentile(16, 0.95), 0.5);
    }

    #[test]
    fn median_of_three_and_of_four() {
        assert_eq!(median(&[9.0, 1.0, 4.0]), 4.0);
        assert_eq!(median(&[8.0, 2.0, 4.0, 6.0]), 5.0);
        // (9 − 1) / 4
        assert_eq!(spread(&[9.0, 1.0, 4.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((iqr_share(&[40.0, 10.0, 20.0]) - 30.0 / 20.0).abs() < 1e-12);
    }
}
