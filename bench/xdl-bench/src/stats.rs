//! Percentiles and medians over latency samples.

/// Nearest-rank percentile of `sorted` (ascending): the value at 1-based
/// rank `ceil(p/100 * n)`.
///
/// A tail percentile is only as good as the samples beyond it, so this
/// refuses (`None`) unless at least `MIN_BEYOND` samples lie above the
/// rank — p99 needs n >= 1000.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    if p > 50.0 && n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Samples required beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sort samples ascending (latencies are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
    v
}

/// Median by the nearest-rank rule (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples.to_vec()), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_small_sets() {
        let v = ramp(5);
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 20.0), Some(1.0));
        assert_eq!(percentile(&v, 21.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Even count: nearest rank takes the lower middle.
        assert_eq!(percentile(&ramp(4), 50.0), Some(2.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // n = 1000: rank 990, ten samples beyond.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // n = 999: rank 990, nine beyond — refused.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // p90 at n = 100 has exactly ten beyond.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90.0), None);
        // The median is never refused.
        assert_eq!(percentile(&ramp(3), 50.0), Some(2.0));
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }
}
