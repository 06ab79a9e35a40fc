//! The one timing methodology every number in the ledger goes through:
//! nearest-rank percentiles over raw samples and medians over trials.

/// The nearest-rank `q`-quantile (`0.0..=1.0`) of `samples`, which need
/// not be sorted: the smallest value with at least `q` of the samples at
/// or below it. `None` on an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The epsilon keeps 0.9 × 100 = 90.00000000000001 at rank 90.
    let rank =
        ((q.clamp(0.0, 1.0) * sorted.len() as f64 - 1e-9).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median of trial results: the middle value, or the mean of the two
/// middle values for an even count. `NaN` on an empty slice, so a stage
/// that ran no trial cannot pass for a measurement.
pub fn median(trials: &[f64]) -> f64 {
    if trials.is_empty() {
        return f64::NAN;
    }
    let mut sorted = trials.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it
/// (the choosing-metrics rule), as `(q, value)`; `None` under 20 samples,
/// where even the median has fewer than ten on each side.
pub fn supported_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|q| (n as f64 * (1.0 - q) + 1e-9).floor() >= 10.0)
        .and_then(|q| percentile(samples, q).map(|v| (q, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let samples: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&samples, 0.5), Some(5.0));
        assert_eq!(percentile(&samples, 0.9), Some(9.0));
        assert_eq!(percentile(&samples, 0.91), Some(10.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_trials() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&samples), Some((0.99, 990.0)));
        assert_eq!(supported_tail(&samples[..100]).map(|t| t.0), Some(0.9));
        assert_eq!(supported_tail(&samples[..19]), None);
    }
}
