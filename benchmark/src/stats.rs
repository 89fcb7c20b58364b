//! Order statistics the harness reports: nearest-rank percentiles, the
//! median and the relative spread of a handful of passes.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least a share `q` of all samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle samples for an even count.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values.to_vec());
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `(max − min) / median`: how far a few passes of the same work disagree.
pub fn spread(values: &[f64]) -> f64 {
    let sorted = sorted(values.to_vec());
    (sorted[sorted.len() - 1] - sorted[0]) / median(&sorted)
}

/// Sorts samples ascending (`total_cmp`, so a NaN cannot panic the sort).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    values.sort_by(f64::total_cmp);
    values
}

/// Durations as ascending milliseconds.
pub fn sorted_ms(samples: impl Iterator<Item = Duration>) -> Vec<f64> {
    sorted(samples.map(|d| d.as_secs_f64() * 1e3).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // 5 samples: p50 is the 3rd, p99 the 5th.
        let s = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!(percentile(&s, 0.5), 4.0);
        assert_eq!(percentile(&s, 0.99), 16.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[10.0, 11.0, 9.0]), 0.2);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn durations_sort_as_milliseconds() {
        let ms = sorted_ms([3, 1, 2].into_iter().map(Duration::from_millis));
        assert_eq!(ms, vec![1.0, 2.0, 3.0]);
    }
}
