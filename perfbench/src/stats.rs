//! Order statistics for latencies and for run-to-run comparison.

/// The `p`-th percentile by nearest rank: the smallest sample with at
/// least `p` percent of the samples at or below it. `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median, averaging the two middle samples of an even count.
#[must_use]
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the spread printed here matches the acceptance check.
/// `None` for fewer than two samples.
#[must_use]
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let ld = sorted.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Sorts a copy of `values` (total order; NaN never occurs in timings).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nanoseconds as milliseconds.
#[must_use]
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Five samples: p99 is the largest, p50 the middle one.
        let five = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&five, 99.0), Some(5.0));
        assert_eq!(percentile(&five, 50.0), Some(3.0));
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from Python 3:
        //   statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        //   statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        //   statistics.quantiles([3, 5, 8, 13, 21], n=4) == [4.0, 8.0, 17.0]
        assert_eq!(quartiles(&[3.0, 5.0, 8.0, 13.0, 21.0]), Some((4.0, 17.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn sorting_is_total() {
        assert_eq!(sorted(&[3.0, -1.0, 2.5]), vec![-1.0, 2.5, 3.0]);
    }
}
