//! Order statistics used everywhere a number is reported.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Index of quantile `q` in an ascending slice of `len` (nearest rank).
fn rank(len: usize, q: f64) -> usize {
    ((len - 1) as f64 * q).round() as usize
}

fn at(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(at(&sorted_copy(values), 0.5))
}

/// Quantile `q` in `(0, 1)` of `values`, refused (`None`) unless at least
/// [`MIN_BEYOND`] samples lie beyond it: a p99 of 500 samples would be
/// decided by five of them.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile out of range");
    if values.is_empty() || values.len() - 1 - rank(values.len(), q) < MIN_BEYOND {
        return None;
    }
    Some(at(&sorted_copy(values), q))
}

/// `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance rule for spreads is written in. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let v = sorted_copy(values);
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(989.0), "10 samples beyond");
        assert_eq!(percentile(&v[..900], 0.99), None, "9 samples beyond p99");
        assert_eq!(percentile(&v[..50], 0.8), Some(39.0), "10 of 50 beyond p80");
        assert_eq!(percentile(&v[..48], 0.8), None, "9 of 48 beyond p80");
        assert_eq!(percentile(&v[..19], 0.5), None, "9 samples beyond p50");
        assert_eq!(percentile(&v[..21], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }
}
