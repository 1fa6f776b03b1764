//! Order statistics for timing samples: medians, guarded percentiles and
//! the quartile spread the acceptance rule is written in.

/// Sorted copy of `samples` (total order; NaNs would be a bug upstream).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a harness bug,
/// not a value.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples that must lie beyond a reported percentile: with fewer the
/// figure is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank, `0 < p < 100`), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    if rank == 0 || v.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the driver's acceptance rule is stated in those terms.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let v = sorted(samples);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread of one metric on one workload.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(samples);
    let med = median(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// `(max − min) / median` in percent — the in-run spread figure of the
/// `host.*_spread_pct` metrics.
pub fn range_pct(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let med = median(samples);
    if med == 0.0 {
        0.0
    } else {
        100.0 * (v[v.len() - 1] - v[0]) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        // p95 of 100 samples leaves only five beyond it.
        assert_eq!(percentile(&hundred, 95.0), None);
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&two_hundred, 95.0), Some(190.0));
        assert_eq!(percentile(&hundred[..19], 50.0), None);
        assert_eq!(percentile(&hundred[..20], 50.0), Some(10.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn range_pct_is_relative_to_the_median() {
        assert_eq!(range_pct(&[90.0, 100.0, 120.0]), 30.0);
    }
}
