//! Sample arithmetic: medians, percentiles, quartile spread, scaling
//! exponents.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has taken at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` (the default, exclusive method)
/// gives them — the driver's definition of spread.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Python: j = k*(n+1)//4 clamped to 1..n-1, delta = k*(n+1) - 4j.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// `log(full / quarter) / log 4`: 1.0 is linear in the request count,
/// 2.0 quadratic.
pub fn scale_exp(full: f64, quarter: f64) -> f64 {
    if full <= 0.0 || quarter <= 0.0 {
        return 0.0;
    }
    (full / quarter).ln() / 4f64.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 6.0);
        assert_eq!(percentile(&xs, 0.9), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 11.0);
        assert!((percentile(&[1.0, 2.0], 0.25) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
    }

    #[test]
    fn scaling_exponents() {
        assert!((scale_exp(4.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((scale_exp(16.0, 1.0) - 2.0).abs() < 1e-12);
        assert_eq!(scale_exp(0.0, 1.0), 0.0);
    }
}
