//! Sample statistics: nearest-rank percentiles, the "ten samples beyond"
//! rule for tail percentiles, and quartile spread as the driver takes it.

/// The tail percentiles the benchmark may report, highest first.
const TAILS: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// Sort a sample in place (latencies are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile of a sorted, non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (0 when empty, so absent layers read 0).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Whether a percentile is supported by `n` samples: at least ten of them
/// must lie beyond it, or the value is set by a handful of outliers.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p) >= 10.0
}

/// The highest tail percentile at or below `wanted` that `n` samples
/// support (the median when none does).
pub fn supported_tail(n: usize, wanted: f64) -> f64 {
    TAILS
        .into_iter()
        .find(|&p| p <= wanted && supports(n, p))
        .unwrap_or(0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method) — the driver's definition.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!supports(199, 0.95));
        assert!(supports(200, 0.95));
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert_eq!(supported_tail(5000, 0.99), 0.99);
        assert_eq!(supported_tail(5000, 0.95), 0.95);
        assert_eq!(supported_tail(150, 0.95), 0.90);
        assert_eq!(supported_tail(60, 0.95), 0.75);
        assert_eq!(supported_tail(12, 0.95), 0.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
