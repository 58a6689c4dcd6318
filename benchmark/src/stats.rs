//! Order statistics over latency samples.

/// Sort a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice; 0 for
/// an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 50.0)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it (the choosing-metrics rule), or `None` below 20
/// samples, where only the median is reportable.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per-mille, so the ten-beyond test is exact integer arithmetic.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10_000)
        .map(|pm| pm as f64 / 10.0)
}

/// Median of the last `k` samples over the median of the first `k`, in
/// arrival order: > 1 means operations got slower as the run went on.
/// 1.0 when there are fewer than `2k` samples (the halves would overlap).
pub fn drift(xs: &[f64], k: usize) -> f64 {
    if k == 0 || xs.len() < 2 * k {
        return 1.0;
    }
    let first = median(&xs[..k]);
    let last = median(&xs[xs.len() - k..]);
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn drift_compares_last_block_with_first() {
        let xs: Vec<f64> = (0..300).map(|i| 1.0 + f64::from(i) / 100.0).collect();
        let d = drift(&xs, 100);
        assert!((d - (1.0 + 2.49) / 1.49).abs() < 0.02, "{d}");
        assert_eq!(drift(&xs[..150], 100), 1.0);
    }
}
