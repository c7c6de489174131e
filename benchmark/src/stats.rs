//! Order statistics for timing samples.
//!
//! Timings are reported as a median, the minimum, the median absolute
//! deviation, and the highest tail percentile that still has at least ten
//! samples beyond it — with fewer than 100 samples that is no percentile at
//! all, and none is printed.

/// Sorted copy of `values` (NaN-free by construction: every caller passes
/// measured durations or counts).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median; the mean of the two middle samples for an even count.
///
/// # Panics
/// Panics on an empty slice (a run with no samples is a harness bug).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// Smallest sample.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it (`p` in `(0, 1]`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    // The slack keeps a product like 0.9 × 100 from rounding up a rank.
    let rank = (p * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentiles a report may quote, lowest first, in per mille
/// (integers, so the "ten beyond" count below is exact).
const TAILS_PER_MILLE: [usize; 4] = [900, 950, 990, 999];

/// The highest of p90/p95/p99/p99.9 that has at least ten of `n` samples
/// strictly beyond it, or `None` when even p90 has fewer.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .rfind(|&&pm| n.saturating_sub((n * pm).div_ceil(1000)) >= 10)
        .map(|&pm| pm as f64 / 1000.0)
}

/// What a report prints for one timing series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Minimum.
    pub min: f64,
    /// Median absolute deviation.
    pub mad: f64,
    /// `(p, value)` of the highest supported tail percentile, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise a non-empty series.
    pub fn of(values: &[f64]) -> Self {
        Summary {
            n: values.len(),
            p50: median(values),
            min: min(values),
            mad: mad(values),
            tail: supported_tail(values.len()).map(|p| (p, percentile(values, p))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        // Deviations from the median 3: {2, 1, 0, 1, 97} → median 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[9.0], 0.9), 9.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Fifteen passes support no tail at all — the benchmark's case.
        assert_eq!(supported_tail(15), None);
        assert_eq!(supported_tail(99), None); // p90 leaves 9 beyond
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(199), Some(0.90)); // p95 leaves 9
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(2048), Some(0.99)); // p99.9 leaves 2
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn summary_reports_tail_only_when_supported() {
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        let s = Summary::of(&few);
        assert_eq!((s.n, s.p50, s.min, s.tail), (15, 8.0, 1.0, None));
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&many).tail, Some((0.90, 90.0)));
    }
}
