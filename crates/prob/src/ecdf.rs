//! Empirical cumulative distribution functions.
//!
//! Algorithm 1 (and Algorithm 2 for the GP path) both return
//! `Pr(Y' ≤ y) = (1/m) Σ 1[y_i, ∞)(y)` — an [`Ecdf`] built from output
//! samples. Queries are O(log m) binary searches over the sorted sample
//! array.
//!
//! The sort is IEEE 754's total order, run on integer keys: each float's
//! bits map to a `u64` whose unsigned order is the floats' order, so the
//! sort compares integers instead of calling a float comparator. On finite
//! values that is the numeric order, with `−0.0` placed before `+0.0`.

use crate::{ProbError, Result};

/// Empirical CDF over a sorted sample of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    /// Sorted, finite sample values (`−0.0` before `+0.0`).
    values: Vec<f64>,
}

/// The order-preserving `u64` image of a float: a negative one has every
/// bit flipped, a non-negative one only its sign bit.
#[inline]
fn key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ if bits >> 63 == 1 { !0 } else { 1 << 63 }
}

/// The inverse of [`key`].
#[inline]
fn unkey(k: u64) -> f64 {
    f64::from_bits(k ^ if k >> 63 == 1 { 1 << 63 } else { !0 })
}

impl Ecdf {
    /// Build from samples (sorted internally, see the module docs).
    /// Non-finite samples are rejected — they would poison every quantile
    /// query downstream.
    pub fn new(samples: Vec<f64>) -> Result<Self> {
        if samples.is_empty() {
            return Err(ProbError::Empty("ECDF samples"));
        }
        if let Some(&value) = samples.iter().find(|v| !v.is_finite()) {
            return Err(ProbError::InvalidParameter {
                what: "ECDF sample (non-finite)",
                value,
            });
        }
        // Both maps collect into the allocation they consume.
        let mut keys: Vec<u64> = samples.into_iter().map(key).collect();
        keys.sort_unstable();
        let values = keys.into_iter().map(unkey).collect();
        Ok(Ecdf { values })
    }

    /// Number of samples `m`.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when there are no samples (unreachable by construction; kept for
    /// API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sorted sample values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The sorted sample values, in the allocation [`Ecdf::new`] was given:
    /// a caller that sorts into a reusable buffer gets the buffer back.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// `F(y) = Pr(Y' ≤ y)`.
    pub fn cdf(&self, y: f64) -> f64 {
        self.count_le(y) as f64 / self.values.len() as f64
    }

    /// Number of samples ≤ `y` (rank).
    pub fn count_le(&self, y: f64) -> usize {
        // partition_point: first index where v > y.
        self.values.partition_point(|&v| v <= y)
    }

    /// `Pr(Y' ∈ [a, b])` for a closed interval.
    pub fn interval_prob(&self, a: f64, b: f64) -> f64 {
        if b < a {
            return 0.0;
        }
        let hi = self.count_le(b);
        let lo = self.values.partition_point(|&v| v < a);
        (hi - lo) as f64 / self.values.len() as f64
    }

    /// Empirical quantile (inverse CDF): smallest sample `y` with
    /// `F(y) ≥ p`. `p` is clamped to (0, 1].
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let m = self.values.len();
        let k = ((p * m as f64).ceil() as usize).clamp(1, m);
        self.values[k - 1]
    }

    /// Smallest sample value.
    pub fn min(&self) -> f64 {
        self.values[0]
    }

    /// Largest sample value.
    pub fn max(&self) -> f64 {
        *self.values.last().expect("non-empty by construction")
    }

    /// A kernel-free histogram-style pdf estimate over `bins` equal-width
    /// bins spanning the sample range; returns `(bin_center, density)` pairs.
    /// Used to render Fig 6(a)-style output pdfs.
    pub fn density_histogram(&self, bins: usize) -> Vec<(f64, f64)> {
        let bins = bins.max(1);
        let (lo, hi) = (self.min(), self.max());
        let width = ((hi - lo) / bins as f64).max(f64::MIN_POSITIVE);
        let mut counts = vec![0usize; bins];
        for &v in &self.values {
            let idx = (((v - lo) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        let m = self.values.len() as f64;
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| (lo + (i as f64 + 0.5) * width, c as f64 / (m * width)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(v: &[f64]) -> Ecdf {
        Ecdf::new(v.to_vec()).unwrap()
    }

    #[test]
    fn cdf_step_function() {
        let d = e(&[3.0, 1.0, 2.0]);
        assert_eq!(d.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(d.cdf(0.5), 0.0);
        assert!((d.cdf(1.0) - 1.0 / 3.0).abs() < 1e-15);
        assert!((d.cdf(2.5) - 2.0 / 3.0).abs() < 1e-15);
        assert_eq!(d.cdf(3.0), 1.0);
        assert_eq!(d.cdf(99.0), 1.0);
    }

    #[test]
    fn interval_probability_closed() {
        let d = e(&[1.0, 2.0, 3.0, 4.0]);
        assert!((d.interval_prob(2.0, 3.0) - 0.5).abs() < 1e-15);
        assert!((d.interval_prob(1.5, 1.9) - 0.0).abs() < 1e-15);
        assert!((d.interval_prob(0.0, 10.0) - 1.0).abs() < 1e-15);
        assert_eq!(d.interval_prob(3.0, 2.0), 0.0);
        // Closed interval includes endpoints.
        assert!((d.interval_prob(2.0, 2.0) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn quantiles() {
        let d = e(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(d.quantile(0.25), 10.0);
        assert_eq!(d.quantile(0.26), 20.0);
        assert_eq!(d.quantile(1.0), 40.0);
        assert_eq!(d.quantile(0.0), 10.0); // clamped
        assert_eq!(d.min(), 10.0);
        assert_eq!(d.max(), 40.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Ecdf::new(vec![]).is_err());
        assert!(Ecdf::new(vec![1.0, f64::NAN]).is_err());
        // The diagnostic names the offending sample, not a placeholder NaN.
        for bad in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                Ecdf::new(vec![1.0, bad, f64::NAN]),
                Err(ProbError::InvalidParameter {
                    what: "ECDF sample (non-finite)",
                    value: bad,
                })
            );
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn integer_key_sort_is_the_comparator_sort_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xec0f);
        let mut mixed_zeros = 0;
        for case in 0..10_000 {
            let m = if rng.gen_bool(0.05) {
                rng.gen_range(1..=2000)
            } else {
                rng.gen_range(1..=48)
            };
            let samples: Vec<f64> = (0..m)
                .map(|_| {
                    let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
                    match (case % 5, rng.gen_range(0..8)) {
                        (0, _) => rng.gen_range(-3.0..3.0),
                        (1, k) => 0.5 * f64::from(k - 4),
                        (2, _) => sign * f64::from_bits(rng.gen_range(1..1u64 << 52)),
                        (3, _) => sign * 1e300 * rng.gen_range(0.5..1.5),
                        // Everything at once, signed zeros half the time.
                        (_, 0 | 1) => sign * 0.0,
                        (_, 2) => sign * f64::MIN_POSITIVE * rng.gen_range(0.0..2.0),
                        (_, 3) => sign * 1e300,
                        (_, k) => 0.5 * f64::from(k - 5),
                    }
                })
                .collect();
            let got = Ecdf::new(samples.clone()).unwrap();
            let mut total = samples.clone();
            total.sort_by(f64::total_cmp);
            assert_eq!(bits(got.values()), bits(&total), "case {case}");
            // The comparator sort it replaces leaves only the order of −0.0
            // and +0.0 open.
            let mut before = samples.clone();
            before.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got.values(), &before[..], "case {case}");
            let zeros = |sign: f64| samples.iter().any(|&x| x == 0.0 && x.signum() == sign);
            if zeros(-1.0) && zeros(1.0) {
                mixed_zeros += 1;
            } else {
                assert_eq!(bits(got.values()), bits(&before), "case {case}");
            }
        }
        assert!(mixed_zeros > 500);
    }

    #[test]
    fn negative_zero_sorts_before_positive_zero() {
        let d = e(&[0.0, -0.0, 1.0, 0.0, -0.0, -1.0]);
        assert_eq!(bits(d.values()), bits(&[-1.0, -0.0, -0.0, 0.0, 0.0, 1.0]));
    }

    #[test]
    fn histogram_integrates_to_one() {
        let d = e(&(0..100).map(|i| i as f64 / 10.0).collect::<Vec<_>>());
        let hist = d.density_histogram(20);
        let width = (d.max() - d.min()) / 20.0;
        let total: f64 = hist.iter().map(|(_, p)| p * width).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
