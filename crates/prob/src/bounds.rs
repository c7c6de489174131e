//! Sample-size and confidence-interval machinery for Monte Carlo evaluation.
//!
//! * [`mc_samples_ks`] — the DKW-based count `m = ln(2/δ) / (2ε²)` from
//!   §2.2-A: with `m` samples the empirical CDF is an (ε, δ)-approximation in
//!   KS distance and a (2ε, δ)-approximation in discrepancy, so the count at
//!   ε/2 gives an (ε, δ) guarantee directly in the *discrepancy* metric.
//! * [`hoeffding_halfwidth`] — Remark 2.1's confidence half-width `ε̃` for
//!   the tuple-existence probability after `m̃` samples. (The paper prints
//!   `ln 2/(1−δ)`; the standard Hoeffding bound, and the form consistent with
//!   the rest of §2, is `ln(2/δ)` — we implement the latter and note the
//!   erratum here.)
//! * [`split_accuracy`] — Theorem 4.1's composition: split a user budget
//!   (ε, δ) into MC and GP shares with `ε = ε_MC + ε_GP` and
//!   `1 − δ = (1 − δ_MC)(1 − δ_GP)`.

/// Number of MC samples for an (ε, δ) KS-approximation (DKW inequality).
///
/// # Panics
/// Panics if `eps` or `delta` lie outside (0, 1) (caller bug — these come
/// from validated configs).
pub fn mc_samples_ks(eps: f64, delta: f64) -> usize {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    ((2.0 / delta).ln() / (2.0 * eps * eps)).ceil() as usize
}

/// Hoeffding confidence half-width for a Bernoulli mean after `m` samples at
/// confidence `1 − δ` (Remark 2.1): `ε̃ = sqrt(ln(2/δ) / (2m))`.
///
/// # Panics
/// Panics if `m == 0` or `delta` lies outside (0, 1).
pub fn hoeffding_halfwidth(m: usize, delta: f64) -> f64 {
    assert!(m > 0, "need at least one sample");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    ((2.0 / delta).ln() / (2.0 * m as f64)).sqrt()
}

/// DKW simultaneous confidence band around an empirical CDF: with
/// probability `1 − δ` the true CDF lies within `± ε(m, δ)` of the
/// empirical one everywhere. Returns the half-width.
///
/// This is the inferential counterpart of [`mc_samples_ks`]: Algorithm 1's
/// output can be decorated with this band to show the user error bars.
///
/// ```
/// use udf_prob::bounds::{dkw_halfwidth, mc_samples_ks};
/// let m = mc_samples_ks(0.05, 0.05);
/// assert!(dkw_halfwidth(m, 0.05) <= 0.05);
/// ```
pub fn dkw_halfwidth(m: usize, delta: f64) -> f64 {
    // Hoeffding's half-width for one mean, here uniform in y.
    hoeffding_halfwidth(m, delta)
}

/// Allocation of a total accuracy budget between MC sampling and GP modeling
/// (Theorem 4.1). `mc_fraction` is the share of ε given to sampling; the
/// paper's Profile 3 recommends 0.7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracySplit {
    /// Sampling error budget ε_MC.
    pub eps_mc: f64,
    /// GP modeling error budget ε_GP.
    pub eps_gp: f64,
    /// Sampling confidence budget δ_MC.
    pub delta_mc: f64,
    /// GP confidence budget δ_GP.
    pub delta_gp: f64,
}

/// Split `(eps, delta)` with `eps = eps_mc + eps_gp` and
/// `(1−δ) = (1−δ_MC)(1−δ_GP)`, giving each source an equal δ share.
///
/// # Panics
/// Panics on parameters outside (0, 1) (caller bug).
pub fn split_accuracy(eps: f64, delta: f64, mc_fraction: f64) -> AccuracySplit {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    assert!(
        mc_fraction > 0.0 && mc_fraction < 1.0,
        "mc_fraction must be in (0,1)"
    );
    let d_each = 1.0 - (1.0 - delta).sqrt();
    AccuracySplit {
        eps_mc: eps * mc_fraction,
        eps_gp: eps * (1.0 - mc_fraction),
        delta_mc: d_each,
        delta_gp: d_each,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_sample_count() {
        // §2.2: ε = 0.02 (discrepancy, so KS at ε/2), δ = 0.05 → m > 18000.
        let m = mc_samples_ks(0.02 / 2.0, 0.05);
        assert!(m > 18_000, "m = {m}");
        assert!(m < 19_000, "m = {m}");
    }

    #[test]
    fn ks_count_shrinks_with_looser_eps() {
        assert!(mc_samples_ks(0.1, 0.05) < mc_samples_ks(0.05, 0.05));
        assert!(mc_samples_ks(0.1, 0.1) < mc_samples_ks(0.1, 0.01));
    }

    #[test]
    fn hoeffding_width_shrinks_with_m() {
        let w1 = hoeffding_halfwidth(100, 0.05);
        let w2 = hoeffding_halfwidth(10_000, 0.05);
        assert!(w2 < w1);
        assert!((w2 - w1 / 10.0).abs() < 1e-12, "1/sqrt(m) scaling");
    }

    #[test]
    fn split_composes() {
        let s = split_accuracy(0.1, 0.05, 0.7);
        assert!((s.eps_mc + s.eps_gp - 0.1).abs() < 1e-15);
        let combined = 1.0 - (1.0 - s.delta_mc) * (1.0 - s.delta_gp);
        assert!((combined - 0.05).abs() < 1e-12);
        assert!((s.eps_mc - 0.07).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "eps must be in (0,1)")]
    fn rejects_bad_eps() {
        mc_samples_ks(0.0, 0.05);
    }

    #[test]
    fn dkw_band_inverts_sample_count() {
        // By construction: the DKW half-width at the DKW sample count for
        // (ε, δ) is at most ε.
        for &(eps, delta) in &[(0.02, 0.05), (0.1, 0.01), (0.2, 0.2)] {
            let m = mc_samples_ks(eps, delta);
            assert!(dkw_halfwidth(m, delta) <= eps + 1e-12);
            // And one fewer sample would not suffice.
            if m > 1 {
                assert!(dkw_halfwidth(m - 1, delta) > eps - 1e-4);
            }
        }
    }

    #[test]
    fn dkw_band_covers_true_cdf_empirically() {
        // Draw uniform samples; the true CDF F(x) = x must stay inside the
        // band in almost all repetitions.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let delta = 0.1;
        let m = 500;
        let trials = 200;
        let mut violations = 0;
        for _ in 0..trials {
            let samples: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0f64..1.0)).collect();
            let e = crate::Ecdf::new(samples).unwrap();
            let band = dkw_halfwidth(m, delta);
            let worst = (1..=100)
                .map(|i| {
                    let x = i as f64 / 100.0;
                    (e.cdf(x) - x).abs()
                })
                .fold(0.0f64, f64::max);
            if worst > band {
                violations += 1;
            }
        }
        assert!(
            (violations as f64) < trials as f64 * delta * 1.5 + 3.0,
            "{violations}/{trials} band violations at δ = {delta}"
        );
    }
}
