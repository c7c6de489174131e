//! Result distributions returned to the user.

use udf_prob::Ecdf;

/// The distribution of `Y = f(X)` computed by some evaluator, with the
/// total error bound that held during computation.
#[derive(Debug, Clone)]
pub struct OutputDistribution {
    /// Empirical CDF of the output samples.
    pub ecdf: Ecdf,
    /// Total error bound ε under the requested metric (MC share + GP share;
    /// for plain MC this is the DKW ε).
    pub error_bound: f64,
    /// Number of UDF calls spent producing this output.
    pub udf_calls: u64,
}

impl OutputDistribution {
    /// `Pr[Y ∈ [a, b]]` from the empirical CDF.
    pub fn interval_prob(&self, a: f64, b: f64) -> f64 {
        self.ecdf.interval_prob(a, b)
    }
}

/// Why Algorithm 5's online-tuning loop stopped for one tuple. (A
/// non-finite prediction stops it too, with an error instead of an output.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneStop {
    /// ε_GP fits its budget.
    WithinBudget,
    /// [`max_points_per_input`](crate::config::OlgaproConfig::max_points_per_input)
    /// points were added and the emitted ε_GP is still over budget.
    TuningBudget,
    /// The model is at its cap
    /// ([`max_model_points`](crate::config::OlgaproConfig::max_model_points)):
    /// the tuple is emitted at the achieved bound.
    ModelCap,
}

/// GP evaluator output: the mean-function distribution plus the envelope
/// distributions used by the error bounds (§4.2, Fig. 2).
#[derive(Debug, Clone)]
pub struct GpOutput {
    /// Ŷ′ — empirical CDF of the posterior-mean outputs (returned to users).
    pub y_hat: Ecdf,
    /// Y′_S — outputs of the lower envelope `f̂ − z_α σ`. Its CDF lies
    /// *above* Ŷ′'s.
    pub y_s: Ecdf,
    /// Y′_L — outputs of the upper envelope `f̂ + z_α σ`. Its CDF lies
    /// *below* Ŷ′'s.
    pub y_l: Ecdf,
    /// GP modeling error bound ε_GP achieved (Algorithm 3 / Prop. 4.2).
    pub eps_gp: f64,
    /// MC sampling error bound ε_MC used for the sample count.
    pub eps_mc: f64,
    /// The simultaneous band multiplier z_α in force.
    pub z_alpha: f64,
    /// Training points added while processing this input (online tuning).
    pub points_added: usize,
    /// Whether retraining ran after this input.
    pub retrained: bool,
    /// UDF calls spent on this input (bootstrap + tuning).
    pub udf_calls: u64,
    /// Why the tuning loop stopped; `None` from the read-only fast path,
    /// which tunes nothing.
    pub stop: Option<TuneStop>,
}

impl GpOutput {
    /// Total error bound ε_MC + ε_GP (Theorem 4.1).
    pub fn error_bound(&self) -> f64 {
        self.eps_gp + self.eps_mc
    }

    /// Tuple-existence probability estimate for the predicate
    /// `Y ∈ [a, b]`, with its high-probability bounds
    /// `(ρ_L, ρ̂, ρ_U)` from Eqs. 3–4.
    pub fn tep_bounds(&self, a: f64, b: f64) -> (f64, f64, f64) {
        let rho_hat = self.y_hat.cdf(b) - self.y_hat.cdf(a);
        let rho_u = (self.y_s.cdf(b) - self.y_l.cdf(a)).clamp(0.0, 1.0);
        let rho_l = (self.y_l.cdf(b) - self.y_s.cdf(a)).max(0.0);
        (rho_l, rho_hat.clamp(0.0, 1.0), rho_u)
    }

    /// Collapse into the user-facing [`OutputDistribution`].
    pub fn into_distribution(self) -> OutputDistribution {
        OutputDistribution {
            error_bound: self.error_bound(),
            udf_calls: self.udf_calls,
            ecdf: self.y_hat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ecdf(v: &[f64]) -> Ecdf {
        Ecdf::new(v.to_vec()).unwrap()
    }

    fn toy() -> GpOutput {
        // mean at {1, 2, 3}, envelopes shifted ±0.5.
        GpOutput {
            y_hat: ecdf(&[1.0, 2.0, 3.0]),
            y_s: ecdf(&[0.5, 1.5, 2.5]),
            y_l: ecdf(&[1.5, 2.5, 3.5]),
            eps_gp: 0.05,
            eps_mc: 0.07,
            z_alpha: 3.0,
            points_added: 2,
            retrained: false,
            udf_calls: 7,
            stop: None,
        }
    }

    #[test]
    fn envelope_cdf_ordering() {
        let g = toy();
        for y in [0.0, 1.0, 1.7, 2.4, 3.2, 4.0] {
            assert!(g.y_s.cdf(y) >= g.y_hat.cdf(y), "y = {y}");
            assert!(g.y_hat.cdf(y) >= g.y_l.cdf(y), "y = {y}");
        }
    }

    #[test]
    fn tep_bounds_bracket_estimate() {
        let g = toy();
        for (a, b) in [(0.0, 2.0), (1.5, 3.0), (2.9, 10.0)] {
            let (lo, mid, hi) = g.tep_bounds(a, b);
            assert!(lo <= mid + 1e-12, "[{a},{b}]: {lo} > {mid}");
            assert!(mid <= hi + 1e-12, "[{a},{b}]: {mid} > {hi}");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn error_bound_is_sum() {
        let g = toy();
        assert!((g.error_bound() - 0.12).abs() < 1e-15);
        let d = g.into_distribution();
        assert!((d.error_bound - 0.12).abs() < 1e-15);
        assert_eq!(d.udf_calls, 7);
        assert!((d.interval_prob(1.0, 2.0) - 2.0 / 3.0).abs() < 1e-12);
    }
}
