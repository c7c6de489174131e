//! Hyperparameter learning (§3.4) and the retraining decision (§5.3).
//!
//! MLE is performed by adaptive gradient *ascent* on the log marginal
//! likelihood over log-hyperparameters: the step doubles after an improving
//! step and halves (with rollback) after a worsening one. This is the
//! "gradient descent" of §3.4 modulo sign conventions, robust without
//! line-search machinery. Only *proposals* pay the O(n³) refit: a rollback
//! puts back the factor and weights saved when its θ was accepted and
//! reuses the gradient already computed there (about half of all
//! iterations are rollbacks), and each gradient is built from hoisted
//! kernel-derivative rows ([`crate::Kernel::grad_row`]) — one `exp` and no
//! allocation per kernel entry. Both are bit-identical to refitting and
//! recomputing, which the tests check against the previous bodies.
//!
//! The retraining decision uses the paper's §5.3 heuristic: compute the
//! *first Newton step* `δθ = −L''(θ)⁻¹ L'(θ)` (diagonal Hessian) and retrain
//! only when `‖δθ‖∞` exceeds the threshold Δθ — i.e. when the optimizer
//! "would move far" from the current hyperparameters. Gradient and Hessian
//! share one `K⁻¹` and one set of `K′` matrices per check.

use crate::model::GpModel;
use crate::Result;

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Log marginal likelihood before training.
    pub initial_lml: f64,
    /// Log marginal likelihood after training.
    pub final_lml: f64,
    /// Gradient-ascent iterations performed.
    pub iterations: usize,
    /// Final log-hyperparameters.
    pub theta: Vec<f64>,
}

/// Configuration for gradient-ascent MLE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Maximum gradient steps.
    pub max_iters: usize,
    /// Stop when the infinity-norm of the gradient falls below this.
    pub grad_tol: f64,
    /// Initial step size in log-parameter space.
    pub initial_step: f64,
    /// Hyperparameters are clamped to `[-bound, bound]` in log space to
    /// keep the covariance numerically sane.
    pub log_bound: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_iters: 50,
            grad_tol: 1e-3,
            initial_step: 0.1,
            log_bound: 8.0,
        }
    }
}

/// Maximize the log marginal likelihood in place.
pub fn train(model: &mut GpModel, config: &TrainConfig) -> Result<TrainReport> {
    let initial_lml = model.log_marginal_likelihood()?;
    let mut best_lml = initial_lml;
    let mut theta = model.kernel().params();
    let mut step = config.initial_step;
    let mut iterations = 0;
    // The refit state of `theta`, and the gradient computed on it. Neither
    // exists for the θ `train` was entered with: that factor was grown by
    // `Cholesky::append`, which a refit does not reproduce to the bit, so
    // the first rollback to it refits and recomputes.
    let mut accepted = None;
    let mut grad_at_theta = None;

    for _ in 0..config.max_iters {
        iterations += 1;
        let grad = match grad_at_theta.take() {
            Some(grad) => grad,
            None => model.lml_gradient()?,
        };
        let gnorm = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        if gnorm < config.grad_tol {
            break;
        }
        // Normalized ascent step, clamped into the trust box.
        let proposal: Vec<f64> = theta
            .iter()
            .zip(&grad)
            .map(|(t, g)| (t + step * g / gnorm).clamp(-config.log_bound, config.log_bound))
            .collect();
        model.set_hyperparams(&proposal)?;
        let lml = model.log_marginal_likelihood()?;
        if lml > best_lml {
            best_lml = lml;
            theta = proposal;
            accepted = model.factor_state();
            step = (step * 2.0).min(1.0);
        } else {
            // Roll back and shrink.
            match &accepted {
                Some(state) => {
                    model.restore_hyperparams(&theta, state);
                    grad_at_theta = Some(grad);
                }
                None => {
                    model.set_hyperparams(&theta)?;
                    accepted = model.factor_state();
                }
            }
            step *= 0.5;
            if step < 1e-4 {
                break;
            }
        }
    }
    Ok(TrainReport {
        initial_lml,
        final_lml: best_lml,
        iterations,
        theta,
    })
}

/// Size of the first Newton step `‖−L''⁻¹ L'‖∞` over the diagonal Hessian.
///
/// Coordinates with non-negative curvature (locally convex or flat in that
/// direction) fall back to a unit-curvature gradient step, which errs toward
/// retraining — the safe direction.
pub fn newton_step_norm(model: &GpModel) -> Result<f64> {
    let (grad, hess) = model.lml_gradient_and_hessian_diag()?;
    let mut norm = 0.0f64;
    for (g, h) in grad.iter().zip(&hess) {
        let step = if *h < -1e-12 { -g / h } else { *g };
        norm = norm.max(step.abs());
    }
    Ok(norm)
}

/// The §5.3 retraining decision: retrain iff the first Newton step exceeds
/// `delta_theta`.
pub fn should_retrain(model: &GpModel, delta_theta: f64) -> Result<bool> {
    Ok(newton_step_norm(model)? > delta_theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;
    use crate::model::GpModel;

    /// A smooth 1-D function sampled on a grid.
    fn fitted_model(lengthscale_guess: f64, n: usize) -> GpModel {
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, lengthscale_guess)), 1);
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 10.0 / n as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 0.8).sin() * 2.0).collect();
        m.fit(xs, ys).unwrap();
        m
    }

    #[test]
    fn training_improves_likelihood() {
        // Deliberately bad initial lengthscale.
        let mut m = fitted_model(0.05, 25);
        let report = train(&mut m, &TrainConfig::default()).unwrap();
        assert!(
            report.final_lml > report.initial_lml + 1.0,
            "LML {} -> {}",
            report.initial_lml,
            report.final_lml
        );
        // Hyperparameters actually moved.
        assert!(report.iterations > 1);
    }

    #[test]
    fn training_improves_prediction() {
        let mut m = fitted_model(0.05, 25);
        let before = m.predict(&[5.17]).unwrap().mean;
        train(&mut m, &TrainConfig::default()).unwrap();
        let after = m.predict(&[5.17]).unwrap().mean;
        let truth = (5.17f64 * 0.8).sin() * 2.0;
        assert!(
            (after - truth).abs() <= (before - truth).abs() + 1e-9,
            "prediction got worse: {before} -> {after} (truth {truth})"
        );
    }

    #[test]
    fn converged_model_stops_quickly() {
        let mut m = fitted_model(1.0, 25);
        let big = TrainConfig {
            max_iters: 400,
            ..TrainConfig::default()
        };
        let r1 = train(&mut m, &big).unwrap();
        // Once converged, another run barely moves the likelihood.
        let r2 = train(&mut m, &big).unwrap();
        assert!(r2.final_lml >= r1.final_lml - 1e-9);
        assert!(
            (r2.final_lml - r2.initial_lml).abs() < 0.5,
            "second run still improved by {}",
            r2.final_lml - r2.initial_lml
        );
    }

    #[test]
    fn newton_step_large_when_misfit_small_when_fit() {
        let mut m = fitted_model(0.05, 25);
        let before = newton_step_norm(&m).unwrap();
        train(&mut m, &TrainConfig::default()).unwrap();
        let after = newton_step_norm(&m).unwrap();
        assert!(
            before > after,
            "Newton step should shrink after training: {before} -> {after}"
        );
        assert!(should_retrain(&m, before).unwrap() == (after > before));
    }

    /// `train` as it was: every gradient from the per-pair scalar form,
    /// every rollback a full refit, nothing cached. Also counts rollbacks,
    /// and those that returned to the θ it was entered with.
    fn train_oracle(model: &mut GpModel, config: &TrainConfig) -> (TrainReport, usize, usize) {
        let initial_lml = model.log_marginal_likelihood().unwrap();
        let mut best_lml = initial_lml;
        let mut theta = model.kernel().params();
        let mut step = config.initial_step;
        let mut iterations = 0;
        let (mut rollbacks, mut to_entry, mut moved) = (0, 0, false);
        for _ in 0..config.max_iters {
            iterations += 1;
            let grad = model.lml_gradient_oracle().unwrap();
            let gnorm = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
            if gnorm < config.grad_tol {
                break;
            }
            let proposal: Vec<f64> = theta
                .iter()
                .zip(&grad)
                .map(|(t, g)| (t + step * g / gnorm).clamp(-config.log_bound, config.log_bound))
                .collect();
            model.set_hyperparams_oracle(&proposal).unwrap();
            let lml = model.log_marginal_likelihood().unwrap();
            if lml > best_lml {
                best_lml = lml;
                theta = proposal;
                moved = true;
                step = (step * 2.0).min(1.0);
            } else {
                rollbacks += 1;
                to_entry += usize::from(!moved);
                model.set_hyperparams_oracle(&theta).unwrap();
                step *= 0.5;
                if step < 1e-4 {
                    break;
                }
            }
        }
        let report = TrainReport {
            initial_lml,
            final_lml: best_lml,
            iterations,
            theta,
        };
        (report, rollbacks, to_entry)
    }

    #[test]
    fn train_and_newton_check_match_the_previous_bodies_bitwise() {
        use crate::model::tests::{assert_same_bits, seeded_models};
        let (mut rollbacks, mut to_entry) = (0, 0);
        for (case, mut new) in seeded_models(200).into_iter().enumerate() {
            let what = format!("case {case} ({:?}, n = {})", new.kernel(), new.len());
            let mut old = new.clone();
            // The Newton step from the shared K⁻¹ and the traced products.
            let (g, h) = (
                old.lml_gradient_oracle().unwrap(),
                old.lml_hessian_diag_oracle().unwrap(),
            );
            let want = g.iter().zip(&h).fold(0.0f64, |norm, (g, h)| {
                norm.max((if *h < -1e-12 { -g / h } else { *g }).abs())
            });
            assert_eq!(
                newton_step_norm(&new).unwrap().to_bits(),
                want.to_bits(),
                "{what}"
            );

            // Oversized first steps overshoot, which is what rolls back to
            // the entry θ (several times in a row, as the step halves).
            let config = TrainConfig {
                max_iters: 12 + case % 40,
                initial_step: [0.1, 2.0, 6.0][case % 3],
                ..TrainConfig::default()
            };
            let (e_new, e_old) = (new.epoch(), old.epoch());
            let got = train(&mut new, &config).unwrap();
            let (want, rolled_back, rolled_to_entry) = train_oracle(&mut old, &config);
            rollbacks += rolled_back;
            to_entry += rolled_to_entry;
            assert_same_bits(&got.theta, &want.theta, &what);
            assert_eq!(got.final_lml.to_bits(), want.final_lml.to_bits(), "{what}");
            assert_eq!(got.iterations, want.iterations, "{what}");
            // ... and the model they leave behind is the same model.
            assert_same_bits(new.alpha(), old.alpha(), &what);
            assert_same_bits(&new.kernel().params(), &old.kernel().params(), &what);
            assert_eq!(new.epoch() - e_new, old.epoch() - e_old, "{what}: epochs");
            let q = vec![1.7; new.dim()];
            let (a, b) = (new.predict(&q).unwrap(), old.predict(&q).unwrap());
            assert_same_bits(&[a.mean, a.var], &[b.mean, b.var], &what);
        }
        // Both rollback kinds must have been exercised: restored states
        // (after an accepted step) and the refitting return to the entry θ,
        // repeated ones included.
        assert!(
            rollbacks > 2 * to_entry && to_entry > 100,
            "{rollbacks} rollbacks, {to_entry} to the entry θ"
        );
    }

    #[test]
    fn should_retrain_thresholding() {
        let m = fitted_model(0.05, 20);
        let step = newton_step_norm(&m).unwrap();
        assert!(should_retrain(&m, step * 0.5).unwrap());
        assert!(!should_retrain(&m, step * 2.0).unwrap());
    }
}
