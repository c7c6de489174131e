//! Hyperparameter learning (§3.4) and the retraining decision (§5.3).
//!
//! MLE is performed by adaptive gradient *ascent* on the log marginal
//! likelihood over log-hyperparameters, inside the box `±log_bound`: the
//! step doubles after an improving step and halves (with rollback) after a
//! worsening one. This is the "gradient descent" of §3.4 modulo sign
//! conventions, *projected* by the active-set rule: a coordinate that sits on
//! a wall of the box with its gradient pointing out of it is **blocked** and
//! takes no part in the gradient norm, the convergence test or the proposal.
//! The step is normalised by the gradient's ∞-norm, so that norm must be
//! taken over the free coordinates: a blocked one's gradient never shrinks
//! (the clamp undoes every move it asks for), and left in the norm it keeps
//! `grad_tol` out of reach for ever while scaling the free moves to nothing.
//! Where nothing is blocked every expression is the unprojected one, bit for
//! bit.
//!
//! Only *proposals* pay the O(n³) refit: a rollback puts back the factor and
//! weights saved when its θ was accepted and reuses the gradient already
//! computed there (about half of all iterations are rollbacks), and each
//! gradient is built from hoisted kernel-derivative rows
//! ([`crate::Kernel::grad_row`]) — one `exp` and no allocation per kernel
//! entry. Both are bit-identical to refitting and recomputing, which the
//! tests check against the previous bodies. A proposal whose covariance
//! cannot be factored is a rejected step, and an `Err` restores the model.
//!
//! The retraining decision uses the paper's §5.3 heuristic: compute the
//! *first Newton step* `δθ = −L''(θ)⁻¹ L'(θ)` (diagonal Hessian) and retrain
//! only when `‖δθ‖∞` exceeds the threshold Δθ — i.e. when the optimizer
//! "would move far" from the current hyperparameters. Gradient and Hessian
//! share one `K⁻¹` and one set of `K′` matrices per check, and blocked
//! coordinates are skipped: the check never asks for a move [`train`] cannot
//! make.

use crate::model::GpModel;
use crate::Result;

/// Why a training run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainStop {
    /// No coordinate is blocked and the gradient is below `grad_tol`.
    Converged,
    /// The free coordinates' gradient is below `grad_tol` (or none is free)
    /// and at least one coordinate is blocked: a constrained optimum.
    AtBound,
    /// The step halved below 1e-4 without finding an improvement.
    StepUnderflow,
    /// `max_iters` proposals were made.
    MaxIters,
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Log marginal likelihood before training.
    pub initial_lml: f64,
    /// Log marginal likelihood after training.
    pub final_lml: f64,
    /// Gradient-ascent iterations performed.
    pub iterations: usize,
    /// Why the ascent ended.
    pub stop: TrainStop,
    /// Final log-hyperparameters.
    pub theta: Vec<f64>,
}

/// Configuration for gradient-ascent MLE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Maximum gradient steps.
    pub max_iters: usize,
    /// Stop when the free coordinates' gradient ∞-norm falls below this.
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

/// The active-set predicate: `theta_i` sits on (or beyond) a wall of the
/// log-box and the gradient `g_i` points out of it.
fn blocked(theta_i: f64, g_i: f64, log_bound: f64) -> bool {
    (theta_i <= -log_bound && g_i < 0.0) || (theta_i >= log_bound && g_i > 0.0)
}

/// Maximize the log marginal likelihood in place. Transactional: on `Err`
/// the kernel, factor and weights are what they were on entry.
pub fn train(model: &mut GpModel, config: &TrainConfig) -> Result<TrainReport> {
    let entry = (model.kernel().params(), model.factor_state());
    let report = ascend(model, config);
    if let (Err(_), (theta, Some(state))) = (&report, &entry) {
        model.restore_hyperparams(theta, state);
    }
    report
}

fn ascend(model: &mut GpModel, config: &TrainConfig) -> Result<TrainReport> {
    let initial_lml = model.log_marginal_likelihood()?;
    let mut best_lml = initial_lml;
    let mut theta = model.kernel().params();
    let mut step = config.initial_step;
    let mut iterations = 0;
    let mut stop = TrainStop::MaxIters;
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
        // The projected gradient: zero where a coordinate is blocked.
        let is_blocked = |(t, g): (&f64, &f64)| blocked(*t, *g, config.log_bound);
        let projected: Vec<f64> = (theta.iter().zip(&grad))
            .map(|(t, g)| if is_blocked((t, g)) { 0.0 } else { *g })
            .collect();
        let gnorm = projected.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        if gnorm < config.grad_tol {
            let at_bound = theta.iter().zip(&grad).any(is_blocked);
            stop = if at_bound {
                TrainStop::AtBound
            } else {
                TrainStop::Converged
            };
            break;
        }
        // Normalized ascent step, clamped into the trust box.
        let proposal: Vec<f64> = theta
            .iter()
            .zip(&projected)
            .map(|(t, g)| (t + step * g / gnorm).clamp(-config.log_bound, config.log_bound))
            .collect();
        // A proposal that cannot be factored is no better than a worsening
        // one (NaN compares false).
        let lml = match model.set_hyperparams(&proposal) {
            Ok(()) => model.log_marginal_likelihood()?,
            Err(_) => f64::NAN,
        };
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
                stop = TrainStop::StepUnderflow;
                break;
            }
        }
    }
    Ok(TrainReport {
        initial_lml,
        final_lml: best_lml,
        iterations,
        stop,
        theta,
    })
}

/// Size of the first Newton step `‖−L''⁻¹ L'‖∞` over the diagonal Hessian and
/// the coordinates not blocked on [`TrainConfig::default`]'s box.
///
/// Coordinates with non-negative curvature (locally convex or flat in that
/// direction) fall back to a unit-curvature gradient step, which errs toward
/// retraining — the safe direction.
pub fn newton_step_norm(model: &GpModel) -> Result<f64> {
    let (grad, hess) = model.lml_gradient_and_hessian_diag()?;
    let log_bound = TrainConfig::default().log_bound;
    let mut norm = 0.0f64;
    for ((t, g), h) in model.kernel().params().iter().zip(&grad).zip(&hess) {
        if blocked(*t, *g, log_bound) {
            continue;
        }
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

    /// `train` as it was before the active-set rule — the *unprojected*
    /// body: every gradient from the per-pair scalar form, every rollback a
    /// full refit, nothing cached. Also counts rollbacks, and those that
    /// returned to the θ it was entered with.
    fn train_oracle(model: &mut GpModel, config: &TrainConfig) -> (TrainReport, usize, usize) {
        let initial_lml = model.log_marginal_likelihood().unwrap();
        let mut best_lml = initial_lml;
        let mut theta = model.kernel().params();
        let mut step = config.initial_step;
        let mut iterations = 0;
        let mut stop = TrainStop::MaxIters;
        let (mut rollbacks, mut to_entry, mut moved) = (0, 0, false);
        for _ in 0..config.max_iters {
            iterations += 1;
            let grad = model.lml_gradient_oracle().unwrap();
            let gnorm = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
            if gnorm < config.grad_tol {
                stop = TrainStop::Converged;
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
                    stop = TrainStop::StepUnderflow;
                    break;
                }
            }
        }
        let report = TrainReport {
            initial_lml,
            final_lml: best_lml,
            iterations,
            stop,
            theta,
        };
        (report, rollbacks, to_entry)
    }

    /// The same scalar-form, refit-everything body with the active-set rule
    /// added. Also says whether any iteration saw a blocked coordinate.
    fn projected_train_oracle(model: &mut GpModel, config: &TrainConfig) -> (TrainReport, bool) {
        let initial_lml = model.log_marginal_likelihood().unwrap();
        let mut best_lml = initial_lml;
        let mut theta = model.kernel().params();
        let mut step = config.initial_step;
        let mut iterations = 0;
        let mut stop = TrainStop::MaxIters;
        let mut ever_blocked = false;
        for _ in 0..config.max_iters {
            iterations += 1;
            let grad = model.lml_gradient_oracle().unwrap();
            let free: Vec<bool> = (theta.iter().zip(&grad))
                .map(|(t, g)| !blocked(*t, *g, config.log_bound))
                .collect();
            let any_blocked = free.contains(&false);
            ever_blocked |= any_blocked;
            let mut gnorm = 0.0f64;
            for (g, free) in grad.iter().zip(&free) {
                if *free {
                    gnorm = gnorm.max(g.abs());
                }
            }
            if gnorm < config.grad_tol {
                stop = if any_blocked {
                    TrainStop::AtBound
                } else {
                    TrainStop::Converged
                };
                break;
            }
            let mut proposal = theta.clone();
            for ((p, g), free) in proposal.iter_mut().zip(&grad).zip(&free) {
                if *free {
                    *p = (*p + step * g / gnorm).clamp(-config.log_bound, config.log_bound);
                }
            }
            model.set_hyperparams_oracle(&proposal).unwrap();
            let lml = model.log_marginal_likelihood().unwrap();
            if lml > best_lml {
                best_lml = lml;
                theta = proposal;
                step = (step * 2.0).min(1.0);
            } else {
                model.set_hyperparams_oracle(&theta).unwrap();
                step *= 0.5;
                if step < 1e-4 {
                    stop = TrainStop::StepUnderflow;
                    break;
                }
            }
        }
        let report = TrainReport {
            initial_lml,
            final_lml: best_lml,
            iterations,
            stop,
            theta,
        };
        (report, ever_blocked)
    }

    /// `got` and the model it left are `want` and the model *it* left.
    fn assert_same_training(
        (got, new, e_new): (&TrainReport, &GpModel, u64),
        (want, old, e_old): (&TrainReport, &GpModel, u64),
        what: &str,
    ) {
        use crate::model::tests::assert_same_bits;
        assert_same_bits(&got.theta, &want.theta, what);
        assert_eq!(got.final_lml.to_bits(), want.final_lml.to_bits(), "{what}");
        assert_eq!(got.iterations, want.iterations, "{what}");
        assert_eq!(got.stop, want.stop, "{what}");
        // ... and the model they leave behind is the same model.
        assert_same_bits(new.alpha(), old.alpha(), what);
        assert_same_bits(&new.kernel().params(), &old.kernel().params(), what);
        assert_eq!(new.epoch() - e_new, old.epoch() - e_old, "{what}: epochs");
        let q = vec![1.7; new.dim()];
        let (a, b) = (new.predict(&q).unwrap(), old.predict(&q).unwrap());
        assert_same_bits(&[a.mean, a.var], &[b.mean, b.var], what);
    }

    #[test]
    fn train_and_newton_check_match_the_previous_bodies_bitwise() {
        use crate::model::tests::seeded_models;
        let (mut rollbacks, mut to_entry, mut off_the_box, mut on_the_wall) = (0, 0, 0, 0);
        for (case, mut new) in seeded_models(200).into_iter().enumerate() {
            let what = format!("case {case} ({:?}, n = {})", new.kernel(), new.len());
            let (mut unprojected, mut projected) = (new.clone(), new.clone());
            // The Newton step from the shared K⁻¹ and the traced products
            // (no seeded model starts on the box).
            let (g, h) = (
                new.lml_gradient_oracle().unwrap(),
                new.lml_hessian_diag_oracle().unwrap(),
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
            // the entry θ (several times in a row, as the step halves) — and
            // what carries a few trajectories into the box.
            let config = TrainConfig {
                max_iters: 12 + case % 40,
                initial_step: [0.1, 2.0, 6.0][case % 3],
                ..TrainConfig::default()
            };
            let epoch = new.epoch();
            let got = train(&mut new, &config).unwrap();
            // On every case: the projected scalar-form body.
            let (want, ever_blocked) = projected_train_oracle(&mut projected, &config);
            assert_same_training((&got, &new, epoch), (&want, &projected, epoch), &what);
            // Off the box: the previous, unprojected body.
            let (want, rolled_back, rolled_to_entry) = train_oracle(&mut unprojected, &config);
            rollbacks += rolled_back;
            to_entry += rolled_to_entry;
            if !ever_blocked {
                off_the_box += 1;
                assert_same_training((&got, &new, epoch), (&want, &unprojected, epoch), &what);
            }

            // The same inputs on the wall: targets too small for the
            // smallest σ_f the box allows, entered at that σ_f.
            let tiny = new.targets().iter().map(|y| y * 1e-5).collect();
            new.fit(new.inputs().to_vec(), tiny).unwrap();
            let mut theta = new.kernel().params();
            theta[0] = -config.log_bound;
            new.set_hyperparams(&theta).unwrap();
            let mut projected = new.clone();
            let epoch = new.epoch();
            let got = train(&mut new, &config).unwrap();
            let (want, ever_blocked) = projected_train_oracle(&mut projected, &config);
            assert_same_training((&got, &new, epoch), (&want, &projected, epoch), &what);
            on_the_wall += usize::from(ever_blocked);
        }
        // Both rollback kinds must have been exercised: restored states
        // (after an accepted step) and the refitting return to the entry θ,
        // repeated ones included.
        assert!(
            rollbacks > 2 * to_entry && to_entry > 100,
            "{rollbacks} rollbacks, {to_entry} to the entry θ"
        );
        // "Bit-identical off the box" is a claim about the large majority
        // of free-running trajectories; the walled ones exercise the rule.
        assert!(
            off_the_box >= 190 && on_the_wall >= 190,
            "{off_the_box} of 200 never touch the box, {on_the_wall} of 200 walled ones do"
        );
    }

    /// Twelve 1-D points at `x = 0.61·i mod 10` with targets `f(x)`, entered
    /// at exactly `theta` (`exp` then `ln` need not round-trip).
    fn model_at(theta: [f64; 2], f: impl Fn(f64) -> f64) -> GpModel {
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 1);
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![(0.61 * i as f64) % 10.0]).collect();
        let ys = xs.iter().map(|x| f(x[0])).collect();
        m.fit(xs, ys).unwrap();
        m.set_hyperparams(&theta).unwrap();
        m
    }

    /// F2 while its one spike is still out of view: every target ≈ 0, so
    /// the MLE sends σ_f to the floor of the box.
    fn f2_off_spike(x: f64) -> f64 {
        (-(x - 9.54).powi(2) / (2.0 * 0.6 * 0.6)).exp()
    }

    #[test]
    fn train_stops_at_the_wall_it_sits_on() {
        use crate::model::tests::assert_same_bits;
        let config = TrainConfig::default();
        let mut m = model_at([-8.0, 6.0], f2_off_spike);
        // log σ_f is blocked; the §5.3 step is the free coordinate's alone.
        let (g, h) = m.lml_gradient_and_hessian_diag().unwrap();
        assert!(g[0] < -0.9 && g[1] > 0.0 && h[1] < -1e-12, "{g:?} {h:?}");
        let newton = newton_step_norm(&m).unwrap();
        assert_eq!(newton.to_bits(), (-g[1] / h[1]).abs().to_bits());

        let report = train(&mut m, &config).unwrap();
        assert!(report.iterations <= 15, "{report:?}");
        assert_eq!(report.stop, TrainStop::AtBound);
        assert_eq!(report.theta[0], -config.log_bound);
        assert!(report.theta[1] > 6.0 && report.final_lml >= report.initial_lml);

        // Trained, it is left alone: one gradient, no proposal.
        let (alpha, epoch) = (m.alpha().to_vec(), m.epoch());
        let again = train(&mut m, &config).unwrap();
        assert_eq!((again.iterations, again.stop), (1, TrainStop::AtBound));
        assert_same_bits(m.alpha(), &alpha, "α");
        assert_same_bits(&m.kernel().params(), &report.theta, "θ");
        assert_eq!(m.epoch(), epoch);
    }

    #[test]
    fn fully_blocked_model_proposes_nothing() {
        // The same regime with log ℓ on the ceiling: both gradients point out.
        let mut m = model_at([-8.0, 8.0], f2_off_spike);
        let g = m.lml_gradient().unwrap();
        assert!(g[0] < 0.0 && g[1] > 0.0, "{g:?}");
        assert_eq!(newton_step_norm(&m).unwrap(), 0.0);
        assert!(!should_retrain(&m, 0.0).unwrap());
        let epoch = m.epoch();
        let report = train(&mut m, &TrainConfig::default()).unwrap();
        assert_eq!((report.iterations, report.stop), (1, TrainStop::AtBound));
        assert_eq!(report.theta, [-8.0, 8.0]);
        assert_eq!(m.epoch(), epoch, "a proposal bumps the epoch");
    }

    #[test]
    fn upper_wall_blocks_like_the_lower_one() {
        // Targets a million times the largest σ_f the box allows.
        let mut m = model_at([8.0, 0.0], |x| 1e6 * (0.8 * x).sin());
        let (g, h) = m.lml_gradient_and_hessian_diag().unwrap();
        assert!(g[0] > 0.0 && h[1] < -1e-12, "{g:?} {h:?}");
        let newton = newton_step_norm(&m).unwrap();
        assert_eq!(newton.to_bits(), (-g[1] / h[1]).abs().to_bits());
        assert!(
            newton < (g[0] / h[0]).abs(),
            "the blocked step is the larger"
        );
        let report = train(&mut m, &TrainConfig::default()).unwrap();
        assert_eq!(report.theta[0], 8.0);
        assert!(report.theta[1] != 0.0 && report.final_lml > report.initial_lml);
    }

    #[test]
    fn should_retrain_thresholding() {
        let m = fitted_model(0.05, 20);
        let step = newton_step_norm(&m).unwrap();
        assert!(should_retrain(&m, step * 0.5).unwrap());
        assert!(!should_retrain(&m, step * 2.0).unwrap());
    }
}
