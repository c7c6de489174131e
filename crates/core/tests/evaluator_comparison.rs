//! Comparative tests across the three evaluators (MC / offline GP /
//! OLGAPRO) and validation of the simulated cost model against real
//! busy-wait time. The offline evaluator (§4.1, Algorithm 2) is defined
//! here, where it is used: it is the baseline OLGAPRO improves on, built
//! from the public API.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use udf_core::config::{AccuracyRequirement, Metric, OlgaproConfig};
use udf_core::error_bound::{envelope_ecdfs, ks_bound, lambda_discrepancy_bound};
use udf_core::filtering::{mc_eval_tuple, FilterDecision};
use udf_core::olgapro::Olgapro;
use udf_core::output::GpOutput;
use udf_core::udf::{BlackBoxUdf, CostModel};
use udf_core::CoreError;
use udf_gp::band::simultaneous_z;
use udf_gp::train::{train, TrainConfig};
use udf_gp::{GpModel, PredictScratch, SquaredExponential};
use udf_prob::metrics::lambda_discrepancy;
use udf_prob::InputDistribution;
use udf_spatial::BoundingBox;

fn smooth() -> BlackBoxUdf {
    BlackBoxUdf::from_fn("wave", 1, |x| (x[0] * 0.7).sin() * 0.8)
}

fn acc() -> AccuracyRequirement {
    AccuracyRequirement::new(0.15, 0.05, 0.016, Metric::Discrepancy).unwrap()
}

/// All three evaluators agree with each other within their combined budgets.
#[test]
fn three_evaluators_agree() {
    let mut rng = StdRng::seed_from_u64(1);
    let input = InputDistribution::diagonal_gaussian(&[(3.0, 0.5)]).unwrap();
    let cfg = OlgaproConfig::new(acc(), 1.6).unwrap();

    // MC reference.
    let FilterDecision::Kept { output: mc_out, .. } =
        mc_eval_tuple(&smooth(), &input, &acc(), None, &mut rng).unwrap()
    else {
        unreachable!("no predicate, nothing is dropped")
    };

    // Offline GP (Algorithm 2) on a grid design.
    let mut offline = OfflineGpEvaluator::new(smooth().fork_counter(), cfg.clone());
    let design = stratified_design(&[0.0], &[10.0], 25, &mut rng);
    offline.train_at(&design).unwrap();
    let off_out = offline.compute(&input, &mut rng).unwrap();

    // OLGAPRO (Algorithm 5), warmed.
    let mut olga = Olgapro::new(smooth().fork_counter(), cfg);
    let mut on_out = None;
    for _ in 0..4 {
        on_out = Some(olga.process(&input, &mut rng).unwrap());
    }
    let on_out = on_out.unwrap();

    let d_off = lambda_discrepancy(&off_out.y_hat, &mc_out.ecdf, 0.016);
    let d_on = lambda_discrepancy(&on_out.y_hat, &mc_out.ecdf, 0.016);
    assert!(d_off <= 0.2, "offline vs MC: {d_off}");
    assert!(d_on <= 0.2, "online vs MC: {d_on}");
}

/// OLGAPRO adapts the training set to where inputs actually live, while the
/// offline evaluator wastes design points; on a localized input stream
/// OLGAPRO reaches the same accuracy with fewer UDF calls.
#[test]
fn online_uses_fewer_calls_on_localized_stream() {
    let mut rng = StdRng::seed_from_u64(2);
    let cfg = OlgaproConfig::new(acc(), 1.6).unwrap();
    // All inputs live in [2, 4] of the [0, 10] domain.
    let inputs: Vec<InputDistribution> = (0..6)
        .map(|i| InputDistribution::diagonal_gaussian(&[(2.0 + 0.4 * i as f64, 0.2)]).unwrap())
        .collect();

    let off_udf = smooth().fork_counter();
    let mut offline = OfflineGpEvaluator::new(off_udf.clone(), cfg.clone());
    // The offline design must cover the whole domain (it cannot know where
    // inputs will fall): 40 points.
    let design = stratified_design(&[0.0], &[10.0], 40, &mut rng);
    offline.train_at(&design).unwrap();
    for input in &inputs {
        offline.compute(input, &mut rng).unwrap();
    }

    let on_udf = smooth().fork_counter();
    let mut olga = Olgapro::new(on_udf.clone(), cfg);
    for input in &inputs {
        olga.process(input, &mut rng).unwrap();
    }

    assert!(
        on_udf.calls() < off_udf.calls(),
        "online {} calls vs offline {} calls",
        on_udf.calls(),
        off_udf.calls()
    );
}

/// The simulated cost model's accounting matches real busy-wait time within
/// a reasonable factor — the core validation behind the substitution of
/// simulated for real evaluation cost (PAPER.md, "Fidelity caveats"). The
/// real cost is a UDF whose own body spins for the charged duration.
#[test]
fn simulated_cost_matches_busy_wait_reality() {
    let per_call = Duration::from_micros(300);
    let input = InputDistribution::diagonal_gaussian(&[(3.0, 0.5)]).unwrap();
    let acc = AccuracyRequirement::new(0.2, 0.05, 0.0, Metric::Ks).unwrap();
    let mut rng = StdRng::seed_from_u64(3);

    // Real spinning, in the UDF body itself.
    let busy = BlackBoxUdf::from_fn("spinning wave", 1, move |x| {
        let start = Instant::now();
        while start.elapsed() < per_call {
            std::hint::spin_loop();
        }
        (x[0] * 0.7).sin() * 0.8
    });
    let t0 = Instant::now();
    mc_eval_tuple(&busy, &input, &acc, None, &mut rng).unwrap();
    let real = t0.elapsed();

    // Simulated: charged.
    let sim = smooth()
        .fork_counter()
        .with_cost(CostModel::Simulated(per_call));
    let t1 = Instant::now();
    mc_eval_tuple(&sim, &input, &acc, None, &mut rng).unwrap();
    let charged = t1.elapsed() + sim.charged_cost();

    let ratio = real.as_secs_f64() / charged.as_secs_f64();
    assert!(
        (0.5..2.0).contains(&ratio),
        "busy-wait reality {real:?} vs simulated accounting {charged:?} (ratio {ratio:.2})"
    );
}

/// Offline evaluator trained outside the input's region produces an honest
/// (large) error bound rather than a silently wrong answer.
#[test]
fn offline_extrapolation_reports_large_bound() {
    let mut rng = StdRng::seed_from_u64(4);
    let cfg = OlgaproConfig::new(acc(), 1.6).unwrap();
    let mut offline = OfflineGpEvaluator::new(smooth().fork_counter(), cfg);
    // Design only covers [0, 2]; the input lives near 8.
    let design = stratified_design(&[0.0], &[2.0], 20, &mut rng);
    offline.train_at(&design).unwrap();
    let near = InputDistribution::diagonal_gaussian(&[(1.0, 0.2)]).unwrap();
    let far = InputDistribution::diagonal_gaussian(&[(8.0, 0.2)]).unwrap();
    let b_near = offline.compute(&near, &mut rng).unwrap().eps_gp;
    let b_far = offline.compute(&far, &mut rng).unwrap().eps_gp;
    assert!(
        b_far > b_near * 3.0,
        "extrapolation must inflate the bound: near {b_near}, far {b_far}"
    );
    assert!(b_far > 0.3, "far bound should be clearly unusable: {b_far}");
}

/// The offline GP evaluator (§4.1, Algorithm 2): train once on a fixed
/// design, then answer every input by sampling it and running GP inference
/// in place of the UDF. It cannot adapt the training set to the accuracy
/// requirement — what OLGAPRO (Algorithm 5) improves on.
#[derive(Debug)]
struct OfflineGpEvaluator {
    udf: BlackBoxUdf,
    model: GpModel,
    config: OlgaproConfig,
}

impl OfflineGpEvaluator {
    /// Create with the paper's default squared-exponential kernel.
    fn new(udf: BlackBoxUdf, config: OlgaproConfig) -> Self {
        let kernel = SquaredExponential::new(config.init_sigma_f, config.init_lengthscale);
        let model = GpModel::new(Box::new(kernel), udf.dim());
        OfflineGpEvaluator { udf, model, config }
    }

    /// Borrow the trained model.
    fn model(&self) -> &GpModel {
        &self.model
    }

    /// Step 1–2 of Algorithm 2: evaluate the UDF at the design points, fit
    /// the GP, and learn hyperparameters by MLE.
    fn train_at(&mut self, design: &[Vec<f64>]) -> udf_core::Result<()> {
        let ys: Vec<f64> = design
            .iter()
            .map(|x| {
                let y = self.udf.eval(x);
                if y.is_finite() {
                    Ok(y)
                } else {
                    Err(CoreError::NonFiniteUdfOutput {
                        input: x.clone(),
                        value: y,
                    })
                }
            })
            .collect::<udf_core::Result<_>>()?;
        self.model.fit(design.to_vec(), ys)?;
        train(&mut self.model, &TrainConfig::default())?;
        Ok(())
    }

    /// Steps 3–6 of Algorithm 2: sample the uncertain input, infer with the
    /// GP, and return the output with its error bounds.
    fn compute(
        &self,
        input: &InputDistribution,
        rng: &mut dyn rand::RngCore,
    ) -> udf_core::Result<GpOutput> {
        if input.dim() != self.udf.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.udf.dim(),
                found: input.dim(),
            });
        }
        if self.model.is_empty() {
            return Err(CoreError::Gp(udf_gp::GpError::EmptyModel));
        }
        let split = self.config.split();
        let m = self.config.samples_per_input();
        let samples = input.sample_n(rng, m);
        let bbox = BoundingBox::from_points(samples.iter().map(|s| s.as_slice()));
        let z_alpha = simultaneous_z(self.model.kernel(), &bbox, split.delta_gp);

        // One blocked multi-RHS inference over all m samples (bit-identical
        // to the per-sample `predict` loop this replaced).
        let mut preds = Vec::with_capacity(m);
        self.model
            .predict_batch_with(&samples, &mut PredictScratch::default(), &mut preds)?;
        let mut means = Vec::with_capacity(m);
        let mut sds = Vec::with_capacity(m);
        for p in &preds {
            means.push(p.mean);
            sds.push(p.var.sqrt());
        }
        let (y_hat, y_s, y_l) = envelope_ecdfs(&means, &sds, z_alpha)?;
        let eps_gp = match self.config.accuracy.metric {
            Metric::Discrepancy => {
                lambda_discrepancy_bound(&y_hat, &y_s, &y_l, self.config.accuracy.lambda)
            }
            Metric::Ks => ks_bound(&y_hat, &y_s, &y_l),
        };
        Ok(GpOutput {
            y_hat,
            y_s,
            y_l,
            eps_gp,
            eps_mc: split.eps_mc,
            z_alpha,
            points_added: 0,
            retrained: false,
            udf_calls: 0,
            stop: None,
        })
    }
}

/// A uniform grid design over a box domain (1-D) or Latin-hypercube-style
/// stratified design (higher dimensions) for offline training.
fn stratified_design(
    lo: &[f64],
    hi: &[f64],
    n: usize,
    rng: &mut dyn rand::RngCore,
) -> Vec<Vec<f64>> {
    use rand::Rng;
    let d = lo.len();
    debug_assert_eq!(d, hi.len());
    if d == 1 {
        // Evenly spaced grid including endpoints.
        return (0..n)
            .map(|i| {
                let t = if n > 1 {
                    i as f64 / (n - 1) as f64
                } else {
                    0.5
                };
                vec![lo[0] + t * (hi[0] - lo[0])]
            })
            .collect();
    }
    // Latin hypercube: per-dimension stratified permutation.
    let mut strata: Vec<Vec<usize>> = (0..d).map(|_| (0..n).collect()).collect();
    for s in &mut strata {
        // Fisher–Yates.
        for i in (1..s.len()).rev() {
            let j = rng.gen_range(0..=i);
            s.swap(i, j);
        }
    }
    (0..n)
        .map(|i| {
            (0..d)
                .map(|k| {
                    let cell = strata[k][i] as f64;
                    let u: f64 = rng.gen_range(0.0..1.0);
                    lo[k] + (cell + u) / n as f64 * (hi[k] - lo[k])
                })
                .collect()
        })
        .collect()
}

fn smooth_udf() -> BlackBoxUdf {
    BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin())
}

fn config(eps: f64) -> OlgaproConfig {
    let acc = AccuracyRequirement::new(eps, 0.05, 0.02, Metric::Discrepancy).unwrap();
    OlgaproConfig::new(acc, 2.0).unwrap()
}

#[test]
fn offline_pipeline_produces_valid_output() {
    let udf = smooth_udf();
    let mut eval = OfflineGpEvaluator::new(udf, config(0.2));
    let mut rng = StdRng::seed_from_u64(5);
    let design = stratified_design(&[0.0], &[10.0], 30, &mut rng);
    eval.train_at(&design).unwrap();
    assert_eq!(eval.model().len(), 30);

    let input = InputDistribution::diagonal_gaussian(&[(5.0, 0.5)]).unwrap();
    let out = eval.compute(&input, &mut rng).unwrap();
    assert!(out.eps_gp < 0.2, "eps_gp = {}", out.eps_gp);
    assert!(out.z_alpha > 1.96);
    // Output should concentrate near sin(0.8·5) ≈ -0.757.
    let med = out.y_hat.quantile(0.5);
    assert!((med - (4.0f64).sin()).abs() < 0.15, "median {med}");
}

#[test]
fn untrained_model_errors() {
    let eval = OfflineGpEvaluator::new(smooth_udf(), config(0.2));
    let input = InputDistribution::diagonal_gaussian(&[(5.0, 0.5)]).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    assert!(eval.compute(&input, &mut rng).is_err());
}

#[test]
fn more_training_points_tighten_bound() {
    let mut rng = StdRng::seed_from_u64(7);
    let input = InputDistribution::diagonal_gaussian(&[(5.0, 0.5)]).unwrap();
    let mut bounds = Vec::new();
    for n in [5, 40] {
        let mut eval = OfflineGpEvaluator::new(smooth_udf(), config(0.2));
        let design = stratified_design(&[0.0], &[10.0], n, &mut rng);
        eval.train_at(&design).unwrap();
        bounds.push(eval.compute(&input, &mut rng).unwrap().eps_gp);
    }
    assert!(
        bounds[1] < bounds[0],
        "5 pts: {}, 40 pts: {}",
        bounds[0],
        bounds[1]
    );
}

#[test]
fn stratified_design_covers_domain() {
    let mut rng = StdRng::seed_from_u64(8);
    let design = stratified_design(&[0.0, -1.0], &[1.0, 1.0], 50, &mut rng);
    assert_eq!(design.len(), 50);
    for p in &design {
        assert!(p[0] >= 0.0 && p[0] <= 1.0);
        assert!(p[1] >= -1.0 && p[1] <= 1.0);
    }
    // Latin property: each of the 50 strata in dim 0 hit exactly once.
    let mut cells: Vec<usize> = design.iter().map(|p| (p[0] * 50.0) as usize).collect();
    cells.sort_unstable();
    cells.dedup();
    assert_eq!(cells.len(), 50);
}
