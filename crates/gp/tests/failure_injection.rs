//! Failure-injection tests for training: a kernel whose covariance stops
//! being factorable mid-ascent must cost a rejected step or a typed error,
//! never a model whose kernel, factor and weights disagree.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use udf_gp::train::{train, TrainConfig, TrainStop};
use udf_gp::{GpModel, Kernel, SquaredExponential};

/// A squared-exponential kernel whose covariances are NaN above a
/// lengthscale cliff, or everywhere while `broken` is set.
#[derive(Debug, Clone)]
struct CliffKernel {
    inner: SquaredExponential,
    max_log_len: f64,
    broken: Arc<AtomicBool>,
}

impl CliffKernel {
    fn over_cliff(&self) -> bool {
        self.inner.params()[1] > self.max_log_len || self.broken.load(Ordering::Relaxed)
    }
}

impl Kernel for CliffKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        if self.over_cliff() {
            return f64::NAN;
        }
        self.inner.eval(a, b)
    }
    fn eval_sq_dists(&self, d2: &mut [f64]) {
        if self.over_cliff() {
            d2.fill(f64::NAN)
        } else {
            self.inner.eval_sq_dists(d2)
        }
    }
    fn n_params(&self) -> usize {
        self.inner.n_params()
    }
    fn params(&self) -> Vec<f64> {
        self.inner.params()
    }
    fn set_params(&mut self, theta: &[f64]) {
        self.inner.set_params(theta)
    }
    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        self.inner.grad(a, b)
    }
    fn second_deriv(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        self.inner.second_deriv(a, b)
    }
    fn eval_dist(&self, r: f64) -> f64 {
        self.inner.eval_dist(r)
    }
    fn spectral_moment(&self) -> f64 {
        self.inner.spectral_moment()
    }
    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

/// A smooth function under a lengthscale far too short, so every ascent
/// step asks for a longer one — over the cliff at `max_log_len`.
fn misfit_model(max_log_len: f64) -> (GpModel, Arc<AtomicBool>) {
    let broken = Arc::new(AtomicBool::new(false));
    let kernel = CliffKernel {
        inner: SquaredExponential::new(1.0, 0.05),
        max_log_len,
        broken: Arc::clone(&broken),
    };
    let mut m = GpModel::new(Box::new(kernel), 1);
    let xs: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64 * 0.4]).collect();
    let ys = xs.iter().map(|x| (x[0] * 0.8).sin() * 2.0).collect();
    m.fit(xs, ys).unwrap();
    (m, broken)
}

fn prediction_bits(m: &GpModel) -> Vec<u64> {
    [0.13, 4.9, 11.0]
        .iter()
        .flat_map(|q| {
            let p = m.predict(&[*q]).unwrap();
            [p.mean.to_bits(), p.var.to_bits()]
        })
        .collect()
}

#[test]
fn unfactorable_proposal_is_a_rejected_step() {
    // The cliff is the entry lengthscale itself: every proposal fails.
    let entry_log_len = 0.05f64.ln();
    let (mut m, _) = misfit_model(entry_log_len);
    let (theta, before) = (m.kernel().params(), prediction_bits(&m));
    assert!(
        m.lml_gradient().unwrap()[1] > 0.0,
        "ascent must climb the cliff"
    );
    let report = train(&mut m, &TrainConfig::default()).unwrap();
    assert_eq!(report.stop, TrainStop::StepUnderflow);
    assert_eq!(report.final_lml.to_bits(), report.initial_lml.to_bits());
    assert_eq!(m.kernel().params(), theta);
    assert_eq!(prediction_bits(&m), before);

    // With room below the cliff the ascent uses it and stops short of it.
    let (mut m, _) = misfit_model(entry_log_len + 0.5);
    let report = train(&mut m, &TrainConfig::default()).unwrap();
    assert!(report.final_lml > report.initial_lml + 1.0, "{report:?}");
    assert!(report.theta[1] > entry_log_len && report.theta[1] <= entry_log_len + 0.5);
    assert_eq!(m.kernel().params(), report.theta);
    assert!(prediction_bits(&m) != before);
}

#[test]
fn failed_training_leaves_the_model_as_entered() {
    let (mut m, broken) = misfit_model(f64::INFINITY);
    let (theta, before) = (m.kernel().params(), prediction_bits(&m));
    // Neither the first proposal nor the refit that rolls it back factors.
    broken.store(true, Ordering::Relaxed);
    assert!(train(&mut m, &TrainConfig::default()).is_err());
    broken.store(false, Ordering::Relaxed);
    assert_eq!(m.kernel().params(), theta, "kernel left at a proposal");
    assert_eq!(prediction_bits(&m), before);
    // ... and it is still a model that trains.
    let report = train(&mut m, &TrainConfig::default()).unwrap();
    assert!(report.final_lml > report.initial_lml + 1.0, "{report:?}");
}
