//! Exact GP regression with incremental updates (§3.3, §5.2).

use crate::kernel::Kernel;
use crate::{GpError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use udf_linalg::{dot, Cholesky, Matrix};
use udf_spatial::RTree;

/// Process-wide source of unique model identities (see [`GpModel::model_id`]).
static NEXT_MODEL_ID: AtomicU64 = AtomicU64::new(1);

/// Default diagonal jitter added to the training covariance. The paper's
/// UDFs are deterministic, so this is numerical regularization rather than
/// observation noise.
pub(crate) const DEFAULT_JITTER: f64 = 1e-8;

/// A Gaussian-process regression model over a black-box function.
///
/// Maintains the training set `(X*, y*)`, the Cholesky factor of
/// `K(X*, X*) + jitter·I` and the weight vector `α = K⁻¹ y*` (the paper's α,
/// §5.1).
#[derive(Debug)]
pub struct GpModel {
    kernel: Box<dyn Kernel>,
    dim: usize,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    jitter: f64,
    chol: Option<Cholesky>,
    alpha: Vec<f64>,
    /// Process-unique identity, used by caches keyed on "same model".
    model_id: u64,
    /// Mutation counter: bumped by every operation that can change
    /// predictions (fit / add / hyperparameter change), so cached
    /// derived state (e.g. a subset Cholesky factor) can detect staleness.
    epoch: u64,
    /// `epoch` of the last mutation that was *not* [`GpModel::add_point`]
    /// (see [`GpModel::appended_since`]).
    rebuilt_at: u64,
    /// Cached kernel half-value distance (depends only on hyperparameters).
    half_value: OnceLock<f64>,
}

impl Clone for GpModel {
    /// Clones take a **fresh** `model_id`: the clone's training set may
    /// diverge from the original's, and caches key on `(model_id, epoch)` —
    /// two models sharing an id with different contents would poison any
    /// `LocalPredictorCache` they pass through. The cost of the fresh id is
    /// one first-tuple cache miss per cloned model; outputs are unaffected.
    fn clone(&self) -> Self {
        GpModel {
            kernel: self.kernel.clone(),
            dim: self.dim,
            xs: self.xs.clone(),
            ys: self.ys.clone(),
            jitter: self.jitter,
            chol: self.chol.clone(),
            alpha: self.alpha.clone(),
            model_id: NEXT_MODEL_ID.fetch_add(1, Ordering::Relaxed),
            epoch: self.epoch,
            rebuilt_at: self.rebuilt_at,
            half_value: self.half_value.clone(),
        }
    }
}

/// A posterior prediction at one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Posterior mean `f̂(x)`.
    pub mean: f64,
    /// Posterior variance `σ²(x)` (clamped at 0).
    pub var: f64,
}

impl GpModel {
    /// Empty model for `dim`-dimensional inputs.
    pub fn new(kernel: Box<dyn Kernel>, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        GpModel {
            kernel,
            dim,
            xs: Vec::new(),
            ys: Vec::new(),
            jitter: DEFAULT_JITTER,
            chol: None,
            alpha: Vec::new(),
            model_id: NEXT_MODEL_ID.fetch_add(1, Ordering::Relaxed),
            epoch: 0,
            rebuilt_at: 0,
            half_value: OnceLock::new(),
        }
    }

    /// Process-unique identity of this model instance.
    #[inline]
    pub(crate) fn model_id(&self) -> u64 {
        self.model_id
    }

    /// Mutation counter; any change that can alter predictions bumps it.
    /// `(model_id, epoch)` together are a fingerprint caches can key on.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when every mutation after `epoch` was an
    /// [`add_point`](GpModel::add_point): the hyperparameters, the jitter
    /// and every training point that existed at `epoch` — index and all —
    /// are what they were, so state derived from those (kernel rows, a
    /// subset factor) is still exact and only needs *extending* by the new
    /// points. `fit`, a hyperparameter or jitter change all answer `false`
    /// for any earlier epoch.
    #[inline]
    pub(crate) fn appended_since(&self, epoch: u64) -> bool {
        epoch >= self.rebuilt_at
    }

    /// Record a mutation other than an append.
    fn bump_rebuilt(&mut self) {
        self.epoch += 1;
        self.rebuilt_at = self.epoch;
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of training points `n`.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when no training data is present.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Training inputs.
    pub fn inputs(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// Training targets.
    pub fn targets(&self) -> &[f64] {
        &self.ys
    }

    /// The weight vector `α = K(X*, X*)⁻¹ y*`.
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    /// Borrow the kernel.
    pub fn kernel(&self) -> &dyn Kernel {
        self.kernel.as_ref()
    }

    /// The training inputs as an [`RTree`] stand-in, built on each call.
    /// Nothing in the engine calls it: selection reads the distances its γ
    /// bound measures. It stays only because `benchmark/src/bin/ladder.rs`
    /// names it, and ROADMAP item 11 deletes it.
    pub fn spatial_index(&self) -> RTree {
        let mut tree = RTree::new(self.dim);
        for (i, x) in self.xs.iter().enumerate() {
            tree.insert(x.clone(), i);
        }
        tree
    }

    /// Jitter in use.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Replace the kernel hyperparameters and refactor (O(n³)).
    pub fn set_hyperparams(&mut self, theta: &[f64]) -> Result<()> {
        self.kernel.set_params(theta);
        // The half-value distance depends on the hyperparameters just
        // replaced; drop the cached value so it is re-bisected on demand.
        self.half_value = OnceLock::new();
        self.bump_rebuilt();
        self.refit()
    }

    /// The factor and weights of the current hyperparameters — what
    /// [`restore_hyperparams`](GpModel::restore_hyperparams) puts back.
    pub(crate) fn factor_state(&self) -> Option<(Cholesky, Vec<f64>)> {
        Some((self.chol.clone()?, self.alpha.clone()))
    }

    /// [`set_hyperparams`](GpModel::set_hyperparams) without the O(n³)
    /// refit: `state` must be the [`factor_state`](GpModel::factor_state)
    /// captured right after a `set_hyperparams(theta)` on this training
    /// set, which a refit would reproduce bit for bit. Bumps the epoch and
    /// drops the cached half-value distance exactly like the refitting form.
    pub(crate) fn restore_hyperparams(&mut self, theta: &[f64], state: &(Cholesky, Vec<f64>)) {
        self.kernel.set_params(theta);
        self.half_value = OnceLock::new();
        self.bump_rebuilt();
        self.chol = Some(state.0.clone());
        self.alpha.clone_from(&state.1);
    }

    /// Distance at which the kernel decays to half its zero-distance value,
    /// found by bisection once and cached until the hyperparameters change:
    /// the radius step of the local-inference selection loop (§5.1), which
    /// asks for it on every call. Always `Some`, the kernel being
    /// isotropic; the `Option` stays because `benchmark/src/bin/ladder.rs`
    /// reads it with `unwrap_or`.
    pub fn half_value_distance(&self) -> Option<f64> {
        let kernel = self.kernel.as_ref();
        Some(*self.half_value.get_or_init(|| half_value_bisect(kernel)))
    }

    /// Replace all training data and refactor (O(n³)).
    pub fn fit(&mut self, xs: Vec<Vec<f64>>, ys: Vec<f64>) -> Result<()> {
        GpError::check_dim(xs.len(), ys.len())?;
        for x in &xs {
            GpError::check_dim(self.dim, x.len())?;
        }
        self.xs = xs;
        self.ys = ys;
        self.bump_rebuilt();
        self.refit()
    }

    /// Re-factor the covariance from scratch (after hyperparameter change).
    fn refit(&mut self) -> Result<()> {
        if self.xs.is_empty() {
            self.chol = None;
            self.alpha.clear();
            return Ok(());
        }
        // One hoisted kernel row per training point instead of a virtual
        // `eval` per entry.
        let k = Matrix::from_symmetric_rows(self.xs.len(), |i, row| {
            self.kernel.eval_row(&self.xs[i], &self.xs[..=i], row)
        });
        let (chol, _) = Cholesky::factor_with_jitter(&k, self.jitter, 8)?;
        self.alpha = chol.solve(&self.ys)?;
        self.chol = Some(chol);
        Ok(())
    }

    /// Add one training point incrementally: O(n²) Cholesky append plus an
    /// O(n²) re-solve for α (§5.2's block-matrix update).
    pub fn add_point(&mut self, x: Vec<f64>, y: f64) -> Result<()> {
        GpError::check_dim(self.dim, x.len())?;
        self.epoch += 1;
        match &mut self.chol {
            None => {
                self.xs.push(x);
                self.ys.push(y);
                self.refit()
            }
            Some(chol) => {
                let mut k = vec![0.0; self.xs.len()];
                self.kernel.eval_row(&x, &self.xs, &mut k);
                let kss = self.kernel.eval(&x, &x) + self.jitter;
                match chol.append(&k, kss) {
                    Ok(()) => {
                        self.xs.push(x);
                        self.ys.push(y);
                        self.alpha = self
                            .chol
                            .as_ref()
                            .expect("factor present")
                            .solve(&self.ys)?;
                        Ok(())
                    }
                    Err(_) => {
                        // Nearly duplicate point: fall back to a fresh
                        // factorization with escalated jitter.
                        self.xs.push(x);
                        self.ys.push(y);
                        self.refit()
                    }
                }
            }
        }
    }

    /// Posterior mean and variance at `x` (global inference, Eq. 2).
    pub fn predict(&self, x: &[f64]) -> Result<Prediction> {
        let chol = self.chol.as_ref().ok_or(GpError::EmptyModel)?;
        GpError::check_dim(self.dim, x.len())?;
        let k: Vec<f64> = self.xs.iter().map(|xi| self.kernel.eval(xi, x)).collect();
        let mean = dot(&k, &self.alpha);
        // σ²(x) = k(x,x) − kᵀ K⁻¹ k, via v = L⁻¹k.
        let v = chol.solve_lower(&k)?;
        let var = (self.kernel.eval(x, x) - dot(&v, &v)).max(0.0);
        Ok(Prediction { mean, var })
    }

    /// Posterior mean only — O(n) per point (§5.1 notes the mean is the
    /// cheap part; the variance dominates inference cost).
    pub fn predict_mean(&self, x: &[f64]) -> Result<f64> {
        if self.chol.is_none() {
            return Err(GpError::EmptyModel);
        }
        GpError::check_dim(self.dim, x.len())?;
        let k: Vec<f64> = self.xs.iter().map(|xi| self.kernel.eval(xi, x)).collect();
        Ok(dot(&k, &self.alpha))
    }

    /// Predict at many points as one blocked operation: a single kernel
    /// matrix build, one multi-RHS triangular solve for all variances, and
    /// lane-unrolled per-sample mean/variance accumulation, into
    /// caller-provided scratch and output buffers, so steady-state batch
    /// inference performs no allocation. Clears `out` and fills it with one
    /// prediction per query point.
    ///
    /// Bit-identical to calling [`GpModel::predict`] once per point — the
    /// per-sample reduction orders are preserved exactly (the `batch`
    /// module docs say how).
    pub fn predict_batch_with(
        &self,
        xs: &[Vec<f64>],
        scratch: &mut crate::batch::PredictScratch,
        out: &mut Vec<Prediction>,
    ) -> Result<()> {
        self.predict_batch_scratch(xs, scratch)?;
        scratch.emit(out);
        Ok(())
    }

    /// [`GpModel::predict_batch_with`] minus the copy into [`Prediction`]s:
    /// results stay in `scratch` (`means()`, `variances()`).
    pub fn predict_batch_scratch(
        &self,
        xs: &[Vec<f64>],
        scratch: &mut crate::batch::PredictScratch,
    ) -> Result<()> {
        let chol = self.chol.as_ref().ok_or(GpError::EmptyModel)?;
        crate::batch::batch_predict_core(self, None, chol, xs, scratch, false)
    }

    /// Log marginal likelihood `log p(y* | X*, θ)` (§3.4):
    /// `−½ y*ᵀα − Σ log L_ii − (n/2) log 2π`.
    pub fn log_marginal_likelihood(&self) -> Result<f64> {
        let chol = self.chol.as_ref().ok_or(GpError::EmptyModel)?;
        let n = self.xs.len() as f64;
        Ok(-0.5 * dot(&self.ys, &self.alpha)
            - 0.5 * chol.log_det()
            - 0.5 * n * (2.0 * std::f64::consts::PI).ln())
    }

    /// `p` symmetric `n x n` matrices from a row builder in
    /// [`Kernel::grad_row`]'s parameter-major layout: `fill(xᵢ, x₀..=xᵢ,
    /// out)` is asked for the lower triangle only and each entry mirrored
    /// (the kernel is bitwise symmetric, see [`Kernel::eval`]).
    fn derivative_matrices(
        &self,
        p: usize,
        fill: impl Fn(&[f64], &[Vec<f64>], &mut [f64]),
    ) -> Vec<Matrix> {
        let n = self.xs.len();
        let mut out = vec![Matrix::zeros(n, n); p];
        let mut row = vec![0.0; p * n];
        for i in 0..n {
            let m = i + 1;
            fill(&self.xs[i], &self.xs[..m], &mut row[..p * m]);
            for (j, mat) in out.iter_mut().enumerate() {
                for (c, &v) in row[j * m..(j + 1) * m].iter().enumerate() {
                    mat[(i, c)] = v;
                    mat[(c, i)] = v;
                }
            }
        }
        out
    }

    /// `∂K/∂θ_j` for every hyperparameter.
    fn kernel_grads(&self) -> Vec<Matrix> {
        self.derivative_matrices(self.kernel.n_params(), |x, qs, out| {
            self.kernel.grad_row(x, qs, out)
        })
    }

    /// Gradient of the log marginal likelihood w.r.t. the kernel's
    /// log-hyperparameters: `∂L/∂θ_j = ½ tr((ααᵀ − K⁻¹) ∂K/∂θ_j)`.
    pub fn lml_gradient(&self) -> Result<Vec<f64>> {
        let chol = self.chol.as_ref().ok_or(GpError::EmptyModel)?;
        Ok(self.gradient_from(&chol.inverse()?, &self.kernel_grads()))
    }

    /// The gradient's trace, accumulated over all ordered pairs `(i, j)`
    /// row-major — the order the per-pair scalar form walked them in.
    fn gradient_from(&self, kinv: &Matrix, kp: &[Matrix]) -> Vec<f64> {
        let n = self.xs.len();
        let mut grad = vec![0.0; kp.len()];
        for i in 0..n {
            for j in 0..n {
                let w = self.alpha[i] * self.alpha[j] - kinv[(i, j)];
                for (gj, m) in grad.iter_mut().zip(kp) {
                    *gj += 0.5 * w * m[(i, j)];
                }
            }
        }
        grad
    }

    /// [`lml_gradient`](GpModel::lml_gradient) and the diagonal second
    /// derivatives of the log marginal likelihood, `∂²L/∂θ_j²`, from one
    /// `K⁻¹` and one set of `K′` matrices — what the §5.3 Newton check needs:
    ///
    /// `∂²L/∂θ² = ½ αᵀK''α − αᵀK'K⁻¹K'α − ½ tr(K⁻¹K'') + ½ tr(K⁻¹K'K⁻¹K')`.
    ///
    /// The two traces are taken without forming the products
    /// ([`Matrix::matmul_trace`]); only `K⁻¹K′` is still multiplied out.
    pub(crate) fn lml_gradient_and_hessian_diag(&self) -> Result<(Vec<f64>, Vec<f64>)> {
        let chol = self.chol.as_ref().ok_or(GpError::EmptyModel)?;
        let kinv = chol.inverse()?;
        let kps = self.kernel_grads();
        let kpps = self.derivative_matrices(kps.len(), |x, qs, out| {
            self.kernel.second_deriv_row(x, qs, out)
        });
        let mut hess = Vec::with_capacity(kps.len());
        for (kp, kpp) in kps.iter().zip(&kpps) {
            let kp_alpha = kp.matvec(&self.alpha)?;
            let kinv_kp_alpha = chol.solve(&kp_alpha)?;
            let term1 = 0.5 * dot(&self.alpha, &kpp.matvec(&self.alpha)?);
            let term2 = dot(&kp_alpha, &kinv_kp_alpha);
            // tr(K⁻¹K'') and tr(K⁻¹K'K⁻¹K').
            let tr1 = kinv.matmul_trace(kpp)?;
            let kinv_kp = kinv.matmul(kp)?;
            let tr2 = kinv_kp.matmul_trace(&kinv_kp)?;
            hess.push(term1 - term2 - 0.5 * tr1 + 0.5 * tr2);
        }
        Ok((self.gradient_from(&kinv, &kps), hess))
    }
}

/// Bisection for the distance at which the kernel decays to half its
/// zero-distance value (callers go through the cached
/// [`GpModel::half_value_distance`]).
fn half_value_bisect(k: &dyn Kernel) -> f64 {
    let target = 0.5 * k.eval_dist(0.0);
    let mut hi = 1.0;
    while k.eval_dist(hi) > target && hi < 1e6 {
        hi *= 2.0;
    }
    let mut lo = 0.0;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if k.eval_dist(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The per-pair scalar forms the row-built likelihood derivatives replaced,
/// kept verbatim as the oracles their bit-identity is tested against, and
/// the jitter override the tests build pivot-failing models with.
#[cfg(test)]
impl GpModel {
    /// Override the diagonal jitter (must be non-negative).
    pub(crate) fn with_jitter(mut self, jitter: f64) -> Result<Self> {
        if !(jitter >= 0.0 && jitter.is_finite()) {
            return Err(GpError::InvalidParameter {
                what: "jitter",
                value: jitter,
            });
        }
        self.jitter = jitter;
        self.bump_rebuilt();
        Ok(self)
    }

    pub(crate) fn lml_gradient_oracle(&self) -> Result<Vec<f64>> {
        let chol = self.chol.as_ref().ok_or(GpError::EmptyModel)?;
        let n = self.xs.len();
        let p = self.kernel.n_params();
        let kinv = chol.solve_matrix(&Matrix::identity(n))?;
        let mut grad = vec![0.0; p];
        for i in 0..n {
            for j in 0..n {
                let g = self.kernel.grad(&self.xs[i], &self.xs[j]);
                let w = self.alpha[i] * self.alpha[j] - kinv[(i, j)];
                for (gj, gv) in grad.iter_mut().zip(&g) {
                    *gj += 0.5 * w * gv;
                }
            }
        }
        Ok(grad)
    }

    #[allow(clippy::needless_range_loop)] // out[j] paired with the j-th K' matrix
    pub(crate) fn lml_hessian_diag_oracle(&self) -> Result<Vec<f64>> {
        let chol = self.chol.as_ref().ok_or(GpError::EmptyModel)?;
        let n = self.xs.len();
        let p = self.kernel.n_params();
        let kinv = chol.solve_matrix(&Matrix::identity(n))?;
        let mut out = vec![0.0; p];
        // Materialize K' per hyperparameter (p small: 2..=d+1).
        for j in 0..p {
            let kp =
                Matrix::from_symmetric_fn(n, |r, c| self.kernel.grad(&self.xs[r], &self.xs[c])[j]);
            let kpp = Matrix::from_symmetric_fn(n, |r, c| {
                self.kernel.second_deriv(&self.xs[r], &self.xs[c])[j]
            });
            let kp_alpha = kp.matvec(&self.alpha)?;
            let kinv_kp_alpha = chol.solve(&kp_alpha)?;
            let term1 = 0.5 * dot(&self.alpha, &kpp.matvec(&self.alpha)?);
            let term2 = dot(&kp_alpha, &kinv_kp_alpha);
            // tr(K⁻¹K'') and tr(K⁻¹K'K⁻¹K').
            let kinv_kpp = kinv.matmul(&kpp)?;
            let kinv_kp = kinv.matmul(&kp)?;
            let tr1 = kinv_kpp.trace()?;
            let prod = kinv_kp.matmul(&kinv_kp)?;
            let tr2 = prod.trace()?;
            out[j] = term1 - term2 - 0.5 * tr1 + 0.5 * tr2;
        }
        Ok(out)
    }

    /// `set_hyperparams` as it was: the covariance through per-entry `eval`.
    pub(crate) fn set_hyperparams_oracle(&mut self, theta: &[f64]) -> Result<()> {
        self.kernel.set_params(theta);
        self.half_value = OnceLock::new();
        self.bump_rebuilt();
        let n = self.xs.len();
        let k = Matrix::from_symmetric_fn(n, |i, j| self.kernel.eval(&self.xs[i], &self.xs[j]));
        let (chol, _) = Cholesky::factor_with_jitter(&k, self.jitter, 8)?;
        self.alpha = chol.solve(&self.ys)?;
        self.chol = Some(chol);
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;

    fn toy_model(n: usize) -> GpModel {
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 1);
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.5]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin()).collect();
        m.fit(xs, ys).unwrap();
        m
    }

    #[test]
    fn interpolates_training_points() {
        let m = toy_model(10);
        for (x, y) in m.inputs().to_vec().iter().zip(m.targets().to_vec()) {
            let p = m.predict(x).unwrap();
            assert!((p.mean - y).abs() < 1e-3, "mean {} vs {}", p.mean, y);
            assert!(p.var < 1e-4, "variance at training point: {}", p.var);
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let m = toy_model(6); // points in [0, 2.5]
        let near = m.predict(&[1.0]).unwrap();
        let far = m.predict(&[10.0]).unwrap();
        assert!(far.var > near.var);
        // At great distance the prior variance σ_f² is recovered.
        assert!((far.var - 1.0).abs() < 1e-6);
    }

    #[test]
    fn incremental_add_matches_batch_fit() {
        let mut inc = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 1);
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 * 0.4]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0].cos()).collect();
        for (x, y) in xs.iter().zip(&ys) {
            inc.add_point(x.clone(), *y).unwrap();
        }
        let mut batch = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 1);
        batch.fit(xs, ys).unwrap();
        for q in [0.13, 1.77, 3.9, 6.0] {
            let a = inc.predict(&[q]).unwrap();
            let b = batch.predict(&[q]).unwrap();
            assert!((a.mean - b.mean).abs() < 1e-8, "q={q}");
            assert!((a.var - b.var).abs() < 1e-8, "q={q}");
        }
    }

    #[test]
    fn duplicate_points_fall_back_gracefully() {
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 1);
        for _ in 0..5 {
            m.add_point(vec![1.0], 2.0).unwrap();
        }
        let p = m.predict(&[1.0]).unwrap();
        assert!((p.mean - 2.0).abs() < 1e-3);
    }

    #[test]
    fn empty_model_errors() {
        let m = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 2);
        assert!(matches!(m.predict(&[0.0, 0.0]), Err(GpError::EmptyModel)));
        assert!(matches!(
            m.log_marginal_likelihood(),
            Err(GpError::EmptyModel)
        ));
    }

    #[test]
    fn dimension_mismatch_errors() {
        let m = toy_model(4);
        assert!(matches!(
            m.predict(&[0.0, 0.0]),
            Err(GpError::DimensionMismatch { .. })
        ));
        let mut m2 = toy_model(4);
        assert!(m2.add_point(vec![0.0, 1.0], 0.0).is_err());
    }

    #[test]
    fn lml_gradient_matches_finite_difference() {
        let mut m = toy_model(8);
        let theta0 = m.kernel().params();
        let grad = m.lml_gradient().unwrap();
        let eps = 1e-5;
        for j in 0..theta0.len() {
            let mut tp = theta0.clone();
            tp[j] += eps;
            m.set_hyperparams(&tp).unwrap();
            let lp = m.log_marginal_likelihood().unwrap();
            let mut tm = theta0.clone();
            tm[j] -= eps;
            m.set_hyperparams(&tm).unwrap();
            let lm = m.log_marginal_likelihood().unwrap();
            m.set_hyperparams(&theta0).unwrap();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad[j]).abs() < 1e-4 * (1.0 + grad[j].abs()),
                "grad[{j}]: fd {fd} vs analytic {}",
                grad[j]
            );
        }
    }

    #[test]
    fn lml_hessian_diag_matches_finite_difference() {
        let mut m = toy_model(8);
        let theta0 = m.kernel().params();
        let hess = m.lml_gradient_and_hessian_diag().unwrap().1;
        let eps = 1e-4;
        for j in 0..theta0.len() {
            let mut tp = theta0.clone();
            tp[j] += eps;
            m.set_hyperparams(&tp).unwrap();
            let gp = m.lml_gradient().unwrap()[j];
            let mut tm = theta0.clone();
            tm[j] -= eps;
            m.set_hyperparams(&tm).unwrap();
            let gm = m.lml_gradient().unwrap()[j];
            m.set_hyperparams(&theta0).unwrap();
            let fd = (gp - gm) / (2.0 * eps);
            assert!(
                (fd - hess[j]).abs() < 1e-3 * (1.0 + hess[j].abs()),
                "hess[{j}]: fd {fd} vs analytic {}",
                hess[j]
            );
        }
    }

    /// Seeded SE models: random hyperparameters, 1-D or 2-D inputs, half of
    /// them grown point by point (an appended factor).
    pub(crate) fn seeded_models(cases: usize) -> Vec<GpModel> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD1B5);
        let mut next = move || rng.gen::<f64>();
        (0..cases)
            .map(|case| {
                let (sf, l1, l2) = (0.5 + 2.0 * next(), 0.3 + 2.0 * next(), 0.3 + 2.0 * next());
                let (kernel, dim) = match case % 4 {
                    0 => (SquaredExponential::new(sf, l1), 1),
                    1 => (SquaredExponential::new(sf, l2), 2),
                    2 => (SquaredExponential::new(0.5 * sf, l1 + l2), 2),
                    _ => (SquaredExponential::new(sf + 1.0, 0.5 * l1), 1),
                };
                let n = 2 + case % 11;
                let xs: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..dim).map(|_| 6.0 * next()).collect())
                    .collect();
                let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 1.1).sin() + next()).collect();
                let mut m = GpModel::new(Box::new(kernel), dim);
                if case % 2 == 0 {
                    m.fit(xs, ys).unwrap();
                } else {
                    for (x, y) in xs.into_iter().zip(ys) {
                        m.add_point(x, y).unwrap();
                    }
                }
                m
            })
            .collect()
    }

    pub(crate) fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: {g} vs {w}");
        }
    }

    #[test]
    fn row_built_likelihood_derivatives_match_the_scalar_oracles_bitwise() {
        for (case, mut m) in seeded_models(240).into_iter().enumerate() {
            let what = format!("case {case} ({:?}, n = {})", m.kernel(), m.len());
            let grad = m.lml_gradient().unwrap();
            assert_same_bits(&grad, &m.lml_gradient_oracle().unwrap(), &what);
            let hess = m.lml_hessian_diag_oracle().unwrap();
            let (g2, h2) = m.lml_gradient_and_hessian_diag().unwrap();
            assert_same_bits(&g2, &grad, &what);
            assert_same_bits(&h2, &hess, &what);
            // The refit behind `set_hyperparams` builds K from hoisted rows.
            let mut theta = m.kernel().params();
            theta[0] += 0.1;
            let mut old = m.clone();
            m.set_hyperparams(&theta).unwrap();
            old.set_hyperparams_oracle(&theta).unwrap();
            assert_same_bits(m.alpha(), old.alpha(), &what);
            let (new_l, old_l) = (m.chol.as_ref().unwrap(), old.chol.as_ref().unwrap());
            assert_same_bits(new_l.lower().as_slice(), old_l.lower().as_slice(), &what);
        }
    }

    #[test]
    fn appended_since_sees_only_appends() {
        let mut m = toy_model(5);
        let e0 = m.epoch();
        assert!(m.appended_since(e0));
        m.add_point(vec![7.0], 0.2).unwrap();
        m.add_point(vec![8.0], 0.1).unwrap();
        assert!(m.appended_since(e0), "two appends");
        let theta = m.kernel().params();
        m.set_hyperparams(&theta).unwrap();
        assert!(!m.appended_since(e0), "hyperparameters replaced");
        let e1 = m.epoch();
        let (xs, ys) = (m.inputs()[1..].to_vec(), m.targets()[1..].to_vec());
        m.fit(xs, ys).unwrap();
        assert!(!m.appended_since(e1), "a refit renumbers the points");
        let e2 = m.epoch();
        let m = m.with_jitter(1e-6).unwrap();
        assert!(!m.appended_since(e2) && m.appended_since(m.epoch()));
    }
}
