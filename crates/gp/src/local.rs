//! Local inference (§5.1).
//!
//! Far-away training points carry negligible kernel weight, so inference per
//! input tuple can run against a *subset* of training points chosen around
//! the bounding box of the input's Monte Carlo samples. The approximation
//! error in the posterior mean is bounded by
//!
//! `γ = max_j |Σ_{ℓ excluded} k(x_j, x*_ℓ) α_ℓ|`
//!
//! which is bracketed per excluded point by the kernel value at the box's
//! nearest/farthest corners (monotone isotropic kernels). The selection
//! radius expands until `γ ≤ Γ`. As the paper's implementation note
//! suggests, the sample box is bisected into sub-boxes and γ evaluated per
//! sub-box for a tighter bound.

use crate::model::{GpModel, Prediction};
use crate::{GpError, Result};
use std::sync::Arc;
use udf_linalg::{dot, Cholesky, Matrix};
use udf_spatial::BoundingBox;

/// Result of choosing training points for local inference.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSelection {
    /// Selected training-point indices (into the model's training arrays).
    pub indices: Vec<usize>,
    /// Upper bound on the posterior-mean error |f̂ − f̂_L| over the sample box.
    pub gamma: f64,
    /// Final retrieval radius around the sample bounding box.
    pub radius: f64,
}

/// Reusable buffers for the selection loop. One instance per worker (or per
/// sequential caller) makes steady-state selection allocation-free: the
/// R-tree query fills `selected` in place and `gamma_bound` reuses its mask
/// and distance/kernel-value buffers across every radius-expansion iteration
/// instead of allocating fresh vectors per call.
#[derive(Debug, Default, Clone)]
pub struct SelectScratch {
    /// Output of the last [`select_local_with`]: the selected indices.
    pub selected: Vec<usize>,
    /// γ-bound working buffers.
    bufs: GammaBufs,
}

/// Working buffers for [`gamma_bound`]'s per-sub-box sweep.
#[derive(Debug, Default, Clone)]
struct GammaBufs {
    /// Selection mask over training indices (all-false between calls).
    mask: Vec<bool>,
    /// Interleaved near/far corner distances, `2n` per sub-box.
    dists: Vec<f64>,
    /// Bulk kernel values for `dists` (the per-point γ brackets).
    kvals: Vec<f64>,
}

/// Choose training points near `sample_box` so the mean-approximation error
/// is at most `gamma_threshold` (the paper's Γ).
///
/// Requires an isotropic kernel (near/far-corner bracketing); returns
/// [`GpError::InvalidParameter`] otherwise.
pub fn select_local(
    model: &GpModel,
    sample_box: &BoundingBox,
    gamma_threshold: f64,
) -> Result<LocalSelection> {
    let mut scratch = SelectScratch::default();
    let (gamma, radius) = select_local_with(model, sample_box, gamma_threshold, &mut scratch)?;
    Ok(LocalSelection {
        indices: scratch.selected,
        gamma,
        radius,
    })
}

/// [`select_local`] with caller-provided scratch: returns `(gamma, radius)`
/// and leaves the selected indices (sorted ascending) in
/// `scratch.selected`. Identical selection, γ, and radius to
/// [`select_local`] — only the allocations differ.
pub fn select_local_with(
    model: &GpModel,
    sample_box: &BoundingBox,
    gamma_threshold: f64,
    scratch: &mut SelectScratch,
) -> Result<(f64, f64)> {
    if model.is_empty() {
        return Err(GpError::EmptyModel);
    }
    if model.kernel().eval_dist(0.0).is_none() {
        return Err(GpError::InvalidParameter {
            what: "local inference requires an isotropic kernel",
            value: f64::NAN,
        });
    }
    if gamma_threshold <= 0.0 || gamma_threshold.is_nan() {
        return Err(GpError::InvalidParameter {
            what: "gamma_threshold",
            value: gamma_threshold,
        });
    }

    let n = model.len();
    // Radius step: the kernel's half-value distance (bisected once per
    // hyperparameter setting and cached on the model).
    let step = model.half_value_distance().expect("checked isotropic");
    // The near/far corner distances — and so the per-point kernel brackets —
    // depend only on the sample box and the training set, never on the
    // current selection, so every radius-expansion iteration reuses one
    // up-front evaluation instead of re-walking the kernel per excluded
    // point. Same distances, same kernel values, same accumulation order:
    // γ is bit-identical to evaluating from scratch each iteration.
    let n_sub = gamma_precompute(model, sample_box, &mut scratch.bufs);
    let mut radius = step;
    loop {
        model
            .spatial_index()
            .query_within_into(sample_box, radius, &mut scratch.selected);
        scratch.selected.sort_unstable();
        let gamma = gamma_from_precomputed(model, &scratch.selected, &mut scratch.bufs, n_sub);
        if gamma <= gamma_threshold || scratch.selected.len() == n {
            return Ok((gamma, radius));
        }
        radius += step;
    }
}

/// Upper bound γ on the mean-approximation error over the sample box given
/// the selected subset (γ = 0 when nothing is excluded).
pub fn gamma_bound(model: &GpModel, sample_box: &BoundingBox, selected: &[usize]) -> f64 {
    if selected.len() == model.len() {
        return 0.0; // nothing excluded; skip the bracket evaluation
    }
    let mut bufs = GammaBufs::default();
    let n_sub = gamma_precompute(model, sample_box, &mut bufs);
    gamma_from_precomputed(model, selected, &mut bufs, n_sub)
}

/// Evaluate the per-point kernel brackets for every sub-box of
/// `sample_box`: `kvals[s·2n + 2l]` / `kvals[s·2n + 2l + 1]` hold
/// `k(near corner)` / `k(far corner)` of training point `l` against sub-box
/// `s`. Selection-independent, so one evaluation serves every iteration of
/// the radius-expansion loop. Returns the sub-box count.
///
/// # Panics
/// Panics for non-isotropic kernels (callers check first).
fn gamma_precompute(model: &GpModel, sample_box: &BoundingBox, bufs: &mut GammaBufs) -> usize {
    let xs = model.inputs();
    // Sub-box refinement: split along the longest axes (2^min(d,3) boxes).
    let sub_boxes = sample_box.bisect(sample_box.dim().min(3));
    bufs.dists.clear();
    for sb in &sub_boxes {
        for x in xs {
            bufs.dists.push(sb.min_dist(x));
            bufs.dists.push(sb.max_dist(x));
        }
    }
    bufs.kvals.resize(bufs.dists.len(), 0.0);
    let isotropic = model.kernel().eval_dist_many(&bufs.dists, &mut bufs.kvals);
    assert!(isotropic, "gamma_bound requires an isotropic kernel");
    sub_boxes.len()
}

/// γ from precomputed brackets ([`gamma_precompute`] must have filled
/// `bufs` for this model/box). The mask must be all-false on entry; it is
/// restored to all-false before returning (only the entries set for
/// `selected` are touched, so the reset is O(|selected|)). Values and
/// accumulation order match the per-point scalar evaluation exactly.
fn gamma_from_precomputed(
    model: &GpModel,
    selected: &[usize],
    bufs: &mut GammaBufs,
    n_sub: usize,
) -> f64 {
    let n = model.len();
    if selected.len() == n {
        return 0.0;
    }
    if bufs.mask.len() < n {
        bufs.mask.resize(n, false);
    }
    for &i in selected {
        bufs.mask[i] = true;
    }
    let alpha = model.alpha();
    let mut gamma = 0.0f64;
    for s in 0..n_sub {
        let kv = &bufs.kvals[s * 2 * n..(s + 1) * 2 * n];
        let (mut lo_sum, mut hi_sum) = (0.0f64, 0.0f64);
        for l in 0..n {
            if bufs.mask[l] {
                continue;
            }
            let (k_near, k_far) = (kv[2 * l], kv[2 * l + 1]);
            let a = alpha[l];
            if a >= 0.0 {
                hi_sum += k_near * a;
                lo_sum += k_far * a;
            } else {
                hi_sum += k_far * a;
                lo_sum += k_near * a;
            }
        }
        gamma = gamma.max(hi_sum.abs()).max(lo_sum.abs());
    }
    // Restore the all-false invariant so the buffer can be reused.
    for &i in selected {
        bufs.mask[i] = false;
    }
    gamma
}

/// Inference against a fixed subset of training points.
///
/// The posterior mean uses the *global* weight vector restricted to the
/// subset (the paper's `α_L`), so `γ` bounds its deviation from global
/// inference; the posterior variance uses the subset's own covariance
/// factor, which is conservative (never smaller than the global variance).
#[derive(Debug)]
pub struct LocalPredictor<'m> {
    model: &'m GpModel,
    indices: Vec<usize>,
    /// Shared so [`crate::batch::LocalPredictorCache`] can hand the same
    /// factor to consecutive tuples without re-running the O(l³) build.
    chol: Arc<Cholesky>,
    /// The jitter the factorization succeeded at (the model's own, unless
    /// near-duplicate points forced an escalation).
    jitter: f64,
}

impl<'m> LocalPredictor<'m> {
    /// Build the subset factorization (O(l³) for l selected points).
    pub fn new(model: &'m GpModel, indices: Vec<usize>) -> Result<Self> {
        if indices.is_empty() {
            return Err(GpError::EmptyModel);
        }
        // K_sub from one hoisted kernel row per selected point:
        // bit-identical to per-entry `eval`, a third of its `exp`s.
        let xs = model.inputs();
        let k = Matrix::from_symmetric_rows(indices.len(), |i, row| {
            model
                .kernel()
                .eval_gather(&xs[indices[i]], xs, &indices[..=i], row)
        });
        let (chol, jitter) = Cholesky::factor_with_jitter(&k, model.jitter(), 8)?;
        Ok(LocalPredictor {
            model,
            indices,
            chol: Arc::new(chol),
            jitter,
        })
    }

    /// Assemble a predictor from a cached factor (see
    /// [`crate::batch::LocalPredictorCache`]). The caller guarantees `chol`
    /// was factored from exactly `indices` on this model state, at `jitter`.
    pub(crate) fn from_cached(
        model: &'m GpModel,
        indices: Vec<usize>,
        chol: Arc<Cholesky>,
        jitter: f64,
    ) -> Self {
        LocalPredictor {
            model,
            indices,
            chol,
            jitter,
        }
    }

    /// The jitter the subset factorization succeeded at.
    pub(crate) fn factor_jitter(&self) -> f64 {
        self.jitter
    }

    /// The subset Cholesky factor (shared handle).
    pub(crate) fn factor_arc(&self) -> &Arc<Cholesky> {
        &self.chol
    }

    /// The selected training-point indices.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of selected training points `l`.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when no points were selected (unreachable by construction).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Posterior mean/variance at `x` using only the selected subset —
    /// O(l) mean, O(l²) variance.
    pub fn predict(&self, x: &[f64]) -> Result<Prediction> {
        if x.len() != self.model.dim() {
            return Err(GpError::DimensionMismatch {
                expected: self.model.dim(),
                found: x.len(),
            });
        }
        let xs = self.model.inputs();
        let alpha = self.model.alpha();
        let kernel = self.model.kernel();
        let k: Vec<f64> = self
            .indices
            .iter()
            .map(|&i| kernel.eval(&xs[i], x))
            .collect();
        // Mean with the restricted global weights α_L.
        let mean = self
            .indices
            .iter()
            .zip(&k)
            .map(|(&i, kv)| kv * alpha[i])
            .sum();
        let v = self.chol.solve_lower(&k)?;
        let var = (kernel.eval(x, x) - dot(&v, &v)).max(0.0);
        Ok(Prediction { mean, var })
    }

    /// Predict at all `m` samples of a tuple as one blocked operation (one
    /// kernel-matrix build + one multi-RHS solve). Bit-identical to calling
    /// [`LocalPredictor::predict`] per sample — see [`crate::batch`].
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<Prediction>> {
        let mut scratch = crate::batch::PredictScratch::default();
        let mut out = Vec::with_capacity(xs.len());
        self.predict_batch_with(xs, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`LocalPredictor::predict_batch`] with caller-provided scratch and
    /// output buffers (allocation-free in steady state). Clears `out` and
    /// fills it with one prediction per sample.
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

    /// [`LocalPredictor::predict_batch_with`] minus the copy into
    /// [`Prediction`]s: results stay in `scratch` (`means()`, `variances()`).
    pub fn predict_batch_scratch(
        &self,
        xs: &[Vec<f64>],
        scratch: &mut crate::batch::PredictScratch,
    ) -> Result<()> {
        let indices = Some(&self.indices[..]);
        crate::batch::batch_predict_core(self.model, indices, &self.chol, xs, scratch, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{SquaredExponential, SquaredExponentialArd};
    use crate::model::GpModel;

    /// 1-D model with clustered training data far from / near the query box.
    fn clustered_model() -> GpModel {
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, 0.5)), 1);
        let mut xs = Vec::new();
        // Cluster A near 0, cluster B near 100.
        for i in 0..20 {
            xs.push(vec![i as f64 * 0.1]);
        }
        for i in 0..20 {
            xs.push(vec![100.0 + i as f64 * 0.1]);
        }
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 0.7).sin()).collect();
        m.fit(xs, ys).unwrap();
        m
    }

    #[test]
    fn far_cluster_is_excluded() {
        let m = clustered_model();
        let qbox = BoundingBox::new(vec![0.5], vec![1.5]);
        let sel = select_local(&m, &qbox, 1e-6).unwrap();
        assert!(sel.indices.len() < m.len(), "should not select everything");
        assert!(
            sel.indices.iter().all(|&i| i < 20),
            "far cluster leaked into selection: {:?}",
            sel.indices
        );
        assert!(sel.gamma <= 1e-6);
    }

    #[test]
    fn local_mean_close_to_global() {
        let m = clustered_model();
        let qbox = BoundingBox::new(vec![0.5], vec![1.5]);
        let gamma_threshold = 1e-4;
        let sel = select_local(&m, &qbox, gamma_threshold).unwrap();
        let lp = LocalPredictor::new(&m, sel.indices.clone()).unwrap();
        for q in [0.55, 0.9, 1.2, 1.45] {
            let g = m.predict(&[q]).unwrap();
            let l = lp.predict(&[q]).unwrap();
            assert!(
                (g.mean - l.mean).abs() <= gamma_threshold + 1e-9,
                "q={q}: |{} - {}| > γ",
                g.mean,
                l.mean
            );
            // Local variance is conservative.
            assert!(l.var >= g.var - 1e-9, "q={q}");
        }
    }

    #[test]
    fn gamma_zero_when_all_selected() {
        let m = clustered_model();
        let qbox = BoundingBox::new(vec![0.0], vec![100.0]);
        let all: Vec<usize> = (0..m.len()).collect();
        assert_eq!(gamma_bound(&m, &qbox, &all), 0.0);
    }

    #[test]
    fn tighter_threshold_selects_more_points() {
        let m = clustered_model();
        let qbox = BoundingBox::new(vec![0.5], vec![1.5]);
        let loose = select_local(&m, &qbox, 1e-2).unwrap();
        let tight = select_local(&m, &qbox, 1e-10).unwrap();
        assert!(tight.indices.len() >= loose.indices.len());
    }

    #[test]
    fn ard_kernel_rejected() {
        let mut m = GpModel::new(Box::new(SquaredExponentialArd::new(1.0, &[1.0, 1.0])), 2);
        m.fit(vec![vec![0.0, 0.0], vec![1.0, 1.0]], vec![0.0, 1.0])
            .unwrap();
        let qbox = BoundingBox::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert!(matches!(
            select_local(&m, &qbox, 0.1),
            Err(GpError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn gamma_bound_is_sound() {
        // The bound must dominate the actual |global − local| mean error at
        // any point inside the box.
        let m = clustered_model();
        let qbox = BoundingBox::new(vec![1.0], vec![3.0]);
        for threshold in [1e-2, 1e-4] {
            let sel = select_local(&m, &qbox, threshold).unwrap();
            let lp = LocalPredictor::new(&m, sel.indices.clone()).unwrap();
            for i in 0..=20 {
                let q = 1.0 + 2.0 * i as f64 / 20.0;
                let g = m.predict_mean(&[q]).unwrap();
                let l = lp.predict(&[q]).unwrap().mean;
                assert!(
                    (g - l).abs() <= sel.gamma + 1e-12,
                    "actual error {} exceeds γ {}",
                    (g - l).abs(),
                    sel.gamma
                );
            }
        }
    }

    #[test]
    fn empty_selection_rejected() {
        let m = clustered_model();
        assert!(LocalPredictor::new(&m, vec![]).is_err());
    }
}
