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

/// Reusable buffers for the selection loop. One instance per worker (or per
/// sequential caller) makes steady-state selection allocation-free: the
/// radius scan fills `selected` in place and `gamma_bound` reuses its mask
/// and distance/kernel-value buffers across every radius-expansion iteration
/// instead of allocating fresh vectors per call.
#[derive(Debug, Default, Clone)]
pub struct SelectScratch {
    /// Output of the last [`select_local_with`]: the selected indices.
    pub selected: Vec<usize>,
    /// Each training point's distance to the whole sample box.
    box_dist: Vec<f64>,
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
/// is at most `gamma_threshold` (the paper's Γ): returns `(gamma, radius)`
/// and leaves the selected indices (sorted ascending) in
/// `scratch.selected`.
///
/// Returns [`GpError::InvalidParameter`] for a Γ that is not positive.
pub fn select_local_with(
    model: &GpModel,
    sample_box: &BoundingBox,
    gamma_threshold: f64,
    scratch: &mut SelectScratch,
) -> Result<(f64, f64)> {
    if model.is_empty() {
        return Err(GpError::EmptyModel);
    }
    if gamma_threshold <= 0.0 || gamma_threshold.is_nan() {
        return Err(GpError::InvalidParameter {
            what: "gamma_threshold",
            value: gamma_threshold,
        });
    }

    let n = model.len();
    // Radius step: the kernel's half-value distance (bisected once per
    // hyperparameter setting and cached on the model). Each step keeps the
    // points within `radius` of the box, in ascending index order.
    let step = model.half_value_distance().expect("always Some");
    // The near/far corner distances — and so the per-point kernel brackets —
    // depend only on the sample box and the training set, never on the
    // current selection, so every radius-expansion iteration reuses one
    // up-front evaluation instead of re-walking the kernel per excluded
    // point. Same distances, same kernel values, same accumulation order:
    // γ is bit-identical to evaluating from scratch each iteration.
    let n_sub = gamma_precompute(model, sample_box, &mut scratch.bufs);
    box_distances(&scratch.bufs.dists, n, n_sub, &mut scratch.box_dist);
    let mut radius = step;
    loop {
        let box_dist = &scratch.box_dist;
        scratch.selected.clear();
        scratch
            .selected
            .extend((0..n).filter(|&l| box_dist[l] <= radius));
        let gamma = gamma_from_precomputed(model, &scratch.selected, &mut scratch.bufs, n_sub);
        if gamma <= gamma_threshold || scratch.selected.len() == n {
            return Ok((gamma, radius));
        }
        radius += step;
    }
}

/// Each training point's distance to the whole sample box, read off the
/// sub-box near-corner distances [`gamma_precompute`] left in `dists`: the
/// nearest sub-box. Bit-equal to `sample_box.min_dist(x)`, because along
/// every bisected axis one half contributes exactly the whole box's term
/// and the other a term no smaller, and rounding is monotone.
fn box_distances(dists: &[f64], n: usize, n_sub: usize, out: &mut Vec<f64>) {
    out.clear();
    out.extend((0..n).map(|l| {
        (0..n_sub)
            .map(|s| dists[s * 2 * n + 2 * l])
            .fold(f64::INFINITY, f64::min)
    }));
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
    model.kernel().eval_dist_many(&bufs.dists, &mut bufs.kvals);
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

    /// Posterior mean/variance at `x` using only the selected subset —
    /// O(l) mean, O(l²) variance.
    pub fn predict(&self, x: &[f64]) -> Result<Prediction> {
        GpError::check_dim(self.model.dim(), x.len())?;
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
    /// kernel-matrix build + one multi-RHS solve) into caller-provided
    /// scratch and output buffers (allocation-free in steady state). Clears
    /// `out` and fills it with one prediction per sample. Bit-identical to
    /// calling [`LocalPredictor::predict`] per sample (the `batch` module
    /// docs say how).
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
    use crate::kernel::SquaredExponential;
    use crate::model::GpModel;

    /// The indices [`select_local_with`] picks at threshold `gamma`, and
    /// the γ it reached.
    fn selected(m: &GpModel, qbox: &BoundingBox, gamma: f64) -> (Vec<usize>, f64) {
        let mut scratch = SelectScratch::default();
        let (reached, _) = select_local_with(m, qbox, gamma, &mut scratch).unwrap();
        (scratch.selected, reached)
    }

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
        let (sel, gamma) = selected(&m, &qbox, 1e-6);
        assert!(sel.len() < m.len(), "should not select everything");
        assert!(
            sel.iter().all(|&i| i < 20),
            "far cluster leaked into selection: {:?}",
            sel
        );
        assert!(gamma <= 1e-6);
    }

    #[test]
    fn local_mean_close_to_global() {
        let m = clustered_model();
        let qbox = BoundingBox::new(vec![0.5], vec![1.5]);
        let gamma_threshold = 1e-4;
        let (sel, _) = selected(&m, &qbox, gamma_threshold);
        let lp = LocalPredictor::new(&m, sel).unwrap();
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
        let (loose, _) = selected(&m, &qbox, 1e-2);
        let (tight, _) = selected(&m, &qbox, 1e-10);
        assert!(tight.len() >= loose.len());
    }

    #[test]
    fn gamma_bound_is_sound() {
        // The bound must dominate the actual |global − local| mean error at
        // any point inside the box.
        let m = clustered_model();
        let qbox = BoundingBox::new(vec![1.0], vec![3.0]);
        for threshold in [1e-2, 1e-4] {
            let (sel, gamma) = selected(&m, &qbox, threshold);
            let lp = LocalPredictor::new(&m, sel).unwrap();
            for i in 0..=20 {
                let q = 1.0 + 2.0 * i as f64 / 20.0;
                let g = m.predict_mean(&[q]).unwrap();
                let l = lp.predict(&[q]).unwrap().mean;
                assert!(
                    (g - l).abs() <= gamma + 1e-12,
                    "actual error {} exceeds γ {}",
                    (g - l).abs(),
                    gamma
                );
            }
        }
    }

    #[test]
    fn box_distances_are_min_dist_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB0C5);
        for case in 0..300 {
            let dim = 1 + case % 5;
            let lo: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..1.0)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.0..3.0)).collect();
            let qbox = BoundingBox::new(lo.clone(), hi.clone());
            // Coordinates land on the box's corners and midpoints as well as
            // anywhere around it, so the ties at a bisection plane are hit.
            let xs: Vec<Vec<f64>> = (0..rng.gen_range(1..40))
                .map(|_| {
                    (0..dim)
                        .map(|i| match rng.gen_range(0..4) {
                            0 => lo[i],
                            1 => hi[i],
                            2 => 0.5 * (lo[i] + hi[i]),
                            _ => rng.gen_range(-6.0..6.0),
                        })
                        .collect()
                })
                .collect();
            let ys: Vec<f64> = xs.iter().map(|x| x[0].sin()).collect();
            let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, 0.7)), dim);
            m.fit(xs.clone(), ys).unwrap();
            let mut bufs = GammaBufs::default();
            let n_sub = gamma_precompute(&m, &qbox, &mut bufs);
            let mut got = Vec::new();
            box_distances(&bufs.dists, xs.len(), n_sub, &mut got);
            for (x, d) in xs.iter().zip(&got) {
                let want = qbox.min_dist(x);
                assert_eq!(
                    d.to_bits(),
                    want.to_bits(),
                    "case {case}: {x:?} in {qbox:?}"
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
