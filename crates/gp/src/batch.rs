//! Blocked batch inference (the warm fast path, §5.1).
//!
//! Per-tuple inference evaluates all `m` Monte Carlo samples against the
//! same (local or global) model. Doing that one sample at a time costs one
//! kernel-vector build and one `O(l²)` triangular solve *per sample*, plus a
//! handful of allocations per call. This module evaluates the whole tuple as
//! one blocked operation:
//!
//! 1. build the `l x m` kernel matrix `K` once (row `r` = selected training
//!    point `r` against every sample). The samples are gathered once per
//!    call into a flat, dimension-major buffer; a row is then one
//!    squared-distance pass over contiguous memory and one
//!    [`Kernel::eval_sq_dists`] map — one virtual call and no pointer chase
//!    per row, where a walk over `&[Vec<f64>]` pays both per entry;
//! 2. accumulate all `m` posterior means as `Kᵀ α` via lane-unrolled axpy
//!    over rows;
//! 3. run one multi-RHS forward substitution `V = L⁻¹ K`
//!    ([`Cholesky::solve_lower_in_place`]) and accumulate all `m` squared
//!    norms `‖v_c‖²` row-wise; the variances are `k(q, q) − ‖v_c‖²` with the
//!    prior variance evaluated once per call where that is provably what
//!    `eval(q, q)` returns (see `PredictScratch::finish`).
//!
//! Means and variances stay in the [`PredictScratch`]; the evaluator reads
//! them there, and `predict_batch_with` copies them out as [`Prediction`]s.
//!
//! **Bit-identity contract.** Every per-sample reduction preserves the
//! scalar path's order exactly: squared distances add up in dimension order
//! and the kernel map is `eval`'s expression, means and squared norms
//! accumulate over training rows in ascending order (the same order `dot`
//! walks them), and the multi-RHS solve performs the scalar `solve_lower`
//! op sequence per column (`k` ascending, true division by the diagonal).
//! SIMD-style
//! unrolling happens only *across* samples, which are independent outputs.
//! So `predict_batch(xs)[c] == predict(xs[c])` bit for bit — the property
//! the digest-pinning test suites rely on.
//!
//! [`LocalPredictorCache`] additionally skips the `O(l³)` subset
//! refactorization when consecutive tuples select the same training subset
//! from the same model state — common under clustered workloads where
//! neighboring tuples share a local neighborhood.
//!
//! **Extension (the tuning loop, §5.2).** Online tuning re-infers the *same*
//! tuple after every added training point, and the new selection is almost
//! always the previous one plus that point.
//! [`LocalPredictorCache::predict_tuning`] therefore keeps the tuple's flat
//! samples, `K`, `L` and `V` and extends the last three by one row — `m`
//! kernel evaluations, one [`Cholesky::push_row`], one
//! [`Cholesky::solve_lower_last_row`] — instead of rebuilding them (`l·m`
//! evaluations, an `O(l³)` factorization, an `O(l²·m)` solve). The contract above covers it: every retained row is
//! what the full build would recompute, the new rows run the full build's
//! own per-element operations, and the means are re-accumulated over the
//! retained `K` in the same order with the new weights. Whenever the data
//! do not allow it (see the method), the full build runs instead.

use crate::kernel::{sq_dist, sq_dists_flat, Kernel};
use crate::local::LocalPredictor;
use crate::model::{GpModel, Prediction};
use crate::{GpError, Result};
use std::sync::Arc;
use udf_linalg::{lanes, Cholesky};

/// Reusable buffers for blocked batch prediction. One instance per worker
/// (or per sequential caller) makes steady-state inference allocation-free.
#[derive(Debug, Default, Clone)]
pub struct PredictScratch {
    /// The `m` query points, one dimension after the other
    /// (`flat[d * m + c]` is coordinate `d` of query `c`).
    flat: Vec<f64>,
    /// Row-major `l x m` kernel matrix, overwritten in place by `V = L⁻¹ K`.
    kv: Vec<f64>,
    /// Per-sample posterior means (`m`).
    means: Vec<f64>,
    /// Per-sample squared-norm accumulators `‖v_c‖²` (`m`).
    sq: Vec<f64>,
    /// Per-sample posterior variances `max(0, k(q, q) − ‖v_c‖²)` (`m`).
    var: Vec<f64>,
    /// The kernel matrix `K` itself, kept beside `V` by
    /// [`LocalPredictorCache::predict_tuning`] only.
    k: Vec<f64>,
    /// What `flat`, `k`, `kv` and `sq` currently hold, if they are whole:
    /// `(model_id, epoch, rows, cols)` of the inference that left them. Any
    /// other prediction through this scratch clears it.
    retained: Option<(u64, u64, usize, usize)>,
}

impl PredictScratch {
    /// Start tuning a new tuple: forget the rows retained for extension —
    /// callers of [`LocalPredictorCache::predict_tuning`] must do this
    /// whenever the query points change, the one thing the retained rows
    /// depend on that the cache cannot see — and make room for `K` and `V`
    /// at `max_rows x cols` up front. Two buffers that took turns growing a
    /// row at a time would each be moved past the other over and over; the
    /// copies are cheap, the holes they leave in the heap are not.
    pub fn start_tuning(&mut self, max_rows: usize, cols: usize) {
        self.retained = None;
        for buf in [&mut self.k, &mut self.kv] {
            buf.reserve((max_rows * cols).saturating_sub(buf.len()));
        }
    }

    /// Posterior means of the last prediction, in query order.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Posterior variances of the last prediction, in query order.
    pub fn variances(&self) -> &[f64] {
        &self.var
    }

    /// Heap capacity of each buffer (what "allocates nothing" is tested on).
    #[doc(hidden)]
    pub fn capacities(&self) -> [usize; 6] {
        let s = self;
        [&s.flat, &s.kv, &s.means, &s.sq, &s.var, &s.k].map(Vec::capacity)
    }

    /// One [`Prediction`] per query from the means and variances.
    pub(crate) fn emit(&self, out: &mut Vec<Prediction>) {
        out.clear();
        let pairs = self.means.iter().zip(&self.var);
        out.extend(pairs.map(|(&mean, &var)| Prediction { mean, var }));
    }

    /// Variances from the squared norms. Every kernel is a function of the
    /// squared distance alone, so `k(q, q)` is its value at `‖q − q‖²`,
    /// which is `+0.0` for every finite `q`: one evaluation serves them all.
    /// A batch with a non-finite coordinate evaluates `k(q, q)` per query.
    fn finish(&mut self, kernel: &dyn Kernel, queries: &[Vec<f64>]) {
        let mut prior = [sq_dist(&queries[0], &queries[0])];
        kernel.eval_sq_dists(&mut prior);
        let hoisted = self.flat.iter().all(|v| v.is_finite());
        let kqq = |q: &Vec<f64>| if hoisted { prior[0] } else { kernel.eval(q, q) };
        let vars = queries.iter().zip(&self.sq);
        self.var.clear();
        self.var.extend(vars.map(|(q, sq)| (kqq(q) - sq).max(0.0)));
    }
}

/// One row of `K`: `out[c] = k(x, q_c)`, bit-identical to `eval` — a
/// squared-distance pass over the flat copy of the queries ([`sq_dist`]'s
/// additions, in its order) and one kernel map over the row.
fn kernel_row(kernel: &dyn Kernel, x: &[f64], flat: &[f64], out: &mut [f64]) {
    sq_dists_flat(x, flat, out);
    kernel.eval_sq_dists(out);
}

/// Shared core of [`GpModel::predict_batch_scratch`] and
/// [`LocalPredictor::predict_batch_scratch`]; means and variances are left
/// in `scratch`.
///
/// `indices: None` selects every training row (global inference);
/// `Some(idx)` restricts rows and weights to the subset, in subset order —
/// exactly the rows/weights the scalar paths walk. `chol` must be the
/// factor over the chosen rows.
///
/// `keep_k` builds `K` in its own buffer and solves on a copy, so both `K`
/// and `V` survive the call (for extension); otherwise `K` is built where
/// `V` overwrites it and nothing is copied.
pub(crate) fn batch_predict_core(
    model: &GpModel,
    indices: Option<&[usize]>,
    chol: &Cholesky,
    queries: &[Vec<f64>],
    scratch: &mut PredictScratch,
    keep_k: bool,
) -> Result<()> {
    if let Some(q) = queries.iter().find(|q| q.len() != model.dim()) {
        return Err(GpError::DimensionMismatch {
            expected: model.dim(),
            found: q.len(),
        });
    }
    let (kernel, xs, alpha) = (model.kernel(), model.inputs(), model.alpha());
    let l = chol.dim();
    let m = queries.len();
    scratch.retained = None;
    scratch.means.clear();
    scratch.var.clear();
    if m == 0 {
        return Ok(());
    }
    let row_of = |r: usize| indices.map_or(r, |idx| idx[r]);

    // 1. Kernel matrix K (l x m): row r = training point r vs every sample,
    //    the samples gathered flat first (no pointer chase per entry).
    scratch.flat.clear();
    for d in 0..queries[0].len() {
        scratch.flat.extend(queries.iter().map(|q| q[d]));
    }
    let k = if keep_k {
        &mut scratch.k
    } else {
        &mut scratch.kv
    };
    k.clear();
    k.resize(l * m, 0.0);
    for (r, row) in k.chunks_exact_mut(m).enumerate() {
        kernel_row(kernel, &xs[row_of(r)], &scratch.flat, row);
    }

    // 2. Means: Kᵀ α.
    accumulate_means(k, (0..l).map(|r| alpha[row_of(r)]), m, &mut scratch.means);

    // 3. Variances: V = L⁻¹ K in place, then ‖v_c‖² accumulated row-by-row.
    if keep_k {
        scratch.kv.clear();
        scratch.kv.extend_from_slice(&scratch.k);
    }
    chol.solve_lower_in_place(&mut scratch.kv, m)?;
    scratch.sq.clear();
    scratch.sq.resize(m, -0.0); // same fold identity as `dot(v, v)`
    for row in scratch.kv.chunks_exact(m) {
        lanes::sq_accum(row, &mut scratch.sq);
    }
    scratch.finish(kernel, queries);
    Ok(())
}

/// `means = Kᵀ w` accumulated row-by-row (training index ascending — the
/// same reduction order as the scalar `dot(k, α)`). Accumulators start at
/// -0.0, the additive identity `Iterator::sum` folds floats from: a far
/// query whose kernel row underflows to zero against a negative weight sums
/// to -0.0 on the scalar path, and +0.0 + -0.0 = +0.0 would break
/// bit-identity exactly there.
fn accumulate_means(k: &[f64], weights: impl Iterator<Item = f64>, m: usize, means: &mut Vec<f64>) {
    means.clear();
    means.resize(m, -0.0);
    for (row, w) in k.chunks_exact(m).zip(weights) {
        lanes::axpy(w, row, means);
    }
}

/// How [`LocalPredictorCache::predict_tuning`] came by the subset factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorOrigin {
    /// The cached factor matched the selection and model state.
    CacheHit,
    /// A fresh `O(l³)` factorization (a cache miss).
    Built,
    /// The previous factor, `K` and `V` grown by one row — also a cache
    /// miss in [`LocalPredictorCache::stats`], as the rebuild it stands in
    /// for would have been.
    Extended,
}

/// One-entry cache of the last subset factorization, keyed by
/// `(model_id, epoch, indices)`.
///
/// Consecutive tuples whose sample boxes select the same training subset —
/// the common case on clustered or slowly-drifting inputs once the model
/// stops growing — reuse the `O(l³)` Cholesky factor instead of rebuilding
/// it. The `(model_id, epoch)` fingerprint makes a stale hit impossible:
/// any model mutation bumps the epoch, and distinct models never share an
/// id, so cross-model or post-update reuse misses by construction.
#[derive(Debug, Default, Clone)]
pub struct LocalPredictorCache {
    model_id: u64,
    epoch: u64,
    indices: Vec<usize>,
    chol: Option<Arc<Cholesky>>,
    /// The jitter `chol` was factored at.
    jitter: f64,
    hits: u64,
    misses: u64,
}

impl LocalPredictorCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return a predictor for `indices` on `model`, reusing the cached
    /// factor when the selection and model state match. The boolean is
    /// `true` on a cache hit.
    pub fn get_or_build<'m>(
        &mut self,
        model: &'m GpModel,
        indices: &[usize],
    ) -> Result<(LocalPredictor<'m>, bool)> {
        if let Some(chol) = &self.chol {
            if self.model_id == model.model_id()
                && self.epoch == model.epoch()
                && self.indices == indices
            {
                self.hits += 1;
                let chol = Arc::clone(chol);
                return Ok((
                    LocalPredictor::from_cached(model, indices.to_vec(), chol, self.jitter),
                    true,
                ));
            }
        }
        self.misses += 1;
        let lp = LocalPredictor::new(model, indices.to_vec())?;
        self.model_id = model.model_id();
        self.epoch = model.epoch();
        self.indices.clear();
        self.indices.extend_from_slice(indices);
        self.chol = Some(Arc::clone(lp.factor_arc()));
        self.jitter = lp.factor_jitter();
        Ok((lp, false))
    }

    /// Local inference for the online-tuning loop. Computes what
    /// [`get_or_build`](Self::get_or_build) followed by
    /// [`LocalPredictor::predict_batch_with`] computes — predictions, cache
    /// entry and `(hits, misses)`, bit for bit — and leaves the tuple's `K`
    /// and `V` in `scratch`, so that the *next* call can extend them (see
    /// the [module docs](self)) instead of rebuilding. It does when
    /// `indices` is the previous call's selection plus one new last index
    /// and, since that call,
    ///
    /// * the model only grew ([`GpModel::appended_since`]: same
    ///   hyperparameters, same jitter, same points at the old indices);
    /// * `scratch` served no other prediction, and the caller has not
    ///   called [`PredictScratch::start_tuning`] — which it must whenever
    ///   `queries` changes;
    /// * the old factor and the new row both succeed at the model's base
    ///   jitter (a from-scratch build escalates it for every row at once).
    ///
    /// Anything else is the full build.
    pub fn predict_tuning(
        &mut self,
        model: &GpModel,
        indices: &[usize],
        queries: &[Vec<f64>],
        scratch: &mut PredictScratch,
    ) -> Result<FactorOrigin> {
        let m = queries.len();
        let origin = if self.extend(model, indices, queries, scratch)? {
            scratch.finish(model.kernel(), queries);
            FactorOrigin::Extended
        } else {
            let (lp, hit) = self.get_or_build(model, indices)?;
            batch_predict_core(
                model,
                Some(indices),
                lp.factor_arc(),
                queries,
                scratch,
                true,
            )?;
            if hit {
                FactorOrigin::CacheHit
            } else {
                FactorOrigin::Built
            }
        };
        if m > 0 {
            scratch.retained = Some((self.model_id, self.epoch, indices.len(), m));
        }
        Ok(origin)
    }

    /// Grow the cached factor and the retained `K`, `V`, squared norms and
    /// means by the one point `indices` adds; `Ok(false)` — with nothing
    /// touched — when [`predict_tuning`](Self::predict_tuning)'s conditions
    /// do not hold.
    fn extend(
        &mut self,
        model: &GpModel,
        indices: &[usize],
        queries: &[Vec<f64>],
        scratch: &mut PredictScratch,
    ) -> Result<bool> {
        let (l, m) = (self.indices.len(), queries.len());
        let Some(chol) = &mut self.chol else {
            return Ok(false);
        };
        if self.model_id != model.model_id()
            || scratch.retained != Some((self.model_id, self.epoch, l, m))
            || !model.appended_since(self.epoch)
            || self.jitter != model.jitter()
            || indices.len() != l + 1
            || indices[..l] != self.indices[..]
        {
            return Ok(false);
        }
        let (kernel, xs, new) = (model.kernel(), model.inputs(), indices[l]);

        // L: the bordered matrix's last row, jittered the way
        // `factor_with_jitter` jitters the diagonal, through `factor`'s own
        // recurrence. A failed pivot means the full build would escalate.
        let mut a_row = vec![0.0; l + 1];
        kernel.eval_gather(&xs[new], xs, indices, &mut a_row);
        if self.jitter > 0.0 {
            a_row[l] += self.jitter;
        }
        if Arc::make_mut(chol).push_row(&a_row).is_err() {
            return Ok(false);
        }
        self.epoch = model.epoch();
        self.indices.push(new);
        self.misses += 1;

        // K and V: one new row each; ‖v_c‖² gains the new row's squares
        // (rows accumulate in ascending order, so last is where it belongs).
        scratch.retained = None;
        scratch.k.resize((l + 1) * m, 0.0);
        let row = &mut scratch.k[l * m..];
        kernel_row(kernel, &xs[new], &scratch.flat, row);
        scratch.kv.extend_from_slice(&scratch.k[l * m..]);
        chol.solve_lower_last_row(&mut scratch.kv, m)?;
        lanes::sq_accum(&scratch.kv[l * m..], &mut scratch.sq);

        // Means: every weight moved with the new point, the kernel rows did
        // not.
        let alpha = model.alpha();
        let weights = indices.iter().map(|&i| alpha[i]);
        accumulate_means(&scratch.k, weights, m, &mut scratch.means);
        Ok(true)
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;
    use crate::local::{select_local_with, SelectScratch};
    use udf_spatial::BoundingBox;

    fn model(n: usize) -> GpModel {
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, 0.6)), 1);
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.31]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 1.3).sin()).collect();
        m.fit(xs, ys).unwrap();
        m
    }

    #[test]
    fn global_batch_bit_identical_to_scalar() {
        let m = model(40);
        let queries: Vec<Vec<f64>> = (0..97).map(|i| vec![i as f64 * 0.13 - 1.0]).collect();
        let batch = m.predict_batch(&queries).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(&batch) {
            let s = m.predict(q).unwrap();
            assert_eq!(s.mean.to_bits(), b.mean.to_bits());
            assert_eq!(s.var.to_bits(), b.var.to_bits());
        }
    }

    #[test]
    fn local_batch_bit_identical_to_scalar() {
        let m = model(60);
        let qbox = BoundingBox::new(vec![2.0], vec![4.0]);
        let mut sel = SelectScratch::default();
        select_local_with(&m, &qbox, 1e-5, &mut sel).unwrap();
        let lp = LocalPredictor::new(&m, sel.selected).unwrap();
        let queries: Vec<Vec<f64>> = (0..64).map(|i| vec![2.0 + i as f64 * 2.0 / 63.0]).collect();
        let batch = lp.predict_batch(&queries).unwrap();
        for (q, b) in queries.iter().zip(&batch) {
            let s = lp.predict(q).unwrap();
            assert_eq!(s.mean.to_bits(), b.mean.to_bits());
            assert_eq!(s.var.to_bits(), b.var.to_bits());
        }
    }

    #[test]
    fn flat_rows_and_hoisted_prior_match_eval_bitwise() {
        use crate::kernel::{Matern32, Matern52};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut rng = StdRng::seed_from_u64(0xF1A7);
        for case in 0..60 {
            let dim = 1 + case % 3;
            let (sf, len) = (0.3 + 2.0 * rng.gen::<f64>(), 0.2 + 2.0 * rng.gen::<f64>());
            let kernels: Vec<Box<dyn Kernel>> = vec![
                Box::new(SquaredExponential::new(sf, len)),
                Box::new(SquaredExponential::new(sf, len * dim as f64)),
                Box::new(Matern32::new(sf, len)),
                Box::new(Matern52::new(sf, len)),
            ];
            let point = |rng: &mut StdRng| -> Vec<f64> {
                (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect()
            };
            let xs: Vec<Vec<f64>> = (0..6).map(|_| point(&mut rng)).collect();
            // Ordinary queries, then: a training point itself, signed
            // zeros, a far query (the kernel underflows), one whose squared
            // distance overflows, and — last — a non-finite one.
            let mut queries: Vec<Vec<f64>> = (0..21).map(|_| point(&mut rng)).collect();
            queries.push(xs[2].clone());
            queries.push(vec![0.0; dim]);
            queries.push(vec![-0.0; dim]);
            queries.push(vec![1e3; dim]);
            queries.push(vec![-1e200; dim]);
            queries.push(vec![f64::INFINITY; dim]);
            let finite = queries.len() - 1;
            let m = queries.len();
            let flat: Vec<f64> = (0..dim)
                .flat_map(|d| queries.iter().map(move |q| q[d]))
                .collect();

            for kernel in kernels {
                // Rows: distance pass + kernel map ≡ `eval` per entry.
                let mut row = vec![f64::NAN; m];
                for x in &xs {
                    kernel_row(kernel.as_ref(), x, &flat, &mut row);
                    for (q, &k) in queries.iter().zip(&row) {
                        assert!(same(k, kernel.eval(x, q)), "{kernel:?}: k({x:?}, {q:?})");
                    }
                }
                // Prior variance: the map at ‖q − q‖² ≡ `eval(q, q)` for
                // every finite q.
                let mut prior = [sq_dist(&queries[0], &queries[0])];
                kernel.eval_sq_dists(&mut prior);
                for q in &queries[..finite] {
                    let kqq = kernel.eval(q, q);
                    assert!(same(prior[0], kqq), "{kernel:?}: k(q, q) at {q:?}");
                }
                // End to end, hoisted (finite batch) and not (with the
                // infinite query): batch ≡ scalar, global and local.
                let mut model = GpModel::new(kernel, dim);
                let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 1.3).sin()).collect();
                model.fit(xs.clone(), ys).unwrap();
                let local = LocalPredictor::new(&model, vec![1, 3, 4]).unwrap();
                for qs in [&queries[..finite], &queries[..]] {
                    let global = model.predict_batch(qs).unwrap();
                    let subset = local.predict_batch(qs).unwrap();
                    for ((q, g), l) in qs.iter().zip(&global).zip(&subset) {
                        let (sg, sl) = (model.predict(q).unwrap(), local.predict(q).unwrap());
                        assert!(
                            same(g.mean, sg.mean) && same(g.var, sg.var),
                            "global at {q:?}"
                        );
                        assert!(
                            same(l.mean, sl.mean) && same(l.var, sl.var),
                            "local at {q:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn contiguous_blocks_predict_what_one_call_does_bitwise() {
        // What ruling a tuple block by block rests on: reductions run over
        // training rows, so splitting the samples changes no sample's bits —
        // at any split, local or global, through one reused scratch.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB10C);
        let mut reused = PredictScratch::default();
        let mut blocks = 0;
        for case in 0..80 {
            let dim = 1 + case % 2;
            let point = |rng: &mut StdRng| -> Vec<f64> {
                (0..dim).map(|_| rng.gen_range(0.0..6.0)).collect()
            };
            let mut m = GpModel::new(
                Box::new(SquaredExponential::new(
                    0.5 + rng.gen::<f64>(),
                    0.4 + rng.gen::<f64>(),
                )),
                dim,
            );
            let xs: Vec<Vec<f64>> = (0..rng.gen_range(2..20)).map(|_| point(&mut rng)).collect();
            let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 1.3).sin()).collect();
            m.fit(xs, ys).unwrap();
            let subset: Vec<usize> = (0..m.len()).step_by(1 + case % 3).collect();
            let local = LocalPredictor::new(&m, subset).unwrap();
            let queries: Vec<Vec<f64>> = (0..rng.gen_range(1..300))
                .map(|_| point(&mut rng))
                .collect();
            type Predict<'p> = &'p dyn Fn(&[Vec<f64>], &mut PredictScratch) -> Result<()>;
            let global: Predict = &|qs, s| m.predict_batch_scratch(qs, s);
            let subset: Predict = &|qs, s| local.predict_batch_scratch(qs, s);
            for predict in [global, subset] {
                let mut whole = PredictScratch::default();
                predict(&queries, &mut whole).unwrap();
                let (mut means, mut vars) = (Vec::new(), Vec::new());
                let mut start = 0;
                while start < queries.len() {
                    let end = (start + rng.gen_range(1..=70usize)).min(queries.len());
                    predict(&queries[start..end], &mut reused).unwrap();
                    means.extend_from_slice(reused.means());
                    vars.extend_from_slice(reused.variances());
                    (start, blocks) = (end, blocks + 1);
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&means), bits(whole.means()), "case {case}: means");
                assert_eq!(
                    bits(&vars),
                    bits(whole.variances()),
                    "case {case}: variances"
                );
            }
        }
        assert!(blocks > 500, "{blocks}");
    }

    #[test]
    fn empty_query_batch_is_empty() {
        let m = model(8);
        assert!(m.predict_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn cache_hits_on_repeat_and_invalidates_on_mutation() {
        let m0 = model(30);
        let indices: Vec<usize> = (5..20).collect();
        let other: Vec<usize> = (0..12).collect();
        let mut cache = LocalPredictorCache::new();

        let (_, hit) = cache.get_or_build(&m0, &indices).unwrap();
        assert!(!hit);
        let (lp, hit) = cache.get_or_build(&m0, &indices).unwrap();
        assert!(hit, "same model+selection must hit");
        // A hit must produce the same factor bit-for-bit.
        let fresh = LocalPredictor::new(&m0, indices.clone()).unwrap();
        for (a, b) in lp
            .factor_arc()
            .lower()
            .as_slice()
            .iter()
            .zip(fresh.factor_arc().lower().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Different selection misses.
        let (_, hit) = cache.get_or_build(&m0, &other).unwrap();
        assert!(!hit);

        // Model mutation bumps the epoch and invalidates.
        let mut m1 = model(30);
        let (_, hit) = cache.get_or_build(&m1, &other).unwrap();
        assert!(!hit, "different model id must miss");
        let (_, hit) = cache.get_or_build(&m1, &other).unwrap();
        assert!(hit);
        m1.add_point(vec![50.0], 0.3).unwrap();
        let (_, hit) = cache.get_or_build(&m1, &other).unwrap();
        assert!(!hit, "mutated model must miss");
        assert_eq!(cache.stats(), (2, 4));
    }

    /// What happens to the model (and the selection) between two tuning
    /// inferences of one tuple.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Step {
        /// A new point, selected: the one case that may extend.
        Append,
        /// A new point a hair from a selected one (may fail the pivot).
        AppendNearDuplicate,
        /// A new point, selected, but an old index dropped.
        AppendAndDrop,
        /// A new point, selected, two old indices swapped.
        AppendAndReorder,
        /// A new point, selected — after a hyperparameter change.
        Retrain,
        /// The model refit without its oldest point: every index renumbered.
        Refit,
        /// A new point, selected, but the caller moved to other queries.
        NewQueries,
        /// A new point, selected, after the scratch served another model.
        ForeignUse,
    }

    #[test]
    fn extension_matches_the_full_build_bitwise_over_random_sequences() {
        use crate::kernel::Matern32;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut extended_after: BTreeMap<String, u32> = BTreeMap::new();
        let mut escalated = 0;
        for case in 0..300 {
            let dim = 1 + case % 2;
            let kernel: Box<dyn Kernel> = if case % 5 == 4 {
                Box::new(Matern32::new(1.3, 0.9))
            } else {
                Box::new(SquaredExponential::new(
                    0.5 + rng.gen::<f64>(),
                    0.4 + rng.gen::<f64>(),
                ))
            };
            let point = |rng: &mut StdRng| -> Vec<f64> {
                (0..dim).map(|_| rng.gen_range(0.0..6.0)).collect()
            };
            let mut m = GpModel::new(kernel, dim);
            // A third of the cases run without jitter, so a near-duplicate
            // really does fail the pivot and force an escalation.
            if case % 3 == 0 {
                m = m.with_jitter(0.0).unwrap();
            }
            let n0 = rng.gen_range(3..14);
            let xs: Vec<Vec<f64>> = (0..n0).map(|_| point(&mut rng)).collect();
            let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 1.3).sin()).collect();
            m.fit(xs, ys).unwrap();
            // Sample counts straddle the 4-lane and 64-column panel edges.
            let mut queries: Vec<Vec<f64>> = (0..rng.gen_range(1..140))
                .map(|_| point(&mut rng))
                .collect();
            let mut sel: Vec<usize> = (0..m.len()).filter(|_| rng.gen_bool(0.7)).collect();
            if sel.is_empty() {
                sel.push(0);
            }

            let (mut tuned, mut plain) = (LocalPredictorCache::new(), LocalPredictorCache::new());
            let (mut ts, mut ps) = (PredictScratch::default(), PredictScratch::default());
            let (mut got, mut want) = (Vec::new(), Vec::new());
            ts.start_tuning(sel.len() + 12, queries.len());
            let mut step = None;
            for _ in 0..rng.gen_range(2..12) {
                let origin = tuned.predict_tuning(&m, &sel, &queries, &mut ts).unwrap();
                ts.emit(&mut got);
                let (lp, _) = plain.get_or_build(&m, &sel).unwrap();
                lp.predict_batch_with(&queries, &mut ps, &mut want).unwrap();
                let what = format!("case {case} after {step:?}: {origin:?}");
                assert_eq!(got.len(), want.len(), "{what}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.mean.to_bits(), w.mean.to_bits(), "{what}: mean");
                    assert_eq!(g.var.to_bits(), w.var.to_bits(), "{what}: variance");
                }
                let (a, b) = (tuned.chol.as_ref().unwrap(), lp.factor_arc());
                assert_eq!(a.dim(), b.dim(), "{what}");
                for (x, y) in a.lower().as_slice().iter().zip(b.lower().as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{what}: factor");
                }
                assert_eq!(tuned.stats(), plain.stats(), "{what}: (hits, misses)");
                assert_eq!(tuned.indices, sel, "{what}: cached selection");
                assert_eq!(tuned.epoch, m.epoch(), "{what}: cached epoch");
                if lp.factor_jitter() != m.jitter() {
                    escalated += 1;
                    assert_ne!(origin, FactorOrigin::Extended, "{what}: escalated jitter");
                }
                if origin == FactorOrigin::Extended {
                    *extended_after
                        .entry(format!("{:?}", step.unwrap()))
                        .or_default() += 1;
                }

                // Mutate the model and derive the next selection.
                let next = match rng.gen_range(0..16) {
                    0 => Step::AppendNearDuplicate,
                    1 if sel.len() > 1 => Step::AppendAndDrop,
                    2 if sel.len() > 1 => Step::AppendAndReorder,
                    3 => Step::Retrain,
                    4 => Step::Refit,
                    5 => Step::NewQueries,
                    6 => Step::ForeignUse,
                    _ => Step::Append,
                };
                match next {
                    Step::Refit => {
                        let (xs, ys) = (m.inputs()[1..].to_vec(), m.targets()[1..].to_vec());
                        m.fit(xs, ys).unwrap();
                        sel = (0..m.len()).filter(|_| rng.gen_bool(0.7)).collect();
                        if sel.is_empty() {
                            sel.push(0);
                        }
                    }
                    _ => {
                        let mut x = point(&mut rng);
                        if next == Step::AppendNearDuplicate {
                            x.clone_from(&m.inputs()[sel[0]]);
                            x[0] += 1e-13;
                        }
                        if next == Step::Retrain {
                            let mut theta = m.kernel().params();
                            theta[1] += 0.05;
                            m.set_hyperparams(&theta).unwrap();
                        }
                        let y = (x[0] * 1.3).sin();
                        m.add_point(x, y).unwrap();
                        sel.push(m.len() - 1);
                    }
                }
                match next {
                    Step::AppendAndDrop => {
                        sel.remove(rng.gen_range(0..sel.len() - 1));
                    }
                    Step::AppendAndReorder => sel.swap(0, 1),
                    Step::NewQueries => {
                        queries = (0..queries.len()).map(|_| point(&mut rng)).collect();
                        ts.start_tuning(sel.len() + 12, queries.len());
                    }
                    Step::ForeignUse => {
                        let other = model(6);
                        let probe = vec![vec![0.5]; queries.len()];
                        other.predict_batch_with(&probe, &mut ts, &mut got).unwrap();
                    }
                    _ => {}
                }
                step = Some(next);
            }
        }
        // Plain appends extend (unless the pivot fails); nothing else does.
        let kinds: Vec<&str> = extended_after.keys().map(String::as_str).collect();
        assert!(
            kinds.iter().all(|k| k.starts_with("Append")),
            "extended after {kinds:?}"
        );
        assert!(
            !kinds.contains(&"AppendAndDrop") && !kinds.contains(&"AppendAndReorder"),
            "extended after {kinds:?}"
        );
        assert!(extended_after["Append"] > 500, "{extended_after:?}");
        assert!(escalated > 10, "jitter escalation exercised {escalated}×");
    }

    #[test]
    fn epoch_tracks_all_mutations() {
        let mut m = model(10);
        let e0 = m.epoch();
        m.add_point(vec![9.9], 0.1).unwrap();
        let e1 = m.epoch();
        assert!(e1 > e0);
        let (xs, ys) = (m.inputs()[1..].to_vec(), m.targets()[1..].to_vec());
        m.fit(xs, ys).unwrap();
        let e2 = m.epoch();
        assert!(e2 > e1);
        let theta = m.kernel().params();
        m.set_hyperparams(&theta).unwrap();
        assert!(m.epoch() > e2);
        // Distinct models never share an id.
        assert_ne!(model(3).model_id(), model(3).model_id());
    }

    #[test]
    fn half_value_distance_cached_and_invalidated() {
        let mut m = model(10);
        let d0 = m.half_value_distance().unwrap();
        assert_eq!(
            d0.to_bits(),
            m.half_value_distance().unwrap().to_bits(),
            "cached value must be stable"
        );
        // Doubling the lengthscale doubles the half-value distance.
        let mut theta = m.kernel().params();
        theta[1] += std::f64::consts::LN_2; // params are log-scale
        m.set_hyperparams(&theta).unwrap();
        let d1 = m.half_value_distance().unwrap();
        assert!(
            (d1 / d0 - 2.0).abs() < 1e-9,
            "expected ~2x after doubling lengthscale, got {}",
            d1 / d0
        );
    }
}
