//! Covariance functions.
//!
//! Hyperparameters are exposed in **log space** (`θ_j = log p_j`): MLE over
//! log-parameters keeps them positive without constrained optimization and
//! matches the paper's gradient/Newton machinery (§3.4, §5.3).
//!
//! The paper works with the squared-exponential kernel
//! `k(x, x') = σ_f² exp(−‖x−x'‖² / (2ℓ²))` and notes that Matérn kernels
//! suit rougher functions (§3.2); all are provided.

/// A positive-definite covariance function with log-space hyperparameters.
pub trait Kernel: Send + Sync + std::fmt::Debug {
    /// Covariance `k(a, b)`. Must be symmetric *to the bit* —
    /// `eval(a, b) == eval(b, a)` — which every kernel here gets from
    /// depending on its arguments only through `(a_i − b_i)²`: covariance
    /// matrices are built from one triangle and mirrored, and the row
    /// builders below put whichever argument is shared first.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64;

    /// Number of hyperparameters.
    fn n_params(&self) -> usize;

    /// Current log-hyperparameters `θ`.
    fn params(&self) -> Vec<f64>;

    /// Replace the log-hyperparameters.
    ///
    /// # Panics
    /// Panics if `theta.len() != n_params()` (caller bug).
    fn set_params(&mut self, theta: &[f64]);

    /// Gradient `∂k(a, b)/∂θ_j` for every hyperparameter.
    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64>;

    /// Second derivatives `∂²k(a, b)/∂θ_j²` (diagonal of the Hessian),
    /// needed by the Newton retraining heuristic (§5.3).
    fn second_deriv(&self, a: &[f64], b: &[f64]) -> Vec<f64>;

    /// Map squared distances to covariances — the in-place sibling of
    /// [`eval_dist_many`](Kernel::eval_dist_many). On entry
    /// `d2[c] = ‖a_c − b_c‖²`, the squared differences summed in dimension
    /// order from `-0.0` (`Iterator::sum`'s fold); on return
    /// `d2[c] = eval(a_c, b_c)` **bit for bit**: hyperparameter transforms
    /// hoisted (`exp` of the same input is deterministic), the per-entry
    /// arithmetic exactly `eval`'s. Returns `false`, `d2` untouched, for a
    /// kernel that is not a function of the squared distance alone (ARD, and
    /// this default). Every blocked row builder is one distance pass, then
    /// this map: one virtual call per row, each kernel's expression once.
    fn eval_sq_dists(&self, _d2: &mut [f64]) -> bool {
        false
    }

    /// Evaluate `k(x, q)` for every `q` in `qs` into `out` (same length),
    /// bitwise identical to calling [`Kernel::eval`] per point.
    ///
    /// # Panics
    /// Panics if `out.len() != qs.len()` (caller bug).
    fn eval_row(&self, x: &[f64], qs: &[Vec<f64>], out: &mut [f64]) {
        assert_eq!(out.len(), qs.len(), "eval_row: wrong output length");
        eval_points(self, x, qs.iter(), out);
    }

    /// [`eval_row`](Kernel::eval_row) against a gathered subset:
    /// `out[c] = k(x, xs[idx[c]])`, bitwise identical to calling
    /// [`Kernel::eval`] per entry. Builds subset covariance rows without
    /// copying the points out.
    ///
    /// # Panics
    /// Panics if `out.len() != idx.len()` or an index is out of range
    /// (caller bug).
    fn eval_gather(&self, x: &[f64], xs: &[Vec<f64>], idx: &[usize], out: &mut [f64]) {
        assert_eq!(out.len(), idx.len(), "eval_gather: wrong output length");
        eval_points(self, x, idx.iter().map(|&i| &xs[i]), out);
    }

    /// [`Kernel::grad`] of `x` against every `q` in `qs`, parameter-major:
    /// `out[j * qs.len() + c] = grad(x, qs[c])[j]`, bitwise identical to the
    /// scalar calls. Overrides hoist the hyperparameter transforms and
    /// allocate nothing per entry — training walks all n² pairs per
    /// likelihood gradient, so the per-entry `Vec` and repeated `exp`s of
    /// the scalar form dominate it.
    ///
    /// # Panics
    /// Panics if `out.len() != n_params() * qs.len()` (caller bug).
    fn grad_row(&self, x: &[f64], qs: &[Vec<f64>], out: &mut [f64]) {
        let m = qs.len();
        assert_eq!(out.len(), self.n_params() * m, "grad_row: wrong length");
        for (c, q) in qs.iter().enumerate() {
            for (j, g) in self.grad(x, q).into_iter().enumerate() {
                out[j * m + c] = g;
            }
        }
    }

    /// [`Kernel::second_deriv`] in the layout and under the contract of
    /// [`grad_row`](Kernel::grad_row).
    ///
    /// # Panics
    /// Panics if `out.len() != n_params() * qs.len()` (caller bug).
    fn second_deriv_row(&self, x: &[f64], qs: &[Vec<f64>], out: &mut [f64]) {
        let m = qs.len();
        assert_eq!(
            out.len(),
            self.n_params() * m,
            "second_deriv_row: wrong length"
        );
        for (c, q) in qs.iter().enumerate() {
            for (j, h) in self.second_deriv(x, q).into_iter().enumerate() {
                out[j * m + c] = h;
            }
        }
    }

    /// For isotropic kernels: `k` as a function of Euclidean distance `r`.
    /// `None` for non-isotropic kernels (e.g. ARD); local inference's
    /// near/far-corner bound requires isotropy.
    fn eval_dist(&self, r: f64) -> Option<f64>;

    /// Bulk [`Kernel::eval_dist`]: `out[i] = eval_dist(rs[i])` for every
    /// `i`, bitwise identical to the scalar calls. Returns `false` (with
    /// `out` unspecified) for non-isotropic kernels.
    ///
    /// # Panics
    /// Panics if `out.len() != rs.len()` (caller bug).
    fn eval_dist_many(&self, rs: &[f64], out: &mut [f64]) -> bool {
        assert_eq!(out.len(), rs.len(), "eval_dist_many: wrong output length");
        for (o, &r) in out.iter_mut().zip(rs) {
            match self.eval_dist(r) {
                Some(v) => *o = v,
                None => return false,
            }
        }
        true
    }

    /// Second spectral moment `λ₂` per input dimension of the associated
    /// stationary field (`λ₂ = −k''(0)/k(0)` for isotropic kernels),
    /// used by the Euler-characteristic confidence band (§4.2).
    fn spectral_moment(&self) -> Vec<f64>;

    /// Signal variance `σ_f²` (the prior variance at a point).
    fn signal_variance(&self) -> f64;

    /// Clone into a boxed trait object.
    fn clone_box(&self) -> Box<dyn Kernel>;
}

impl Clone for Box<dyn Kernel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// `‖a − b‖²`: the squared differences summed in dimension order from
/// `-0.0`, `Iterator::sum`'s fold identity.
pub(crate) fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// `out[c] = k(x, points[c])`: one [`sq_dist`] pass, then the kernel's map over
/// the row — or `eval` per entry for a kernel that has none.
fn eval_points<'a, K: Kernel + ?Sized>(
    kernel: &K,
    x: &[f64],
    points: impl Iterator<Item = &'a Vec<f64>> + Clone,
    out: &mut [f64],
) {
    for (o, p) in out.iter_mut().zip(points.clone()) {
        *o = sq_dist(x, p);
    }
    if !kernel.eval_sq_dists(out) {
        for (o, p) in out.iter_mut().zip(points) {
            *o = kernel.eval(x, p);
        }
    }
}

/// [`sq_dist`] of `x` against `out.len()` points stored one dimension after
/// the other (`flat[d * m + c]` is coordinate `d` of point `c`): the same
/// additions in the same order per point, over contiguous memory.
pub(crate) fn sq_dists_flat(x: &[f64], flat: &[f64], out: &mut [f64]) {
    debug_assert_eq!(flat.len(), x.len() * out.len());
    out.fill(-0.0);
    for (xd, coords) in x.iter().zip(flat.chunks_exact(out.len().max(1))) {
        for (o, q) in out.iter_mut().zip(coords) {
            *o += (xd - q) * (xd - q);
        }
    }
}

/// Isotropic squared-exponential kernel
/// `k(a, b) = σ_f² exp(−‖a−b‖²/(2ℓ²))` — the paper's default (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct SquaredExponential {
    /// log σ_f
    log_sigma_f: f64,
    /// log ℓ
    log_len: f64,
}

impl SquaredExponential {
    /// Create with natural-scale parameters.
    ///
    /// # Panics
    /// Panics when parameters are not positive (caller bug — configs are
    /// validated upstream).
    pub fn new(sigma_f: f64, lengthscale: f64) -> Self {
        assert!(
            sigma_f > 0.0 && lengthscale > 0.0,
            "parameters must be positive"
        );
        SquaredExponential {
            log_sigma_f: sigma_f.ln(),
            log_len: lengthscale.ln(),
        }
    }

    /// Current lengthscale ℓ.
    pub fn lengthscale(&self) -> f64 {
        self.log_len.exp()
    }

    /// Current signal standard deviation σ_f.
    pub fn sigma_f(&self) -> f64 {
        self.log_sigma_f.exp()
    }
}

impl Kernel for SquaredExponential {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let l2 = (2.0 * self.log_len).exp();
        (2.0 * self.log_sigma_f).exp() * (-0.5 * sq_dist(a, b) / l2).exp()
    }

    fn eval_sq_dists(&self, d2: &mut [f64]) -> bool {
        let l2 = (2.0 * self.log_len).exp();
        let sf2 = (2.0 * self.log_sigma_f).exp();
        for d in d2 {
            *d = sf2 * (-0.5 * *d / l2).exp();
        }
        true
    }

    fn grad_row(&self, x: &[f64], qs: &[Vec<f64>], out: &mut [f64]) {
        let m = qs.len();
        assert_eq!(out.len(), 2 * m, "grad_row: wrong length");
        // `grad` with the transforms hoisted: one `exp` per entry, not four.
        let l2 = (2.0 * self.log_len).exp();
        let sf2 = (2.0 * self.log_sigma_f).exp();
        let (d_sigma, d_len) = out.split_at_mut(m);
        for ((gs, gl), q) in d_sigma.iter_mut().zip(d_len).zip(qs) {
            let k = sf2 * (-0.5 * sq_dist(x, q) / l2).exp();
            let u = sq_dist(x, q) / l2;
            *gs = 2.0 * k;
            *gl = k * u;
        }
    }

    fn second_deriv_row(&self, x: &[f64], qs: &[Vec<f64>], out: &mut [f64]) {
        let m = qs.len();
        assert_eq!(out.len(), 2 * m, "second_deriv_row: wrong length");
        let l2 = (2.0 * self.log_len).exp();
        let sf2 = (2.0 * self.log_sigma_f).exp();
        let (d_sigma, d_len) = out.split_at_mut(m);
        for ((hs, hl), q) in d_sigma.iter_mut().zip(d_len).zip(qs) {
            let k = sf2 * (-0.5 * sq_dist(x, q) / l2).exp();
            let u = sq_dist(x, q) / l2;
            *hs = 4.0 * k;
            *hl = k * (u * u - 2.0 * u);
        }
    }

    fn n_params(&self) -> usize {
        2
    }

    fn params(&self) -> Vec<f64> {
        vec![self.log_sigma_f, self.log_len]
    }

    fn set_params(&mut self, theta: &[f64]) {
        assert_eq!(theta.len(), 2, "SquaredExponential has 2 hyperparameters");
        self.log_sigma_f = theta[0];
        self.log_len = theta[1];
    }

    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let k = self.eval(a, b);
        let l2 = (2.0 * self.log_len).exp();
        let u = sq_dist(a, b) / l2; // r²/ℓ²
        vec![2.0 * k, k * u]
    }

    fn second_deriv(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let k = self.eval(a, b);
        let l2 = (2.0 * self.log_len).exp();
        let u = sq_dist(a, b) / l2;
        // ∂²k/∂(log σf)² = 4k; ∂²k/∂(log ℓ)² = k(u² − 2u).
        vec![4.0 * k, k * (u * u - 2.0 * u)]
    }

    fn eval_dist(&self, r: f64) -> Option<f64> {
        let l2 = (2.0 * self.log_len).exp();
        Some((2.0 * self.log_sigma_f).exp() * (-0.5 * r * r / l2).exp())
    }

    fn eval_dist_many(&self, rs: &[f64], out: &mut [f64]) -> bool {
        assert_eq!(out.len(), rs.len(), "eval_dist_many: wrong output length");
        // `eval_dist` with the transforms hoisted; bit-identical per entry.
        let l2 = (2.0 * self.log_len).exp();
        let sf2 = (2.0 * self.log_sigma_f).exp();
        for (o, &r) in out.iter_mut().zip(rs) {
            *o = sf2 * (-0.5 * r * r / l2).exp();
        }
        true
    }

    fn spectral_moment(&self) -> Vec<f64> {
        // λ₂ = 1/ℓ² for the SE kernel (per dimension; isotropic).
        vec![(-2.0 * self.log_len).exp()]
    }

    fn signal_variance(&self) -> f64 {
        (2.0 * self.log_sigma_f).exp()
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

/// Squared-exponential kernel with per-dimension (ARD) lengthscales:
/// `k(a, b) = σ_f² exp(−½ Σ_i (a_i−b_i)²/ℓ_i²)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SquaredExponentialArd {
    log_sigma_f: f64,
    log_lens: Vec<f64>,
}

impl SquaredExponentialArd {
    /// Create with natural-scale parameters.
    ///
    /// # Panics
    /// Panics when any parameter is non-positive or no lengthscales given.
    pub fn new(sigma_f: f64, lengthscales: &[f64]) -> Self {
        assert!(sigma_f > 0.0, "sigma_f must be positive");
        assert!(
            !lengthscales.is_empty() && lengthscales.iter().all(|l| *l > 0.0),
            "lengthscales must be positive and non-empty"
        );
        SquaredExponentialArd {
            log_sigma_f: sigma_f.ln(),
            log_lens: lengthscales.iter().map(|l| l.ln()).collect(),
        }
    }

    fn weighted_sq_dist(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.log_lens.len());
        a.iter()
            .zip(b)
            .zip(&self.log_lens)
            .map(|((x, y), ll)| {
                let d = x - y;
                d * d * (-2.0 * ll).exp()
            })
            .sum()
    }
}

impl Kernel for SquaredExponentialArd {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        (2.0 * self.log_sigma_f).exp() * (-0.5 * self.weighted_sq_dist(a, b)).exp()
    }

    fn n_params(&self) -> usize {
        1 + self.log_lens.len()
    }

    fn params(&self) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.n_params());
        p.push(self.log_sigma_f);
        p.extend_from_slice(&self.log_lens);
        p
    }

    fn set_params(&mut self, theta: &[f64]) {
        assert_eq!(theta.len(), self.n_params(), "wrong hyperparameter count");
        self.log_sigma_f = theta[0];
        self.log_lens.copy_from_slice(&theta[1..]);
    }

    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let k = self.eval(a, b);
        let mut g = Vec::with_capacity(self.n_params());
        g.push(2.0 * k);
        for (i, ll) in self.log_lens.iter().enumerate() {
            let d = a[i] - b[i];
            g.push(k * d * d * (-2.0 * ll).exp());
        }
        g
    }

    fn second_deriv(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let k = self.eval(a, b);
        let mut h = Vec::with_capacity(self.n_params());
        h.push(4.0 * k);
        for (i, ll) in self.log_lens.iter().enumerate() {
            let d = a[i] - b[i];
            let u = d * d * (-2.0 * ll).exp();
            h.push(k * (u * u - 2.0 * u));
        }
        h
    }

    fn eval_dist(&self, _r: f64) -> Option<f64> {
        None // not isotropic
    }

    fn spectral_moment(&self) -> Vec<f64> {
        self.log_lens.iter().map(|ll| (-2.0 * ll).exp()).collect()
    }

    fn signal_variance(&self) -> f64 {
        (2.0 * self.log_sigma_f).exp()
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

/// Matérn ν = 3/2 kernel: `k = σ_f² (1 + s) e^{−s}`, `s = √3 r / ℓ` —
/// for once-differentiable sample paths (§3.2's "less smooth" option).
#[derive(Debug, Clone, PartialEq)]
pub struct Matern32 {
    log_sigma_f: f64,
    log_len: f64,
}

impl Matern32 {
    /// Create with natural-scale parameters.
    ///
    /// # Panics
    /// Panics when parameters are not positive.
    pub fn new(sigma_f: f64, lengthscale: f64) -> Self {
        assert!(
            sigma_f > 0.0 && lengthscale > 0.0,
            "parameters must be positive"
        );
        Matern32 {
            log_sigma_f: sigma_f.ln(),
            log_len: lengthscale.ln(),
        }
    }

    /// [`Kernel::eval_dist`] over `rs` in place, the hyperparameter
    /// transforms hoisted; bit-identical per entry.
    fn map_dists(&self, rs: &mut [f64]) {
        let len = self.log_len.exp();
        let sf2 = (2.0 * self.log_sigma_f).exp();
        for r in rs {
            let s = 3.0f64.sqrt() * *r / len;
            *r = sf2 * (1.0 + s) * (-s).exp();
        }
    }
}

impl Kernel for Matern32 {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_dist(sq_dist(a, b).sqrt()).expect("isotropic")
    }

    fn n_params(&self) -> usize {
        2
    }

    fn params(&self) -> Vec<f64> {
        vec![self.log_sigma_f, self.log_len]
    }

    fn set_params(&mut self, theta: &[f64]) {
        assert_eq!(theta.len(), 2, "Matern32 has 2 hyperparameters");
        self.log_sigma_f = theta[0];
        self.log_len = theta[1];
    }

    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let sf2 = (2.0 * self.log_sigma_f).exp();
        let s = 3.0f64.sqrt() * sq_dist(a, b).sqrt() / self.log_len.exp();
        let e = (-s).exp();
        // ∂k/∂logσf = 2k; ∂k/∂logℓ = σ² s² e^{−s}.
        vec![2.0 * sf2 * (1.0 + s) * e, sf2 * s * s * e]
    }

    fn second_deriv(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let sf2 = (2.0 * self.log_sigma_f).exp();
        let s = 3.0f64.sqrt() * sq_dist(a, b).sqrt() / self.log_len.exp();
        let e = (-s).exp();
        // ∂²k/∂(logσf)² = 4k; ∂²k/∂(logℓ)² = σ² (s³ − 2s²) e^{−s}.
        vec![
            4.0 * sf2 * (1.0 + s) * e,
            sf2 * (s * s * s - 2.0 * s * s) * e,
        ]
    }

    fn eval_dist(&self, r: f64) -> Option<f64> {
        let s = 3.0f64.sqrt() * r / self.log_len.exp();
        Some((2.0 * self.log_sigma_f).exp() * (1.0 + s) * (-s).exp())
    }

    fn eval_dist_many(&self, rs: &[f64], out: &mut [f64]) -> bool {
        assert_eq!(out.len(), rs.len(), "eval_dist_many: wrong output length");
        out.copy_from_slice(rs);
        self.map_dists(out);
        true
    }

    fn eval_sq_dists(&self, d2: &mut [f64]) -> bool {
        d2.iter_mut().for_each(|d| *d = d.sqrt()); // `eval` is `eval_dist` of the root
        self.map_dists(d2);
        true
    }

    fn spectral_moment(&self) -> Vec<f64> {
        // λ₂ = 3/ℓ².
        vec![3.0 * (-2.0 * self.log_len).exp()]
    }

    fn signal_variance(&self) -> f64 {
        (2.0 * self.log_sigma_f).exp()
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

/// Matérn ν = 5/2 kernel: `k = σ_f² (1 + s + s²/3) e^{−s}`, `s = √5 r / ℓ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matern52 {
    log_sigma_f: f64,
    log_len: f64,
}

impl Matern52 {
    /// Create with natural-scale parameters.
    ///
    /// # Panics
    /// Panics when parameters are not positive.
    pub fn new(sigma_f: f64, lengthscale: f64) -> Self {
        assert!(
            sigma_f > 0.0 && lengthscale > 0.0,
            "parameters must be positive"
        );
        Matern52 {
            log_sigma_f: sigma_f.ln(),
            log_len: lengthscale.ln(),
        }
    }

    /// [`Kernel::eval_dist`] over `rs` in place, the hyperparameter
    /// transforms hoisted; bit-identical per entry.
    fn map_dists(&self, rs: &mut [f64]) {
        let len = self.log_len.exp();
        let sf2 = (2.0 * self.log_sigma_f).exp();
        for r in rs {
            let s = 5.0f64.sqrt() * *r / len;
            *r = sf2 * (1.0 + s + s * s / 3.0) * (-s).exp();
        }
    }
}

impl Kernel for Matern52 {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_dist(sq_dist(a, b).sqrt()).expect("isotropic")
    }

    fn n_params(&self) -> usize {
        2
    }

    fn params(&self) -> Vec<f64> {
        vec![self.log_sigma_f, self.log_len]
    }

    fn set_params(&mut self, theta: &[f64]) {
        assert_eq!(theta.len(), 2, "Matern52 has 2 hyperparameters");
        self.log_sigma_f = theta[0];
        self.log_len = theta[1];
    }

    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let sf2 = (2.0 * self.log_sigma_f).exp();
        let s = 5.0f64.sqrt() * sq_dist(a, b).sqrt() / self.log_len.exp();
        let e = (-s).exp();
        let k = sf2 * (1.0 + s + s * s / 3.0) * e;
        // ∂k/∂logℓ = σ² (s²/3)(1+s) e^{−s}.
        vec![2.0 * k, sf2 * (s * s / 3.0) * (1.0 + s) * e]
    }

    fn second_deriv(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let sf2 = (2.0 * self.log_sigma_f).exp();
        let s = 5.0f64.sqrt() * sq_dist(a, b).sqrt() / self.log_len.exp();
        let e = (-s).exp();
        let k = sf2 * (1.0 + s + s * s / 3.0) * e;
        // ∂²k/∂(logℓ)² = σ² (s⁴ − 2s³ − 2s²)/3 · e^{−s}.
        vec![
            4.0 * k,
            sf2 * (s.powi(4) - 2.0 * s.powi(3) - 2.0 * s * s) / 3.0 * e,
        ]
    }

    fn eval_dist(&self, r: f64) -> Option<f64> {
        let s = 5.0f64.sqrt() * r / self.log_len.exp();
        Some((2.0 * self.log_sigma_f).exp() * (1.0 + s + s * s / 3.0) * (-s).exp())
    }

    fn eval_dist_many(&self, rs: &[f64], out: &mut [f64]) -> bool {
        assert_eq!(out.len(), rs.len(), "eval_dist_many: wrong output length");
        out.copy_from_slice(rs);
        self.map_dists(out);
        true
    }

    fn eval_sq_dists(&self, d2: &mut [f64]) -> bool {
        d2.iter_mut().for_each(|d| *d = d.sqrt()); // `eval` is `eval_dist` of the root
        self.map_dists(d2);
        true
    }

    fn spectral_moment(&self) -> Vec<f64> {
        // λ₂ = 5/(3ℓ²).
        vec![5.0 / 3.0 * (-2.0 * self.log_len).exp()]
    }

    fn signal_variance(&self) -> f64 {
        (2.0 * self.log_sigma_f).exp()
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_grad_fd(kernel: &mut dyn Kernel, a: &[f64], b: &[f64]) {
        // Central finite differences on every hyperparameter.
        let theta0 = kernel.params();
        let g = kernel.grad(a, b);
        let h = kernel.second_deriv(a, b);
        let eps = 1e-5;
        for j in 0..theta0.len() {
            let mut tp = theta0.clone();
            tp[j] += eps;
            kernel.set_params(&tp);
            let kp = kernel.eval(a, b);
            let gp = kernel.grad(a, b)[j];
            let mut tm = theta0.clone();
            tm[j] -= eps;
            kernel.set_params(&tm);
            let km = kernel.eval(a, b);
            let gm = kernel.grad(a, b)[j];
            kernel.set_params(&theta0);
            let fd = (kp - km) / (2.0 * eps);
            assert!(
                (fd - g[j]).abs() < 1e-6 * (1.0 + g[j].abs()),
                "grad[{j}]: fd {fd} vs analytic {}",
                g[j]
            );
            let fd2 = (gp - gm) / (2.0 * eps);
            assert!(
                (fd2 - h[j]).abs() < 1e-5 * (1.0 + h[j].abs()),
                "hess[{j}]: fd {fd2} vs analytic {}",
                h[j]
            );
        }
    }

    #[test]
    fn se_values_and_derivatives() {
        let mut k = SquaredExponential::new(1.5, 0.8);
        let (a, b) = ([0.3, -0.2], [1.0, 0.5]);
        // k(x,x) = σ_f².
        assert!((k.eval(&a, &a) - 2.25).abs() < 1e-12);
        assert!(k.eval(&a, &b) < k.eval(&a, &a));
        check_grad_fd(&mut k, &a, &b);
        check_grad_fd(&mut k, &a, &a);
    }

    #[test]
    fn ard_derivatives_and_anisotropy() {
        let mut k = SquaredExponentialArd::new(1.0, &[0.5, 5.0]);
        let a = [0.0, 0.0];
        // Displacement along the short lengthscale decays much faster.
        let bx = [1.0, 0.0];
        let by = [0.0, 1.0];
        assert!(k.eval(&a, &bx) < k.eval(&a, &by));
        check_grad_fd(&mut k, &a, &bx);
        assert!(k.eval_dist(1.0).is_none());
        assert_eq!(k.spectral_moment().len(), 2);
    }

    #[test]
    fn matern32_derivatives() {
        let mut k = Matern32::new(2.0, 1.3);
        check_grad_fd(&mut k, &[0.1, 0.9], &[-0.4, 0.3]);
        assert!((k.eval(&[0.0], &[0.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn matern52_derivatives() {
        let mut k = Matern52::new(0.7, 0.4);
        check_grad_fd(&mut k, &[0.1], &[0.35]);
        // Smoother than 3/2 at the same distance (closer to 1 after scaling).
        let k32 = Matern32::new(1.0, 1.0);
        let k52 = Matern52::new(1.0, 1.0);
        let r = 0.5;
        assert!(k52.eval_dist(r).unwrap() > k32.eval_dist(r).unwrap());
    }

    #[test]
    fn kernels_decay_monotonically() {
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(SquaredExponential::new(1.0, 1.0)),
            Box::new(Matern32::new(1.0, 1.0)),
            Box::new(Matern52::new(1.0, 1.0)),
        ];
        for k in &kernels {
            let mut prev = k.eval_dist(0.0).unwrap();
            for i in 1..50 {
                let v = k.eval_dist(i as f64 * 0.2).unwrap();
                assert!(
                    v <= prev + 1e-15,
                    "{k:?} not monotone at r={}",
                    i as f64 * 0.2
                );
                prev = v;
            }
        }
    }

    #[test]
    fn spectral_moments_positive() {
        assert!(SquaredExponential::new(1.0, 2.0).spectral_moment()[0] > 0.0);
        assert!((SquaredExponential::new(1.0, 2.0).spectral_moment()[0] - 0.25).abs() < 1e-12);
        assert!((Matern32::new(1.0, 1.0).spectral_moment()[0] - 3.0).abs() < 1e-12);
        assert!((Matern52::new(1.0, 1.0).spectral_moment()[0] - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bulk_row_eval_bitwise_matches_scalar() {
        // The hoisted overrides must equal per-entry eval/eval_dist bit for
        // bit — the blocked fast path's correctness rests on this.
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(SquaredExponential::new(1.5, 0.8)),
            Box::new(SquaredExponentialArd::new(1.0, &[0.5, 5.0])),
            Box::new(Matern32::new(2.0, 1.3)),
            Box::new(Matern52::new(0.7, 0.4)),
        ];
        let x = [0.3, -0.2];
        let qs: Vec<Vec<f64>> = (0..33)
            .map(|i| vec![i as f64 * 0.7 - 9.0, (i as f64 * 1.3).sin()])
            .collect();
        let rs: Vec<f64> = (0..33).map(|i| i as f64 * 0.45).collect();
        for k in &kernels {
            let mut row = vec![0.0; qs.len()];
            k.eval_row(&x, &qs, &mut row);
            for (q, v) in qs.iter().zip(&row) {
                assert_eq!(k.eval(&x, q).to_bits(), v.to_bits(), "{k:?} at {q:?}");
            }
            let mut kv = vec![0.0; rs.len()];
            let iso = k.eval_dist_many(&rs, &mut kv);
            assert_eq!(iso, k.eval_dist(0.0).is_some(), "{k:?} isotropy flag");
            if iso {
                for (r, v) in rs.iter().zip(&kv) {
                    assert_eq!(
                        k.eval_dist(*r).unwrap().to_bits(),
                        v.to_bits(),
                        "{k:?} at r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_builders_bitwise_match_scalar_calls_and_eval_is_symmetric() {
        // A few hundred seeded cases per kernel: hyperparameters, the shared
        // point and the row all vary; coincident points (r = 0) included.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9E37);
        let mut next = move || rng.gen::<f64>();
        for case in 0..300 {
            let (sf, l1, l2) = (0.2 + 3.0 * next(), 0.1 + 4.0 * next(), 0.1 + 4.0 * next());
            let kernels: Vec<Box<dyn Kernel>> = vec![
                Box::new(SquaredExponential::new(sf, l1)),
                Box::new(SquaredExponentialArd::new(sf, &[l1, l2])),
                Box::new(Matern32::new(sf, l1)),
                Box::new(Matern52::new(sf, l1)),
            ];
            let x = vec![8.0 * next() - 4.0, 8.0 * next() - 4.0];
            let mut qs: Vec<Vec<f64>> = (0..1 + case % 9)
                .map(|_| vec![8.0 * next() - 4.0, 8.0 * next() - 4.0])
                .collect();
            qs.push(x.clone());
            let m = qs.len();
            let idx: Vec<usize> = (0..m).rev().step_by(2).collect();
            for k in &kernels {
                let p = k.n_params();
                let (mut g, mut h) = (vec![0.0; p * m], vec![0.0; p * m]);
                k.grad_row(&x, &qs, &mut g);
                k.second_deriv_row(&x, &qs, &mut h);
                for (c, q) in qs.iter().enumerate() {
                    assert_eq!(k.eval(&x, q).to_bits(), k.eval(q, &x).to_bits(), "{k:?}");
                    let (gs, hs) = (k.grad(&x, q), k.second_deriv(&x, q));
                    for j in 0..p {
                        assert_eq!(g[j * m + c].to_bits(), gs[j].to_bits(), "{k:?} grad");
                        assert_eq!(h[j * m + c].to_bits(), hs[j].to_bits(), "{k:?} second");
                    }
                }
                let mut sub = vec![0.0; idx.len()];
                k.eval_gather(&x, &qs, &idx, &mut sub);
                for (&i, v) in idx.iter().zip(&sub) {
                    assert_eq!(k.eval(&x, &qs[i]).to_bits(), v.to_bits(), "{k:?} gather");
                }
            }
        }
    }

    #[test]
    fn boxed_clone_preserves_params() {
        let k = SquaredExponential::new(1.5, 0.8);
        let boxed: Box<dyn Kernel> = Box::new(k.clone());
        let cloned = boxed.clone();
        assert_eq!(cloned.params(), k.params());
    }
}
