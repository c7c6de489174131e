//! The covariance function: §3.2's squared exponential.
//!
//! Hyperparameters are exposed in **log space** (`θ_j = log p_j`): MLE over
//! log-parameters keeps them positive without constrained optimization and
//! matches the paper's gradient/Newton machinery (§3.4, §5.3).
//!
//! The paper runs every experiment on the squared-exponential kernel
//! `k(x, x') = σ_f² exp(−‖x−x'‖² / (2ℓ²))`, and so does the engine. It is
//! isotropic — a function of the distance `‖x − x'‖` alone — which §5.1's
//! near/far-corner bound for local inference needs.
//!
//! The SE kernel's per-entry `exp` is this module's own, IEEE multiplies,
//! adds and one division only (Rust never contracts floats): the same bits
//! on every target, and four lanes at a time where the CPU has AVX2.

/// A positive-definite covariance function with log-space hyperparameters.
///
/// [`SquaredExponential`] is its one production implementor. The trait is
/// kept as a seam: a test can substitute a fake covariance (one that turns
/// unfactorable mid-ascent, say) that no SE hyperparameters produce.
pub trait Kernel: Send + Sync + std::fmt::Debug {
    /// Covariance `k(a, b)`. Must be symmetric *to the bit* —
    /// `eval(a, b) == eval(b, a)` — which SE gets from depending on its
    /// arguments only through `(a_i − b_i)²`: covariance matrices are built
    /// from one triangle and mirrored, and the row builders below put
    /// whichever argument is shared first.
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
    /// arithmetic exactly `eval`'s. Every blocked row builder is one
    /// distance pass, then this map: one virtual call per row, the
    /// kernel's expression once.
    fn eval_sq_dists(&self, d2: &mut [f64]);

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
    /// scalar calls, with the hyperparameter transforms hoisted and nothing
    /// allocated per entry — training walks all n² pairs per likelihood
    /// gradient, so the per-entry `Vec` and repeated `exp`s of the scalar
    /// form would dominate it.
    ///
    /// # Panics
    /// Panics if `out.len() != n_params() * qs.len()` (caller bug).
    fn grad_row(&self, x: &[f64], qs: &[Vec<f64>], out: &mut [f64]);

    /// [`Kernel::second_deriv`] in the layout and under the contract of
    /// [`grad_row`](Kernel::grad_row).
    ///
    /// # Panics
    /// Panics if `out.len() != n_params() * qs.len()` (caller bug).
    fn second_deriv_row(&self, x: &[f64], qs: &[Vec<f64>], out: &mut [f64]);

    /// `k` as a function of the Euclidean distance `r` — what local
    /// inference's near/far-corner bound evaluates (§5.1).
    fn eval_dist(&self, r: f64) -> f64;

    /// Bulk [`Kernel::eval_dist`]: `out[i] = eval_dist(rs[i])` for every
    /// `i`, bitwise identical to the scalar calls.
    ///
    /// # Panics
    /// Panics if `out.len() != rs.len()` (caller bug).
    fn eval_dist_many(&self, rs: &[f64], out: &mut [f64]);

    /// Second spectral moment `λ₂ = −k''(0)/k(0)` of the associated
    /// stationary field, the same in every input dimension; used by the
    /// Euler-characteristic confidence band (§4.2).
    fn spectral_moment(&self) -> f64;

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
/// the row.
fn eval_points<'a, K: Kernel + ?Sized>(
    kernel: &K,
    x: &[f64],
    points: impl Iterator<Item = &'a Vec<f64>>,
    out: &mut [f64],
) {
    for (o, p) in out.iter_mut().zip(points) {
        *o = sq_dist(x, p);
    }
    kernel.eval_sq_dists(out);
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

/// `eˣ` within 1 ulp of libm's, exact at NaN, ±∞, ±0, overflow and
/// underflow: musl's Cody–Waite reduction `x = k ln 2 + r`, `|r| ≤ ½ ln 2`,
/// and rational form `eʳ = 1 + r + r·c/(2 − c)`, `c` a polynomial in `r²`;
/// `2ᵏ` is applied as two multiplies.
#[inline(always)]
fn exp(x: f64) -> f64 {
    // 1.5·2⁵²: `x·log₂e + SHIFT` is `SHIFT + k` exactly, k in its low bits.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const P1: f64 = f64::from_bits(0x3fc5_5555_5555_553e);
    const P2: f64 = f64::from_bits(0xbf66_c16c_16be_bd93);
    const P3: f64 = f64::from_bits(0x3f11_566a_af25_de2c);
    const P4: f64 = f64::from_bits(0xbebb_bd41_c5d2_6bf1);
    const P5: f64 = f64::from_bits(0x3e66_3769_72be_a4d0);
    // Past these eˣ is 0 or ∞ anyway, and inside them both factors of 2ᵏ
    // below are normal. NaN passes the clamp and every step after it.
    let x = x.clamp(-760.0, 720.0);
    let t = x * INV_LN2 + SHIFT;
    let k = t - SHIFT;
    let (hi, lo) = (x - k * LN2_HI, k * LN2_LO);
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (P1 + rr * (P2 + rr * (P3 + rr * (P4 + rr * P5))));
    let y = 1.0 + (r * c / (2.0 - c) - lo + hi);
    // 2ᵏ = 2^⌊k/2⌋ · 2^⌈k/2⌉, exponents read off `t`'s bits (SHIFT's low 51
    // are zero): the first product is exact, the second rounds once.
    let bits = t.to_bits();
    let pow2 = |e: u64| f64::from_bits((e + 1023) << 52);
    y * pow2(bits >> 1) * pow2(bits - (bits >> 1))
}

/// `d ← σ_f² · exp(c·d)` over a row of squared distances, `c = −1/(2ℓ²)`:
/// [`SquaredExponential::eval`]'s expression, for both builds of the loop.
#[inline(always)]
fn se_map(d2: &mut [f64], sf2: f64, c: f64) {
    for d in d2 {
        *d = sf2 * exp(c * *d);
    }
}

/// [`se_map`] compiled for AVX2: the same operations, four lanes at a time.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn se_map_avx2(d2: &mut [f64], sf2: f64, c: f64) {
    se_map(d2, sf2, c)
}

/// [`se_map`] at the widest vectors the CPU has; the same bits either way.
fn se_row(d2: &mut [f64], sf2: f64, c: f64) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected.
        return unsafe { se_map_avx2(d2, sf2, c) };
    }
    se_map(d2, sf2, c)
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

    /// `(σ_f², ℓ², −1/(2ℓ²))`: `k = σ_f² · exp(c · r²)` at every site.
    fn scales(&self) -> (f64, f64, f64) {
        let l2 = (2.0 * self.log_len).exp();
        ((2.0 * self.log_sigma_f).exp(), l2, -0.5 / l2)
    }
}

impl Kernel for SquaredExponential {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let (sf2, _, c) = self.scales();
        sf2 * exp(c * sq_dist(a, b))
    }

    fn eval_sq_dists(&self, d2: &mut [f64]) {
        let (sf2, _, c) = self.scales();
        se_row(d2, sf2, c);
    }

    fn grad_row(&self, x: &[f64], qs: &[Vec<f64>], out: &mut [f64]) {
        let m = qs.len();
        assert_eq!(out.len(), 2 * m, "grad_row: wrong length");
        // `grad` with the transforms hoisted: one `exp` per entry, not four.
        let (sf2, l2, c) = self.scales();
        let (d_sigma, d_len) = out.split_at_mut(m);
        for ((gs, gl), q) in d_sigma.iter_mut().zip(d_len).zip(qs) {
            let k = sf2 * exp(c * sq_dist(x, q));
            let u = sq_dist(x, q) / l2;
            *gs = 2.0 * k;
            *gl = k * u;
        }
    }

    fn second_deriv_row(&self, x: &[f64], qs: &[Vec<f64>], out: &mut [f64]) {
        let m = qs.len();
        assert_eq!(out.len(), 2 * m, "second_deriv_row: wrong length");
        let (sf2, l2, c) = self.scales();
        let (d_sigma, d_len) = out.split_at_mut(m);
        for ((hs, hl), q) in d_sigma.iter_mut().zip(d_len).zip(qs) {
            let k = sf2 * exp(c * sq_dist(x, q));
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

    fn eval_dist(&self, r: f64) -> f64 {
        let (sf2, _, c) = self.scales();
        sf2 * exp(c * (r * r))
    }

    fn eval_dist_many(&self, rs: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), rs.len(), "eval_dist_many: wrong output length");
        // `eval_dist` with the transforms hoisted; bit-identical per entry.
        for (o, &r) in out.iter_mut().zip(rs) {
            *o = r * r;
        }
        self.eval_sq_dists(out)
    }

    fn spectral_moment(&self) -> f64 {
        // λ₂ = 1/ℓ² for the SE kernel.
        (-2.0 * self.log_len).exp()
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
    fn kernels_decay_monotonically() {
        let kernels = [
            SquaredExponential::new(1.0, 1.0),
            SquaredExponential::new(2.0, 1.3),
            SquaredExponential::new(0.7, 0.4),
        ];
        for k in &kernels {
            let mut prev = k.eval_dist(0.0);
            for i in 1..50 {
                let v = k.eval_dist(i as f64 * 0.2);
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
        assert!(SquaredExponential::new(1.0, 2.0).spectral_moment() > 0.0);
        assert!((SquaredExponential::new(1.0, 2.0).spectral_moment() - 0.25).abs() < 1e-12);
        assert!((SquaredExponential::new(1.0, 1.0).spectral_moment() - 1.0).abs() < 1e-12);
        assert!((SquaredExponential::new(0.7, 0.4).spectral_moment() - 6.25).abs() < 1e-12);
    }

    #[test]
    fn bulk_row_eval_bitwise_matches_scalar() {
        // The hoisted overrides must equal per-entry eval/eval_dist bit for
        // bit — the blocked fast path's correctness rests on this.
        let kernels = [
            SquaredExponential::new(1.5, 0.8),
            SquaredExponential::new(2.0, 1.3),
            SquaredExponential::new(0.7, 0.4),
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
            k.eval_dist_many(&rs, &mut kv);
            for (r, v) in rs.iter().zip(&kv) {
                assert_eq!(k.eval_dist(*r).to_bits(), v.to_bits(), "{k:?} at r={r}");
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
            let kernels = [
                SquaredExponential::new(sf, l1),
                SquaredExponential::new(sf, l2),
                SquaredExponential::new(0.5 * sf, l1 + l2),
                SquaredExponential::new(sf + 1.0, 0.5 * l1),
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

    /// How many floats apart two non-negative results are.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn exp_is_within_one_ulp_of_libm_and_exact_at_the_edges() {
        // A dense sweep over everything between certain underflow and
        // certain overflow, then finer ones where the sweep is coarse: near
        // 0, and through the subnormal tail (one ulp there is 5e-324).
        let sweep = |lo: f64, hi: f64, n: u32| {
            (0..n).map(move |i| lo + (hi - lo) * (f64::from(i) + 0.5) / f64::from(n))
        };
        let xs = sweep(-760.0, 720.0, 20_000_000)
            .chain(sweep(-1e-3, 1e-3, 1_000_000))
            .chain(sweep(-746.0, -708.0, 1_000_000));
        let worst = xs.map(|x| (ulps(exp(x), x.exp()), x)).max_by_key(|w| w.0);
        assert!(worst.unwrap().0 <= 1, "{worst:?}");
        let edges = [
            0.0,
            -0.0,
            5e-324,
            1e-300,
            -1e-20,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            709.8,
            -745.2,
            -1e4,
        ];
        for x in edges {
            assert_eq!(exp(x).to_bits(), x.exp().to_bits(), "x = {x}");
        }
        assert!(exp(f64::NAN).is_nan() && exp(-f64::NAN).is_nan());
    }

    #[test]
    fn se_row_map_is_the_same_bits_at_every_width() {
        // Every kernel value the map can see — and a length that leaves a
        // remainder for each vector width.
        let mut row: Vec<f64> = (0..4099).map(|i| (i as f64 * 0.37).powi(2)).collect();
        row.extend([0.0, -0.0, 1e-310, 1e300, f64::INFINITY, f64::NAN]);
        let same = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
        };
        for (sf2, len) in [(1.0, 1.0), (2.25, 0.05), (3e-7, 2981.0), (1e4, 30.0)] {
            let c = -0.5 / (len * len);
            let mut scalar = row.clone();
            // (`black_box` keeps this loop one lane wide.)
            scalar
                .iter_mut()
                .for_each(|d| *d = sf2 * exp(c * std::hint::black_box(*d)));
            let mut generic = row.clone();
            se_map(&mut generic, sf2, c);
            let mut dispatched = row.clone();
            se_row(&mut dispatched, sf2, c);
            assert!(same(&scalar, &generic) && same(&scalar, &dispatched));
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut wide = row.clone();
                // SAFETY: AVX2 support was just detected.
                unsafe { se_map_avx2(&mut wide, sf2, c) };
                assert!(same(&scalar, &wide), "σ_f² = {sf2}, ℓ = {len}");
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
