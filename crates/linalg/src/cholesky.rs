//! Cholesky factorization with incremental updates.
//!
//! The GP posterior (Eq. 2 of the paper) requires solving with the training
//! covariance `K(X*, X*)`. We keep its lower Cholesky factor `L` and support:
//!
//! * `solve` — `A x = b` via forward + back substitution, O(n²);
//! * `log_det` — `2 Σ log L_ii`, used by the marginal likelihood (§3.4);
//! * `inverse` — explicit `A⁻¹` for the likelihood gradient/Hessian;
//! * [`Cholesky::append`] — the O(n²) block update used by online tuning
//!   (§5.2): when training point n+1 arrives, the new factor row is
//!   `w = L⁻¹ k`, `d = sqrt(k** − w·w)`, avoiding an O(n³) refactorization;
//! * [`Cholesky::push_row`] — the same update written as one more step of
//!   [`Cholesky::factor`]'s own row recurrence, for callers that need the
//!   grown factor to be *bit-identical* to refactoring the bordered matrix
//!   (the per-tuple subset factor of the tuning loop);
//! * `solve_{lower,upper}_in_place` — every right-hand side of a panel at
//!   once, the warm read path's `V = L⁻¹K` (§5.1): one row routine holds
//!   sixteen columns of the row being solved in registers across the whole
//!   elimination; per column it is the scalar substitution, bit for bit.
//!   The forward solve dispatches at run time to an AVX2 build of the same
//!   loop where the CPU has it (like `udf_gp`'s SE row map): one column per
//!   lane, so two lanes or four give the same bits.

use crate::{dot, LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
#[derive(Clone, Debug)]
pub struct Cholesky {
    /// Lower factor stored as a full square matrix (upper part zero).
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix `A = L Lᵀ`.
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when a pivot is not
    /// strictly positive — for GP covariance matrices this signals that more
    /// jitter is needed.
    pub fn factor(a: &Matrix) -> Result<Self> {
        a.check_square()?;
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            Self::factor_row(&mut l, i, a.row(i))?;
        }
        Ok(Cholesky { l })
    }

    /// One step of the factorization recurrence: given rows `0..i` of the
    /// factor in `l`, write row `i` from `a_row[..=i]` (row `i` of `A`, lower
    /// part). [`factor`](Cholesky::factor) is this routine looped over the
    /// rows and [`push_row`](Cholesky::push_row) is its last iteration, so
    /// the two agree to the bit: per entry, `sum = a_ij`, then
    /// `sum -= l_ik · l_jk` for `k` ascending, then a square root (diagonal)
    /// or a true division by `l_jj`.
    fn factor_row(l: &mut Matrix, i: usize, a_row: &[f64]) -> Result<()> {
        let n = l.cols();
        let (done, rest) = l.as_mut_slice().split_at_mut(i * n);
        let row = &mut rest[..=i];
        for j in 0..i {
            let lj = &done[j * n..=j * n + j];
            let mut sum = a_row[j];
            for k in 0..j {
                sum -= row[k] * lj[k];
            }
            row[j] = sum / lj[j];
        }
        let mut sum = a_row[i];
        for lik in &row[..i] {
            sum -= lik * lik;
        }
        if sum <= 0.0 || !sum.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: i });
        }
        row[i] = sum.sqrt();
        Ok(())
    }

    /// Factor `A + jitter·I`, escalating jitter by 10x up to `max_tries`
    /// times if the factorization fails. Returns the factor and the jitter
    /// that succeeded.
    ///
    /// This is the standard defensive pattern for GP covariance matrices
    /// whose eigenvalues underflow when training points nearly coincide.
    pub fn factor_with_jitter(a: &Matrix, jitter: f64, max_tries: u32) -> Result<(Self, f64)> {
        let mut j = jitter;
        let mut last = LinalgError::NotPositiveDefinite { pivot: 0 };
        for _ in 0..max_tries.max(1) {
            let mut aj = a.clone();
            if j > 0.0 {
                aj.add_diagonal(j)?;
            }
            match Cholesky::factor(&aj) {
                Ok(c) => return Ok((c, j)),
                Err(e) => {
                    last = e;
                    j = if j == 0.0 { 1e-10 } else { j * 10.0 };
                }
            }
        }
        Err(last)
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow the lower factor.
    #[inline]
    pub fn lower(&self) -> &Matrix {
        &self.l
    }

    /// Solve `L y = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        LinalgError::check_dim(n, b.len(), "Cholesky::solve_lower")?;
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            let row = self.l.row(i);
            for k in 0..i {
                sum -= row[k] * y[k];
            }
            y[i] = sum / row[i];
        }
        Ok(y)
    }

    /// Solve `Lᵀ x = y` (back substitution).
    #[allow(clippy::needless_range_loop)] // indexing two arrays in lockstep
    pub(crate) fn solve_upper(&self, y: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        LinalgError::check_dim(n, y.len(), "Cholesky::solve_upper")?;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Solve `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = self.solve_lower(b)?;
        self.solve_upper(&y)
    }

    /// Columns per cache panel of the multi-RHS solves: the `n x RHS_BLOCK`
    /// panel being solved stays L1-resident and a factor row is read once per
    /// panel, not once per register block (≈ 10 % at 96 × 1784, nothing
    /// below n ≈ 60). Per-column results do not depend on this value.
    const RHS_BLOCK: usize = 64;

    /// Multi-RHS forward substitution: solve `L Y = B` in place, where `rhs`
    /// holds an `n x cols` row-major panel (row `i` = the `i`-th entry of
    /// every right-hand side).
    ///
    /// Columns are processed in panels of `RHS_BLOCK` (64) columns, each row
    /// of a panel by the register-blocked row routine `solve_row`. Each
    /// column `c` performs exactly the scalar [`Cholesky::solve_lower`] sequence —
    /// `sum = b[i]`, then `sum -= L[i][k] * y[k]` for `k` ascending, then a
    /// true division by `L[i][i]` — so the result is bit-identical to
    /// calling `solve_lower` once per column. Where the CPU has AVX2 the
    /// same loop runs from a build for it: wider registers hold more
    /// columns, and no column's operations change.
    ///
    /// Returns an error if `rhs.len() != dim() * cols`.
    pub fn solve_lower_in_place(&self, rhs: &mut [f64], cols: usize) -> Result<()> {
        self.check_panel(rhs, cols, "Cholesky::solve_lower_in_place")?;
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just detected.
            unsafe { self.forward_panels_avx2(rhs, cols) };
            return Ok(());
        }
        self.forward_panels(rhs, cols);
        Ok(())
    }

    /// The panel loop of [`solve_lower_in_place`](Self::solve_lower_in_place),
    /// for both builds of it.
    #[inline(always)]
    fn forward_panels(&self, rhs: &mut [f64], cols: usize) {
        for j0 in (0..cols).step_by(Self::RHS_BLOCK) {
            let jw = Self::RHS_BLOCK.min(cols - j0);
            for i in 0..self.dim() {
                self.forward_row(i, rhs, cols, j0, jw);
            }
        }
    }

    /// [`forward_panels`](Self::forward_panels) compiled for AVX2: every
    /// column runs the same operations, four to a register instead of two.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn forward_panels_avx2(&self, rhs: &mut [f64], cols: usize) {
        self.forward_panels(rhs, cols)
    }

    /// Row `i`, columns `j0..j0 + jw`, of the multi-RHS forward
    /// substitution: rows `0..i` of `rhs` hold the solution already.
    #[inline(always)]
    fn forward_row(&self, i: usize, rhs: &mut [f64], cols: usize, j0: usize, jw: usize) {
        let lrow = self.l.row(i);
        let (solved, rest) = rhs.split_at_mut(i * cols);
        let terms = lrow[..i]
            .iter()
            .zip(solved.chunks_exact(cols))
            .map(|(&lik, yk)| (lik, &yk[j0..j0 + jw]));
        solve_row(terms, lrow[i], &mut rest[j0..j0 + jw]);
    }

    /// The last step of [`solve_lower_in_place`](Self::solve_lower_in_place)
    /// alone: `rhs` is an `n x cols` panel whose first `n − 1` rows already
    /// hold `Y = L⁻¹B` for the leading `(n−1) x (n−1)` factor and whose last
    /// row holds the last row of `B`; on return the last row is solved too.
    /// Each column sees exactly the full solve's operations for that row
    /// (`k` ascending, true division), so after a
    /// [`push_row`](Self::push_row) the panel is bit-identical to solving
    /// the bordered system from scratch — O(n·cols) instead of O(n²·cols).
    ///
    /// Returns an error if `rhs.len() != dim() * cols`.
    pub fn solve_lower_last_row(&self, rhs: &mut [f64], cols: usize) -> Result<()> {
        let n = self.check_panel(rhs, cols, "Cholesky::solve_lower_last_row")?;
        if rhs.is_empty() {
            return Ok(());
        }
        // Every solved entry is read exactly once, so no panel: full width.
        self.forward_row(n - 1, rhs, cols, 0, cols);
        Ok(())
    }

    /// `dim()`, once `rhs` is checked to be a `dim() x cols` panel.
    fn check_panel(&self, rhs: &[f64], cols: usize, context: &'static str) -> Result<usize> {
        let n = self.dim();
        LinalgError::check_dim(n * cols, rhs.len(), context)?;
        Ok(n)
    }

    /// Multi-RHS back substitution: solve `Lᵀ X = Y` in place on an
    /// `n x cols` row-major panel. Same blocking and bit-identity contract
    /// as [`Cholesky::solve_lower_in_place`], mirroring the scalar
    /// [`Cholesky::solve_upper`] (`k` ascending from `i+1`).
    ///
    /// Returns an error if `rhs.len() != dim() * cols`.
    pub(crate) fn solve_upper_in_place(&self, rhs: &mut [f64], cols: usize) -> Result<()> {
        let n = self.check_panel(rhs, cols, "Cholesky::solve_upper_in_place")?;
        if cols == 0 {
            return Ok(());
        }
        for j0 in (0..cols).step_by(Self::RHS_BLOCK) {
            let jw = Self::RHS_BLOCK.min(cols - j0);
            for i in (0..n).rev() {
                let (head, solved) = rhs.split_at_mut((i + 1) * cols);
                let terms = (i + 1..n)
                    .zip(solved.chunks_exact(cols))
                    .map(|(k, xk)| (self.l[(k, i)], &xk[j0..j0 + jw]));
                solve_row(terms, self.l[(i, i)], &mut head[i * cols + j0..][..jw]);
            }
        }
        Ok(())
    }

    /// Solve `A X = B` where `A = L Lᵀ`, all columns at once (forward then
    /// back substitution on the whole panel; per-column results are
    /// bit-identical to the former column-at-a-time implementation).
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        LinalgError::check_dim(n, b.rows(), "Cholesky::solve_matrix")?;
        let cols = b.cols();
        let mut out = b.clone();
        self.solve_lower_in_place(out.as_mut_slice(), cols)?;
        self.solve_upper_in_place(out.as_mut_slice(), cols)?;
        Ok(out)
    }

    /// `log det A = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Explicit inverse `A⁻¹` (O(n³)); used only by the likelihood
    /// gradient/Hessian in retraining, never in the inference hot path.
    ///
    /// Bit-identical to `solve_matrix(&Matrix::identity(n))`, at a third of
    /// the forward-substitution work: in column `c` of `L Y = I` every row
    /// above `c` is exactly `+0.0`, and so is every term
    /// `l_ik · y_kc` with `k < c` — subtracting a zero changes neither the
    /// `1.0` / `+0.0` the sum starts from nor anything accumulated later
    /// (those terms come first, `k` ascending) — so they are skipped. `Y` is
    /// lower triangular; the back substitution then runs on the full panel.
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        let mut out = Matrix::identity(n);
        let data = out.as_mut_slice();
        for i in 0..n {
            let lrow = self.l.row(i);
            let (solved, rest) = data.split_at_mut(i * n);
            let cur = &mut rest[..=i];
            for (k, &lik) in lrow[..i].iter().enumerate() {
                crate::lanes::axpy_sub(lik, &solved[k * n..=k * n + k], &mut cur[..=k]);
            }
            crate::lanes::div_scale(cur, lrow[i]);
        }
        self.solve_upper_in_place(data, n)?;
        Ok(out)
    }

    /// A zeroed `(n+1) x (n+1)` matrix holding this factor in its leading
    /// block — what [`append`](Self::append) and
    /// [`push_row`](Self::push_row) write their new row into.
    fn grown(&self) -> Matrix {
        let n = self.dim();
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            let (src, dst) = (self.l.row(i), l.row_mut(i));
            dst[..=i].copy_from_slice(&src[..=i]);
        }
        l
    }

    /// Append one row/column to the factored matrix: given the factor of
    /// `A (n x n)`, produce the factor of
    /// `[[A, k], [kᵀ, kss]]` in O(n²).
    ///
    /// `k` is the covariance between the new point and the existing points,
    /// `kss` the new point's self-covariance (including jitter).
    ///
    /// **Not bit-identical to [`factor`](Self::factor) on the bordered
    /// matrix.** The off-diagonal entries `w = L⁻¹k` are the same
    /// operations, but the pivot is `kss − dot(w, w)` — the squares summed
    /// first, subtracted once — where `factor` runs the sequential
    /// `sum -= w_k²`; the two round differently in the last bits. Code that
    /// must reproduce a from-scratch factorization exactly uses
    /// [`push_row`](Self::push_row).
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when the Schur complement
    /// `kss − wᵀw` is not strictly positive.
    pub fn append(&mut self, k: &[f64], kss: f64) -> Result<()> {
        let n = self.dim();
        LinalgError::check_dim(n, k.len(), "Cholesky::append")?;
        let w = self.solve_lower(k)?;
        let schur = kss - dot(&w, &w);
        if schur <= 0.0 || !schur.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: n });
        }
        let mut l = self.grown();
        l.row_mut(n)[..n].copy_from_slice(&w);
        l[(n, n)] = schur.sqrt();
        self.l = l;
        Ok(())
    }

    /// Append one row/column by running [`factor`](Self::factor)'s own row
    /// recurrence once more: `a_row` is the new last row of the bordered
    /// matrix (`n + 1` entries, the diagonal — jitter included — last). The
    /// result is bit-identical to `Cholesky::factor` of the bordered matrix,
    /// in O(n²); the factor is left untouched on error.
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when the new pivot is
    /// not strictly positive.
    pub fn push_row(&mut self, a_row: &[f64]) -> Result<()> {
        let n = self.dim();
        LinalgError::check_dim(n + 1, a_row.len(), "Cholesky::push_row")?;
        let mut l = self.grown();
        Self::factor_row(&mut l, n, a_row)?;
        self.l = l;
        Ok(())
    }
}

/// Columns one [`solve_block`] holds in registers: sixteen doubles are eight
/// SSE2 registers, the other eight take the coefficient and the loads.
const REG_BLOCK: usize = 16;

/// One row of a multi-RHS triangular solve, the inner loop of every
/// `solve_*_in_place`: `cur[c] = (cur[c] − Σ coef·solved[c]) / diag`, the
/// `(coef, solved)` terms in the order given. Per column that is the scalar
/// substitution verbatim — `sum = b`, one `sum -= coef·y` per term, a true
/// division — run [`REG_BLOCK`] columns at a time, then four, then one.
/// Every `solved` slice must be at least as long as `cur`.
#[inline(always)]
fn solve_row<'a>(
    terms: impl Iterator<Item = (f64, &'a [f64])> + Clone,
    diag: f64,
    cur: &mut [f64],
) {
    let mut j = 0;
    for width in [REG_BLOCK, 4, 1] {
        while cur.len() - j >= width {
            let terms = terms.clone().map(|(coef, solved)| (coef, &solved[j..]));
            match width {
                REG_BLOCK => solve_block::<REG_BLOCK>(terms, diag, &mut cur[j..]),
                4 => solve_block::<4>(terms, diag, &mut cur[j..]),
                _ => solve_block::<1>(terms, diag, &mut cur[j..]),
            }
            j += width;
        }
    }
}

/// [`solve_row`] on the first `W` columns of `cur`, held in registers across
/// the term loop and stored once: re-loading and re-storing the row per term
/// costs more µops than updating it.
#[inline(always)]
fn solve_block<'a, const W: usize>(
    terms: impl Iterator<Item = (f64, &'a [f64])>,
    diag: f64,
    cur: &mut [f64],
) {
    let cur: &mut [f64; W] = (&mut cur[..W]).try_into().expect("W columns");
    let mut acc = *cur;
    for (coef, solved) in terms {
        let solved: &[f64; W] = solved[..W].try_into().expect("W columns");
        for (a, y) in acc.iter_mut().zip(solved) {
            *a -= coef * y;
        }
    }
    for a in &mut acc {
        *a /= diag;
    }
    *cur = acc;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for B with distinct entries: guaranteed SPD.
        Matrix::from_rows(&[
            vec![6.0, 2.0, 1.0],
            vec![2.0, 5.0, 2.0],
            vec![1.0, 2.0, 4.0],
        ])
        .unwrap()
    }

    #[test]
    fn factor_and_reconstruct() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let r = c.lower().matmul(&c.lower().transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let b = vec![1.0, -2.0, 3.0];
        let x = c.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (bi, vi) in b.iter().zip(&back) {
            assert!((bi - vi).abs() < 1e-12);
        }
    }

    #[test]
    fn log_det_2x2() {
        let a = Matrix::from_rows(&[vec![4.0, 0.0], vec![0.0, 9.0]]).unwrap();
        let c = Cholesky::factor(&a).unwrap();
        assert!((c.log_det() - 36.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn inverse_is_inverse() {
        let a = spd3();
        let inv = Cholesky::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let id = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert!((prod[(i, j)] - id[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap(); // eigenvalue -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn jitter_recovers_semidefinite() {
        // Rank-1 PSD matrix: plain factorization fails, jitter succeeds.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert!(Cholesky::factor(&a).is_err());
        let (c, j) = Cholesky::factor_with_jitter(&a, 1e-10, 12).unwrap();
        assert!(j > 0.0);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn append_matches_full_factorization() {
        let a4 = Matrix::from_rows(&[
            vec![6.0, 2.0, 1.0, 0.5],
            vec![2.0, 5.0, 2.0, 1.0],
            vec![1.0, 2.0, 4.0, 1.5],
            vec![0.5, 1.0, 1.5, 3.0],
        ])
        .unwrap();
        // Factor the leading 3x3, then append the last row/col.
        let mut c = Cholesky::factor(&spd3()).unwrap();
        c.append(&[0.5, 1.0, 1.5], 3.0).unwrap();
        let full = Cholesky::factor(&a4).unwrap();
        for i in 0..4 {
            for j in 0..=i {
                assert!(
                    (c.lower()[(i, j)] - full.lower()[(i, j)]).abs() < 1e-12,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn append_rejects_inconsistent() {
        let mut c = Cholesky::factor(&spd3()).unwrap();
        assert!(c.append(&[1.0], 1.0).is_err()); // wrong length
        assert!(c.append(&[10.0, 10.0, 10.0], 0.1).is_err()); // breaks PD
    }

    #[test]
    fn multi_rhs_solves_bit_identical_to_scalar() {
        // n and cols chosen to exercise partial column panels (cols > 64)
        // and partial 4-lane remainders.
        let n = 23;
        let cols = 150;
        let a = Matrix::from_symmetric_fn(n, |i, j| {
            let d = (i as f64 - j as f64).abs();
            (-d * d / 50.0).exp() + if i == j { 0.1 } else { 0.0 }
        });
        let c = Cholesky::factor(&a).unwrap();
        let b = Matrix::from_vec(
            n,
            cols,
            (0..n * cols)
                .map(|i| ((i as f64) * 0.417).sin() * 2.5)
                .collect(),
        )
        .unwrap();

        let mut ylo = b.clone();
        c.solve_lower_in_place(ylo.as_mut_slice(), cols).unwrap();
        let mut yup = b.clone();
        c.solve_upper_in_place(yup.as_mut_slice(), cols).unwrap();
        let full = c.solve_matrix(&b).unwrap();
        let mut col = vec![0.0; n];
        for j in 0..cols {
            for i in 0..n {
                col[i] = b[(i, j)];
            }
            let lo = c.solve_lower(&col).unwrap();
            let up = c.solve_upper(&col).unwrap();
            let sv = c.solve(&col).unwrap();
            for i in 0..n {
                assert_eq!(ylo[(i, j)].to_bits(), lo[i].to_bits(), "lower ({i},{j})");
                assert_eq!(yup[(i, j)].to_bits(), up[i].to_bits(), "upper ({i},{j})");
                assert_eq!(full[(i, j)].to_bits(), sv[i].to_bits(), "solve ({i},{j})");
            }
        }
    }

    #[test]
    fn blocked_solves_match_scalar_bitwise_at_every_width() {
        // Every mix of 16-, 4- and 1-column register blocks and of full and
        // partial 64-column panels, on a well-conditioned factor and on a
        // near-singular one (jitter escalated just far enough to factor).
        let widths: Vec<usize> = (1..=35).chain([63, 64, 65, 127, 129]).collect();
        for n in 1..=40 {
            let smooth = |scale: f64| {
                Matrix::from_symmetric_fn(n, |i, j| {
                    let d = (i as f64 - j as f64).abs();
                    (-d * d / scale).exp() + if i == j { 0.1 } else { 0.0 }
                })
            };
            let mut near_singular = smooth(5000.0);
            near_singular.add_diagonal(-0.1).unwrap();
            let (tight, jitter) = Cholesky::factor_with_jitter(&near_singular, 1e-14, 12).unwrap();
            assert!(n < 4 || jitter < 1e-6, "n = {n}: jitter {jitter}");
            for c in [Cholesky::factor(&smooth(50.0)).unwrap(), tight] {
                for &cols in &widths {
                    let b: Vec<f64> = (0..n * cols)
                        .map(|i| ((i as f64) * 0.417).sin() * 2.5)
                        .collect();
                    let (mut lo, mut up) = (b.clone(), b.clone());
                    c.solve_lower_in_place(&mut lo, cols).unwrap();
                    c.solve_upper_in_place(&mut up, cols).unwrap();
                    // The last row alone, on top of the leading block's solve.
                    let mut last = b.clone();
                    if n > 1 {
                        let lead: Vec<f64> = (0..n - 1)
                            .flat_map(|i| c.l.row(i)[..n - 1].to_vec())
                            .collect();
                        let lead = Cholesky {
                            l: Matrix::from_vec(n - 1, n - 1, lead).unwrap(),
                        };
                        lead.solve_lower_in_place(&mut last[..(n - 1) * cols], cols)
                            .unwrap();
                    }
                    c.solve_lower_last_row(&mut last, cols).unwrap();
                    let mut col = vec![0.0; n];
                    for j in 0..cols {
                        for i in 0..n {
                            col[i] = b[i * cols + j];
                        }
                        let want_lo = c.solve_lower(&col).unwrap();
                        let want_up = c.solve_upper(&col).unwrap();
                        for i in 0..n {
                            let at = (n, cols, i, j);
                            let (got_lo, got_up) = (lo[i * cols + j], up[i * cols + j]);
                            assert_eq!(got_lo.to_bits(), want_lo[i].to_bits(), "lower {at:?}");
                            assert_eq!(got_up.to_bits(), want_up[i].to_bits(), "upper {at:?}");
                            let got_last = last[i * cols + j];
                            assert_eq!(got_last.to_bits(), want_lo[i].to_bits(), "last {at:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_forward_solve_is_the_generic_loop_bitwise() {
        // Column counts on both sides of every register width (16, 4, 1)
        // and of the 64-column panel.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let widths = [1, 3, 4, 5, 15, 16, 17, 21, 63, 64, 65, 129];
            for n in 1..=100 {
                let a = Matrix::from_symmetric_fn(n, |i, j| {
                    let d = (i as f64 - j as f64).abs();
                    (-d * d / 50.0).exp() + if i == j { 0.1 } else { 0.0 }
                });
                let c = Cholesky::factor(&a).unwrap();
                for cols in widths {
                    let b: Vec<f64> = (0..n * cols)
                        .map(|i| ((i as f64) * 0.417).sin() * 2.5)
                        .collect();
                    let mut generic = b.clone();
                    c.forward_panels(&mut generic, cols);
                    let mut wide = b.clone();
                    // SAFETY: AVX2 support was just detected.
                    unsafe { c.forward_panels_avx2(&mut wide, cols) };
                    let mut dispatched = b;
                    c.solve_lower_in_place(&mut dispatched, cols).unwrap();
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&wide), bits(&generic), "n = {n}, cols = {cols}");
                    assert_eq!(bits(&dispatched), bits(&generic), "n = {n}, cols = {cols}");
                }
            }
        }
    }

    #[test]
    fn multi_rhs_dimension_checked() {
        let c = Cholesky::factor(&spd3()).unwrap();
        let mut buf = vec![0.0; 5];
        assert!(c.solve_lower_in_place(&mut buf, 2).is_err());
        assert!(c.solve_upper_in_place(&mut buf, 2).is_err());
        // Zero-column panels are a no-op.
        let mut empty: Vec<f64> = vec![];
        c.solve_lower_in_place(&mut empty, 0).unwrap();
        c.solve_upper_in_place(&mut empty, 0).unwrap();
    }

    #[test]
    fn solve_matrix_identity_gives_inverse_columns() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let x = c.solve_matrix(&Matrix::identity(3)).unwrap();
        let prod = a.matmul(&x).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - want).abs() < 1e-10);
            }
        }
    }
}
