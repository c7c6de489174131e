//! Manually-unrolled f64x4-style lanes for the blocked fast path.
//!
//! Every kernel here operates *across* independent columns/samples: each
//! output element depends on exactly one lane, so 4-wide unrolling changes
//! instruction scheduling but never the order of any floating-point
//! reduction. That is the invariant the blocked GP fast path relies on —
//! per-column results are bit-identical to the scalar path, which is what
//! lets the digest-pinning tests stay byte-stable with blocking enabled.
//!
//! (Contrast with a horizontal SIMD dot product, which would re-associate
//! the sum and perturb low-order bits; we deliberately never do that.)
//!
//! These *stream*: one pass over `x` updating `y` in memory, right where each
//! `y` is touched once or the width varies (mean and squared-norm sums,
//! matmul, `Cholesky::inverse`). The multi-RHS triangular solves update one
//! row by every row above it and hold it in registers instead (`solve_row`).

/// `y[j] += alpha * x[j]` for each lane `j`.
///
/// # Panics
/// Panics if the slices have different lengths (caller bug).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "lanes::axpy: length mismatch");
    let mut yc = y.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (yy, xx) in (&mut yc).zip(&mut xc) {
        yy[0] += alpha * xx[0];
        yy[1] += alpha * xx[1];
        yy[2] += alpha * xx[2];
        yy[3] += alpha * xx[3];
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += alpha * xi;
    }
}

/// `y[j] -= alpha * x[j]` for each lane `j` (the forward/back-substitution
/// update, kept as an explicit subtraction so each lane performs exactly the
/// scalar path's `sum -= l * y` operation).
///
/// # Panics
/// Panics if the slices have different lengths (caller bug).
#[inline]
pub(crate) fn axpy_sub(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "lanes::axpy_sub: length mismatch");
    let mut yc = y.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (yy, xx) in (&mut yc).zip(&mut xc) {
        yy[0] -= alpha * xx[0];
        yy[1] -= alpha * xx[1];
        yy[2] -= alpha * xx[2];
        yy[3] -= alpha * xx[3];
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi -= alpha * xi;
    }
}

/// `y[j] /= d` for each lane `j` (a true division per lane, *not* a
/// reciprocal-multiply, matching the scalar path's `sum / diag`).
#[inline]
pub(crate) fn div_scale(y: &mut [f64], d: f64) {
    let mut yc = y.chunks_exact_mut(4);
    for yy in &mut yc {
        yy[0] /= d;
        yy[1] /= d;
        yy[2] /= d;
        yy[3] /= d;
    }
    for yi in yc.into_remainder() {
        *yi /= d;
    }
}

/// `acc[j] += x[j] * x[j]` for each lane `j` (per-column squared-norm
/// accumulation used by the batched predictive variance).
///
/// # Panics
/// Panics if the slices have different lengths (caller bug).
#[inline]
pub fn sq_accum(x: &[f64], acc: &mut [f64]) {
    assert_eq!(x.len(), acc.len(), "lanes::sq_accum: length mismatch");
    let mut ac = acc.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (aa, xx) in (&mut ac).zip(&mut xc) {
        aa[0] += xx[0] * xx[0];
        aa[1] += xx[1] * xx[1];
        aa[2] += xx[2] * xx[2];
        aa[3] += xx[3] * xx[3];
    }
    for (ai, xi) in ac.into_remainder().iter_mut().zip(xc.remainder()) {
        *ai += xi * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_matches_scalar_bitwise() {
        let x: Vec<f64> = (0..11).map(|i| (i as f64).sin() * 1e3).collect();
        let mut y: Vec<f64> = (0..11).map(|i| (i as f64).cos() / 7.0).collect();
        let mut want = y.clone();
        let a = 0.123456789;
        for (wi, xi) in want.iter_mut().zip(&x) {
            *wi += a * xi;
        }
        axpy(a, &x, &mut y);
        for (yi, wi) in y.iter().zip(&want) {
            assert_eq!(yi.to_bits(), wi.to_bits());
        }
    }

    #[test]
    fn axpy_sub_matches_scalar_bitwise() {
        let x: Vec<f64> = (0..13).map(|i| (i as f64 + 0.5).ln()).collect();
        let mut y: Vec<f64> = (0..13).map(|i| (i as f64) * 0.37 - 1.0).collect();
        let mut want = y.clone();
        let a = -3.25e-2;
        for (wi, xi) in want.iter_mut().zip(&x) {
            *wi -= a * xi;
        }
        axpy_sub(a, &x, &mut y);
        for (yi, wi) in y.iter().zip(&want) {
            assert_eq!(yi.to_bits(), wi.to_bits());
        }
    }

    #[test]
    fn div_scale_matches_scalar_bitwise() {
        let mut y: Vec<f64> = (0..9).map(|i| (i as f64).exp()).collect();
        let mut want = y.clone();
        let d = 0.7891;
        for wi in &mut want {
            *wi /= d;
        }
        div_scale(&mut y, d);
        for (yi, wi) in y.iter().zip(&want) {
            assert_eq!(yi.to_bits(), wi.to_bits());
        }
    }

    #[test]
    fn sq_accum_matches_scalar_bitwise() {
        let x: Vec<f64> = (0..10).map(|i| (i as f64) * 0.3 - 1.2).collect();
        let mut acc = vec![0.5; 10];
        let mut want = acc.clone();
        for (wi, xi) in want.iter_mut().zip(&x) {
            *wi += xi * xi;
        }
        sq_accum(&x, &mut acc);
        for (ai, wi) in acc.iter().zip(&want) {
            assert_eq!(ai.to_bits(), wi.to_bits());
        }
    }

    #[test]
    fn empty_and_short_slices() {
        let mut y: Vec<f64> = vec![];
        axpy(2.0, &[], &mut y);
        let mut y = vec![1.0, 2.0, 3.0];
        axpy(1.0, &[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![2.0, 3.0, 4.0]);
        div_scale(&mut y, 2.0);
        assert_eq!(y, vec![1.0, 1.5, 2.0]);
    }
}
