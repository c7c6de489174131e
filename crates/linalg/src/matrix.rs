//! Row-major dense matrix.

use crate::{LinalgError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows x cols` matrix of `f64`, stored row-major.
///
/// This is deliberately minimal: it supports exactly the operations the GP
/// stack needs (construction, element access, matrix/vector products,
/// transpose, symmetrization helpers). Heavier algorithms (factorizations)
/// live in [`crate::Cholesky`].
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                expected: rows * cols,
                found: data.len(),
                context: "Matrix::from_vec",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from nested rows (each inner slice is one row).
    ///
    /// Returns an error if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    expected: cols,
                    found: r.len(),
                    context: "Matrix::from_rows",
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Build an `n x n` matrix from a symmetric generator `g(i, j)`,
    /// evaluating `g` only for `j <= i` and mirroring.
    pub fn from_symmetric_fn(n: usize, mut g: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = g(i, j);
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    /// [`from_symmetric_fn`](Matrix::from_symmetric_fn) a row at a time:
    /// `fill(i, row)` writes row `i`'s lower part (`row.len() == i + 1`,
    /// the diagonal last) and every entry is mirrored. For generators that
    /// are cheaper per row than per entry (one hoisted kernel row).
    pub fn from_symmetric_rows(n: usize, mut fill: impl FnMut(usize, &mut [f64])) -> Self {
        let mut m = Matrix::zeros(n, n);
        let mut row = vec![0.0; n];
        for i in 0..n {
            let row = &mut row[..=i];
            fill(i, row);
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix-vector product `A x`.
    ///
    /// Returns an error on dimension mismatch.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
                context: "Matrix::matvec",
            });
        }
        Ok((0..self.rows).map(|i| crate::dot(self.row(i), x)).collect())
    }

    /// Matrix product `A B`, cache-blocked.
    ///
    /// Blocking strategy: the `k` (depth) dimension is tiled so a panel of
    /// `other`'s rows stays resident in cache while a tile of `self`'s rows
    /// streams over it; within a tile the kernel is the ikj order with a
    /// 4-wide unrolled axpy across the output row. Because blocking only
    /// reorders *which element* is updated next — never the `k`-ascending
    /// order in which any single `out[i][j]` accumulates its products — the
    /// result is bit-identical to the naive triple loop.
    ///
    /// Returns an error on dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                found: other.rows,
                context: "Matrix::matmul",
            });
        }
        // Tile sizes: KC rows of `other` (a panel of KC * cols doubles) per
        // sweep, MC rows of `self` per tile. Sized for ~L2 residency without
        // tuning per machine; correctness does not depend on these values.
        const KC: usize = 128;
        const MC: usize = 32;
        let mut out = Matrix::zeros(self.rows, other.cols);
        for k0 in (0..self.cols).step_by(KC) {
            let k1 = (k0 + KC).min(self.cols);
            for i0 in (0..self.rows).step_by(MC) {
                let i1 = (i0 + MC).min(self.rows);
                for i in i0..i1 {
                    let arow = self.row(i);
                    for (k, &aik) in arow.iter().enumerate().take(k1).skip(k0) {
                        if aik == 0.0 {
                            continue;
                        }
                        crate::lanes::axpy(aik, other.row(k), out.row_mut(i));
                    }
                }
            }
        }
        Ok(out)
    }

    /// `tr(A B)` without forming the product: O(n²) instead of O(n³).
    ///
    /// Bit-identical to `self.matmul(other)?.trace()`. Each diagonal entry
    /// is accumulated exactly as [`matmul`](Matrix::matmul) accumulates it
    /// — from `0.0`, `k` ascending, skipping `a_ik == 0.0` — and the entries
    /// are summed by the same fold [`trace`](Matrix::trace) uses.
    ///
    /// Returns an error unless `A` is `n x k` and `B` is `k x n`.
    pub fn matmul_trace(&self, other: &Matrix) -> Result<f64> {
        for (expected, found) in [(self.cols, other.rows), (self.rows, other.cols)] {
            if expected != found {
                return Err(LinalgError::DimensionMismatch {
                    expected,
                    found,
                    context: "Matrix::matmul_trace",
                });
            }
        }
        Ok((0..self.rows)
            .map(|i| {
                let mut d = 0.0;
                for (k, &aik) in self.row(i).iter().enumerate() {
                    if aik != 0.0 {
                        d += aik * other[(k, i)];
                    }
                }
                d
            })
            .sum())
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Add `v` to every diagonal element (jitter / noise term).
    ///
    /// Returns an error if the matrix is not square.
    pub fn add_diagonal(&mut self, v: f64) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        for i in 0..self.rows {
            self[(i, i)] += v;
        }
        Ok(())
    }

    /// Trace (sum of diagonal elements).
    ///
    /// Returns an error if the matrix is not square.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert!(!m.is_square());
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn identity_matvec() {
        let i3 = Matrix::identity(3);
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(i3.matvec(&x).unwrap(), x);
    }

    #[test]
    fn matvec_dimension_checked() {
        let m = Matrix::zeros(2, 3);
        assert!(m.matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn blocked_matmul_bit_identical_to_naive() {
        // Sizes chosen to exercise partial tiles in both blocked dimensions.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (7, 5, 3),
            (33, 130, 67),
            (64, 256, 9),
        ] {
            let a = Matrix::from_vec(
                m,
                k,
                (0..m * k)
                    .map(|i| ((i as f64) * 0.731).sin() * 3.0)
                    .collect(),
            )
            .unwrap();
            let b = Matrix::from_vec(
                k,
                n,
                (0..k * n)
                    .map(|i| ((i as f64) * 1.137).cos() / 1.7)
                    .collect(),
            )
            .unwrap();
            // Reference: the pre-blocking ikj loop (k ascending per element).
            let mut want = Matrix::zeros(m, n);
            for i in 0..m {
                for kk in 0..k {
                    let aik = a[(i, kk)];
                    if aik == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        want[(i, j)] += aik * b[(kk, j)];
                    }
                }
            }
            let got = a.matmul(&b).unwrap();
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits(), "matmul {m}x{k}x{n} drifted");
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn symmetric_generator_is_symmetric() {
        let m = Matrix::from_symmetric_fn(4, |i, j| (i * 7 + j * 3) as f64);
        assert_eq!(m.transpose(), m);
        let by_rows = Matrix::from_symmetric_rows(4, |i, row| {
            assert_eq!(row.len(), i + 1);
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i * 7 + j * 3) as f64;
            }
        });
        assert_eq!(by_rows, m);
    }

    #[test]
    fn diagonal_and_trace() {
        let mut m = Matrix::identity(3);
        m.add_diagonal(0.5).unwrap();
        assert_eq!(m.trace().unwrap(), 4.5);
        let rect = Matrix::zeros(2, 3);
        assert!(rect.trace().is_err());
    }
}
