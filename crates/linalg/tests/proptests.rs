//! Property-based tests for the linear-algebra substrate.
//!
//! Strategy: generate a random matrix `B` with bounded entries, form the
//! guaranteed-SPD matrix `A = B Bᵀ + c·I`, and check algebraic invariants of
//! the Cholesky machinery on it.

use proptest::prelude::*;
use udf_linalg::{dot, Cholesky, Matrix};

fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f64..2.0, n * n).prop_map(move |data| {
        let b = Matrix::from_vec(n, n, data).unwrap();
        let bt = b.transpose();
        let mut a = b.matmul(&bt).unwrap();
        a.add_diagonal(0.5).unwrap();
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_reconstructs(a in (1usize..7).prop_flat_map(spd_matrix)) {
        let c = Cholesky::factor(&a).unwrap();
        let r = c.lower().matmul(&c.lower().transpose()).unwrap();
        let n = a.rows();
        for i in 0..n {
            for j in 0..n {
                prop_assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn solve_inverts(
        a in (2usize..7).prop_flat_map(spd_matrix),
        seed in 0u64..1000,
    ) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((seed as f64) * 0.37 + i as f64).sin()).collect();
        let c = Cholesky::factor(&a).unwrap();
        let x = c.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (bi, vi) in b.iter().zip(&back) {
            prop_assert!((bi - vi).abs() < 1e-7);
        }
    }

    #[test]
    fn log_det_positive_diagonal_dominant(a in (1usize..6).prop_flat_map(spd_matrix)) {
        let c = Cholesky::factor(&a).unwrap();
        prop_assert!(c.log_det().is_finite());
    }

    #[test]
    fn append_equals_refactor(
        a in (3usize..7).prop_flat_map(spd_matrix),
    ) {
        // Split A into its leading principal (n-1)x(n-1) block plus last row/col.
        let n = a.rows();
        let lead = Matrix::from_symmetric_fn(n - 1, |i, j| a[(i, j)]);
        let k: Vec<f64> = (0..n - 1).map(|i| a[(i, n - 1)]).collect();
        let mut inc = Cholesky::factor(&lead).unwrap();
        inc.append(&k, a[(n - 1, n - 1)]).unwrap();
        let full = Cholesky::factor(&a).unwrap();
        for i in 0..n {
            for j in 0..=i {
                prop_assert!((inc.lower()[(i, j)] - full.lower()[(i, j)]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn matmul_transpose_identity(
        data in prop::collection::vec(-3.0f64..3.0, 12)
    ) {
        // (A B)ᵀ = Bᵀ Aᵀ
        let a = Matrix::from_vec(3, 4, data.clone()).unwrap();
        let b = Matrix::from_vec(4, 3, data).unwrap();
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((lhs[(i, j)] - rhs[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn dot_cauchy_schwarz(
        x in prop::collection::vec(-5.0f64..5.0, 1..20),
    ) {
        let y: Vec<f64> = x.iter().map(|v| v * 0.5 + 1.0).collect();
        let lhs = dot(&x, &y).abs();
        let rhs = dot(&x, &x).sqrt() * dot(&y, &y).sqrt();
        prop_assert!(lhs <= rhs + 1e-9);
    }
}

/// Bit-for-bit equality of two float slices.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// The bitwise oracles behind the incremental tuning loop: each shortcut
// must reproduce the from-scratch computation exactly, not approximately.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn push_row_is_the_last_row_of_factor(a in (1usize..12).prop_flat_map(spd_matrix)) {
        let n = a.rows();
        let lead = Matrix::from_symmetric_fn(n - 1, |i, j| a[(i, j)]);
        let mut inc = Cholesky::factor(&lead).unwrap();
        inc.push_row(a.row(n - 1)).unwrap();
        let full = Cholesky::factor(&a).unwrap();
        prop_assert!(same_bits(inc.lower().as_slice(), full.lower().as_slice()));
        // A failed pivot leaves the factor as it was.
        let mut bad = a.row(n - 1).to_vec();
        bad[n - 1] = -1.0;
        let before = full.lower().clone();
        let mut c = full;
        prop_assert!(c.push_row(&[bad, vec![0.0]].concat()).is_err());
        prop_assert!(same_bits(c.lower().as_slice(), before.as_slice()));
    }

    #[test]
    fn last_row_solve_matches_the_full_solve(
        a in (1usize..10).prop_flat_map(spd_matrix),
        cols in 1usize..150,
        seed in 0u64..1000,
    ) {
        let n = a.rows();
        let rhs: Vec<f64> = (0..n * cols)
            .map(|i| ((i as f64) * 0.417 + seed as f64).sin() * 2.5)
            .collect();
        let full = Cholesky::factor(&a).unwrap();
        let mut want = rhs.clone();
        full.solve_lower_in_place(&mut want, cols).unwrap();
        // Solve against the leading block, then only the pushed row.
        let lead = Cholesky::factor(&Matrix::from_symmetric_fn(n - 1, |i, j| a[(i, j)])).unwrap();
        let mut got = rhs;
        lead.solve_lower_in_place(&mut got[..(n - 1) * cols], cols).unwrap();
        full.solve_lower_last_row(&mut got, cols).unwrap();
        prop_assert!(same_bits(&got, &want));
        prop_assert!(full.solve_lower_last_row(&mut got[1..], cols).is_err());
    }

    #[test]
    fn inverse_matches_solving_the_identity(a in (1usize..12).prop_flat_map(spd_matrix)) {
        let c = Cholesky::factor(&a).unwrap();
        let want = c.solve_matrix(&Matrix::identity(a.rows())).unwrap();
        prop_assert!(same_bits(c.inverse().unwrap().as_slice(), want.as_slice()));
    }

    #[test]
    fn matmul_trace_matches_the_product_trace(
        n in 1usize..9,
        k in 1usize..140,
        seed in 0u64..1000,
    ) {
        // Exact zeros in `a` exercise matmul's skip.
        let gen = |len: usize, f: f64| -> Vec<f64> {
            (0..len)
                .map(|i| {
                    let v = ((i as f64) * f + seed as f64).sin() * 3.0;
                    if i % 7 == 3 { 0.0 } else { v }
                })
                .collect()
        };
        let a = Matrix::from_vec(n, k, gen(n * k, 0.731)).unwrap();
        let b = Matrix::from_vec(k, n, gen(k * n, 1.137)).unwrap();
        let want = a.matmul(&b).unwrap().trace().unwrap();
        prop_assert_eq!(a.matmul_trace(&b).unwrap().to_bits(), want.to_bits());
        prop_assert!(a.matmul_trace(&a).is_err() || n == k);
    }
}
