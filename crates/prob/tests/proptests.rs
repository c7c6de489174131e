//! Property-based tests for metrics, ECDFs and distributions.

use proptest::prelude::*;
use udf_prob::metrics::{discrepancy, ks, lambda_discrepancy};
use udf_prob::special::{norm_cdf, norm_ppf};
use udf_prob::Ecdf;

fn samples(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    n.prop_flat_map(|len| prop::collection::vec(-50.0f64..50.0, len.max(1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn metric_axioms(xs in samples(1..40), ys in samples(1..40)) {
        let a = Ecdf::new(xs).unwrap();
        let b = Ecdf::new(ys).unwrap();
        let k = ks(&a, &b);
        let d = discrepancy(&a, &b);
        // Range.
        prop_assert!((0.0..=1.0).contains(&k));
        prop_assert!((0.0..=1.0).contains(&d));
        // Identity of indiscernibles (same samples → 0).
        prop_assert!(ks(&a, &a) == 0.0);
        prop_assert!(discrepancy(&a, &a) == 0.0);
        // Symmetry.
        prop_assert!((k - ks(&b, &a)).abs() < 1e-15);
        prop_assert!((d - discrepancy(&b, &a)).abs() < 1e-15);
        // Paper §2.1: KS ≤ D ≤ 2 KS.
        prop_assert!(d <= 2.0 * k + 1e-12, "D = {d} > 2 KS = {}", 2.0 * k);
        prop_assert!(k <= d + 1e-12, "KS = {k} > D = {d}");
    }

    #[test]
    fn lambda_monotone(xs in samples(2..30), ys in samples(2..30),
                       l1 in 0.0f64..5.0, l2 in 0.0f64..5.0) {
        let a = Ecdf::new(xs).unwrap();
        let b = Ecdf::new(ys).unwrap();
        let (lo, hi) = if l1 < l2 { (l1, l2) } else { (l2, l1) };
        // Larger λ restricts the supremum set → smaller value.
        prop_assert!(lambda_discrepancy(&a, &b, hi) <= lambda_discrepancy(&a, &b, lo) + 1e-12);
    }

    #[test]
    fn ks_triangle_inequality(
        xs in samples(1..25), ys in samples(1..25), zs in samples(1..25)
    ) {
        let a = Ecdf::new(xs).unwrap();
        let b = Ecdf::new(ys).unwrap();
        let c = Ecdf::new(zs).unwrap();
        prop_assert!(ks(&a, &c) <= ks(&a, &b) + ks(&b, &c) + 1e-12);
        prop_assert!(discrepancy(&a, &c) <= discrepancy(&a, &b) + discrepancy(&b, &c) + 1e-12);
    }

    #[test]
    fn ecdf_cdf_monotone(xs in samples(1..60), q1 in -60.0f64..60.0, q2 in -60.0f64..60.0) {
        let e = Ecdf::new(xs).unwrap();
        let (lo, hi) = if q1 < q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(e.cdf(lo) <= e.cdf(hi));
        prop_assert!(e.cdf(e.max()) == 1.0);
        // interval_prob consistency with cdf on intervals below the support.
        prop_assert!((e.interval_prob(e.min() - 1.0, hi) - e.cdf(hi)).abs() < 1e-12);
    }

    #[test]
    fn norm_ppf_cdf_consistent(z in -5.0f64..5.0) {
        let p = norm_cdf(z);
        if p > 1e-12 && p < 1.0 - 1e-12 {
            prop_assert!((norm_ppf(p) - z).abs() < 1e-7, "z = {z}");
        }
    }
}
