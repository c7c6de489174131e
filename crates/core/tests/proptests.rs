//! Property-based tests for the evaluation framework's invariants.

use proptest::prelude::*;
use udf_core::config::{AccuracyRequirement, Metric};
use udf_core::error_bound::{envelope_ecdfs, ks_bound, lambda_discrepancy_bound};
use udf_core::filtering::{mc_eval_tuple, Predicate};
use udf_core::udf::BlackBoxUdf;
use udf_prob::InputDistribution;

fn envelopes() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    prop::collection::vec((-10.0f64..10.0, 0.0f64..1.5), 2..60)
        .prop_map(|pts| pts.into_iter().unzip())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bound_monotone_in_z((means, sds) in envelopes(), lambda in 0.0f64..1.0) {
        let (h1, s1, l1) = envelope_ecdfs(&means, &sds, 1.0).unwrap();
        let (h2, s2, l2) = envelope_ecdfs(&means, &sds, 2.5).unwrap();
        prop_assert!(
            lambda_discrepancy_bound(&h1, &s1, &l1, lambda)
                <= lambda_discrepancy_bound(&h2, &s2, &l2, lambda) + 1e-12
        );
        prop_assert!(ks_bound(&h1, &s1, &l1) <= ks_bound(&h2, &s2, &l2) + 1e-12);
    }

    #[test]
    fn bound_monotone_in_lambda((means, sds) in envelopes(),
                                l1 in 0.0f64..2.0, l2 in 0.0f64..2.0) {
        let (h, s, l) = envelope_ecdfs(&means, &sds, 2.0).unwrap();
        let (lo, hi) = if l1 < l2 { (l1, l2) } else { (l2, l1) };
        prop_assert!(
            lambda_discrepancy_bound(&h, &s, &l, hi)
                <= lambda_discrepancy_bound(&h, &s, &l, lo) + 1e-12
        );
    }

    #[test]
    fn ks_bound_at_most_discrepancy_relation((means, sds) in envelopes()) {
        // λ-discrepancy bound at λ=0 relates to KS bound: D ≤ 2·KS.
        let (h, s, l) = envelope_ecdfs(&means, &sds, 2.0).unwrap();
        let d = lambda_discrepancy_bound(&h, &s, &l, 0.0);
        let k = ks_bound(&h, &s, &l);
        prop_assert!(d <= 2.0 * k + 1e-9, "D bound {d} > 2 KS bound {k}");
    }

    #[test]
    fn mc_sample_counts_monotone(e1 in 0.02f64..0.3, e2 in 0.02f64..0.3,
                                 d in 0.01f64..0.2) {
        let (lo, hi) = if e1 < e2 { (e1, e2) } else { (e2, e1) };
        let a_lo = AccuracyRequirement::new(lo, d, 0.0, Metric::Ks).unwrap();
        let a_hi = AccuracyRequirement::new(hi, d, 0.0, Metric::Ks).unwrap();
        prop_assert!(a_lo.mc_samples() >= a_hi.mc_samples());
    }

    #[test]
    fn mc_filter_keeps_certain_events(mu in -3.0f64..3.0, sigma in 0.1f64..1.0,
                                      theta in 0.05f64..0.5) {
        // Predicate spanning ±20σ around the mean: TEP ≈ 1 ≫ θ.
        let udf = BlackBoxUdf::from_fn("id", 1, |x| x[0]);
        let input = InputDistribution::diagonal_gaussian(&[(mu, sigma)]).unwrap();
        let acc = AccuracyRequirement::new(0.2, 0.05, 0.0, Metric::Ks).unwrap();
        let pred = Predicate::new(mu - 20.0 * sigma, mu + 20.0 * sigma, theta).unwrap();
        // A real RNG: the polar-method normal sampler rejects degenerate
        // deterministic sequences.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64((mu.to_bits() >> 3) ^ sigma.to_bits());
        let d = mc_eval_tuple(&udf, &input, &acc, Some(&pred), &mut rng).unwrap();
        prop_assert!(!d.is_filtered());
    }

    #[test]
    fn tep_bounds_are_ordered((means, sds) in envelopes(),
                              a in -12.0f64..12.0, width in 0.0f64..10.0) {
        let (h, s, l) = envelope_ecdfs(&means, &sds, 2.0).unwrap();
        let out = udf_core::output::GpOutput {
            y_hat: h, y_s: s, y_l: l,
            eps_gp: 0.0, eps_mc: 0.0, z_alpha: 2.0,
            points_added: 0, retrained: false, udf_calls: 0, stop: None,
        };
        let (lo, mid, hi) = out.tep_bounds(a, a + width);
        prop_assert!(lo <= mid + 1e-12 && mid <= hi + 1e-12);
        prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }
}
