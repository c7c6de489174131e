//! Distance metrics between random variables (§2.1, Definitions 1–3).
//!
//! All three metrics are suprema of differences of interval probabilities and
//! are computed exactly on empirical CDFs in one linear walk over the merged
//! support ([`MergedSupport`]: no sort, no binary search — the ECDFs are
//! already sorted, and the walk hands out integer ranks):
//!
//! * **KS** (Def. 2): `sup_y |F(y) − G(y)|` — one-sided intervals;
//! * **discrepancy** (Def. 1): `sup_{a≤b} |P_F[a,b] − P_G[a,b]|` — two-sided;
//! * **λ-discrepancy** (Def. 3): restricted to `b − a ≥ λ`.
//!
//! Writing `g(y) = F(y) − G(y)`, an interval difference is
//! `P_F[a,b] − P_G[a,b] = g(b) − g(a⁻)`, so both sweeps reduce to extremizing
//! `g` over its step points. Left limits need no separate candidates: `g` is
//! a right-continuous step function, so `g(v_i⁻)` *is* `g(v_{i−1})` (0 below
//! the support), a value the walk has already seen. The λ-constrained sweep
//! treats the boundary case `a = b − λ` inclusively ("a slightly above
//! `v_i`"), which can only *over*-estimate the supremum by an
//! infinitesimal-interval relaxation — the conservative direction for error
//! bounds.

use crate::ecdf::Ecdf;
use crate::merged::MergedSupport;

/// `g(v) = F(v) − G(v)` at each distinct point `v` of the merged support,
/// ascending, in the floats [`Ecdf::cdf`] would return.
fn cdf_differences<'a>(f: &'a Ecdf, g: &'a Ecdf) -> impl Iterator<Item = (f64, f64)> + 'a {
    let (mf, mg) = (f.len() as f64, g.len() as f64);
    MergedSupport::new([f, g]).map(move |(v, [rf, rg])| (v, rf as f64 / mf - rg as f64 / mg))
}

/// Exact Kolmogorov–Smirnov distance between two empirical CDFs.
pub fn ks(f: &Ecdf, g: &Ecdf) -> f64 {
    // The sup of a difference of step functions is attained at a step of
    // one of them.
    cdf_differences(f, g).fold(0.0, |best, (_, d)| best.max(d.abs()))
}

/// Exact discrepancy measure `D(F, G)` (Definition 1).
pub fn discrepancy(f: &Ecdf, g: &Ecdf) -> f64 {
    lambda_discrepancy(f, g, 0.0)
}

/// λ-discrepancy `D_λ(F, G)` (Definition 3); `lambda = 0` recovers
/// the plain discrepancy.
pub fn lambda_discrepancy(f: &Ecdf, g: &Ecdf, lambda: f64) -> f64 {
    debug_assert!(lambda >= 0.0);
    let steps: Vec<(f64, f64)> = cdf_differences(f, g).collect();

    // Two-pointer sweep: for each right endpoint b = v_j, admit left-end
    // candidates a with a ≤ b − λ. The left value g(a⁻) ranges over
    // {0} ∪ {g(v_i) : v_i ≤ b − λ}.
    let mut lo = 0.0f64; // prefix min of admissible left values (0 = a below support)
    let mut hi = 0.0f64; // prefix max
    let mut i = 0usize;
    let mut best = 0.0f64;
    for &(b, g_b) in &steps {
        while i < steps.len() && steps[i].0 <= b - lambda {
            lo = lo.min(steps[i].1);
            hi = hi.max(steps[i].1);
            i += 1;
        }
        best = best.max(g_b - lo).max(hi - g_b);
    }
    // b beyond the top of the support: the interval [a, ∞) has g(b) = 0 and
    // admits every candidate.
    for &(_, g_a) in &steps[i..] {
        lo = lo.min(g_a);
        hi = hi.max(g_a);
    }
    best.max(-lo).max(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::norm_cdf;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One-sample KS distance between an empirical CDF and an analytic CDF.
    fn ks_to_cdf(e: &Ecdf, cdf: impl Fn(f64) -> f64) -> f64 {
        let m = e.len() as f64;
        let mut best = 0.0f64;
        for (i, &x) in e.values().iter().enumerate() {
            let fx = cdf(x);
            best = best
                .max(((i + 1) as f64 / m - fx).abs())
                .max((fx - i as f64 / m).abs());
        }
        best
    }

    fn e(v: &[f64]) -> Ecdf {
        Ecdf::new(v.to_vec()).unwrap()
    }

    #[test]
    fn ks_identical_is_zero() {
        let a = e(&[1.0, 2.0, 3.0]);
        assert_eq!(ks(&a, &a), 0.0);
        assert_eq!(discrepancy(&a, &a), 0.0);
    }

    #[test]
    fn ks_disjoint_is_one() {
        let a = e(&[1.0, 2.0]);
        let b = e(&[10.0, 11.0]);
        assert_eq!(ks(&a, &b), 1.0);
        assert_eq!(discrepancy(&a, &b), 1.0);
    }

    #[test]
    fn ks_shifted_half() {
        // F puts mass at {1, 3}, G at {2, 4}: max gap is 0.5.
        let a = e(&[1.0, 3.0]);
        let b = e(&[2.0, 4.0]);
        assert!((ks(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn discrepancy_at_most_twice_ks_and_at_least_ks() {
        // D ≤ 2·KS (paper §2.1) and D ≥ KS (one-sided intervals are a
        // special case of two-sided when the support is bounded below).
        let a = e(&[0.0, 1.0, 2.0, 3.0, 10.0]);
        let b = e(&[0.5, 1.5, 2.5, 3.5, 4.0]);
        let k = ks(&a, &b);
        let d = discrepancy(&a, &b);
        assert!(d <= 2.0 * k + 1e-12, "D = {d}, KS = {k}");
        assert!(d >= k - 1e-12, "D = {d}, KS = {k}");
    }

    #[test]
    fn discrepancy_interleaved_exceeds_ks() {
        // Interleaved supports: each one-sided gap is 1/2, but the interval
        // [1, 1] vs its complement pushes the two-sided measure higher.
        let a = e(&[1.0, 1.0]); // point mass at 1
        let b = e(&[0.0, 2.0]); // mass surrounding it
        let k = ks(&a, &b);
        let d = discrepancy(&a, &b);
        assert!((k - 0.5).abs() < 1e-12);
        assert!(
            (d - 1.0).abs() < 1e-12,
            "interval [1,1] captures all of a, none of b"
        );
    }

    #[test]
    fn lambda_reduces_discrepancy() {
        let a = e(&[1.0, 1.0]);
        let b = e(&[0.0, 2.0]);
        // With λ = 3 the interval must span the whole support: difference 0
        // at [−∞-ish, ∞-ish] style windows, but windows of length ≥ 3
        // containing 1 also contain 0 or 2 partially... compute and compare.
        let d0 = lambda_discrepancy(&a, &b, 0.0);
        let d3 = lambda_discrepancy(&a, &b, 3.0);
        assert!(d3 <= d0);
        // Monotone in λ.
        let d1 = lambda_discrepancy(&a, &b, 1.0);
        assert!(d1 <= d0 && d3 <= d1, "d0={d0} d1={d1} d3={d3}");
    }

    #[test]
    fn lambda_zero_equals_discrepancy() {
        let a = e(&[0.3, 0.7, 1.2, 5.0]);
        let b = e(&[0.1, 0.9, 1.0, 4.0]);
        assert_eq!(discrepancy(&a, &b), lambda_discrepancy(&a, &b, 0.0));
    }

    #[test]
    fn ks_to_analytic_normal() {
        // Large equiprobable grid from the normal quantiles has tiny KS.
        let m = 2000;
        let samples: Vec<f64> = (1..=m)
            .map(|i| crate::special::norm_ppf((i as f64 - 0.5) / m as f64))
            .collect();
        let ec = Ecdf::new(samples).unwrap();
        let d = ks_to_cdf(&ec, norm_cdf);
        assert!(d < 1.0 / m as f64 + 1e-6, "KS to analytic = {d}");
    }

    #[test]
    fn discrepancy_symmetry() {
        let a = e(&[0.0, 1.0, 4.0]);
        let b = e(&[0.5, 2.0, 3.0]);
        assert!((discrepancy(&a, &b) - discrepancy(&b, &a)).abs() < 1e-15);
        assert!((ks(&a, &b) - ks(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn brute_force_agreement_small_cases() {
        // Exhaustively check the sweep against an O(k²) brute force on the
        // candidate grid for several small sample sets.
        let cases = [
            (vec![1.0, 2.0, 3.0], vec![1.5, 2.5, 3.5]),
            (vec![0.0, 0.0, 5.0], vec![1.0, 4.0, 4.0]),
            (vec![2.0], vec![1.0, 3.0]),
        ];
        for (xs, ys) in cases {
            let a = e(&xs);
            let b = e(&ys);
            for &lambda in &[0.0, 0.5, 1.0, 2.0] {
                let fast = lambda_discrepancy(&a, &b, lambda);
                let brute = brute_lambda_discrepancy(&a, &b, lambda);
                assert!(
                    (fast - brute).abs() < 1e-12,
                    "λ={lambda}: fast={fast} brute={brute} xs={xs:?} ys={ys:?}"
                );
            }
        }
    }

    /// `ks` as it was before the merged walk: both CDFs binary-searched at
    /// every sample and at its left limit.
    fn ks_oracle(f: &Ecdf, g: &Ecdf) -> f64 {
        let mut best = 0.0f64;
        for v in f.values().iter().chain(g.values()) {
            let d_right = (f.cdf(*v) - g.cdf(*v)).abs();
            let left = v.next_down();
            let d_left = (f.cdf(left) - g.cdf(left)).abs();
            best = best.max(d_right).max(d_left);
        }
        best
    }

    /// `lambda_discrepancy` as it was before the merged walk: sort + dedup
    /// of the concatenated samples, binary-searched step arrays with
    /// explicit left limits, then the same two-pointer sweep.
    fn lambda_discrepancy_oracle(f: &Ecdf, g: &Ecdf, lambda: f64) -> f64 {
        let mut v: Vec<f64> = f.values().iter().chain(g.values()).copied().collect();
        v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("ECDF values are finite"));
        v.dedup();
        let g_at: Vec<f64> = v.iter().map(|&y| f.cdf(y) - g.cdf(y)).collect();
        let g_left: Vec<f64> = v
            .iter()
            .map(|&y| f.cdf(y.next_down()) - g.cdf(y.next_down()))
            .collect();
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        let mut i = 0usize;
        let mut best = 0.0f64;
        for (j, &b) in v.iter().enumerate() {
            while i < v.len() && v[i] <= b - lambda {
                lo = lo.min(g_left[i]).min(g_at[i]);
                hi = hi.max(g_left[i]).max(g_at[i]);
                i += 1;
            }
            best = best.max(g_at[j] - lo).max(hi - g_at[j]);
            if j + 1 == v.len() {
                let (mut lo2, mut hi2) = (lo, hi);
                while i < v.len() {
                    lo2 = lo2.min(g_left[i]).min(g_at[i]);
                    hi2 = hi2.max(g_left[i]).max(g_at[i]);
                    i += 1;
                }
                best = best.max(-lo2).max(hi2);
            }
        }
        best
    }

    /// A random sample of length 1..=2000 (mostly short, so ten thousand
    /// cases stay cheap), continuous or — `grid` — on a 0.5 grid with
    /// signed zeros, so ties within and across ECDFs are the norm.
    fn random_sample(rng: &mut StdRng, grid: bool) -> Vec<f64> {
        let m = if rng.gen_bool(0.1) {
            rng.gen_range(1..=2000)
        } else {
            rng.gen_range(1..=48)
        };
        (0..m)
            .map(|_| match (grid, rng.gen_range(-6i32..=6)) {
                (false, _) => rng.gen_range(-3.0..3.0),
                (true, 0) if rng.gen_bool(0.5) => -0.0,
                (true, k) => 0.5 * f64::from(k),
            })
            .collect()
    }

    #[test]
    fn merged_walk_is_bit_identical_to_sort_and_search() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut cases = 0;
        for case in 0..3000 {
            let grid = case % 2 == 1;
            let a = e(&random_sample(&mut rng, grid));
            // Every third pair is the same ECDF twice (a zero-width envelope).
            let b = if case % 3 == 0 {
                a.clone()
            } else {
                e(&random_sample(&mut rng, grid))
            };
            assert_eq!(
                ks(&a, &b).to_bits(),
                ks_oracle(&a, &b).to_bits(),
                "ks, case {case}"
            );
            let width = a.max().max(b.max()) - a.min().min(b.min());
            for lambda in [0.0, 1e-3, width * rng.gen_range(0.05..0.6), width + 1.0] {
                assert_eq!(
                    lambda_discrepancy(&a, &b, lambda).to_bits(),
                    lambda_discrepancy_oracle(&a, &b, lambda).to_bits(),
                    "λ-discrepancy, case {case}, λ = {lambda}"
                );
                cases += 1;
            }
        }
        assert!(cases >= 10_000);
    }

    /// O(k²) reference: try every pair of candidate endpoints on a fine grid
    /// derived from the supports.
    fn brute_lambda_discrepancy(f: &Ecdf, g: &Ecdf, lambda: f64) -> f64 {
        let mut pts: Vec<f64> = f.values().iter().chain(g.values()).copied().collect();
        // Candidate a/b endpoints: at each support point and slightly around it.
        let eps = 1e-9;
        let mut cand = Vec::new();
        for &p in &pts {
            cand.extend_from_slice(&[p - eps, p, p + eps]);
        }
        pts = cand;
        pts.push(f.min().min(g.min()) - 1.0);
        pts.push(f.max().max(g.max()) + 1.0);
        pts.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let mut best = 0.0f64;
        for (i, &a) in pts.iter().enumerate() {
            for &b in &pts[i..] {
                if b - a < lambda {
                    continue;
                }
                let d = (f.interval_prob(a, b) - g.interval_prob(a, b)).abs();
                best = best.max(d);
            }
        }
        best
    }
}
