//! Error bounds on GP output distributions (§4.2–§4.3).
//!
//! Given the three empirical CDFs produced by sampling the GP posterior —
//! Ŷ′ (mean function), Y′_S (lower envelope `f̂ − z_α σ`), Y′_L (upper
//! envelope `f̂ + z_α σ`) — the GP share of the error is
//!
//! `ε_GP = sup_{[a,b]: b−a≥λ} max(ρ′_U − ρ̂′, ρ̂′ − ρ′_L)`
//!
//! with `ρ′_U = F_S(b) − F_L(a)` and `ρ′_L = max(0, F_L(b) − F_S(a))`
//! (Eqs. 3–4). This module implements the paper's **Algorithm 3** instead of
//! the naive O(m²) enumeration of interval endpoints, and — because the
//! three ECDFs arrive sorted — does it in O(m): one three-way
//! [`MergedSupport`] walk yields the candidate endpoints and all three step
//! arrays (no sort, no search), one backward pass the suffix maxima of the
//! envelope gaps, and one forward sweep over `a` the supremum, in which the
//! smallest admissible `b` (`a + λ`) and the case split of `ρ′_L` are two
//! pointers that only move right, since `a + λ` and `F_S(a)` never decrease.
//! Each pointer first takes up to four steps at once — four compares
//! against the next four entries, summed, on arrays padded with NaN past the
//! upper sentinel — so the usual short advance costs no data-dependent
//! branch; only a longer jump falls through to the one-step loop. The
//! running and suffix maxima are plain compares. The `O(m log m)` left in an
//! inference is [`envelope_ecdfs`]' three sorts, of integer keys
//! ([`Ecdf::new`]). All buffers live in a `BoundScratch`, so a lane that
//! keeps one allocates nothing per bound.
//!
//! Interval convention: probabilities are CDF differences (`(a, b]`
//! half-open), consistent across all three CDFs, matching Algorithm 3's use
//! of `Pr[Y ≤ ·]` everywhere; the supremum over the enumerated endpoints
//! equals the two-sided-interval supremum for continuous outputs.

use udf_prob::metrics::ks;
use udf_prob::{Ecdf, MergedSupport};

/// The six buffers of one Algorithm-3 sweep, each `distinct support + 2`
/// long (two of them padded by [`STEPS`]): the candidate endpoints, the
/// three CDFs there, and the two suffix maxima. Reused across calls they
/// stop growing after the first.
#[derive(Debug, Default, Clone)]
pub(crate) struct BoundScratch([Vec<f64>; 6]);

/// The λ-discrepancy GP error bound ε_GP (Algorithm 3).
///
/// `y_hat`, `y_s`, `y_l` are the empirical CDFs of the mean and of the
/// lower/upper envelope functions; the envelope CDF ordering
/// `F_S ≥ F̂ ≥ F_L` holds by construction (each sample's envelope values
/// bracket its mean value).
pub fn lambda_discrepancy_bound(y_hat: &Ecdf, y_s: &Ecdf, y_l: &Ecdf, lambda: f64) -> f64 {
    lambda_discrepancy_bound_with(y_hat, y_s, y_l, lambda, &mut BoundScratch::default())
}

/// [`lambda_discrepancy_bound`] in caller-provided buffers.
pub(crate) fn lambda_discrepancy_bound_with(
    y_hat: &Ecdf,
    y_s: &Ecdf,
    y_l: &Ecdf,
    lambda: f64,
    scratch: &mut BoundScratch,
) -> f64 {
    debug_assert!(lambda >= 0.0);
    for buf in &mut scratch.0 {
        buf.clear();
        // The most the merge can yield, so ties never decide the capacity.
        buf.reserve(y_hat.len() + y_s.len() + y_l.len() + 2 + STEPS);
    }
    let [vals, f_hat, f_s, f_l, sm_su, sm_hl] = &mut scratch.0;

    // Step arrays at each candidate point: the merged support between two
    // sentinels (below: all CDFs 0; above: all CDFs 1 — ranked like any
    // other point, so a sentinel that rounds onto the support stays exact).
    let (m_hat, m_s, m_l) = (y_hat.len() as f64, y_s.len() as f64, y_l.len() as f64);
    let lo_sent = y_hat.min().min(y_s.min()).min(y_l.min()) - lambda - 1.0;
    let hi_sent = y_hat.max().max(y_s.max()).max(y_l.max()) + lambda + 1.0;
    let sentinel = |y: f64| (y, [y_hat.count_le(y), y_s.count_le(y), y_l.count_le(y)]);
    let points = std::iter::once(sentinel(lo_sent))
        .chain(MergedSupport::new([y_hat, y_s, y_l]))
        .chain(std::iter::once(sentinel(hi_sent)));
    for (y, [r_hat, r_s, r_l]) in points {
        vals.push(y);
        f_hat.push(r_hat as f64 / m_hat);
        f_s.push(r_s as f64 / m_s);
        f_l.push(r_l as f64 / m_l);
    }
    let k = vals.len();
    // Room for `steps_le`'s window past the upper sentinel: NaN is `≤`
    // nothing, not even an `a + λ` that rounded to +∞.
    vals.extend([f64::NAN; STEPS]);
    f_l.extend([f64::NAN; STEPS]);

    // Suffix maxima (Algorithm 3 Step 2):
    //   sm_su[j] = max_{i ≥ j} (F_S − F̂)(v_i)   — for ρ′_U − ρ̂′
    //   sm_hl[j] = max_{i ≥ j} (F̂ − F_L)(v_i)   — for ρ̂′ − ρ′_L, case B
    // A right-continuous step function's sup over { b ≥ t } is its suffix
    // maximum from the last point ≤ t (t's flat segment) on.
    sm_su.resize(k, 0.0);
    sm_hl.resize(k, 0.0);
    let (mut su, mut hl) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for j in (0..k).rev() {
        raise(&mut su, f_s[j] - f_hat[j]);
        raise(&mut hl, f_hat[j] - f_l[j]);
        sm_su[j] = su;
        sm_hl[j] = hl;
    }

    // One running maximum per candidate family — folded into a single one
    // they would form a serial `max` chain three links long per point. The
    // supremum is the largest of the same finite values either way.
    let (mut best_u, mut best_a, mut best_b) = (0.0f64, 0.0f64, 0.0f64);
    let mut floor = 0; // largest index with vals[floor] ≤ a + λ
    let mut k1 = 0; // first index with F_L > F_S(a)
    for ai in 0..k {
        let t = vals[ai] + lambda; // b must satisfy b ≥ t
        if t > hi_sent {
            break; // every later a + λ is at least as large
        }
        floor += steps_le(vals, floor + 1, t);
        while floor + 1 < k && vals[floor + 1] <= t {
            floor += 1;
        }

        // --- ρ′_U − ρ̂′ = (F_S − F̂)(b) + (F̂ − F_L)(a), b ≥ t.
        raise(&mut best_u, sm_su[floor] + (f_hat[ai] - f_l[ai]));

        // --- ρ̂′ − ρ′_L = F̂(b) − F̂(a) − max(0, F_L(b) − F_S(a)), b ≥ t.
        let c = f_s[ai];
        // Case A: F_L(b) ≤ c. F_L(b) ≤ c holds for b < vals[k1]; on that
        // region F̂ is maximized just below vals[k1] (i.e. at index k1-1),
        // subject to b ≥ t.
        k1 += steps_le(f_l, k1, c);
        while k1 < k && f_l[k1] <= c {
            k1 += 1;
        }
        if k1 > 0 {
            let b_region_top = k1 - 1; // largest index with F_L ≤ c
            if vals[b_region_top] >= t {
                raise(&mut best_a, f_hat[b_region_top] - f_hat[ai]);
            } else if k1 < k && t < vals[k1] {
                // b ∈ [t, vals[k1]) nonempty; F̂ there equals F̂(floor(t)).
                raise(&mut best_a, f_hat[floor] - f_hat[ai]);
            }
        }
        // Case B: F_L(b) > c, i.e. b ≥ vals[k1] (if any); also b ≥ t.
        if k1 < k {
            let from = if t >= vals[k1] { floor } else { k1 };
            raise(&mut best_b, sm_hl[from] + (c - f_hat[ai]));
        }
    }
    best_u.max(best_a).max(best_b)
}

/// How far [`steps_le`] looks ahead.
const STEPS: usize = 4;

/// How many of `xs[at..at + STEPS]` are `≤ t`: four compares and no branch.
/// On an ascending `xs` those are a leading run, so a pointer advanced by
/// the count lands where stepping one element at a time would have stopped
/// — unless all four were, and the plain loop goes on from there.
#[inline(always)]
fn steps_le(xs: &[f64], at: usize, t: f64) -> usize {
    xs[at..at + STEPS]
        .iter()
        .map(|&x| usize::from(x <= t))
        .sum()
}

/// `*max = max.max(x)` as one compare: `x` is finite here and never `−0.0`
/// (CDF values are `+0.0` or positive, and no difference or sum of values
/// that are not `−0.0` rounds to `−0.0`), so `f64::max`'s NaN and
/// signed-zero handling has nothing to decide.
#[inline(always)]
fn raise(max: &mut f64, x: f64) {
    if x > *max {
        *max = x;
    }
}

/// The KS-metric GP error bound (Proposition 4.2): the KS distance between
/// Ŷ′ and each envelope output, maximized.
pub fn ks_bound(y_hat: &Ecdf, y_s: &Ecdf, y_l: &Ecdf) -> f64 {
    ks(y_hat, y_s).max(ks(y_hat, y_l))
}

/// Each sample's band `[f̂ − zσ, f̂, f̂ + zσ]` — the one place the envelope
/// values are formed, so a count over this and an ECDF of it agree bit for bit.
fn band<'a>(means: &'a [f64], sds: &'a [f64], z: f64) -> impl Iterator<Item = [f64; 3]> + 'a {
    debug_assert_eq!(means.len(), sds.len());
    means
        .iter()
        .zip(sds)
        .map(move |(m, s)| [m - z * s, *m, m + z * s])
}

/// Build the three empirical CDFs from per-sample posterior predictions.
///
/// `means[i]` and `sds[i]` are the GP posterior mean/standard deviation at
/// input sample `i`; the envelopes are `mean ∓ z·sd` (Y_S from the lower
/// envelope, Y_L from the upper).
pub fn envelope_ecdfs(means: &[f64], sds: &[f64], z: f64) -> udf_prob::Result<(Ecdf, Ecdf, Ecdf)> {
    let y_hat = Ecdf::new(means.to_vec())?;
    let (y_s, y_l) = band_ecdfs(means, sds, z, Default::default())?;
    Ok((y_hat, y_s, y_l))
}

/// Y′_S and Y′_L alone, for a caller that already holds Ŷ′ of these means,
/// sorted in the two buffers given ([`Ecdf::into_values`] hands them back).
pub(crate) fn band_ecdfs(
    means: &[f64],
    sds: &[f64],
    z: f64,
    [mut y_s, mut y_l]: [Vec<f64>; 2],
) -> udf_prob::Result<(Ecdf, Ecdf)> {
    for (side, buf) in [(0, &mut y_s), (2, &mut y_l)] {
        buf.clear();
        buf.extend(band(means, sds, z).map(|b| b[side]));
    }
    Ok((Ecdf::new(y_s)?, Ecdf::new(y_l)?))
}

/// `GpOutput::tep_bounds`' `ρ_U = F_S(hi) − F_L(lo)` by counting over the
/// unsorted band (§5.5 needs no ECDF to rule a tuple), fed one block of
/// samples at a time: `r_S` counts `f̂ − zσ ≤ hi`, `r_L` counts `f̂ + zσ ≤ lo`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RhoCount {
    r_s: usize,
    r_l: usize,
    non_finite: bool,
}

impl RhoCount {
    /// Count the next block of samples.
    pub(crate) fn add(&mut self, means: &[f64], sds: &[f64], z: f64, lo: f64, hi: f64) {
        for [low, _, high] in band(means, sds, z) {
            self.non_finite |= !(low.is_finite() && high.is_finite());
            self.r_s += usize::from(low <= hi);
            self.r_l += usize::from(high <= lo);
        }
    }

    /// ρ_U of `m` samples if the `unseen` ones not counted yet all land in
    /// `r_S` and none in `r_L`. With `unseen = 0` that is `tep_bounds`' ρ_U
    /// in the same floats; otherwise it is ≥ whatever the full count gives,
    /// as division, subtraction and clamping round monotonically — so a
    /// value below θ already rules the tuple the way the full count would.
    /// NaN once a non-finite band value was counted: what
    /// [`envelope_ecdfs`] rejects, and below no θ.
    pub(crate) fn upper(&self, m: usize, unseen: usize) -> f64 {
        let m = m as f64;
        if self.non_finite {
            f64::NAN
        } else {
            ((self.r_s + unseen) as f64 / m - self.r_l as f64 / m).clamp(0.0, 1.0)
        }
    }
}

/// A lower bound on ε_GP, in floats, from counting alone: `F_S(a) − F̂(a)` at
/// one level `a`. Algorithm 3 meets that very value as a candidate — `b` the
/// upper sentinel, always ≥ `a + λ`, where `F̂ − F_L` is `1 − 1`: case B's
/// suffix maximum is then ≥ 0 and only adds, and case A takes over when
/// `F_S(a) = 1` — and [`ks_bound`] as `|F̂ − F_S|(a)`, both from the same ranks
/// through the same divisions. So a floor above the budget proves the bound
/// is too, which is all Algorithm 5's loop asks. `a` is the best edge of a
/// 64-bin histogram of "the lower band straddles this level", recounted
/// exactly; a poor pick only lowers the floor. NaN when a band value is not
/// finite, like [`RhoCount::upper`].
pub(crate) fn eps_gp_floor(means: &[f64], sds: &[f64], z: f64) -> f64 {
    const BINS: usize = 64;
    let (mut bottom, mut top, mut finite) = (f64::INFINITY, f64::NEG_INFINITY, true);
    for [low, mean, high] in band(means, sds, z) {
        finite &= low.is_finite() && high.is_finite();
        bottom = bottom.min(low);
        top = top.max(mean);
    }
    if !finite {
        return f64::NAN;
    }
    // Edge k sits at `bottom + k / scale`; a sample straddles the edges from
    // the first at or above its lower band value to the last below its mean.
    let scale = BINS as f64 / (top - bottom);
    let edge = |y: f64| (((y - bottom) * scale).ceil() as usize).min(BINS + 1);
    let mut delta = [0i32; BINS + 2];
    for [low, mean, _] in band(means, sds, z) {
        delta[edge(low)] += 1;
        delta[edge(mean)] -= 1;
    }
    let (mut straddlers, mut best, mut k_best) = (0, 0, 0);
    for (k, d) in delta.iter().enumerate() {
        straddlers += d;
        if straddlers > best {
            (best, k_best) = (straddlers, k);
        }
    }
    let level = bottom + k_best as f64 / scale;
    let (mut r_s, mut r_hat) = (0usize, 0usize);
    for [low, mean, _] in band(means, sds, z) {
        r_s += usize::from(low <= level);
        r_hat += usize::from(mean <= level);
    }
    let m = means.len() as f64;
    r_s as f64 / m - r_hat as f64 / m
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Naive O(k²) reference implementation: enumerate all candidate
    /// endpoint pairs.
    fn lambda_discrepancy_bound_naive(y_hat: &Ecdf, y_s: &Ecdf, y_l: &Ecdf, lambda: f64) -> f64 {
        let mut v: Vec<f64> = y_hat
            .values()
            .iter()
            .chain(y_s.values())
            .chain(y_l.values())
            .copied()
            .collect();
        v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        v.dedup();
        let lo = v[0] - lambda - 1.0;
        let hi = v[v.len() - 1] + lambda + 1.0;
        let mut vals = vec![lo];
        vals.extend_from_slice(&v);
        vals.push(hi);

        let mut best = 0.0f64;
        for (i, &a) in vals.iter().enumerate() {
            // Candidate right endpoints: later support values plus b = a + λ
            // exactly (the supremum can fall between support points when the
            // length constraint binds).
            let candidates = vals[i..].iter().copied().chain(std::iter::once(a + lambda));
            for b in candidates {
                if b - a < lambda {
                    continue;
                }
                let rho_hat = y_hat.cdf(b) - y_hat.cdf(a);
                let rho_u = y_s.cdf(b) - y_l.cdf(a);
                let rho_l = (y_l.cdf(b) - y_s.cdf(a)).max(0.0);
                best = best.max(rho_u - rho_hat).max(rho_hat - rho_l);
            }
        }
        best.max(0.0)
    }

    fn envelopes() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
        prop::collection::vec((-10.0f64..10.0, 0.0f64..1.5), 2..60)
            .prop_map(|pts| pts.into_iter().unzip())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn algorithm3_matches_naive((means, sds) in envelopes(), z in 0.5f64..4.0,
                                    lambda in 0.0f64..3.0) {
            let (h, s, l) = envelope_ecdfs(&means, &sds, z).unwrap();
            let fast = lambda_discrepancy_bound(&h, &s, &l, lambda);
            let naive = lambda_discrepancy_bound_naive(&h, &s, &l, lambda);
            prop_assert!((fast - naive).abs() < 1e-10, "fast {fast} vs naive {naive}");
            prop_assert!((0.0..=1.0 + 1e-12).contains(&fast));
        }
    }

    impl BoundScratch {
        /// Heap capacity of each buffer (what "allocates nothing" is tested on).
        pub(crate) fn capacities(&self) -> [usize; 6] {
            self.0.each_ref().map(Vec::capacity)
        }
    }

    fn random_triple(seed: u64, m: usize) -> (Ecdf, Ecdf, Ecdf) {
        let mut rng = StdRng::seed_from_u64(seed);
        let means: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let sds: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
        envelope_ecdfs(&means, &sds, 2.0).unwrap()
    }

    /// Algorithm 3 as it was before the merged walk: sort + dedup of the
    /// 3m concatenated samples, binary-searched step arrays, and a binary
    /// search per candidate for `floor_idx` and the case split.
    fn lambda_discrepancy_bound_oracle(y_hat: &Ecdf, y_s: &Ecdf, y_l: &Ecdf, lambda: f64) -> f64 {
        let mut v: Vec<f64> = y_hat
            .values()
            .iter()
            .chain(y_s.values())
            .chain(y_l.values())
            .copied()
            .collect();
        v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("ECDF values are finite"));
        v.dedup();
        let lo_sent = v[0] - lambda - 1.0;
        let hi_sent = v[v.len() - 1] + lambda + 1.0;
        let mut vals = Vec::with_capacity(v.len() + 2);
        vals.push(lo_sent);
        vals.extend_from_slice(&v);
        vals.push(hi_sent);
        let k = vals.len();

        let f_hat: Vec<f64> = vals.iter().map(|&y| y_hat.cdf(y)).collect();
        let f_s: Vec<f64> = vals.iter().map(|&y| y_s.cdf(y)).collect();
        let f_l: Vec<f64> = vals.iter().map(|&y| y_l.cdf(y)).collect();

        let mut sm_su = vec![f64::NEG_INFINITY; k + 1];
        let mut sm_hl = vec![f64::NEG_INFINITY; k + 1];
        for j in (0..k).rev() {
            sm_su[j] = sm_su[j + 1].max(f_s[j] - f_hat[j]);
            sm_hl[j] = sm_hl[j + 1].max(f_hat[j] - f_l[j]);
        }

        let floor_idx = |t: f64| -> usize { vals.partition_point(|&x| x <= t) - 1 };
        let step_sup_from = |suffix: &[f64], t: f64, point_vals: &dyn Fn(usize) -> f64| -> f64 {
            let fi = floor_idx(t);
            point_vals(fi).max(suffix[fi + 1])
        };

        let mut best = 0.0f64;
        for (ai, &a) in vals.iter().enumerate() {
            let t = a + lambda;
            if t > hi_sent {
                continue;
            }
            let su_b = step_sup_from(&sm_su, t, &|i| f_s[i] - f_hat[i]);
            best = best.max(su_b + (f_hat[ai] - f_l[ai]));

            let c = f_s[ai];
            let k1 = f_l.partition_point(|&x| x <= c);
            if k1 > 0 {
                let b_region_top = k1 - 1;
                if vals[b_region_top] >= t {
                    best = best.max(f_hat[b_region_top] - f_hat[ai]);
                } else if k1 < k && t < vals[k1] {
                    best = best.max(f_hat[floor_idx(t)] - f_hat[ai]);
                }
            }
            if k1 < k {
                let t2 = t.max(vals[k1]);
                let hl_b = step_sup_from(&sm_hl, t2, &|i| f_hat[i] - f_l[i]);
                best = best.max(hl_b + (c - f_hat[ai]));
            }
        }
        best.max(0.0)
    }

    /// Length 1..=2000, mostly short so thousands of cases stay cheap.
    fn random_len(rng: &mut StdRng) -> usize {
        if rng.gen_bool(0.1) {
            rng.gen_range(1..=2000)
        } else {
            rng.gen_range(1..=48)
        }
    }

    /// `m` values, continuous or — `grid` — on a 0.5 grid with signed
    /// zeros, so ties within and across ECDFs are the norm; times `scale`.
    fn random_values(rng: &mut StdRng, m: usize, grid: bool, scale: f64) -> Vec<f64> {
        (0..m)
            .map(|_| match (grid, rng.gen_range(-6i32..=6)) {
                (false, _) => scale * rng.gen_range(-3.0..3.0),
                (true, 0) if rng.gen_bool(0.5) => -0.0,
                (true, k) => scale * 0.5 * f64::from(k),
            })
            .collect()
    }

    /// The 3 000 triples the sweep is pinned on — continuous or gridded
    /// with signed zeros, envelope-built (sd = 0 on every fourth) or three
    /// unrelated ECDFs of unequal length, every 25th scaled so far out that
    /// the sentinels round onto the support. `f` also gets the means and sds
    /// behind an envelope-built triple (z = 2), and the RNG between cases.
    type Band<'a> = Option<(&'a [f64], &'a [f64])>;
    fn for_each_triple(mut f: impl FnMut(usize, (&Ecdf, &Ecdf, &Ecdf), Band, &mut StdRng)) {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for case in 0..3000 {
            let grid = case % 2 == 1;
            // Every 25th case is so large that `min − λ − 1` rounds back
            // onto the support: the sentinels stop being strict.
            let scale = if case % 25 == 24 { 1e17 } else { 1.0 };
            match case % 3 {
                // Envelopes as inference builds them; sd = 0 on every
                // fourth makes the three ECDFs identical.
                0 => {
                    let m = random_len(&mut rng);
                    let means = random_values(&mut rng, m, grid, scale);
                    let sd_max = if case % 4 == 0 { 0.0 } else { scale };
                    let sds: Vec<f64> = random_values(&mut rng, m, grid, sd_max)
                        .iter()
                        .map(|sd| sd.abs())
                        .collect();
                    let (h, s, l) = envelope_ecdfs(&means, &sds, 2.0).unwrap();
                    f(case, (&h, &s, &l), Some((&means, &sds)), &mut rng);
                }
                // Three unrelated ECDFs of unequal length (no F_S ≥ F̂ ≥ F_L).
                _ => {
                    let mut one = || {
                        let m = random_len(&mut rng);
                        Ecdf::new(random_values(&mut rng, m, grid, scale)).unwrap()
                    };
                    let (h, s, l) = (one(), one(), one());
                    f(case, (&h, &s, &l), None, &mut rng);
                }
            }
        }
    }

    #[test]
    fn merged_sweep_is_bit_identical_to_sort_and_search() {
        // One scratch for every case: stale contents of any length must
        // not leak into the next bound.
        let mut scratch = BoundScratch::default();
        let mut cases = 0;
        let mut check = |(h, s, l): (&Ecdf, &Ecdf, &Ecdf), lambda: f64, case: usize| {
            let want = lambda_discrepancy_bound_oracle(h, s, l, lambda);
            let got = lambda_discrepancy_bound_with(h, s, l, lambda, &mut scratch);
            assert_eq!(got.to_bits(), want.to_bits(), "case {case}, λ = {lambda}");
            cases += 1;
        };
        for_each_triple(|case, triple, _, rng| {
            let (h, s, l) = triple;
            let width = h.max().max(s.max()).max(l.max()) - h.min().min(s.min()).min(l.min());
            for lambda in [0.0, 1e-3, width * rng.gen_range(0.05..0.6), width + 1.0] {
                check(triple, lambda, case);
            }
        });
        // Supports of one to four distinct points, where the pointer steps
        // look at nothing but the padding past the upper sentinel; every
        // other case so far out that `a + λ` rounds to +∞ on the support.
        let mut rng = StdRng::seed_from_u64(0x5ba11);
        let mut at_infinity = 0;
        for case in 0..2000 {
            let distinct = 1 + case % 4;
            let scale = if case % 2 == 0 { 1.0 } else { 1e300 };
            let mut one = || {
                let m = rng.gen_range(1..=6);
                let ys = (0..m).map(|_| scale * (rng.gen_range(0..distinct) as f64 + 1.0));
                Ecdf::new(ys.collect()).unwrap()
            };
            let (h, s, l) = (one(), one(), one());
            for lambda in [0.0, 0.5 * scale, 2.0 * scale, f64::MAX] {
                check((&h, &s, &l), lambda, case);
                at_infinity += usize::from(h.max() + lambda == f64::INFINITY);
            }
        }
        assert!(cases >= 18_000 && at_infinity >= 500);
    }

    #[test]
    fn counting_never_exceeds_the_bounds_it_stands_in_for() {
        // What the tuning loop relies on: at *every* level a, the float
        // `F_S(a) − F̂(a)` — two ranks, two divisions — is ≤ Algorithm 3's
        // and Prop. 4.2's results, with no tolerance; on any triple, since
        // the upper sentinel the claim goes through reads 1 on every CDF.
        let (mut probes, mut floors, mut positive) = (0u64, 0, 0);
        for_each_triple(|case, (h, s, l), band, rng| {
            let (bottom, top) = (s.min().min(h.min()), s.max().max(h.max()));
            let ks = ks_bound(h, s, l);
            // (The last two λ dwarf the values: every `a + λ` rounds past
            // the support, and all that is left is what is claimed here.)
            for lambda in [0.0, 0.02, 0.2, 1e3 * (top - bottom + 1.0), 1e17] {
                let eps = lambda_discrepancy_bound(h, s, l, lambda);
                let support = s.values().iter().chain(h.values()).copied();
                let random = (0..8).map(|_| bottom + (top - bottom) * rng.gen_range(-0.1..1.1));
                for a in support.chain(random).collect::<Vec<_>>() {
                    let floor = s.cdf(a) - h.cdf(a);
                    assert!(
                        floor <= eps,
                        "case {case} λ {lambda} a {a}: {floor} > {eps}"
                    );
                    assert!(floor <= ks, "case {case} a {a}: {floor} > {ks}");
                    probes += 1;
                }
                if let Some((means, sds)) = band {
                    let floor = eps_gp_floor(means, sds, 2.0);
                    assert!(
                        floor <= eps && floor <= ks,
                        "case {case} λ {lambda}: {floor}"
                    );
                    floors += 1;
                    positive += usize::from(floor > 0.0);
                }
            }
        });
        assert!(probes > 100_000 && floors == 5000 && positive > 2500);
    }

    /// ρ_U counted over `means[..k]` with the rest unseen.
    fn counted(means: &[f64], sds: &[f64], k: usize, lo: f64, hi: f64) -> f64 {
        let mut count = RhoCount::default();
        count.add(&means[..k], &sds[..k], 2.0, lo, hi);
        count.upper(means.len(), means.len() - k)
    }

    #[test]
    fn counted_rho_upper_is_tep_bounds_bitwise_and_nan_on_a_non_finite_band() {
        for_each_triple(|case, (h, s, l), band, rng| {
            let Some((means, sds)) = band else { return };
            let out = crate::output::GpOutput {
                y_hat: h.clone(),
                y_s: s.clone(),
                y_l: l.clone(),
                eps_gp: 0.0,
                eps_mc: 0.0,
                z_alpha: 2.0,
                points_added: 0,
                retrained: false,
                udf_calls: 0,
                stop: None,
            };
            // Interval ends on band values (ties) and off them.
            let ends = [s.min(), l.max(), h.quantile(0.3), rng.gen_range(-3.0..3.0)];
            let m = means.len();
            for lo in ends {
                for hi in ends {
                    let full = counted(means, sds, m, lo, hi);
                    assert_eq!(full.to_bits(), out.tep_bounds(lo, hi).2.to_bits(), "{case}");
                    // Any prefix, the rest unseen, bounds the full count.
                    for k in [0, 1, m / 3, m / 2, m - 1] {
                        let prefix = counted(means, sds, k, lo, hi);
                        assert!(prefix >= full, "{case} k {k}: {prefix} < {full}");
                    }
                }
            }
        });
        for bad in [f64::NAN, f64::INFINITY, 1e308] {
            let (means, sds) = ([0.0, bad, 1.0], [0.1, 1e308, 0.1]);
            assert!(counted(&means, &sds, 3, 0.0, 1.0).is_nan());
            assert!(counted(&means, &sds, 2, 0.0, 1.0).is_nan());
            assert!(counted(&means, &sds, 1, 0.0, 1.0).is_finite());
            assert!(eps_gp_floor(&means, &sds, 2.0).is_nan());
            assert!(envelope_ecdfs(&means, &sds, 2.0).is_err());
        }
    }

    #[test]
    fn zero_envelope_gives_zero_bound() {
        let means = vec![1.0, 2.0, 3.0, 4.0];
        let sds = vec![0.0; 4];
        let (h, s, l) = envelope_ecdfs(&means, &sds, 3.0).unwrap();
        assert_eq!(lambda_discrepancy_bound(&h, &s, &l, 0.0), 0.0);
        assert_eq!(ks_bound(&h, &s, &l), 0.0);
    }

    #[test]
    fn fast_matches_naive_on_random_inputs() {
        for seed in 0..20 {
            let (h, s, l) = random_triple(seed, 40);
            for &lambda in &[0.0, 0.1, 0.5, 2.0, 10.0] {
                let fast = lambda_discrepancy_bound(&h, &s, &l, lambda);
                let naive = lambda_discrepancy_bound_naive(&h, &s, &l, lambda);
                assert!(
                    (fast - naive).abs() < 1e-12,
                    "seed={seed} λ={lambda}: fast={fast} naive={naive}"
                );
            }
        }
    }

    #[test]
    fn bound_shrinks_with_lambda() {
        let (h, s, l) = random_triple(7, 60);
        let b0 = lambda_discrepancy_bound(&h, &s, &l, 0.0);
        let b1 = lambda_discrepancy_bound(&h, &s, &l, 1.0);
        let b5 = lambda_discrepancy_bound(&h, &s, &l, 5.0);
        assert!(b1 <= b0 + 1e-12);
        assert!(b5 <= b1 + 1e-12);
    }

    #[test]
    fn bound_shrinks_with_tighter_envelope() {
        let mut rng = StdRng::seed_from_u64(3);
        let means: Vec<f64> = (0..50).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let sds: Vec<f64> = (0..50).map(|_| rng.gen_range(0.1..0.5)).collect();
        let (h1, s1, l1) = envelope_ecdfs(&means, &sds, 1.0).unwrap();
        let (h3, s3, l3) = envelope_ecdfs(&means, &sds, 3.0).unwrap();
        assert!(
            lambda_discrepancy_bound(&h1, &s1, &l1, 0.1)
                <= lambda_discrepancy_bound(&h3, &s3, &l3, 0.1) + 1e-12
        );
        assert!(ks_bound(&h1, &s1, &l1) <= ks_bound(&h3, &s3, &l3) + 1e-12);
    }

    #[test]
    fn bound_dominates_any_envelope_member_discrepancy() {
        // Any Ỹ′ built from per-sample values inside [mean−zσ, mean+zσ] must
        // have λ-discrepancy from Ŷ′ within the bound (Proposition 4.1).
        let mut rng = StdRng::seed_from_u64(11);
        let means: Vec<f64> = (0..80).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let sds: Vec<f64> = (0..80).map(|_| rng.gen_range(0.05..0.6)).collect();
        let z = 2.0;
        let (h, s, l) = envelope_ecdfs(&means, &sds, z).unwrap();
        for lambda in [0.0, 0.5] {
            let bound = lambda_discrepancy_bound(&h, &s, &l, lambda);
            for trial in 0..10 {
                let mut trial_rng = StdRng::seed_from_u64(100 + trial);
                let tilde: Vec<f64> = means
                    .iter()
                    .zip(&sds)
                    .map(|(m, sd)| m + trial_rng.gen_range(-1.0..1.0) * z * sd)
                    .collect();
                let y_tilde = Ecdf::new(tilde).unwrap();
                let d = udf_prob::metrics::lambda_discrepancy(&y_tilde, &h, lambda);
                assert!(
                    d <= bound + 1e-9,
                    "λ={lambda} trial={trial}: D = {d} exceeds bound {bound}"
                );
            }
        }
    }

    #[test]
    fn ks_bound_dominates_envelope_members() {
        let (h, s, l) = random_triple(21, 60);
        let bound = ks_bound(&h, &s, &l);
        // The extreme members are the envelopes themselves (Prop. 4.2).
        assert!(udf_prob::metrics::ks(&h, &s) <= bound + 1e-15);
        assert!(udf_prob::metrics::ks(&h, &l) <= bound + 1e-15);
    }

    #[test]
    fn wide_envelope_saturates_near_one() {
        let means = vec![0.0; 30];
        let sds = vec![100.0; 30];
        let (h, s, l) = envelope_ecdfs(&means, &sds, 3.0).unwrap();
        let b = lambda_discrepancy_bound(&h, &s, &l, 0.0);
        assert!(b > 0.9, "bound = {b}");
    }
}
