//! Envelope-based pair pruning (§4.2 band bounds + §5.5 filtering, applied
//! per candidate pair).
//!
//! Two tiers, split so that *correctness never depends on the cheap tier*:
//!
//! 1. **R-tree screen** — the right side's argument-mean points are
//!    indexed in a [`udf_spatial::RTree`]; its leaf cells cluster nearby
//!    tuples. For each left tuple × right cell, one posterior-mean probe
//!    at the cell's joint center decides whether the cell's pairs are
//!    *worth attempting* to prune (mean far outside the predicate
//!    interval → likely certifiable). A wrong screen costs (or saves)
//!    only certificate attempts, never output rows.
//! 2. **exact per-pair certificate** — draws the pair's canonical Monte
//!    Carlo samples (same seed stream as the fast path would use), takes
//!    their bounding box and the fast path's own `z_α`, and asks
//!    [`envelope_certify`] to prove `ρ_U = 0` from band bounds over the
//!    box. A certified pair is *provably* one the two-phase accept hook
//!    would have filtered at fast-path cost, so skipping it cannot change
//!    any output — the parity tests pin this byte-for-byte. What it saves
//!    is the per-sample local GP inference (the `O(l³)` subset factor
//!    plus `O(l²)` variance per sample), the dominant cost of a filtered
//!    pair.

use crate::spec::{JoinSpec, Side};
use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use udf_core::filtering::{envelope_certify, EnvelopeDecision, Predicate};
use udf_core::olgapro::Olgapro;
use udf_core::sched::mix_seed;
use udf_gp::band::simultaneous_z;
use udf_prob::InputDistribution;
use udf_spatial::{BoundingBox, RTree};

/// Screen margin in predicate-interval widths: a cell is worth certifying
/// when the posterior mean at its joint center sits at least this many
/// interval widths outside `[lo, hi]`. Screens are heuristics (see module
/// docs), so this needs to be plausible, not sound.
const SCREEN_MARGIN_WIDTHS: f64 = 1.0;

/// Screen coverage radius: the distance at which the kernel decays to this
/// fraction of its zero-distance value. Beyond it the single-point variance
/// bound is already a sizeable fraction of the prior sd, so certificates
/// rarely decide — screens skip such regions.
const COVERAGE_KERNEL_FRACTION: f64 = 0.9;

/// Distance where `k(r) = COVERAGE_KERNEL_FRACTION · k(0)` (bisection).
/// Depends only on the model's kernel — compute once per join and pass
/// into every [`PairPruner::attempts`] call.
pub fn coverage_radius(olga: &Olgapro) -> f64 {
    let kernel = olga.model().kernel();
    let target = COVERAGE_KERNEL_FRACTION * kernel.eval_dist(0.0);
    let mut hi = 1.0;
    while kernel.eval_dist(hi) > target && hi < 1e6 {
        hi *= 2.0;
    }
    let mut lo = 0.0;
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if kernel.eval_dist(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The joint input distribution of pair `(i, j)` — bit-identical to what
/// [`udf_query::UdfCall::input_distribution`] builds on the concatenated
/// tuple, without materializing it.
pub fn pair_input(spec: &JoinSpec<'_>, i: usize, j: usize) -> Result<InputDistribution> {
    let marginals = spec
        .arg_values(i, j)
        .iter()
        .map(|v| v.marginal())
        .collect::<udf_query::Result<Vec<_>>>()?;
    Ok(InputDistribution::independent(marginals)?)
}

/// One right-side leaf cell of the screen index.
struct Cell {
    /// Box over member argument-mean points (right-arg dims only).
    bbox: BoundingBox,
    /// Member right-tuple indices.
    members: Vec<usize>,
}

/// The pruning context for one join: the right side's screen index plus
/// the argument layout needed to assemble joint boxes in call order.
pub struct PairPruner {
    cells: Vec<Cell>,
    /// For each UDF argument: `Some(r)` when it is the `r`-th *right*-side
    /// argument (its dimension in the cell boxes), `None` for left args.
    right_pos: Vec<Option<usize>>,
}

impl PairPruner {
    /// Index the right side's argument means in an R-tree and snapshot its
    /// leaf cells.
    pub fn new(spec: &JoinSpec<'_>) -> Self {
        let mut right_pos = Vec::with_capacity(spec.args.len());
        let mut right_args = Vec::new();
        for a in &spec.args {
            match a.side {
                Side::Left => right_pos.push(None),
                Side::Right => {
                    right_pos.push(Some(right_args.len()));
                    right_args.push(a.index);
                }
            }
        }
        let nr = spec.right.len();
        let cells = if right_args.is_empty() || nr == 0 {
            // Degenerate: no right-side argument dims to cluster on — one
            // cell holding everyone (the screen reduces to the left point).
            vec![Cell {
                bbox: BoundingBox::from_point(&[]),
                members: (0..nr).collect(),
            }]
        } else {
            let points: Vec<(Vec<f64>, usize)> = (0..nr)
                .map(|j| {
                    let t = &spec.right.tuples()[j];
                    (right_args.iter().map(|&c| t.value(c).mean()).collect(), j)
                })
                .collect();
            let tree = RTree::bulk_load(right_args.len(), points);
            tree.leaf_groups()
                .into_iter()
                .map(|(bbox, members)| Cell { bbox, members })
                .collect()
        };
        PairPruner { cells, right_pos }
    }

    /// Number of screen cells (R-tree leaves) on the right side.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Screen left tuple `i` against every right cell: returns, per right
    /// tuple `j`, whether the exact per-pair certificate is worth
    /// attempting (the posterior mean at the cell's joint center sits well
    /// outside the predicate interval). Purely advisory — see the module
    /// docs.
    pub fn attempts(
        &self,
        spec: &JoinSpec<'_>,
        i: usize,
        olga: &Olgapro,
        pred: &Predicate,
        coverage: f64,
    ) -> Vec<bool> {
        let mut attempt = vec![false; spec.right.len()];
        let margin = SCREEN_MARGIN_WIDTHS * (pred.hi - pred.lo);
        for cell in &self.cells {
            let center = self.cell_center(spec, i, cell);
            let Ok(mean) = olga.model().predict_mean(&center) else {
                continue; // cold model: nothing is certifiable anyway
            };
            // Certificates only succeed where the band is tight: the mean
            // must sit well outside the interval AND the model must have
            // training data near the region (queried through the model's
            // own R-tree) — otherwise the sd bound is prior-wide and the
            // attempt is wasted work.
            if (mean < pred.lo - margin || mean > pred.hi + margin)
                && !olga
                    .model()
                    .spatial_index()
                    .query_within(&BoundingBox::from_point(&center), coverage)
                    .is_empty()
            {
                for &j in &cell.members {
                    attempt[j] = true;
                }
            }
        }
        attempt
    }

    /// The joint center of left tuple `i` × a right cell, in UDF-argument
    /// order: left argument means plus the cell box's midpoints.
    fn cell_center(&self, spec: &JoinSpec<'_>, i: usize, cell: &Cell) -> Vec<f64> {
        let left = &spec.left.tuples()[i];
        spec.args
            .iter()
            .zip(&self.right_pos)
            .map(|(a, rp)| match rp {
                None => left.value(a.index).mean(),
                Some(r) => 0.5 * (cell.bbox.lo()[*r] + cell.bbox.hi()[*r]),
            })
            .collect()
    }

    /// The exact certificate for pair `(i, j)` at global pair index `idx`:
    /// draw the pair's canonical samples, bracket the band over their
    /// bounding box with the fast path's own `z_α`, and decide. Returns
    /// the decision and the pair's input distribution (reused by the
    /// caller when the pair must be evaluated after all).
    pub fn certify_pair(
        &self,
        spec: &JoinSpec<'_>,
        olga: &Olgapro,
        pred: &Predicate,
        i: usize,
        j: usize,
        idx: usize,
    ) -> Result<(EnvelopeDecision, InputDistribution)> {
        let input = pair_input(spec, i, j)?;
        let m = olga.config().samples_per_input();
        let delta_gp = olga.config().split().delta_gp;
        let mut rng = StdRng::seed_from_u64(mix_seed(spec.seed, 0, idx as u64));
        let samples = input.sample_n(&mut rng, m);
        let bbox = BoundingBox::from_points(samples.iter().map(|s| s.as_slice()));
        let z = simultaneous_z(olga.model().kernel(), &bbox, delta_gp);
        Ok((envelope_certify(olga, &bbox, z, pred), input))
    }
}
