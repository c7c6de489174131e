//! The paper's contract checked against ground truth: with probability
//! `1 − δ` an emitted distribution is within its reported `error_bound` of
//! the true output distribution, in the row's own metric (here the
//! λ-discrepancy, the paper's default), and §5.5 drops no tuple whose true
//! TEP reaches `θ + ε`.
//!
//! **Cells.** {F1, F2, F3, F4, GalAge, AngDist} × {Monte Carlo, GP uncapped,
//! GP capped at [`CAP`] points}. Every cell runs the same [`TUPLES`] seeded tuples of its
//! UDF through the batch operator, one tuple per batch (so each tuple's
//! band multiplier can be read off the model it is ruled by), behind a
//! selection predicate that keeps some tuples and drops others. The
//! uncapped GP cells are the tight-bound regime: a tuple is tuned until
//! `ε_GP` fits its share of ε, so the bound is ≈ ε by construction.
//!
//! **Truth.** 1-D inputs are Gaussian, and the truth is `f` on a
//! quantile-stratified grid `x_i = μ + σ Φ⁻¹((i − ½)/N)`, `N` = [`GRID`]. In
//! `u = Φ((x − μ)/σ)`, an output interval's preimage is at most `p`
//! intervals, `p` the number of monotone pieces of `f`, and each holds a
//! midpoint count within 1 of `N ×` its length: every interval probability
//! of the truth is within `p/N` of the exact one. `p ≤ 10` here (a
//! five-bump mixture has at most nine critical points; GalAge is
//! monotone), so that is ≤ 0.0025. AngDist's 2-D inputs get dense Monte
//! Carlo over [`TRUTH_MC`] samples: by DKW its KS distance is ≤ 0.0044 with
//! probability `1 − 10⁻³`, so every interval probability is within 0.0088.
//! Every comparison adds [`TRUTH_ERR`] = 0.01 for these.
//!
//! **Slack.** A row misses with probability ≤ δ, so a cell allows
//! ⌈Binomial(n, δ)'s 99.9 % quantile⌉ misses among its n kept rows, and as
//! many unsound drops among its dropped ones. A cell that exceeds that is
//! listed in [`OPEN`] with the count it had when this file was written and
//! asserts no more than that plus the slack: an open defect of the bound,
//! recorded, not hidden by loosening the check. A listed cell whose misses
//! are back within the slack fails too, so an entry cannot outlive its
//! defect.
//!
//! Each cell also prints the share of its kept GP rows whose band
//! multiplier sits at `simultaneous_z`'s floor of 1, and — a diagnostic,
//! asserted nowhere — `LOO>z`: the share of the final model's training
//! points whose standardized leave-one-out residual `|αᵢ|/√[K⁻¹]ᵢᵢ` (GPML
//! §5.4.2) exceeds the band multiplier that model puts on the last tuple.
//! A model whose own training points fall outside its band that often is
//! refuted by its training set. Two more diagnostics look *away from* the
//! training points: `picks`, the points the tuning loop added, and `pre>z`,
//! how many of them fell outside the band the model had inferred at them
//! just before (`olgapro.band_misses`). Under the fitted GP that share
//! would be about δ_GP. `s` is [`Olgapro::band_scale`] after the last
//! tuple: the RMS of those picks' standardized residuals since the last
//! retrain that moved the model, floored at 1 (1 below its minimum count).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udf_core::batch::{BatchSpec, Evaluator};
use udf_core::config::{AccuracyRequirement, Metric, OlgaproConfig};
use udf_core::filtering::{FilterDecision, Predicate};
use udf_core::olgapro::Olgapro;
use udf_core::sched::{mix_seed, BatchScheduler};
use udf_gp::band::simultaneous_z;
use udf_gp::GpModel;
use udf_linalg::{Cholesky, Matrix};
use udf_obs::MetricsRegistry;
use udf_prob::bounds::dkw_halfwidth;
use udf_prob::metrics::lambda_discrepancy;
use udf_prob::special::norm_ppf;
use udf_prob::{Ecdf, InputDistribution};
use udf_spatial::BoundingBox;
use udf_workloads::{GalaxyCatalog, UdfCatalog, UdfEntry};

/// The requested accuracy of every cell.
const EPS: f64 = 0.1;
const DELTA: f64 = 0.05;
/// Tuples per cell.
const TUPLES: usize = 48;
/// The model cap of the capped GP cells.
const CAP: usize = 12;
/// Grid points of a 1-D truth.
const GRID: usize = 4000;
/// Samples of a 2-D truth.
const TRUTH_MC: usize = 200_000;
/// How far a truth's interval probabilities may be from the exact ones.
const TRUTH_ERR: f64 = 0.01;
const SEED: u64 = 0xC0DE;

/// Cells over their binomial slack when this file was written, with the
/// misses (kept rows out of bound) they had: `(udf, mode, misses)`.
///
/// F2 uncapped: the truth of a tuple away from F2's one spike is a point
/// mass at `0⁺` (values below 10⁻⁴), while the GP, its `σ_f` trained down
/// to the floor of its box, emits means of about `−10⁻³` inside a band
/// narrower than that. An interval of length λ then separates the two
/// distributions completely (measured error ≈ 1) while the band's
/// envelopes agree with each other and report a bound of 0.2–0.8.
const OPEN: &[(&str, &str, usize)] = &[("F2", "GP", 9)];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Mc,
    Gp,
    Capped,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Mc, Mode::Gp, Mode::Capped];

    fn label(self) -> &'static str {
        match self {
            Mode::Mc => "MC",
            Mode::Gp => "GP",
            Mode::Capped => "GP cap",
        }
    }
}

/// One uncertain tuple and its true output distribution.
struct Tuple {
    input: InputDistribution,
    truth: Ecdf,
}

/// The truth of a 1-D Gaussian input (see the module docs).
fn grid_truth(entry: &UdfEntry, mu: f64, sigma: f64) -> Tuple {
    let at = |i: usize| mu + sigma * norm_ppf((i as f64 + 0.5) / GRID as f64);
    let values = (0..GRID).map(|i| entry.udf.eval(&[at(i)])).collect();
    Tuple {
        input: InputDistribution::diagonal_gaussian(&[(mu, sigma)]).unwrap(),
        truth: Ecdf::new(values).unwrap(),
    }
}

/// The truth of any input by dense Monte Carlo (see the module docs).
fn mc_truth(entry: &UdfEntry, input: InputDistribution, rng: &mut StdRng) -> Tuple {
    let mut x = vec![0.0; input.dim()];
    let values = (0..TRUTH_MC)
        .map(|_| {
            input.sample_into(rng, &mut x);
            entry.udf.eval(&x)
        })
        .collect();
    Tuple {
        input,
        truth: Ecdf::new(values).unwrap(),
    }
}

/// The UDF's seeded tuples and the predicate they are ruled by: keep a
/// tuple when its output is, with probability ≥ ½, below the 70th
/// percentile of the tuples' true medians (every UDF here is
/// non-negative), so that about a third are dropped, some of them close
/// to the threshold.
fn workload(name: &str) -> (UdfEntry, Vec<Tuple>, Predicate) {
    let entry = UdfCatalog::standard().get(name).unwrap().clone();
    let mut rng = StdRng::seed_from_u64(SEED ^ name.len() as u64);
    let tuples: Vec<Tuple> = match name {
        "GalAge" => {
            let cat = GalaxyCatalog::generate(TUPLES, &mut rng);
            let rows = cat.rows().iter();
            rows.map(|r| grid_truth(&entry, r.z_mean, r.z_sigma))
                .collect()
        }
        "AngDist" => {
            let cat = GalaxyCatalog::generate(TUPLES, &mut rng);
            (0..TUPLES)
                .map(|i| {
                    let j = (i + 1 + rng.gen_range(0..TUPLES - 1)) % TUPLES;
                    mc_truth(&entry, cat.pair_input(i, j), &mut rng)
                })
                .collect()
        }
        _ => (0..TUPLES)
            .map(|_| grid_truth(&entry, rng.gen_range(0.5..9.5), 0.5))
            .collect(),
    };
    let medians = Ecdf::new(tuples.iter().map(|t| t.truth.quantile(0.5)).collect()).unwrap();
    let predicate = Predicate::new(-1.0, medians.quantile(0.7), 0.5).unwrap();
    (entry, tuples, predicate)
}

/// What one cell measured.
#[derive(Debug, Default)]
struct Cell {
    kept: usize,
    /// Kept rows whose measured error exceeds `error_bound + TRUTH_ERR`.
    misses: usize,
    dropped: usize,
    /// Dropped tuples whose true TEP is ≥ `θ + ε + TRUTH_ERR`.
    unsound: usize,
    /// Kept GP rows whose band multiplier is 1.
    at_floor: usize,
    /// Σ error_bound / ε over the kept rows.
    bound_over_eps: f64,
    /// The final model's `LOO>z` share (GP cells only).
    loo_over_z: Option<f64>,
    /// Tuning picks, and those outside their pre-pick band (GP cells only).
    picks: Option<(usize, u64)>,
    /// The final model's band scale (GP cells only).
    band_scale: Option<f64>,
}

/// `simultaneous_z` of the tuple the batch operator is about to rule: its
/// samples come first off the tuple's RNG on either path, and nothing
/// before the slow path's last retrain changes the kernel.
fn band_multiplier(olga: &Olgapro, input: &InputDistribution, spec: &BatchSpec, id: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(mix_seed(spec.seed, spec.stream, id));
    let samples = input.sample_n(&mut rng, olga.config().samples_per_input());
    let bbox = BoundingBox::from_points(samples.iter().map(|s| s.as_slice()));
    simultaneous_z(olga.model().kernel(), &bbox, olga.config().split().delta_gp)
}

/// The share of `model`'s training points whose standardized leave-one-out
/// residual `|αᵢ|/√[K⁻¹]ᵢᵢ` exceeds `z`, with `K` rebuilt the way the model
/// factors it: the kernel over `inputs()`, plus `jitter()` on the diagonal.
fn loo_over(model: &GpModel, z: f64) -> f64 {
    let xs = model.inputs();
    let k = Matrix::from_symmetric_fn(xs.len(), |i, j| model.kernel().eval(&xs[i], &xs[j]));
    let (chol, _) = Cholesky::factor_with_jitter(&k, model.jitter(), 8).unwrap();
    let alpha = chol.solve(model.targets()).unwrap();
    let inverse = chol.inverse().unwrap();
    let over = (0..xs.len())
        .filter(|&i| alpha[i].abs() / inverse[(i, i)].sqrt() > z)
        .count();
    over as f64 / xs.len() as f64
}

fn run_cell(entry: &UdfEntry, tuples: &[Tuple], predicate: Predicate, mode: Mode) -> Cell {
    let lambda = entry.default_lambda();
    let accuracy = AccuracyRequirement::new(EPS, DELTA, lambda, Metric::Discrepancy).unwrap();
    let udf = entry.udf.clone();
    let metrics = MetricsRegistry::new();
    let mut eval = match mode {
        Mode::Mc => Evaluator::Mc { udf, accuracy },
        Mode::Gp | Mode::Capped => {
            let mut config = OlgaproConfig::new(accuracy, entry.output_range).unwrap();
            if mode == Mode::Capped {
                config.set_model_cap(CAP).unwrap();
            }
            Evaluator::Gp(Box::new(Olgapro::new(udf, config).with_metrics(&metrics)))
        }
    };
    let sched = BatchScheduler::new(1);
    let spec = BatchSpec {
        seed: SEED,
        stream: 0,
        predicate: Some(predicate),
    };
    let mut cell = Cell::default();
    for (id, tuple) in (0u64..).zip(tuples) {
        let z = eval
            .olgapro()
            .map(|olga| band_multiplier(olga, &tuple.input, &spec, id));
        let mut ruling = None;
        eval.run_two_phase(
            &sched,
            spec,
            1,
            |_| (id, &tuple.input),
            |_, r| ruling = Some(r),
        )
        .unwrap();
        match ruling.expect("one ruling per tuple") {
            FilterDecision::Kept { output, .. } => {
                let error = lambda_discrepancy(&output.ecdf, &tuple.truth, lambda);
                cell.kept += 1;
                cell.misses += usize::from(error > output.error_bound + TRUTH_ERR);
                cell.at_floor += usize::from(z == Some(1.0));
                cell.bound_over_eps += output.error_bound / EPS;
            }
            FilterDecision::Filtered { .. } => {
                let tep = tuple.truth.interval_prob(predicate.lo, predicate.hi);
                cell.dropped += 1;
                cell.unsound += usize::from(tep >= predicate.theta + EPS + TRUTH_ERR);
            }
        }
    }
    if let (Some(olga), Some(last)) = (eval.olgapro(), tuples.last()) {
        let z = band_multiplier(olga, &last.input, &spec, tuples.len() as u64 - 1);
        cell.loo_over_z = Some(loo_over(olga.model(), z));
        // Nothing leaves a model, so every point past the bootstrap is a pick.
        let picks = olga.model().len() - olga.config().bootstrap_points.max(2);
        let outside = metrics.snapshot().counters["olgapro.band_misses"];
        cell.picks = Some((picks, outside));
        cell.band_scale = Some(olga.band_scale());
    }
    cell
}

/// ⌈the 99.9 % quantile of Binomial(n, p)⌉: the fewest misses `k` with
/// `Pr[X ≤ k] ≥ 0.999`.
fn binomial_slack(n: usize, p: f64) -> usize {
    let mut pmf = (1.0 - p).powi(n as i32);
    let mut cdf = pmf;
    let mut k = 0;
    while cdf < 0.999 && k < n {
        pmf *= (n - k) as f64 / (k + 1) as f64 * p / (1.0 - p);
        cdf += pmf;
        k += 1;
    }
    k
}

fn check_udf(name: &str) {
    assert!(10.0 / GRID as f64 <= TRUTH_ERR);
    assert!(2.0 * dkw_halfwidth(TRUTH_MC, 1e-3) <= TRUTH_ERR);
    let (entry, tuples, predicate) = workload(name);
    let mut table = format!(
        "{name:<8} {:<13} {:>5} {:>6} {:>5} {:>7} {:>7} {:>7} {:>9} {:>6} {:>5} {:>5} {:>5}\n",
        "cell",
        "kept",
        "misses",
        "slack",
        "dropped",
        "unsound",
        "z = 1",
        "bound/ε",
        "LOO>z",
        "picks",
        "pre>z",
        "s"
    );
    let mut failures = Vec::new();
    for mode in Mode::ALL {
        let cell = run_cell(&entry, &tuples, predicate, mode);
        let slack = binomial_slack(cell.kept, DELTA);
        let listed = OPEN
            .iter()
            .find(|(udf, label, _)| *udf == name && *label == mode.label());
        let open = listed.map_or(0, |&(.., misses)| misses);
        let per_row = |x: f64| x / cell.kept.max(1) as f64;
        let at_floor = match mode {
            Mode::Mc => "-".to_string(),
            _ => format!("{:.2}", per_row(cell.at_floor as f64)),
        };
        let loo = cell
            .loo_over_z
            .map_or("-".to_string(), |s| format!("{s:.2}"));
        let (picks, outside) = cell
            .picks
            .map_or(("-".to_string(), "-".to_string()), |(p, o)| {
                (p.to_string(), o.to_string())
            });
        let scale = cell
            .band_scale
            .map_or("-".to_string(), |s| format!("{s:.2}"));
        table += &format!(
            "{name:<8} {:<13} {:>5} {:>6} {:>5} {:>7} {:>7} {:>7} {:>9.2} {:>6} {:>5} {:>5} {:>5}\n",
            mode.label(),
            cell.kept,
            cell.misses,
            slack,
            cell.dropped,
            cell.unsound,
            at_floor,
            per_row(cell.bound_over_eps),
            loo,
            picks,
            outside,
            scale,
        );
        if cell.misses > open + slack {
            failures.push(format!("{}: {} misses", mode.label(), cell.misses));
        }
        if listed.is_some() && cell.misses <= slack {
            failures.push(format!(
                "{}: {} misses, within the slack of {slack}: delete this OPEN entry",
                mode.label(),
                cell.misses
            ));
        }
        if cell.unsound > binomial_slack(cell.dropped, DELTA) {
            failures.push(format!("{}: {} unsound drops", mode.label(), cell.unsound));
        }
    }
    println!("{table}");
    assert!(failures.is_empty(), "{name}: {failures:?}\n{table}");
}

#[test]
fn f1_bounds_hold() {
    check_udf("F1");
}

#[test]
fn f2_bounds_hold() {
    check_udf("F2");
}

#[test]
fn f3_bounds_hold() {
    check_udf("F3");
}

#[test]
fn f4_bounds_hold() {
    check_udf("F4");
}

#[test]
fn galage_bounds_hold() {
    check_udf("GalAge");
}

#[test]
fn angdist_bounds_hold() {
    check_udf("AngDist");
}
