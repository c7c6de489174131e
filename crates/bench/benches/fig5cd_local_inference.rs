//! Fig. 5(c,d), Expt 1: local vs. global inference — accuracy and running
//! time as the threshold Γ sweeps from 0.1% to 20% of the function range,
//! with a fixed training set (Funct4).
//!
//! Paper shape: local inference matches global accuracy for most Γ while
//! running 2–4x faster.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use udf_bench::{ground_truth, header, paper_accuracy, standard_inputs};
use udf_core::error_bound::{envelope_ecdfs, lambda_discrepancy_bound};
use udf_core::udf::UdfFunction;
use udf_gp::local::{select_local_with, LocalPredictor};
use udf_gp::train::{train, TrainConfig};
use udf_gp::{GpModel, SelectScratch, SquaredExponential};
use udf_prob::metrics::lambda_discrepancy;
use udf_spatial::BoundingBox;

fn main() {
    header(
        "Fig 5(c,d)",
        "Expt 1 — local inference accuracy & time vs Γ (Funct4, fixed n=300)",
        "Γ (% range)   mode     mean error   error bound   time (ms)   avg |subset|",
    );
    let f = udf_workloads::synthetic::PaperFunction::F4.instantiate(2);
    let range = f.output_range();
    let acc = paper_accuracy(range);
    let n_inputs = udf_bench::inputs_per_point().min(15);
    let inputs = standard_inputs(2, n_inputs, 31);
    let m = 600usize; // fixed sample count per input for a fair comparison

    // Fixed training set of 300 points.
    let mut rng = StdRng::seed_from_u64(32);
    let xs: Vec<Vec<f64>> = (0..300)
        .map(|_| vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)])
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| f.eval(x)).collect();
    let mut model = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 2);
    model.fit(xs, ys).expect("fit");
    train(&mut model, &TrainConfig::default()).expect("train");

    let z = 3.0; // fixed band multiplier — identical across modes

    // Global baseline.
    let mut truth_rng = StdRng::seed_from_u64(33);
    let mut sample_rng = StdRng::seed_from_u64(34);
    let (g_err, g_bound, g_time) = run(
        &f,
        &model,
        &inputs,
        m,
        z,
        acc.lambda,
        None,
        &mut sample_rng,
        &mut truth_rng,
    );
    println!(
        "   --        global   {g_err:>9.4}   {g_bound:>10.4}   {:>8.2}    {:>6}",
        g_time * 1e3,
        model.len()
    );

    for gamma_pct in [0.1f64, 0.5, 1.0, 5.0, 10.0, 20.0] {
        let gamma = gamma_pct / 100.0 * range;
        let mut truth_rng = StdRng::seed_from_u64(33);
        let mut sample_rng = StdRng::seed_from_u64(34);
        let (err, bound, time) = run(
            &f,
            &model,
            &inputs,
            m,
            z,
            acc.lambda,
            Some(gamma),
            &mut sample_rng,
            &mut truth_rng,
        );
        // Report mean subset size.
        let mut rng2 = StdRng::seed_from_u64(34);
        let mut subset = 0usize;
        for input in &inputs {
            let samples = input.sample_n(&mut rng2, m);
            let bbox = BoundingBox::from_points(samples.iter().map(|s| s.as_slice()));
            let mut sel = SelectScratch::default();
            select_local_with(&model, &bbox, gamma, &mut sel).expect("select");
            subset += sel.selected.len();
        }
        println!(
            "{:>7.1}%      local    {err:>9.4}   {bound:>10.4}   {:>8.2}    {:>6}",
            gamma_pct,
            time * 1e3,
            subset / inputs.len()
        );
    }
    println!("\nExpected shape: local ≈ global accuracy for Γ ≤ ~5% of range, at 2-4x lower time.");
}

#[allow(clippy::too_many_arguments)]
fn run(
    f: &udf_workloads::synthetic::GaussianMixtureFn,
    model: &GpModel,
    inputs: &[udf_prob::InputDistribution],
    m: usize,
    z: f64,
    lambda: f64,
    gamma: Option<f64>,
    sample_rng: &mut StdRng,
    truth_rng: &mut StdRng,
) -> (f64, f64, f64) {
    let (mut err_sum, mut bound_sum) = (0.0, 0.0);
    let mut elapsed = 0.0;
    for input in inputs {
        let samples = input.sample_n(sample_rng, m);
        let t0 = Instant::now();
        let (means, sds): (Vec<f64>, Vec<f64>) = match gamma {
            None => samples
                .iter()
                .map(|s| {
                    let p = model.predict(s).expect("predict");
                    (p.mean, p.var.sqrt())
                })
                .unzip(),
            Some(g) => {
                let bbox = BoundingBox::from_points(samples.iter().map(|s| s.as_slice()));
                let mut sel = SelectScratch::default();
                select_local_with(model, &bbox, g, &mut sel).expect("select");
                let lp = LocalPredictor::new(model, sel.selected).expect("local predictor");
                samples
                    .iter()
                    .map(|s| {
                        let p = lp.predict(s).expect("predict");
                        (p.mean, p.var.sqrt())
                    })
                    .unzip()
            }
        };
        elapsed += t0.elapsed().as_secs_f64();
        let (y_hat, y_s, y_l) = envelope_ecdfs(&means, &sds, z).expect("ecdfs");
        bound_sum += lambda_discrepancy_bound(&y_hat, &y_s, &y_l, lambda);
        let truth = ground_truth(f, input, 20_000, truth_rng);
        err_sum += lambda_discrepancy(&y_hat, &truth, lambda);
    }
    let n = inputs.len() as f64;
    (err_sum / n, bound_sum / n, elapsed / n)
}
