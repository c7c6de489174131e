//! Ablation studies beyond the paper's figures — design choices the paper
//! states without measuring:
//!
//! * **Incremental Cholesky** — the §5.2 block update vs. refactorization;
//! * **ε split** — sensitivity to the ε_MC : ε_GP allocation (Profile 3
//!   recommends 0.7).

use rand::SeedableRng;
use std::time::{Duration, Instant};
use udf_bench::{
    as_udf, ground_truth, header, paper_accuracy, standard_inputs, total_ms_per_input,
};
use udf_core::config::OlgaproConfig;
use udf_core::olgapro::Olgapro;
use udf_core::udf::UdfFunction;
use udf_gp::{GpModel, SquaredExponential};
use udf_prob::metrics::lambda_discrepancy;
use udf_workloads::synthetic::PaperFunction;

fn main() {
    incremental();
    eps_split();
}

fn incremental() {
    header(
        "Ablation B",
        "incremental Cholesky append vs full refactorization",
        "n        incremental (ms)   refactor (ms)   speedup",
    );
    let f = PaperFunction::F3.instantiate(2);
    use rand::Rng;
    for n in [50usize, 100, 200, 400] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(n as u64);
        let pts: Vec<(Vec<f64>, f64)> = (0..n)
            .map(|_| {
                let x = vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)];
                let y = f.eval(&x);
                (x, y)
            })
            .collect();
        // Incremental adds.
        let t0 = Instant::now();
        let mut inc = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 2);
        for (x, y) in &pts {
            inc.add_point(x.clone(), *y).expect("add");
        }
        let t_inc = t0.elapsed();
        // Refit from scratch after each point (what §5.2 avoids).
        let t1 = Instant::now();
        let mut from_scratch = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 2);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (x, y) in &pts {
            let _ = &mut rng2;
            xs.push(x.clone());
            ys.push(*y);
            from_scratch.fit(xs.clone(), ys.clone()).expect("fit");
        }
        let t_ref = t1.elapsed();
        println!(
            "{n:<8} {:>14.2} {:>15.2} {:>9.1}x",
            t_inc.as_secs_f64() * 1e3,
            t_ref.as_secs_f64() * 1e3,
            t_ref.as_secs_f64() / t_inc.as_secs_f64().max(1e-9)
        );
    }
}

fn eps_split() {
    header(
        "Ablation C",
        "ε_MC fraction (Profile 3 recommends 0.7) — Funct4, T = 1 ms",
        "mc_fraction   time (ms/input)   mean error   UDF calls/input",
    );
    let f = PaperFunction::F4.instantiate(2);
    let range = f.output_range();
    let n_inputs = udf_bench::inputs_per_point().min(12);
    let inputs = standard_inputs(2, n_inputs, 210);
    for frac in [0.3f64, 0.5, 0.7, 0.9] {
        let acc = paper_accuracy(range);
        let mut cfg = OlgaproConfig::new(acc, range).expect("config");
        cfg.mc_fraction = frac;
        let udf = as_udf(&f, Duration::from_millis(1));
        let mut olga = Olgapro::new(udf.clone(), cfg);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(211);
        let mut truth_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(212);
        let t0 = Instant::now();
        let mut outs = Vec::new();
        for inp in &inputs {
            outs.push(olga.process(inp, &mut rng).expect("process"));
        }
        let ms_per_input = total_ms_per_input(t0.elapsed(), &udf, inputs.len());
        let mut err = 0.0;
        for (inp, out) in inputs.iter().zip(&outs) {
            let truth = ground_truth(&f, inp, 20_000, &mut truth_rng);
            err += lambda_discrepancy(&out.y_hat, &truth, paper_accuracy(range).lambda);
        }
        println!(
            "{frac:<13} {:>13.2} {:>12.4} {:>12.1}",
            ms_per_input,
            err / inputs.len() as f64,
            udf.calls() as f64 / inputs.len() as f64
        );
    }
    println!("\nExpected shape: small mc_fraction inflates sample counts; large starves the GP budget; 0.7 balanced.");
}
