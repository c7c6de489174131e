//! Fig. 5(f,g), Expt 3: retraining strategies — accuracy and running time
//! as the Newton-step threshold Δ varies, compared with eager retraining and
//! no retraining (Funct4).
//!
//! Paper shape: small Δ ≈ eager accuracy at lower cost; very large Δ ≈ no
//! retraining and degrades accuracy; Δ ≲ 0.5 is the sweet spot.

use std::time::{Duration, Instant};
use udf_bench::{as_udf, ground_truth, header, paper_accuracy, standard_inputs};
use udf_core::config::{OlgaproConfig, RetrainStrategy};
use udf_core::olgapro::Olgapro;
use udf_prob::metrics::lambda_discrepancy;
use udf_workloads::synthetic::PaperFunction;

fn main() {
    header(
        "Fig 5(f,g)",
        "Expt 3 — retraining strategies (Funct4)",
        "strategy           mean error   time (ms/input)   retrains",
    );
    let f = PaperFunction::F4.instantiate(2);
    let range = f.output_range();
    let acc = paper_accuracy(range);
    let n_inputs = udf_bench::inputs_per_point().min(25);
    let inputs = standard_inputs(2, n_inputs, 77);

    let mut strategies: Vec<(String, RetrainStrategy)> = vec![
        ("Eager".into(), RetrainStrategy::Eager),
        ("NoRetraining".into(), RetrainStrategy::Never),
    ];
    for dt in [0.001, 0.01, 0.05, 0.1, 0.5, 1.0] {
        strategies.push((format!("Δ={dt}"), RetrainStrategy::NewtonThreshold(dt)));
    }

    for (label, strat) in strategies {
        let mut cfg = OlgaproConfig::new(acc, range).expect("config");
        cfg.retrain = strat;
        // Start with a deliberately misfit lengthscale so retraining matters.
        cfg.init_lengthscale = 4.0;
        let udf = as_udf(&f, Duration::ZERO);
        let mut olga = Olgapro::new(udf, cfg);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(78);
        let mut truth_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(79);
        let t0 = Instant::now();
        let mut outs = Vec::new();
        for input in &inputs {
            outs.push(olga.process(input, &mut rng).expect("process"));
        }
        let per_input = t0.elapsed().as_secs_f64() / inputs.len() as f64;
        let mut err = 0.0;
        for (input, out) in inputs.iter().zip(&outs) {
            let truth = ground_truth(&f, input, 20_000, &mut truth_rng);
            err += lambda_discrepancy(&out.y_hat, &truth, acc.lambda);
        }
        println!(
            "{:<18} {:>9.4}    {:>11.2}      {:>5}",
            label,
            err / inputs.len() as f64,
            per_input * 1e3,
            outs.iter().filter(|o| o.retrained).count()
        );
    }
    println!("\nExpected shape: thresholded ≈ eager accuracy with fewer retrains; Never is fastest but least accurate.");
}
