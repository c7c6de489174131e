//! Fig. 5(e), Expt 2: online tuning — accumulated training points over a
//! stream of inputs for three point-selection heuristics: random,
//! largest-variance (the paper's), and the hypothetical "optimal greedy".
//!
//! Paper shape: largest-variance needs fewer points than random and tracks
//! optimal-greedy closely.

use std::time::Duration;
use udf_bench::{as_udf, header, paper_accuracy, standard_inputs};
use udf_core::config::OlgaproConfig;
use udf_core::olgapro::{Olgapro, TuningHeuristic};
use udf_workloads::synthetic::PaperFunction;

fn main() {
    header(
        "Fig 5(e)",
        "Expt 2 — online tuning heuristics (Funct4, accumulated points added)",
        "calls   Random   LargestVariance   OptimalGreedy",
    );
    let f = PaperFunction::F4.instantiate(2);
    let range = f.output_range();
    let acc = paper_accuracy(range);
    let n_calls = udf_bench::inputs_per_point().min(40);
    let inputs = standard_inputs(2, n_calls, 55);

    let heuristics = [
        TuningHeuristic::Random,
        TuningHeuristic::LargestVariance,
        TuningHeuristic::OptimalGreedy,
    ];
    let mut curves: Vec<Vec<usize>> = Vec::new();
    for h in heuristics {
        let cfg = OlgaproConfig::new(acc, range).expect("config");
        let mut olga = Olgapro::new(as_udf(&f, Duration::ZERO), cfg).with_tuning(h);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(56);
        let mut curve = Vec::with_capacity(inputs.len());
        let mut added = 0;
        for input in &inputs {
            added += olga.process(input, &mut rng).expect("process").points_added;
            curve.push(added);
        }
        curves.push(curve);
    }
    for (i, _) in inputs.iter().enumerate() {
        if i % 2 == 0 || i + 1 == inputs.len() {
            println!(
                "{:>5}   {:>6}   {:>15}   {:>13}",
                i + 1,
                curves[0][i],
                curves[1][i],
                curves[2][i]
            );
        }
    }
    println!("\nExpected shape: LargestVariance ≤ Random, close to OptimalGreedy.");
}
