//! Fig. 5(i), Expt 5: GP vs. MC total time as the UDF evaluation time T
//! sweeps from 1 µs to 1 s (ε = 0.1).
//!
//! Paper shape: MC time scales linearly with T (m ≈ thousands of calls per
//! input); GP time is nearly insensitive to T after convergence. Crossover
//! near 0.1 ms for F1 and near 10 ms for F4.

use std::time::Duration;
use udf_bench::{as_udf, header, paper_accuracy, run_mc, run_olgapro, standard_inputs};
use udf_core::config::OlgaproConfig;
use udf_workloads::synthetic::{GaussianMixtureFn, PaperFunction};

fn main() {
    header(
        "Fig 5(i)",
        "Expt 5 — GP vs MC time vs UDF evaluation time T (ε = 0.1)",
        "T            GP:Funct1     GP:Funct4     MC (any funct)     [ms/input]",
    );
    let n_inputs = udf_bench::inputs_per_point().min(12);
    let f1 = PaperFunction::F1.instantiate(2);
    let f4 = PaperFunction::F4.instantiate(2);

    let gp_time = |f: &GaussianMixtureFn, t: Duration, seed: u64| -> f64 {
        let range = f.output_range();
        let acc = paper_accuracy(range);
        let cfg = OlgaproConfig::new(acc, range).expect("config");
        let inputs = standard_inputs(2, n_inputs, seed);
        run_olgapro(f, as_udf(f, t), cfg, &inputs, seed).ms_per_input
    };
    let mc_time = |f: &GaussianMixtureFn, t: Duration, seed: u64| -> f64 {
        let range = f.output_range();
        let acc = paper_accuracy(range);
        let inputs = standard_inputs(2, n_inputs, seed);
        run_mc(f, as_udf(f, t), acc, &inputs, seed).ms_per_input
    };

    for t_us in [1u64, 10, 100, 1_000, 10_000, 100_000, 1_000_000] {
        let t = Duration::from_micros(t_us);
        println!(
            "{:<12} {:>10.2} {:>13.2} {:>14.2}",
            format!("{t:?}"),
            gp_time(&f1, t, 100),
            gp_time(&f4, t, 101),
            mc_time(&f1, t, 102),
        );
    }
    println!("\nExpected shape: MC grows ∝ T; GP nearly flat; crossovers at ~0.1 ms (F1) and ~10 ms (F4).");
}
