//! Fig. 5(h), Expt 4: OLGAPRO running time vs. the user-specified ε for
//! F1–F4 (T = 1 ms).
//!
//! Paper shape: time grows as ε shrinks (m ∝ 1/ε²_MC); flat F1 is about two
//! orders of magnitude cheaper than bumpy F4.

use std::time::Duration;
use udf_bench::{accuracy_with_eps, as_udf, header, run_olgapro, standard_inputs};
use udf_core::config::OlgaproConfig;
use udf_workloads::synthetic::PaperFunction;

fn main() {
    header(
        "Fig 5(h)",
        "Expt 4 — OLGAPRO time vs accuracy requirement ε (T = 1 ms)",
        "ε       Funct1 (ms)   Funct2 (ms)   Funct3 (ms)   Funct4 (ms)",
    );
    let n_inputs = udf_bench::inputs_per_point().min(15);
    let t = Duration::from_millis(1);
    for eps in [0.02f64, 0.05, 0.1, 0.15, 0.2] {
        let mut row = format!("{eps:<7}");
        for pf in PaperFunction::ALL {
            let f = pf.instantiate(2);
            let range = f.output_range();
            let acc = accuracy_with_eps(eps, range);
            let cfg = OlgaproConfig::new(acc, range).expect("config");
            let inputs = standard_inputs(2, n_inputs, 90 + pf as u64);
            let r = run_olgapro(&f, as_udf(&f, t), cfg, &inputs, 91);
            row.push_str(&format!(" {:>12.2}", r.ms_per_input));
        }
        println!("{row}");
    }
    println!("\nExpected shape: time rises steeply as ε → 0.02; F4 ≫ F1 (up to ~100x).");
}
