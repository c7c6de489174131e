//! Fig. 5(l), Expt 7: running time vs. function dimensionality d ∈ [1, 10]
//! for GP (T = 1 s nominal) and MC at several T.
//!
//! Paper shape: GP cost grows with d (more training points needed); MC is
//! flat in d but linear in T; even at d = 10 GP wins once T ≥ 0.1 s.

use std::time::Duration;
use udf_bench::{as_udf, header, paper_accuracy, run_mc, run_olgapro, standard_inputs};
use udf_core::config::OlgaproConfig;
use udf_workloads::synthetic::GaussianMixtureFn;

fn main() {
    header(
        "Fig 5(l)",
        "Expt 7 — time vs function dimensionality (5-component functions)",
        "d    GP T=1s (ms)   MC T=1ms   MC T=10ms   MC T=100ms   MC T=1s   [ms/input]",
    );
    let n_inputs = udf_bench::inputs_per_point().min(8);
    for d in [1usize, 2, 3, 5, 7, 10] {
        let f = GaussianMixtureFn::generate(format!("d{d}"), d, 5, 2.0, 500 + d as u64);
        let range = f.output_range();
        let acc = paper_accuracy(range);
        let inputs = standard_inputs(d, n_inputs, 130 + d as u64);

        let cfg = OlgaproConfig::new(acc, range).expect("config");
        let gp = run_olgapro(&f, as_udf(&f, Duration::from_secs(1)), cfg, &inputs, 131);

        let mut row = format!("{d:<4} {:>12.1}", gp.ms_per_input);
        for t_ms in [1u64, 10, 100, 1000] {
            let mc = run_mc(
                &f,
                as_udf(&f, Duration::from_millis(t_ms)),
                acc,
                &inputs,
                132,
            );
            row.push_str(&format!(" {:>10.0}", mc.ms_per_input));
        }
        println!("{row}");
    }
    println!("\nExpected shape: GP grows with d; MC flat in d, ∝ T; GP < MC(T=1s) even at d = 10.");
}
