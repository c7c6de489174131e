//! Quickstart: compute the output distribution of a black-box UDF on an
//! uncertain input with both evaluators, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use udf_uncertain::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // A "black-box" UDF. Pretend this is an expensive external C program;
    // we charge a nominal 1 ms per call through the cost model.
    // ------------------------------------------------------------------
    let udf = BlackBoxUdf::from_fn("decay", 1, |x| (-(x[0]) / 3.0).exp() * (x[0] * 1.3).sin())
        .with_cost(CostModel::Simulated(Duration::from_millis(1)));

    // An uncertain attribute: sensor reading N(2.0, 0.4²).
    let input = InputDistribution::diagonal_gaussian(&[(2.0, 0.4)]).unwrap();

    // Accuracy requirement: with probability 95%, every interval of length
    // ≥ 0.01 has probability within 0.1 of the truth (λ-discrepancy).
    let acc = AccuracyRequirement::new(0.1, 0.05, 0.01, Metric::Discrepancy).unwrap();

    // ------------------------------------------------------------------
    // Monte Carlo baseline (Algorithm 1).
    // ------------------------------------------------------------------
    let mc_udf = udf.fork_counter();
    let mut rng = StdRng::seed_from_u64(7);
    let t0 = Instant::now();
    let FilterDecision::Kept { output: mc_out, .. } =
        mc_eval_tuple(&mc_udf, &input, &acc, None, &mut rng).unwrap()
    else {
        unreachable!("no predicate, nothing is dropped")
    };
    let mc_wall = t0.elapsed();
    println!("— Monte Carlo (Algorithm 1) —");
    println!("  samples / UDF calls : {}", mc_out.udf_calls);
    println!("  charged UDF cost    : {:?}", mc_udf.charged_cost());
    println!("  algorithm overhead  : {mc_wall:?}");
    println!("  median              : {:.4}", mc_out.ecdf.quantile(0.5));

    // ------------------------------------------------------------------
    // OLGAPRO (Algorithm 5): online GP emulation.
    // ------------------------------------------------------------------
    let gp_udf = udf.fork_counter();
    let cfg = OlgaproConfig::new(acc, 1.0).unwrap();
    let mut olgapro = Olgapro::new(gp_udf.clone(), cfg);
    // Feed a stream of similar tuples — the model warms up online.
    let mut last = None;
    let t1 = Instant::now();
    for i in 0..10 {
        let mu = 1.5 + 0.1 * i as f64;
        let inp = InputDistribution::diagonal_gaussian(&[(mu, 0.4)]).unwrap();
        last = Some(olgapro.process(&inp, &mut rng).unwrap());
    }
    let gp_wall = t1.elapsed();
    let out = last.unwrap();
    println!("\n— OLGAPRO (Algorithm 5), after 10 tuples —");
    println!("  UDF calls total     : {}", gp_udf.calls());
    println!("  charged UDF cost    : {:?}", gp_udf.charged_cost());
    println!("  algorithm overhead  : {gp_wall:?}");
    println!("  training points     : {}", olgapro.model().len());
    println!(
        "  error bound         : ε_GP {:.4} + ε_MC {:.4} = {:.4}",
        out.eps_gp,
        out.eps_mc,
        out.error_bound()
    );
    println!("  median              : {:.4}", out.y_hat.quantile(0.5));
    println!("  simultaneous band   : f̂ ± {:.2}σ", out.z_alpha);

    // ------------------------------------------------------------------
    // The user-facing CDF (10 quantiles).
    // ------------------------------------------------------------------
    println!("\n  p     y(p)");
    for i in 1..10 {
        let p = i as f64 / 10.0;
        println!("  {:.1}   {:+.4}", p, out.y_hat.quantile(p));
    }

    let speedup = (mc_udf.charged_cost().as_secs_f64() * 10.0 + mc_wall.as_secs_f64() * 10.0)
        / (gp_udf.charged_cost().as_secs_f64() + gp_wall.as_secs_f64());
    println!("\nEffective speedup over MC for this 10-tuple stream: {speedup:.0}x");
}
