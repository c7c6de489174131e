//! Online filtering on a data stream (§2.2-B, §5.5): a tornado-detection-style
//! monitor keeps only tuples whose UDF output is probably inside an alert
//! interval, deciding early from confidence bounds.
//!
//! ```sh
//! cargo run --release --example streaming_filter
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use udf_uncertain::prelude::*;

fn main() {
    // A "detection score" UDF over two noisy sensor features. Pretend each
    // evaluation runs an expensive physics model (0.5 ms charged).
    let udf = BlackBoxUdf::from_fn("score", 2, |x| {
        let core = (-(x[0] - 6.0).powi(2) / 4.0).exp();
        let modulation = 0.5 + 0.5 * (x[1] * 0.7).tanh();
        core * modulation
    })
    .with_cost(CostModel::Simulated(Duration::from_micros(500)));

    let acc = AccuracyRequirement::new(0.1, 0.05, 0.01, Metric::Discrepancy).unwrap();
    // Alert when the score is probably above 0.5 (θ = 0.1 as in Expt 6).
    let pred = Predicate::new(0.5, 1.0, 0.1).unwrap();

    let mut rng = StdRng::seed_from_u64(99);
    let stream: Vec<InputDistribution> = (0..40)
        .map(|_| {
            let mu0 = rng.gen_range(0.0..10.0);
            let mu1 = rng.gen_range(-3.0..3.0);
            InputDistribution::diagonal_gaussian(&[(mu0, 0.3), (mu1, 0.3)]).unwrap()
        })
        .collect();

    // --- MC with online filtering (Remark 2.1) ---
    let mc_udf = udf.fork_counter();
    let mut mc_kept = 0;
    for inp in &stream {
        let d = mc_eval_tuple(&mc_udf, inp, &acc, Some(&pred), &mut rng).unwrap();
        if !d.is_filtered() {
            mc_kept += 1;
        }
    }
    let mc_calls = mc_udf.calls();
    println!("— MC + online filtering (Remark 2.1) —");
    println!(
        "  kept {mc_kept}/40 tuples, UDF calls {mc_calls}, charged {:?}",
        mc_udf.charged_cost()
    );
    let full = acc.mc_samples() as u64 * 40;
    println!(
        "  vs. {full} calls without early stopping ({:.1}x saved)",
        full as f64 / mc_calls as f64
    );

    // --- GP with online filtering (§5.5) ---
    let gp_udf = udf.fork_counter();
    let cfg = OlgaproConfig::new(acc, 1.0).unwrap();
    let mut olga = Olgapro::new(gp_udf.clone(), cfg);
    let mut gp_kept = 0;
    let mut decisions = Vec::new();
    for inp in &stream {
        let d = udf_core::filtering::gp_filtered(&mut olga, inp, &pred, &mut rng).unwrap();
        match &d {
            FilterDecision::Kept { tep, .. } => {
                gp_kept += 1;
                decisions.push(format!("keep (TEP {tep:.2})"));
            }
            FilterDecision::Filtered { rho_upper, .. } => {
                decisions.push(format!("drop (ρ_U {rho_upper:.3})"));
            }
        }
    }
    println!("\n— GP + online filtering (§5.5) —");
    println!(
        "  kept {gp_kept}/40 tuples, UDF calls {}, charged {:?}, model size {}",
        gp_udf.calls(),
        gp_udf.charged_cost(),
        olga.model().len()
    );
    println!("  first 8 decisions: {:?}", &decisions[..8]);
    println!(
        "\nAgreement: MC kept {mc_kept}, GP kept {gp_kept} (small differences at the \
         threshold are expected — both sides hold their own (ε, δ) guarantees)"
    );
}
