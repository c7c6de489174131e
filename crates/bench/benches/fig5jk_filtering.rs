//! Fig. 5(j,k), Expt 6: online filtering with selection predicates — running
//! time and false-positive rate as the filtering rate varies, for MC and GP
//! with and without online filtering (θ = 0.1, T = 1 ms).
//!
//! Paper shape: at high filtering rates, online filtering buys ~5x (MC) and
//! up to ~30x (GP); false-positive rates stay below 10%, false negatives ~0.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use udf_bench::{
    as_udf, ground_truth, header, paper_accuracy, standard_inputs, total_ms_per_input, warm_olgapro,
};
use udf_core::config::OlgaproConfig;
use udf_core::filtering::{gp_filtered, mc_eval_tuple, FilterDecision, Predicate};
use udf_workloads::synthetic::PaperFunction;

/// The UDF calls one ruling reports, kept (read by `kept`) or dropped.
fn calls<T>(ruling: &FilterDecision<T>, kept: fn(&T) -> u64) -> u64 {
    match ruling {
        FilterDecision::Kept { output, .. } => kept(output),
        FilterDecision::Filtered { udf_calls, .. } => *udf_calls,
    }
}

fn main() {
    header(
        "Fig 5(j,k)",
        "Expt 6 — online filtering (Funct3, θ = 0.1, T = 1 ms)",
        "pred          filter%   MC(ms)  MC+OF(ms)   GP(ms)  GP+OF(ms)   FP:MC+OF  FP:GP+OF",
    );
    // Funct3: its output mass spreads over the range, so interval cuts give
    // controllable intermediate filter rates (Funct4 piles ~90% of tuples
    // into one indistinguishable near-zero cluster).
    let f = PaperFunction::F3.instantiate(2);
    let range = f.output_range();
    let acc = paper_accuracy(range);
    let theta = 0.1;
    let t = Duration::from_millis(1);
    let n_inputs = udf_bench::inputs_per_point().min(25);
    let inputs = standard_inputs(2, n_inputs, 120);

    // Predicates with increasing selectivity. Funct4's output mass piles up
    // near zero, so absolute thresholds are degenerate; instead place the
    // interval's lower bound at quantiles of the *pooled per-tuple TEP
    // behaviour*: for each candidate cut, the filter rate is the fraction of
    // tuples whose own output mass above the cut is below θ. We search cuts
    // hitting approximately the paper's filter rates {0.19, 0.72, 0.82, 0.97}.
    let mut truth_rng0 = StdRng::seed_from_u64(119);
    let truths: Vec<_> = inputs
        .iter()
        .map(|inp| ground_truth(&f, inp, 8_000, &mut truth_rng0))
        .collect();
    let filter_rate_at = |cut: f64| -> f64 {
        truths
            .iter()
            .filter(|t| t.interval_prob(cut, range * 2.0) < theta)
            .count() as f64
            / truths.len() as f64
    };
    let cut_for = |target: f64| -> f64 {
        // Bisection over the cut; filter rate is nondecreasing in the cut.
        let (mut lo, mut hi) = (0.0f64, range);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if filter_rate_at(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };
    let preds: Vec<Predicate> = [0.19, 0.72, 0.82, 0.97]
        .into_iter()
        .map(|r| Predicate::new(cut_for(r), range * 2.0, theta).expect("predicate"))
        .collect();

    for pred in preds {
        // Oracle: which tuples *should* pass (TEP ≥ θ under ground truth).
        let mut truth_rng = StdRng::seed_from_u64(121);
        let should_pass: Vec<bool> = inputs
            .iter()
            .map(|inp| {
                let truth = ground_truth(&f, inp, 20_000, &mut truth_rng);
                truth.interval_prob(pred.lo, pred.hi) >= theta
            })
            .collect();
        let filter_rate = should_pass.iter().filter(|b| !**b).count() as f64 / inputs.len() as f64;

        // --- MC without online filtering: always full computation.
        let udf = as_udf(&f, t);
        let mut rng = StdRng::seed_from_u64(122);
        let t0 = Instant::now();
        let mut mc_calls = 0;
        for inp in &inputs {
            let ruling = mc_eval_tuple(&udf, inp, &acc, None, &mut rng).expect("mc");
            mc_calls += calls(&ruling, |out| out.udf_calls);
        }
        let mc_ms = total_ms_per_input(t0.elapsed(), &udf, mc_calls, inputs.len());

        // --- MC with online filtering.
        let udf = as_udf(&f, t);
        let mut rng = StdRng::seed_from_u64(122);
        let t0 = Instant::now();
        let mut mc_of_kept = vec![false; inputs.len()];
        let mut mc_of_calls = 0;
        for (i, inp) in inputs.iter().enumerate() {
            let ruling =
                mc_eval_tuple(&udf, inp, &acc, Some(&pred), &mut rng).expect("mc_eval_tuple");
            mc_of_kept[i] = !ruling.is_filtered();
            mc_of_calls += calls(&ruling, |out| out.udf_calls);
        }
        let mc_of_ms = total_ms_per_input(t0.elapsed(), &udf, mc_of_calls, inputs.len());

        // --- GP without online filtering (process everything fully), on a
        // warm stream as the paper measures it.
        let udf = as_udf(&f, t);
        let cfg = OlgaproConfig::new(acc, range).expect("config");
        let mut rng = StdRng::seed_from_u64(123);
        let mut olga = warm_olgapro(&udf, cfg.clone(), &inputs, &mut rng);
        let t0 = Instant::now();
        let mut gp_calls = 0;
        for inp in &inputs {
            gp_calls += olga.process(inp, &mut rng).expect("gp").udf_calls;
        }
        let gp_ms = total_ms_per_input(t0.elapsed(), &udf, gp_calls, inputs.len());

        // --- GP with online filtering (same warm-up).
        let udf = as_udf(&f, t);
        let mut rng = StdRng::seed_from_u64(123);
        let mut olga = warm_olgapro(&udf, cfg, &inputs, &mut rng);
        let t0 = Instant::now();
        let mut gp_of_kept = vec![false; inputs.len()];
        let mut gp_of_calls = 0;
        for (i, inp) in inputs.iter().enumerate() {
            let ruling = gp_filtered(&mut olga, inp, &pred, &mut rng).expect("gp_filtered");
            gp_of_kept[i] = !ruling.is_filtered();
            gp_of_calls += calls(&ruling, |out| out.udf_calls);
        }
        let gp_of_ms = total_ms_per_input(t0.elapsed(), &udf, gp_of_calls, inputs.len());

        // False positives: kept although the oracle filters them.
        let fp = |kept: &[bool]| -> f64 {
            let fp_count = kept
                .iter()
                .zip(&should_pass)
                .filter(|(k, s)| **k && !**s)
                .count();
            let filtered_total = should_pass.iter().filter(|s| !**s).count();
            if filtered_total == 0 {
                0.0
            } else {
                fp_count as f64 / filtered_total as f64
            }
        };

        println!(
            "[{:>5.2},{:>5.2}]  {:>5.2}   {:>7.1} {:>9.1} {:>9.1} {:>9.1}     {:>6.3}    {:>6.3}",
            pred.lo,
            pred.hi,
            filter_rate,
            mc_ms,
            mc_of_ms,
            gp_ms,
            gp_of_ms,
            fp(&mc_of_kept),
            fp(&gp_of_kept),
        );
    }
    println!(
        "\nExpected shape: MC+OF and GP+OF shrink with filter rate (up to ~5x / ~30x); FP < 0.1."
    );
}
