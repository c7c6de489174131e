//! Strict determinism of [`Evaluator::run_two_phase`]: for a fixed seed,
//! batch outputs are byte-identical for worker counts 1, 2, and 8 —
//! including cold-model bootstraps and slow-path (model-mutating) tuples,
//! not just the converged fast path.

use udf_core::batch::{BatchSpec, Evaluator};
use udf_core::config::{AccuracyRequirement, Metric, OlgaproConfig};
use udf_core::filtering::FilterDecision;
use udf_core::olgapro::Olgapro;
use udf_core::sched::BatchScheduler;
use udf_core::udf::BlackBoxUdf;
use udf_prob::InputDistribution;

fn setup() -> Olgapro {
    let udf = BlackBoxUdf::from_fn("wave", 1, |x| (x[0] * 0.9).sin() + 0.3 * (x[0] * 2.3).cos());
    let acc = AccuracyRequirement::new(0.2, 0.05, 0.02, Metric::Discrepancy).unwrap();
    let cfg = OlgaproConfig::new(acc, 2.6).unwrap();
    Olgapro::new(udf, cfg)
}

/// One unfiltered GP batch (tuple id = index); returns each tuple's mean
/// CDF values in tuple order.
fn process_batch(
    eval: &mut Evaluator,
    sched: &BatchScheduler,
    batch: &[InputDistribution],
    seed: u64,
) -> Vec<Vec<f64>> {
    let spec = BatchSpec {
        seed,
        stream: 0,
        predicate: None,
    };
    let mut outs = Vec::new();
    eval.run_two_phase(
        sched,
        spec,
        batch.len(),
        |i| (i as u64, &batch[i]),
        |id, ruling| match ruling {
            FilterDecision::Kept { output, .. } => outs.push(output.ecdf.values().to_vec()),
            FilterDecision::Filtered { .. } => panic!("no predicate, tuple {id}"),
        },
    )
    .unwrap();
    outs
}

fn inputs(n: usize) -> Vec<InputDistribution> {
    (0..n)
        .map(|i| {
            InputDistribution::diagonal_gaussian(&[((1.0 + 0.9 * i as f64) % 8.0, 0.35)]).unwrap()
        })
        .collect()
}

#[test]
fn batch_outputs_identical_for_workers_1_2_8() {
    let batch = inputs(24);
    let mut reference: Option<Vec<Vec<f64>>> = None;
    for workers in [1usize, 2, 8] {
        let mut eval = Evaluator::Gp(Box::new(setup()));
        let sched = BatchScheduler::new(workers);
        // Two cold batches then one warm batch, all compared: the first
        // exercises bootstrap + slow path, the last mostly fast path.
        let mut emitted: Vec<Vec<f64>> = Vec::new();
        for seed in [11u64, 12, 13] {
            emitted.extend(process_batch(&mut eval, &sched, &batch, seed));
        }
        match &reference {
            None => reference = Some(emitted),
            Some(want) => {
                assert_eq!(want.len(), emitted.len());
                for (i, (w, g)) in want.iter().zip(&emitted).enumerate() {
                    assert!(
                        w == g,
                        "output {i} differs between 1 worker and {workers} workers"
                    );
                }
            }
        }
    }
}

#[test]
fn slow_path_mutations_are_order_stable() {
    // Model growth (training-point count) must also match across worker
    // counts, otherwise later batches would diverge.
    let batch = inputs(16);
    let mut sizes = Vec::new();
    for workers in [1usize, 2, 8] {
        let mut eval = Evaluator::Gp(Box::new(setup()));
        let sched = BatchScheduler::new(workers);
        process_batch(&mut eval, &sched, &batch, 5);
        process_batch(&mut eval, &sched, &batch, 6);
        sizes.push(eval.olgapro().unwrap().model().len());
    }
    assert_eq!(sizes[0], sizes[1], "1 vs 2 workers model size");
    assert_eq!(sizes[0], sizes[2], "1 vs 8 workers model size");
}
