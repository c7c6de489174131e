//! Batch-parallel stream processing (the paper's §8 future-work item):
//! after the model converges, tuple processing is read-only and
//! parallelizes across cores.
//!
//! ```sh
//! cargo run --release --example parallel_stream
//! ```

use std::time::Instant;
use udf_uncertain::prelude::*;

/// One unfiltered batch on `sched`'s workers, tuple id = index; returns the
/// first tuple's median and the batch's counters.
fn process_batch(
    eval: &mut Evaluator,
    sched: &BatchScheduler,
    batch: &[InputDistribution],
    seed: u64,
) -> (f64, BatchCounts) {
    let spec = BatchSpec {
        seed,
        stream: 0,
        predicate: None,
    };
    let mut first_median = f64::NAN;
    let counts = eval
        .run_two_phase(
            sched,
            spec,
            batch.len(),
            |i| (i as u64, &batch[i]),
            |id, ruling| {
                if let (0, FilterDecision::Kept { output, .. }) = (id, ruling) {
                    first_median = output.ecdf.quantile(0.5);
                }
            },
        )
        .unwrap();
    (first_median, counts)
}

fn main() {
    let udf = BlackBoxUdf::from_fn("wavefield", 2, |x| {
        (x[0] * 0.7).sin() * (x[1] * 0.4).cos() + 0.3 * (x[0] * 0.2).cos()
    });
    let acc = AccuracyRequirement::new(0.15, 0.05, 0.02, Metric::Discrepancy).unwrap();
    let cfg = OlgaproConfig::new(acc, 2.6).unwrap();

    // A batch of 64 uncertain tuples.
    let batch: Vec<InputDistribution> = (0..64)
        .map(|i| {
            let mu0 = (i % 8) as f64 * 1.2 + 0.5;
            let mu1 = (i / 8) as f64 * 1.2 + 0.5;
            InputDistribution::diagonal_gaussian(&[(mu0, 0.3), (mu1, 0.3)]).unwrap()
        })
        .collect();

    for workers in [1usize, 2, 4, 8] {
        let mut eval = Evaluator::Gp(Box::new(Olgapro::new(udf.fork_counter(), cfg.clone())));
        let sched = BatchScheduler::new(workers);
        // Warm up: the first batch trains the model (mostly sequential).
        let t0 = Instant::now();
        let (_, warm) = process_batch(&mut eval, &sched, &batch, 1);
        let warm_time = t0.elapsed();
        // Steady state: subsequent batches are read-only and parallel.
        let t1 = Instant::now();
        let (median, steady) = process_batch(&mut eval, &sched, &batch, 2);
        let steady_time = t1.elapsed();
        println!(
            "workers = {workers}: warm-up {warm_time:>10.2?} ({} tuned), steady {steady_time:>10.2?} \
             ({} fast-path, {} tuned), model {} pts, median[0] {:+.3}",
            warm.slow,
            steady.fast,
            steady.slow,
            eval.olgapro().expect("GP evaluator").model().len(),
            median,
        );
    }
    println!(
        "\nSteady-state batches scale with the worker count; warm-up is inherently sequential."
    );
}
