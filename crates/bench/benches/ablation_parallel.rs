//! Ablation D: batch-parallel stream processing (the §8 future-work
//! extension) — steady-state batch latency vs. worker count.
//!
//! Expected shape: warm batches are read-only and scale with workers;
//! the warm-up batch is dominated by sequential tuning and does not.

use std::time::{Duration, Instant};
use udf_bench::{as_udf, header, paper_accuracy, standard_inputs};
use udf_core::batch::{BatchCounts, BatchSpec, Evaluator};
use udf_core::config::OlgaproConfig;
use udf_core::olgapro::Olgapro;
use udf_core::sched::BatchScheduler;
use udf_prob::InputDistribution;
use udf_workloads::synthetic::PaperFunction;

/// One unfiltered batch on `sched`'s workers, tuple id = index.
fn process_batch(
    eval: &mut Evaluator,
    sched: &BatchScheduler,
    batch: &[InputDistribution],
    seed: u64,
) -> udf_core::Result<BatchCounts> {
    let spec = BatchSpec {
        seed,
        stream: 0,
        predicate: None,
    };
    let tuple = |i: usize| (i as u64, &batch[i]);
    eval.run_two_phase(sched, spec, batch.len(), tuple, |_, _| {})
}

fn main() {
    header(
        "Ablation D",
        "parallel batch processing (Funct3, steady-state batches)",
        "workers   warm-up (ms)   steady batch (ms)   speedup vs 1 worker   fast-path",
    );
    let f = PaperFunction::F3.instantiate(2);
    let range = f.output_range();
    let acc = paper_accuracy(range);
    let batch = standard_inputs(2, 32, 300);

    let mut baseline = None;
    for workers in [1usize, 2, 4, 8] {
        let cfg = OlgaproConfig::new(acc, range).expect("config");
        let olga = Olgapro::new(as_udf(&f, Duration::ZERO), cfg);
        let mut eval = Evaluator::Gp(Box::new(olga));
        let sched = BatchScheduler::new(workers);
        let t0 = Instant::now();
        process_batch(&mut eval, &sched, &batch, 1).expect("warm-up batch");
        let warm = t0.elapsed();
        // Second warm-up to fully converge, then measure.
        process_batch(&mut eval, &sched, &batch, 2).expect("second warm-up");
        let t1 = Instant::now();
        let stats = process_batch(&mut eval, &sched, &batch, 3).expect("steady batch");
        let steady = t1.elapsed();
        let base = *baseline.get_or_insert(steady.as_secs_f64());
        println!(
            "{workers:<9} {:>10.1} {:>17.1} {:>17.2}x {:>11}",
            warm.as_secs_f64() * 1e3,
            steady.as_secs_f64() * 1e3,
            base / steady.as_secs_f64(),
            stats.fast,
        );
    }
}
