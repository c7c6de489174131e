//! Batch-parallel relational execution: the paper's Q1/Q2 query shapes
//! (§1) on the shared two-phase scheduler core.
//!
//! A `SELECT GalAge(z) FROM galaxies` projection and a
//! `... WHERE sin(z) ∈ [a, b] WITH Pr ≥ θ` selection run as single batches
//! on a `BatchScheduler`'s workers: read-only GP inference
//! fans out across workers, only ε_GP-budget misses take the sequential
//! tuning path, and the rows are byte-identical for any worker count.
//!
//! ```sh
//! cargo run --release --example batch_query
//! ```

use std::time::Instant;
use udf_uncertain::prelude::*;

fn galaxies(n: usize) -> Relation {
    let schema = Schema::new(&["objID", "z"]);
    let tuples = (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Det(i as f64),
                Value::Gaussian {
                    mu: 0.4 + (i as f64 * 0.37) % 5.0,
                    sigma: 0.25,
                },
            ])
        })
        .collect();
    Relation::new(schema, tuples).unwrap()
}

fn main() {
    let rel = galaxies(512);
    let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
    let call = UdfCall::resolve(udf, rel.schema(), &["z"]).unwrap();
    let acc = AccuracyRequirement::new(0.2, 0.05, 0.02, Metric::Discrepancy).unwrap();
    let seed = 42u64;

    println!("Q1 projection over {} tuples (GP strategy):", rel.len());
    let mut reference: Option<Vec<f64>> = None;
    for workers in [1usize, 2, 4, 8] {
        let sched = BatchScheduler::new(workers);
        let mut ex = Executor::new(EvalStrategy::Gp, acc, &call, 2.0).unwrap();
        let t0 = Instant::now();
        let rows = ex.project_batch(&rel, &call, &sched, seed).unwrap();
        let elapsed = t0.elapsed();
        let medians: Vec<f64> = rows.iter().map(|r| r.output.ecdf.quantile(0.5)).collect();
        match &reference {
            None => reference = Some(medians),
            Some(want) => assert_eq!(
                want, &medians,
                "worker count must not change the output rows"
            ),
        }
        println!(
            "  workers = {workers}: {elapsed:>9.2?}, {} rows, {} UDF calls",
            rows.len(),
            ex.stats().udf_calls,
        );
    }
    println!("  (identical rows at every worker count)\n");

    println!("Q2 selection, sin(0.8 z) in [0.3, 1.5] with Pr >= 0.4:");
    let pred = Predicate::new(0.3, 1.5, 0.4).unwrap();
    let sched = BatchScheduler::new(4);
    let mut ex = Executor::new(EvalStrategy::Gp, acc, &call, 2.0).unwrap();
    let rows = ex.select_batch(&rel, &call, &pred, &sched, seed).unwrap();
    let stats = ex.stats();
    println!(
        "  kept {} / {} tuples with {} UDF calls (filtered tuples cost zero \
         calls on the fast path)",
        rows.len(),
        stats.tuples_in,
        stats.udf_calls,
    );
}
