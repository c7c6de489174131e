//! Continuous queries: many concurrent `(query, UDF)` subscriptions over
//! one unbounded uncertain-tuple stream, driven by the `udf_stream` engine.
//!
//! Five subscriptions with mixed strategies (warm-model GP, direct MC, a
//! 2 ms UDF the §6.3 rules assign to GP) and mixed shapes (projections and filtered selections)
//! ride a single synthetic stream. With the default 25 000 tuples that is
//! 125 000 tuple-evaluations across ≥ 4 concurrent queries.
//!
//! ```sh
//! cargo run --release --example continuous_queries
//! UDF_STREAM_TUPLES=100000 UDF_STREAM_WORKERS=8 cargo run --release --example continuous_queries
//! ```

use std::sync::Arc;
use udf_uncertain::prelude::*;
use udf_uncertain::workloads::synthetic::PaperFunction;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let tuples = env_usize("UDF_STREAM_TUPLES", 25_000) as u64;
    let workers = env_usize("UDF_STREAM_WORKERS", 2);

    // The paper's default accuracy: ε = 0.2 here to keep the MC baselines
    // snappy; δ = 0.05, λ = 1% of the (unit-ish) output range.
    let acc = AccuracyRequirement::new(0.25, 0.05, 0.0, Metric::Ks).unwrap();

    // Four distinct UDFs from the paper's synthetic family (Fig. 4).
    let f1 = PaperFunction::F1.instantiate(1);
    let f2 = PaperFunction::F2.instantiate(1);
    let f3 = PaperFunction::F3.instantiate(1);
    let f4 = PaperFunction::F4.instantiate(1);

    let udf = |f: &udf_uncertain::workloads::GaussianMixtureFn| {
        BlackBoxUdf::new(Arc::new(f.clone()), CostModel::Free)
    };

    let mut session = Session::new(
        EngineConfig::new()
            .workers(workers)
            .batch_size(512)
            .seed(42),
    );

    // Q1/Q2: projections — every tuple's output distribution is emitted.
    let q1 = session
        .subscribe(
            QuerySpec::new("f1-gp", udf(&f1), acc, StreamStrategy::Gp)
                .output_range(f1.output_range())
                .max_model_points(128),
        )
        .unwrap();
    let q2 = session
        .subscribe(QuerySpec::new("f2-mc", udf(&f2), acc, StreamStrategy::Mc))
        .unwrap();

    // Q3/Q4: selections — keep a tuple only when Pr[f(X) ∈ [a, b]] ≥ θ;
    // the online filter drops the rest from the envelope/Hoeffding bounds.
    let hi3 = f3.output_range();
    let q3 = session
        .subscribe(
            QuerySpec::new("f3-gp-sel", udf(&f3), acc, StreamStrategy::Gp)
                .output_range(hi3)
                .max_model_points(128)
                .predicate(Predicate::new(0.5 * hi3, 1.1 * hi3, 0.5).unwrap()),
        )
        .unwrap();
    let q4 = session
        .subscribe(
            QuerySpec::new("f4-mc-sel", udf(&f4), acc, StreamStrategy::Mc)
                .predicate(Predicate::new(0.4, 2.0, 0.5).unwrap()),
        )
        .unwrap();

    // Q5: a nominally 2 ms UDF. The §6.3 rules pick GP for it (a free one
    // would get MC); UQL's `USING auto` resolves that pick in the binder and
    // subscribes exactly this strategy.
    let q5 = session
        .subscribe(
            QuerySpec::new(
                "f1-gp-2ms",
                udf(&f1).with_cost(CostModel::Simulated(std::time::Duration::from_millis(2))),
                acc,
                StreamStrategy::Gp,
            )
            .output_range(f1.output_range())
            .max_model_points(128),
        )
        .unwrap();

    println!("streaming {tuples} tuples into 5 subscriptions ({workers} workers)...\n");
    let source = SyntheticSource::gaussian(1, 0.5, 7);
    let t0 = std::time::Instant::now();
    let batches = session.run(source, Some(tuples)).unwrap();
    let elapsed = t0.elapsed();

    // One line per subscription via the shared `BatchCounts` display (the
    // same line the REPL prints and the CI smoke greps).
    let names = ["f1-gp", "f2-mc", "f3-gp-sel", "f4-mc-sel", "f1-gp-2ms"];
    for (name, id) in names.iter().zip([q1, q2, q3, q4, q5]) {
        println!("{name:<10} {}", session.stats(id).unwrap());
    }

    println!("\nlast emitted tuples of f3-gp-sel:");
    for k in session.recent(q3).unwrap().iter().take(4) {
        println!(
            "  tuple {:>8}  median {:>8.4}  ±{:<7.4}  TEP {:.3}",
            k.tuple, k.median, k.error_bound, k.tep
        );
    }

    println!(
        "\nengine: {tuples} tuples × 5 queries in {elapsed:.2?} ({batches} batches, {workers} workers): \
         {:.0} tuple-evals/s",
        (5 * tuples) as f64 / elapsed.as_secs_f64()
    );
    println!(
        "digests (determinism witnesses): {:#018x} {:#018x} {:#018x} {:#018x} {:#018x}",
        session.digest(q1).unwrap(),
        session.digest(q2).unwrap(),
        session.digest(q3).unwrap(),
        session.digest(q4).unwrap(),
        session.digest(q5).unwrap(),
    );
}
