//! The paper's §1 motivating query **Q2** end to end, twice:
//!
//! * declaratively, as a UQL `JOIN` statement (`FROM sky a JOIN sky b`);
//! * programmatically, through the `udf-join` API — the same engine path.
//!
//! ```sh
//! cargo run --release --example q2_join
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use udf_uncertain::core::config::{AccuracyRequirement, Metric};
use udf_uncertain::core::sched::BatchScheduler;
use udf_uncertain::prelude::*;
use udf_uncertain::workloads::astro::GalaxyCatalog;

/// A synthetic SDSS-like catalog as an uncertain relation.
fn sky(n: usize) -> Relation {
    let mut rng = StdRng::seed_from_u64(42);
    let catalog = GalaxyCatalog::generate(n, &mut rng);
    let tuples = catalog
        .rows()
        .iter()
        .map(|r| {
            Tuple::new(vec![
                Value::Det(r.obj_id as f64),
                Value::Gaussian {
                    mu: r.z_mean,
                    sigma: r.z_sigma,
                },
            ])
        })
        .collect();
    Relation::new(Schema::new(&["objID", "z"]), tuples).unwrap()
}

fn main() {
    let n = 48;

    // ── Q2, declaratively ───────────────────────────────────────────────
    let mut ctx = UqlContext::standard();
    ctx.register_relation("sky", sky(n));
    let q = "SELECT AngDist(a.z, b.z) WITH ACCURACY 0.2 0.05 \
             FROM sky a JOIN sky b ON a.objID < b.objID \
             WHERE PR(AngDist(a.z, b.z) IN [0.25, 0.32]) >= 0.5 \
             USING gp WORKERS 2 SEED 7";
    println!("uql> {q}\n");
    match ctx.run(q) {
        Ok(out) => print!("{}", out.report()),
        Err(e) => println!("{}", e.render(q)),
    }

    // ── The same join through the udf-join API ─────────────────────────
    let rel = sky(n);
    let entry = ctx.udfs().get("AngDist").unwrap().clone();
    let accuracy =
        AccuracyRequirement::new(0.2, 0.05, entry.default_lambda(), Metric::Discrepancy).unwrap();
    let sched = BatchScheduler::new(2);
    let spec = JoinSpec::new(
        &rel,
        "a",
        &rel,
        "b",
        entry.udf.clone(),
        &[(Side::Left, "z"), (Side::Right, "z")],
        accuracy,
        entry.output_range,
    )
    .unwrap()
    .on_less_than((Side::Left, "objID"), (Side::Right, "objID"))
    .unwrap()
    .predicate(Predicate::new(0.25, 0.32, 0.5).unwrap())
    .strategy(EvalStrategy::Gp)
    .seed(7);
    let t0 = Instant::now();
    let out = JoinExecutor::new(&spec).unwrap().run(&sched).unwrap();
    println!("\napi  {:>8.2?}  {}", t0.elapsed(), out.stats);
}
