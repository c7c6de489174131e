//! The paper's motivating astrophysics queries (§1) end-to-end on a
//! synthetic SDSS-like catalog:
//!
//! * **Q1**: `SELECT objID, GalAge(redshift) FROM Galaxy`
//! * **Q2**: `SELECT ..., ComoveVol(g1.z, g2.z, AREA) FROM Galaxy g1, Galaxy g2
//!            WHERE AngDist(g1.z, g2.z) ∈ [l, u]`
//!
//! ```sh
//! cargo run --release --example astro_pipeline
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use udf_query::ProjectedTuple;
use udf_uncertain::prelude::*;
use udf_workloads::astro::GalaxyCatalog;

/// Every tuple of `rel` through the executor's sequential full path (each
/// tuple tunes the model before the next is judged), seeded per tuple.
fn sequential(
    ex: &mut Executor,
    rel: &Relation,
    call: &UdfCall,
    pred: Option<&Predicate>,
) -> Vec<ProjectedTuple> {
    let inputs = call.indexed_inputs(rel).unwrap();
    ex.sequential_indexed(&inputs, pred, 2013).unwrap().0
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2013);
    // All three astro UDFs (with output-range metadata) come from the
    // shared registry instead of ad-hoc construction.
    let udfs = UdfCatalog::standard();

    // Synthetic SDSS-like catalog (PAPER.md, "Fidelity caveats").
    let catalog = GalaxyCatalog::generate(12, &mut rng);
    let schema = Schema::new(&["objID", "redshift"]);
    let tuples: Vec<Tuple> = catalog
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
    let galaxy = Relation::new(schema, tuples).unwrap();

    let acc = AccuracyRequirement::new(0.1, 0.05, 0.005, Metric::Discrepancy).unwrap();

    // ------------------------------------------------------------------
    // Q1: GalAge over every galaxy, GP strategy (GalAge is a slow UDF).
    // ------------------------------------------------------------------
    let galage = udfs.get("GalAge").unwrap();
    let call = UdfCall::resolve(galage.udf.clone(), galaxy.schema(), &["redshift"]).unwrap();
    let mut ex = Executor::new(EvalStrategy::Gp, acc, &call, galage.output_range).unwrap();
    let rows = sequential(&mut ex, &galaxy, &call, None);

    println!("Q1: SELECT objID, GalAge(redshift) FROM Galaxy");
    println!("objID  z(mean)   age p10    age p50    age p90   [1/H0]  ±ε");
    for row in &rows {
        let t = &galaxy.tuples()[row.source];
        println!(
            "{:>5}  {:.3}     {:.4}     {:.4}     {:.4}          {:.3}",
            t.value(0).mean(),
            t.value(1).mean(),
            row.output.ecdf.quantile(0.1),
            row.output.ecdf.quantile(0.5),
            row.output.ecdf.quantile(0.9),
            row.output.error_bound,
        );
    }
    println!(
        "UDF calls: {} (MC sampling would need {})\n",
        ex.stats().udf_calls,
        acc.mc_samples() as u64 * galaxy.len() as u64
    );

    // ------------------------------------------------------------------
    // Q2: self-join + AngDist selection + ComoveVol projection.
    // ------------------------------------------------------------------
    let pairs = galaxy
        .cross_join("g1", &galaxy, "g2", |i, j| i < j)
        .unwrap();
    println!(
        "Q2: {} candidate pairs after self-join (i < j)",
        pairs.len()
    );

    // WHERE AngDist(g1.z, g2.z) ∈ [0.05, 0.35] with TEP ≥ 0.1.
    let angdist = udfs.get("AngDist").unwrap();
    let where_call = UdfCall::resolve(
        angdist.udf.clone(),
        pairs.schema(),
        &["g1.redshift", "g2.redshift"],
    )
    .unwrap();
    let pred = Predicate::new(0.05, 0.35, 0.1).unwrap();
    let mut where_ex =
        Executor::new(EvalStrategy::Gp, acc, &where_call, angdist.output_range).unwrap();
    let surviving = sequential(&mut where_ex, &pairs, &where_call, Some(&pred));
    println!(
        "  AngDist ∈ [0.05, 0.35] keeps {} pairs (filtered {}), UDF calls {}",
        surviving.len(),
        pairs.len() - surviving.len(),
        where_ex.stats().udf_calls
    );

    // SELECT ComoveVol(g1.z, g2.z, AREA) on survivors.
    let survivors = Relation::new(
        pairs.schema().clone(),
        surviving
            .iter()
            .map(|r| pairs.tuples()[r.source].clone())
            .collect(),
    )
    .unwrap();
    let comovevol = udfs.get("ComoveVol").unwrap();
    let vol_call = UdfCall::resolve(
        comovevol.udf.clone(),
        survivors.schema(),
        &["g1.redshift", "g2.redshift"],
    )
    .unwrap();
    let mut vol_ex =
        Executor::new(EvalStrategy::Gp, acc, &vol_call, comovevol.output_range).unwrap();
    let volumes = sequential(&mut vol_ex, &survivors, &vol_call, None);

    println!("\n  pair   TEP     vol p50 [(c/H0)³]  ±ε");
    for (row, vol) in surviving.iter().zip(&volumes) {
        println!(
            "  #{:<4}  {:.3}   {:.5}           {:.3}",
            row.source,
            row.tep,
            vol.output.ecdf.quantile(0.5),
            vol.output.error_bound
        );
    }
}
