//! Regression: `max_model_points` is enforced *inside* Algorithm 5, not
//! just at the batch-routing layer.
//!
//! The engine's accept hook rules each tuple against the model as it
//! stands when the verdict is made — but a burst of reroutes already
//! queued in one micro-batch used to be able to overshoot the cap: the
//! hook only stopped *routing* once the model was full, while every
//! rerouted tuple could still add up to `max_points_per_input` training
//! points inside `Olgapro::process`. With the cap in the core config the
//! slow path stops growing the model itself, so the invariant
//! `model().len() <= cap` holds after (and during) every batch.

use std::sync::Arc;
use udf_core::config::{AccuracyRequirement, Metric};
use udf_core::udf::{BlackBoxUdf, CostModel};
use udf_stream::{EngineConfig, QuerySpec, Session, StreamStrategy, VecSource};
use udf_workloads::synthetic::{sweep_inputs, PaperFunction};

#[test]
fn mid_batch_reroute_burst_cannot_overshoot_the_cap() {
    let cap = 8usize;
    let f2 = PaperFunction::F2.instantiate(1); // one spiky peak
    let udf = BlackBoxUdf::new(Arc::new(f2.clone()), CostModel::Free);
    let acc = AccuracyRequirement::new(0.15, 0.05, 0.0, Metric::Ks).unwrap();

    let mut session = Session::new(EngineConfig::new().workers(2).batch_size(32).seed(7));
    let q = session
        .subscribe(
            QuerySpec::new("f2-capped", udf, acc, StreamStrategy::Gp)
                .output_range(f2.output_range())
                .max_model_points(cap),
        )
        .unwrap();

    // Drive one 32-tuple micro-batch per run over a domain sweep (every
    // batch visits fresh regions, so reroutes come in bursts) and pin the
    // invariant after each batch.
    let mut inputs = sweep_inputs(1, 192, 0.4);
    for step in 0..6 {
        let chunk: Vec<_> = inputs.drain(..32).collect();
        session.run(VecSource::new(chunk), None).unwrap();
        let points = session
            .model_points(q)
            .unwrap()
            .expect("GP subscription has a model");
        assert!(
            points <= cap,
            "batch {step}: model grew to {points} > cap {cap}"
        );
    }

    let stats = session.stats(q).unwrap();
    assert_eq!(stats.kept, 192, "the cap must not drop tuples");
    assert!(
        stats.slow > 0,
        "workload too easy: the slow path was never exercised"
    );
    assert!(
        stats.cap_hits > 0,
        "degraded-accuracy acceptance must be observable: {stats:?}"
    );
    // Once full (stop-growing), the model stops paying UDF calls entirely:
    // total calls stay bounded by the cap plus the first tuple's tuning
    // allowance, independent of stream length.
    assert!(
        stats.udf_calls <= (cap + 10) as u64,
        "training cost not bounded: {} calls",
        stats.udf_calls
    );
}

/// Two GP sessions subscribed with clones of one `BlackBoxUdf` and run at
/// once on two threads count what a solo session counts: each evaluator
/// counts the calls it makes, whatever else calls the same function.
#[test]
fn concurrent_sessions_on_one_udf_count_their_own_calls() {
    let f2 = PaperFunction::F2.instantiate(1);
    let udf = BlackBoxUdf::new(Arc::new(f2.clone()), CostModel::Free);
    let acc = AccuracyRequirement::new(0.1, 0.05, 0.0, Metric::Ks).unwrap();
    let run = |udf: BlackBoxUdf| {
        let mut session = Session::new(EngineConfig::new().workers(1).seed(7));
        let q = session
            .subscribe(
                QuerySpec::new("f2", udf, acc, StreamStrategy::Gp)
                    .output_range(f2.output_range())
                    .max_model_points(16),
            )
            .unwrap();
        session
            .run(VecSource::new(sweep_inputs(1, 200, 0.4)), None)
            .unwrap();
        session.stats(q).unwrap().udf_calls
    };
    let solo = run(udf.clone());
    assert!(solo > 0, "the model never trained");
    for trial in 0..20 {
        let pair = std::thread::scope(|s| {
            let a = s.spawn(|| run(udf.clone()));
            let b = s.spawn(|| run(udf.clone()));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(pair, (solo, solo), "trial {trial}");
    }
}
