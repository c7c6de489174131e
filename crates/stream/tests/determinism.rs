//! The engine's determinism contract: a fixed `(seed, batch_size)` yields
//! byte-identical emitted distributions for worker counts 1, 2, and 8 —
//! GP fast path, GP slow path (model mutation), MC, and online filtering
//! all included.

use std::sync::Arc;
use udf_core::config::{AccuracyRequirement, Metric};
use udf_core::filtering::Predicate;
use udf_core::udf::BlackBoxUdf;
use udf_stream::{EngineConfig, QuerySpec, Session, StreamStrategy, SyntheticSource};
use udf_workloads::synthetic::PaperFunction;

fn acc() -> AccuracyRequirement {
    AccuracyRequirement::new(0.25, 0.05, 0.0, Metric::Ks).unwrap()
}

/// Build the same 4-subscription session at a given worker count and run it
/// over the same 384-tuple stream; return every query's digest.
fn run_with_workers(workers: usize) -> Vec<u64> {
    run_with_workers_metrics(workers, None)
}

/// Same, optionally with a metrics registry attached (`Some(true)` =
/// recording, `Some(false)` = registered but switched off).
fn run_with_workers_metrics(workers: usize, metrics: Option<bool>) -> Vec<u64> {
    let f1 = PaperFunction::F1.instantiate(1);
    let f3 = PaperFunction::F3.instantiate(1);
    let udf1 = BlackBoxUdf::new(Arc::new(f1.clone()), udf_core::udf::CostModel::Free);
    let udf3 = BlackBoxUdf::new(Arc::new(f3.clone()), udf_core::udf::CostModel::Free);

    let mut session = Session::new(
        EngineConfig::new()
            .workers(workers)
            .batch_size(64)
            .seed(0xD5EED),
    );
    if let Some(enabled) = metrics {
        let metrics = udf_obs::MetricsRegistry::new();
        metrics.set_enabled(enabled);
        session = session.with_metrics(&metrics);
    }
    let ids = vec![
        session
            .subscribe(
                QuerySpec::new("gp", udf1.clone(), acc(), StreamStrategy::Gp)
                    .output_range(f1.output_range()),
            )
            .unwrap(),
        session
            .subscribe(QuerySpec::new(
                "mc",
                udf1.clone(),
                acc(),
                StreamStrategy::Mc,
            ))
            .unwrap(),
        session
            .subscribe(
                QuerySpec::new("gp-sel", udf3.clone(), acc(), StreamStrategy::Gp)
                    .output_range(f3.output_range())
                    .predicate(
                        Predicate::new(0.5 * f3.output_range(), 2.0 * f3.output_range(), 0.5)
                            .unwrap(),
                    ),
            )
            .unwrap(),
        session
            .subscribe(
                QuerySpec::new("mc-sel", udf3, acc(), StreamStrategy::Mc)
                    .predicate(Predicate::new(0.4, 2.0, 0.5).unwrap()),
            )
            .unwrap(),
    ];
    session
        .run(SyntheticSource::gaussian(1, 0.5, 99), Some(384))
        .unwrap();

    // Sanity: the workload must exercise both paths and the filter.
    let gp = session.stats(ids[0]).unwrap();
    assert!(gp.slow > 0, "stream too easy: no slow-path tuples");
    assert!(gp.fast > 0, "stream too hard: no fast-path tuples");
    let sel = session.stats(ids[2]).unwrap();
    assert!(sel.filtered > 0 && sel.kept > 0, "predicate not selective");

    ids.into_iter()
        .map(|id| session.digest(id).unwrap())
        .collect()
}

#[test]
fn digests_identical_for_workers_1_2_8() {
    let d1 = run_with_workers(1);
    let d2 = run_with_workers(2);
    let d8 = run_with_workers(8);
    assert_eq!(d1, d2, "1 vs 2 workers");
    assert_eq!(d1, d8, "1 vs 8 workers");
}

/// The observability layer must be invisible in the outputs: digests with
/// a recording registry, a switched-off registry, and no registry at all
/// are byte-identical at every worker count.
#[test]
fn metrics_do_not_perturb_digests() {
    for workers in [1usize, 2, 8] {
        let bare = run_with_workers_metrics(workers, None);
        let off = run_with_workers_metrics(workers, Some(false));
        let on = run_with_workers_metrics(workers, Some(true));
        assert_eq!(bare, off, "workers={workers}: disabled registry");
        assert_eq!(bare, on, "workers={workers}: recording registry");
    }
}

#[test]
fn different_seed_changes_outputs() {
    let base = run_with_workers(1);
    let f1 = PaperFunction::F1.instantiate(1);
    let udf1 = BlackBoxUdf::new(Arc::new(f1.clone()), udf_core::udf::CostModel::Free);
    let mut session = Session::new(EngineConfig::new().batch_size(64).seed(123));
    let q = session
        .subscribe(
            QuerySpec::new("gp", udf1, acc(), StreamStrategy::Gp).output_range(f1.output_range()),
        )
        .unwrap();
    session
        .run(SyntheticSource::gaussian(1, 0.5, 99), Some(384))
        .unwrap();
    assert_ne!(
        session.digest(q).unwrap(),
        base[0],
        "different engine seed must change the emitted distributions"
    );
}
