//! The model-cap contract on the relational executor: a capped
//! `select_batch` over a spiky UDF (F2) at a tight accuracy keeps the GP
//! model bounded and total UDF calls linear in the batch length, where the
//! uncapped run's model grows with the relation, its loose tuples counted
//! as tuning-budget stops — and cap decisions are deterministic under the
//! scheduler (workers 1/2/8 byte-identity).

use std::sync::Arc;
use udf_core::config::{AccuracyRequirement, Metric, ModelBudget};
use udf_core::filtering::Predicate;
use udf_core::sched::BatchScheduler;
use udf_core::udf::{BlackBoxUdf, CostModel};
use udf_query::{EvalStrategy, Executor, ProjectedTuple, Relation, Schema, Tuple, UdfCall, Value};
use udf_workloads::synthetic::{sweep_mean, PaperFunction};

const SEED: u64 = 0xF2CA9;
const CAP: usize = 16;

/// A relation whose uncertain attribute sweeps the synthetic domain on the
/// golden-ratio schedule — every stretch of tuples visits fresh regions,
/// the adversarial input for GP model growth.
fn sweep_rel(n: usize) -> Relation {
    let schema = Schema::new(&["objID", "x"]);
    let tuples = (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Det(i as f64),
                Value::Gaussian {
                    mu: sweep_mean(i),
                    sigma: 0.4,
                },
            ])
        })
        .collect();
    Relation::new(schema, tuples).unwrap()
}

/// Tight requirement (ε = 0.1, the satellite's bound) on the spiky F2.
fn acc() -> AccuracyRequirement {
    AccuracyRequirement::new(0.1, 0.05, 0.0, Metric::Ks).unwrap()
}

fn f2_udf() -> (BlackBoxUdf, f64) {
    let f2 = PaperFunction::F2.instantiate(1);
    let range = f2.output_range();
    (BlackBoxUdf::new(Arc::new(f2), CostModel::Free), range)
}

/// Wide predicate: F2 is ≈ 0 over most of the domain and peaks within the
/// range, so everything stays in-interval — the test exercises the cap,
/// not the filter.
fn pred() -> Predicate {
    Predicate::new(-0.5, 2.5, 0.3).unwrap()
}

fn run_select(n: usize, cap: usize, workers: usize) -> (Vec<ProjectedTuple>, Executor) {
    let r = sweep_rel(n);
    let (udf, range) = f2_udf();
    let call = UdfCall::resolve(udf, r.schema(), &["x"]).unwrap();
    let mut ex = Executor::new(EvalStrategy::Gp, acc(), &call, range)
        .unwrap()
        .with_model_cap(cap, ModelBudget::StopGrowing)
        .unwrap();
    let sched = BatchScheduler::new(workers);
    let rows = ex.select_batch(&r, &call, &pred(), &sched, SEED).unwrap();
    (rows, ex)
}

#[test]
fn capped_f2_bounds_model_where_uncapped_grows() {
    // 48 tuples keep the *uncapped* arm affordable in CI — it is the
    // pathological O(n³) path the cap bounds, and it already overshoots
    // the cap severalfold at this size.
    let (_, capped) = run_select(48, CAP, 2);
    let (_, uncapped) = run_select(48, 0, 2);
    let capped_len = capped.olgapro().unwrap().model().len();
    let uncapped_len = uncapped.olgapro().unwrap().model().len();
    assert!(
        capped_len <= CAP,
        "capped model grew to {capped_len} > {CAP}"
    );
    assert!(
        uncapped_len > CAP,
        "workload too easy: uncapped model stayed at {uncapped_len}"
    );
    assert!(capped.stats().cap_hits > 0, "cap hits must be observable");
    assert_eq!(uncapped.stats().cap_hits, 0);
    // Uncapped, the loose tuples are the ones whose tuning loop spent its
    // `max_points_per_input` points and still missed the budget.
    assert!(
        uncapped.stats().tuning_budget > 0,
        "tuning-budget stops must be observable: {}",
        uncapped.stats()
    );
    assert!(
        capped.stats().udf_calls < uncapped.stats().udf_calls,
        "cap must bound training cost: {} vs {}",
        capped.stats().udf_calls,
        uncapped.stats().udf_calls
    );
}

#[test]
fn capped_udf_calls_grow_linearly_in_batch_length() {
    let (rows_n, ex_n) = run_select(48, CAP, 1);
    let (rows_2n, ex_2n) = run_select(96, CAP, 1);
    assert_eq!(rows_n.len(), 48, "wide predicate must keep every tuple");
    assert_eq!(rows_2n.len(), 96);
    let (calls_n, calls_2n) = (ex_n.stats().udf_calls, ex_2n.stats().udf_calls);
    // Once the model is full, a stop-growing run stops calling the UDF at
    // all, so doubling the relation costs at most the same training budget
    // again — linear (in fact constant) growth, never the uncapped
    // per-tuple climb.
    assert!(
        calls_2n <= 2 * calls_n,
        "super-linear UDF cost under a cap: {calls_n} → {calls_2n}"
    );
    assert!(
        calls_2n - calls_n <= (CAP + 10) as u64,
        "second half kept training: {calls_n} → {calls_2n}"
    );
}

#[test]
fn capped_rows_identical_for_workers_1_2_8() {
    let (r1, e1) = run_select(64, CAP, 1);
    let (r2, e2) = run_select(64, CAP, 2);
    let (r8, e8) = run_select(64, CAP, 8);
    assert_eq!(e1.stats(), e2.stats(), "stats must not depend on workers");
    assert_eq!(e1.stats(), e8.stats());
    assert!(e1.stats().cap_hits > 0, "cap never exercised");
    for (other, label) in [(&r2, "2"), (&r8, "8")] {
        assert_eq!(
            r1.len(),
            other.len(),
            "row count differs at workers {label}"
        );
        for (a, b) in r1.iter().zip(other.iter()) {
            assert_eq!(a.source, b.source, "workers {label}");
            assert_eq!(a.tep.to_bits(), b.tep.to_bits(), "workers {label}");
            assert_eq!(
                a.output.error_bound.to_bits(),
                b.output.error_bound.to_bits(),
                "workers {label}"
            );
            assert_eq!(
                a.output.ecdf.values(),
                b.output.ecdf.values(),
                "workers {label}, tuple {}",
                a.source
            );
        }
    }
}
