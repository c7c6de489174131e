//! End-to-end acceptance: UQL queries must be *indistinguishable* from
//! hand-built engine calls.
//!
//! * A UQL selection on an astro UDF over a generated relation returns
//!   tuple-for-tuple identical results to the equivalent hand-built
//!   [`Executor::select_batch`] call — MC and GP, workers 1/2/8.
//! * A `FROM STREAM` UQL query produces the same determinism digest as the
//!   equivalent hand-built [`QuerySpec`] subscription.
//! * A UDF that panics mid-statement fails only that statement: the next
//!   one in the same context returns what a fresh context returns.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use udf_core::config::{AccuracyRequirement, Metric};
use udf_core::filtering::Predicate;
use udf_core::sched::BatchScheduler;
use udf_core::udf::{CostModel, UdfFunction};
use udf_lang::{run_uql, Context, QueryOutput};
use udf_query::{EvalStrategy, Executor, ProjectedTuple, Relation, Schema, Tuple, UdfCall, Value};
use udf_stream::{EngineConfig, QuerySpec, Session, StreamStrategy, SyntheticSource};
use udf_workloads::astro::GalaxyCatalog;
use udf_workloads::UdfEntry;

/// The generated relation both sides query: 64 galaxies with
/// Gaussian-uncertain redshifts.
fn sky() -> Relation {
    let mut rng = StdRng::seed_from_u64(42);
    let catalog = GalaxyCatalog::generate(64, &mut rng);
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

fn ctx_with_sky() -> Context {
    let mut ctx = Context::standard();
    ctx.register_relation("sky", sky());
    ctx
}

fn assert_rows_identical(uql: &[ProjectedTuple], hand: &[ProjectedTuple], label: &str) {
    assert_eq!(uql.len(), hand.len(), "{label}: row counts differ");
    for (a, b) in uql.iter().zip(hand) {
        assert_eq!(a.source, b.source, "{label}: source index");
        assert_eq!(
            a.tep.to_bits(),
            b.tep.to_bits(),
            "{label}: tuple {} TEP",
            a.source
        );
        assert_eq!(
            a.output.error_bound.to_bits(),
            b.output.error_bound.to_bits(),
            "{label}: tuple {} error bound",
            a.source
        );
        assert_eq!(
            a.output.ecdf, b.output.ecdf,
            "{label}: tuple {} distribution",
            a.source
        );
    }
}

/// UQL selection ≡ hand-built `Executor::select_batch`, MC and GP, for
/// workers 1/2/8 (the acceptance criterion).
#[test]
fn uql_selection_matches_hand_built_select_batch() {
    let seed = 7u64;
    let (lo, hi, theta) = (0.5, 0.9, 0.6);
    for strategy in ["mc", "gp"] {
        for workers in [1usize, 2, 8] {
            let ctx = ctx_with_sky();
            let q = format!(
                "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [{lo}, {hi}]) >= {theta} \
                 USING {strategy} WORKERS {workers} SEED {seed}"
            );
            let out = run_uql(&q, &ctx).unwrap();
            let QueryOutput::Rows(uql) = out else {
                panic!("relation query must return rows")
            };

            // The equivalent hand-built pipeline, sharing nothing with the
            // UQL path but the catalog entry it binds.
            let entry = ctx.udfs().get("GalAge").unwrap();
            let rel = sky();
            let call = UdfCall::resolve(entry.udf.clone(), rel.schema(), &["z"]).unwrap();
            let accuracy =
                AccuracyRequirement::new(0.1, 0.05, entry.default_lambda(), Metric::Discrepancy)
                    .unwrap();
            let eval = match strategy {
                "mc" => EvalStrategy::Mc,
                _ => EvalStrategy::Gp,
            };
            let mut ex = Executor::new(eval, accuracy, &call, entry.output_range).unwrap();
            let pred = Predicate::new(lo, hi, theta).unwrap();
            let sched = BatchScheduler::new(workers);
            let hand = ex.select_batch(&rel, &call, &pred, &sched, seed).unwrap();

            let label = format!("{strategy}/workers={workers}");
            assert!(
                !uql.rows.is_empty() && uql.rows.len() < 64,
                "{label}: selection should keep some but not all rows, kept {}",
                uql.rows.len()
            );
            assert_rows_identical(&uql.rows, &hand, &label);
            assert_eq!(uql.stats.tuples_in, 64, "{label}");
            assert_eq!(uql.stats.kept, hand.len() as u64, "{label}");
        }
    }
}

/// The same queries must be byte-identical across worker counts (the UQL
/// surface inherits the scheduler's determinism contract).
#[test]
fn uql_rows_independent_of_worker_count() {
    for strategy in ["mc", "gp"] {
        let mut reference: Option<Vec<ProjectedTuple>> = None;
        for workers in [1usize, 2, 8] {
            let ctx = ctx_with_sky();
            let q = format!(
                "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 \
                 USING {strategy} WORKERS {workers} SEED 11"
            );
            let QueryOutput::Rows(out) = run_uql(&q, &ctx).unwrap() else {
                panic!("rows")
            };
            match &reference {
                None => reference = Some(out.rows),
                Some(want) => {
                    assert_rows_identical(&out.rows, want, &format!("{strategy}/w{workers}"))
                }
            }
        }
    }
}

/// UQL projection (no WHERE) ≡ hand-built `project_batch`.
#[test]
fn uql_projection_matches_project_batch() {
    let ctx = ctx_with_sky();
    let QueryOutput::Rows(uql) =
        run_uql("SELECT GalAge(z) FROM sky USING gp WORKERS 2 SEED 5", &ctx).unwrap()
    else {
        panic!("rows")
    };
    let entry = ctx.udfs().get("GalAge").unwrap();
    let rel = sky();
    let call = UdfCall::resolve(entry.udf.clone(), rel.schema(), &["z"]).unwrap();
    let accuracy =
        AccuracyRequirement::new(0.1, 0.05, entry.default_lambda(), Metric::Discrepancy).unwrap();
    let mut ex = Executor::new(EvalStrategy::Gp, accuracy, &call, entry.output_range).unwrap();
    let sched = BatchScheduler::new(2);
    let hand = ex.project_batch(&rel, &call, &sched, 5).unwrap();
    assert_eq!(uql.rows.len(), 64);
    assert_rows_identical(&uql.rows, &hand, "projection");
}

/// `FROM STREAM` ≡ hand-built `QuerySpec` subscription: same determinism
/// digest, same stats.
#[test]
fn uql_stream_digest_matches_hand_built_subscription() {
    for (strategy_kw, strategy) in [("mc", StreamStrategy::Mc), ("gp", StreamStrategy::Gp)] {
        let mut ctx = Context::standard();
        ctx.register_stream("synth", 1, || {
            Box::new(SyntheticSource::gaussian(1, 0.5, 11))
        });
        let q = format!(
            "SELECT F3(x) WITH ACCURACY 0.2 0.05 METRIC disc FROM STREAM synth \
             WHERE PR(F3(x) IN [0.4, 1.5]) >= 0.3 \
             USING {strategy_kw} WORKERS 2 BATCH 64 SEED 9 LIMIT 192"
        );
        let QueryOutput::Stream(uql) = run_uql(&q, &ctx).unwrap() else {
            panic!("stream query must return a stream summary")
        };

        // Hand-built equivalent.
        let entry = ctx.udfs().get("F3").unwrap();
        let accuracy =
            AccuracyRequirement::new(0.2, 0.05, entry.default_lambda(), Metric::Discrepancy)
                .unwrap();
        let mut session = Session::new(EngineConfig::new().workers(2).batch_size(64).seed(9));
        let id = session
            .subscribe(
                QuerySpec::new("hand", entry.udf.clone(), accuracy, strategy)
                    .output_range(entry.output_range)
                    .predicate(Predicate::new(0.4, 1.5, 0.3).unwrap()),
            )
            .unwrap();
        session
            .run(SyntheticSource::gaussian(1, 0.5, 11), Some(192))
            .unwrap();

        assert_eq!(
            uql.digest,
            session.digest(id).unwrap(),
            "{strategy_kw}: digests diverge"
        );
        let hand = session.stats(id).unwrap();
        assert_eq!(uql.stats.tuples_in, hand.tuples_in, "{strategy_kw}");
        assert_eq!(uql.stats.kept, hand.kept, "{strategy_kw}");
        assert_eq!(uql.stats.filtered, hand.filtered, "{strategy_kw}");
        assert_eq!(uql.stats.tuples_in, 192, "{strategy_kw}");
    }
}

/// EXPLAIN compiles and renders the bound plan without executing: the
/// operator, the resolved strategy, and the predicate ruled inside it.
#[test]
fn explain_renders_pushdown_plan() {
    let ctx = ctx_with_sky();
    let QueryOutput::Plan(plan) = run_uql(
        "EXPLAIN SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 USING gp",
        &ctx,
    )
    .unwrap() else {
        panic!("EXPLAIN returns a plan")
    };
    assert!(
        plan.contains("  BatchExec relation=sky udf=GalAge strategy=Gp workers=1 seed=0\n"),
        "operator shown:\n{plan}"
    );
    assert!(
        plan.contains(
            "    predicate: Pr[y ∈ [0.5, 0.9]] ≥ 0.6 — pushed into the GP-envelope (§5.5) fast path\n"
        ),
        "fast-path routing shown:\n{plan}"
    );
    assert_eq!(plan.lines().count(), 4, "one plan, no other tree:\n{plan}");
}

/// EXPLAIN ANALYZE executes and annotates the physical plan with
/// per-operator wall-clock and routing counters, plus the statement's
/// metrics-registry delta.
#[test]
fn explain_analyze_reports_operator_timings() {
    let ctx = ctx_with_sky();
    let QueryOutput::Plan(report) = run_uql(
        "EXPLAIN ANALYZE SELECT GalAge(z) FROM sky \
         WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 USING gp WORKERS 2 SEED 7",
        &ctx,
    )
    .unwrap() else {
        panic!("ANALYZE returns the annotated plan")
    };
    assert!(
        report.contains("BatchExec relation=sky udf=GalAge strategy=Gp workers=2 seed=7"),
        "plan shown:\n{report}"
    );
    assert!(
        report.contains("BatchExec: time="),
        "operator timing:\n{report}"
    );
    for key in ["rows=", "fast=", "slow=", "udf_calls=", "cap_hits="] {
        assert!(report.contains(key), "{key} counter:\n{report}");
    }
    assert!(
        report.contains("Metrics delta for this statement:"),
        "delta section:\n{report}"
    );
    assert!(report.contains("uql.exec_ns"), "phase timer:\n{report}");
    assert!(
        report.contains("sched.chunks"),
        "scheduler metrics:\n{report}"
    );

    // The stream shape carries the determinism digest in its line.
    let mut ctx = Context::standard();
    ctx.register_stream("synth", 1, || {
        Box::new(SyntheticSource::gaussian(1, 0.5, 3))
    });
    let QueryOutput::Plan(report) = run_uql(
        "EXPLAIN ANALYZE SELECT F3(x) WITH ACCURACY 0.25 0.05 FROM STREAM synth \
         USING gp BATCH 32 SEED 4 LIMIT 96",
        &ctx,
    )
    .unwrap() else {
        panic!("stream ANALYZE returns the annotated plan")
    };
    assert!(
        report.contains("StreamExec: time="),
        "stream timing:\n{report}"
    );
    assert!(report.contains("digest=0x"), "digest line:\n{report}");
    assert!(report.contains("stream.batch_ns"), "engine hist:\n{report}");
}

/// ANALYZE must not change what a subsequent identical query computes:
/// the digest in the annotated report equals the plain query's digest.
#[test]
fn explain_analyze_is_execution_faithful() {
    let q = "SELECT F3(x) WITH ACCURACY 0.25 0.05 FROM STREAM synth \
             USING gp BATCH 32 SEED 4 LIMIT 96";
    let mut ctx = Context::standard();
    ctx.register_stream("synth", 1, || {
        Box::new(SyntheticSource::gaussian(1, 0.5, 3))
    });
    let QueryOutput::Stream(plain) = run_uql(q, &ctx).unwrap() else {
        panic!("stream")
    };
    let QueryOutput::Plan(report) = run_uql(&format!("EXPLAIN ANALYZE {q}"), &ctx).unwrap() else {
        panic!("plan")
    };
    assert!(
        report.contains(&format!("digest=0x{:016x}", plain.digest)),
        "ANALYZE ran a different computation:\n{report}"
    );
}

/// The observability layer must be output-blind: rows and digests are
/// byte-identical with the session registry recording vs. switched off,
/// at workers 1/2/8.
#[test]
fn metrics_switch_never_perturbs_outputs() {
    for workers in [1usize, 2, 8] {
        let rows = |enabled: bool| {
            let ctx = ctx_with_sky();
            ctx.metrics().set_enabled(enabled);
            let q = format!(
                "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 \
                 USING gp WORKERS {workers} SEED 11"
            );
            let QueryOutput::Rows(out) = run_uql(&q, &ctx).unwrap() else {
                panic!("rows")
            };
            out.rows
        };
        assert_rows_identical(
            &rows(true),
            &rows(false),
            &format!("metrics-blind/w{workers}"),
        );

        let digest = |enabled: bool| {
            let mut ctx = Context::standard();
            ctx.register_stream("synth", 1, || {
                Box::new(SyntheticSource::gaussian(1, 0.5, 11))
            });
            ctx.metrics().set_enabled(enabled);
            let q = format!(
                "SELECT F3(x) WITH ACCURACY 0.2 0.05 METRIC disc FROM STREAM synth \
                 WHERE PR(F3(x) IN [0.4, 1.5]) >= 0.3 \
                 USING gp WORKERS {workers} BATCH 64 SEED 9 LIMIT 192"
            );
            let QueryOutput::Stream(out) = run_uql(&q, &ctx).unwrap() else {
                panic!("stream")
            };
            out.digest
        };
        assert_eq!(
            digest(true),
            digest(false),
            "metrics-blind stream digest, workers={workers}"
        );
    }
}

/// EXPLAIN ANALYZE says what the statement itself did: its own parse and
/// bind times on the operator line, no histogram that recorded nothing in
/// its window (a delta keeps the lifetime maximum, which would print
/// beside `count=0`), and — on streams — the run's digest.
#[test]
fn explain_analyze_reports_attribution() {
    let ctx = ctx_with_sky();
    let q = "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 \
             USING gp WORKERS 2 SEED 7";
    // A statement before the window: every `uql.*` histogram now has a
    // lifetime maximum.
    run_uql(q, &ctx).unwrap();
    let QueryOutput::Plan(report) = run_uql(&format!("EXPLAIN ANALYZE {q}"), &ctx).unwrap() else {
        panic!("ANALYZE returns the annotated plan")
    };
    let op = report
        .lines()
        .find(|l| l.contains("BatchExec: time="))
        .unwrap_or_else(|| panic!("operator line:\n{report}"));
    assert!(
        op.contains(" parse=") && op.contains(" bind="),
        "parse/bind on the operator line:\n{report}"
    );
    let (_, delta) = report
        .split_once("Metrics delta for this statement:")
        .unwrap_or_else(|| panic!("delta section:\n{report}"));
    assert!(delta.contains("uql.exec_ns"), "exec timer:\n{report}");
    assert!(
        !delta.contains("count=0 "),
        "empty histogram in the window:\n{report}"
    );
    // Parsing and binding happen before the window opens.
    for outside in ["uql.parse_ns", "uql.bind_ns"] {
        assert!(
            !delta.contains(outside),
            "{outside} in the delta:\n{report}"
        );
    }

    // The stream shape additionally carries the digest.
    let mut ctx = Context::standard();
    ctx.register_stream("synth", 1, || {
        Box::new(SyntheticSource::gaussian(1, 0.5, 3))
    });
    let QueryOutput::Plan(report) = run_uql(
        "EXPLAIN ANALYZE SELECT F3(x) WITH ACCURACY 0.25 0.05 FROM STREAM synth \
         USING gp BATCH 32 SEED 4 LIMIT 320",
        &ctx,
    )
    .unwrap() else {
        panic!("stream ANALYZE returns the annotated plan")
    };
    assert!(
        report.contains("StreamExec: time="),
        "stream timing:\n{report}"
    );
    assert!(report.contains("digest=0x"), "digest line:\n{report}");
}

/// The one reroute `sched.verdict.reroute` does not count is the cold
/// model's bootstrap: a cold GP relation statement's slow tuples are its
/// accuracy-miss reroutes plus exactly one, at workers 1/2/8.
#[test]
fn explain_analyze_slow_tuples_are_reroutes_plus_the_bootstrap() {
    for workers in [1usize, 2, 8] {
        let ctx = ctx_with_sky();
        let QueryOutput::Plan(report) = run_uql(
            &format!(
                "EXPLAIN ANALYZE SELECT GalAge(z) FROM sky \
                 WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 USING gp WORKERS {workers} SEED 7"
            ),
            &ctx,
        )
        .unwrap() else {
            panic!("ANALYZE returns the annotated plan")
        };
        let number_after = |key: &str| -> u64 {
            let (_, rest) = report
                .split_once(key)
                .unwrap_or_else(|| panic!("{key}:\n{report}"));
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().unwrap()
        };
        let slow = number_after(" slow=");
        let reroutes = number_after("sched.verdict.reroute = ");
        assert!(reroutes > 0, "workers={workers}: a cold model reroutes");
        assert_eq!(slow, reroutes + 1, "workers={workers}:\n{report}");
    }
}

/// AUTO strategy resolves by the §6.3 cost rules: the expensive GalAge
/// (0.29 ms simulated) goes GP; the free synthetic F1 goes MC.
#[test]
fn auto_strategy_resolves_by_cost_rules() {
    let mut ctx = ctx_with_sky();
    let QueryOutput::Plan(plan) =
        run_uql("EXPLAIN SELECT GalAge(z) FROM sky SEED 1", &ctx).unwrap()
    else {
        panic!("plan")
    };
    assert!(plan.contains("strategy=Gp"), "GalAge is expensive:\n{plan}");

    let tuples = (0..8)
        .map(|i| {
            Tuple::new(vec![Value::Gaussian {
                mu: i as f64,
                sigma: 0.5,
            }])
        })
        .collect();
    ctx.register_relation(
        "points",
        Relation::new(Schema::new(&["x"]), tuples).unwrap(),
    );
    let QueryOutput::Plan(plan) = run_uql("EXPLAIN SELECT F1(x) FROM points SEED 1", &ctx).unwrap()
    else {
        panic!("plan")
    };
    assert!(plan.contains("strategy=Mc"), "F1 is free:\n{plan}");
}

/// Repeated runs of the same statement are reproducible end to end.
#[test]
fn repeated_runs_are_reproducible() {
    let digest = |seed: u64| {
        let mut ctx = Context::standard();
        ctx.register_stream("synth", 1, || {
            Box::new(SyntheticSource::gaussian(1, 0.5, 3))
        });
        // F3 with a loose requirement: the spikier F2 under tight default
        // accuracy grows the GP model into O(n³) retraining territory,
        // which is a workload property, not what this test probes.
        let q = format!(
            "SELECT F3(x) WITH ACCURACY 0.25 0.05 FROM STREAM synth \
             USING gp BATCH 32 SEED {seed} LIMIT 96"
        );
        let QueryOutput::Stream(out) = run_uql(&q, &ctx).unwrap() else {
            panic!("stream")
        };
        out.digest
    };
    assert_eq!(digest(4), digest(4));
    assert_ne!(digest(4), digest(5), "seed must matter");
}

/// Stream queries without LIMIT are refused (sources may be unbounded).
#[test]
fn unbounded_stream_query_is_refused() {
    let mut ctx = Context::standard();
    ctx.register_stream("synth", 1, || {
        Box::new(SyntheticSource::gaussian(1, 0.5, 3))
    });
    let err = run_uql("SELECT F2(x) FROM STREAM synth", &ctx).unwrap_err();
    assert!(err.to_string().contains("LIMIT"), "{err}");
}

/// The tuning loop's append rate as a number: on the F2 `MODEL CAP 96`
/// statement (the shape of the benchmark's `f2_tuning_capped`) almost every
/// inference that follows an added training point extends the tuple's
/// retained kernel rows instead of rebuilding them, each such extension is
/// counted once and as the cache miss the rebuild would have been, and
/// `EXPLAIN ANALYZE` shows the count on the operator line.
#[test]
fn tuning_loop_extends_instead_of_rebuilding_on_f2() {
    let n = 64;
    let tuples = (0..n)
        .map(|i| {
            Tuple::new(vec![Value::Gaussian {
                mu: (0.61 * i as f64) % 10.0,
                sigma: 0.5,
            }])
        })
        .collect();
    let mut ctx = Context::standard();
    ctx.register_relation(
        "points",
        Relation::new(Schema::new(&["x"]), tuples).unwrap(),
    );
    let QueryOutput::Plan(report) = run_uql(
        "EXPLAIN ANALYZE SELECT F2(x) FROM points USING gp MODEL CAP 96 WORKERS 1 SEED 7",
        &ctx,
    )
    .unwrap() else {
        panic!("ANALYZE returns the annotated plan")
    };
    let snap = ctx.metrics().snapshot();
    let count = |name: &str| snap.counters[name];
    let extends = count("olgapro.tuning_extends");
    assert!(
        report.contains(&format!(" tuning_extends={extends}\n")),
        "operator line:\n{report}"
    );

    // Every tuning-loop inference follows one UDF call past the bootstrap.
    let field = |key: &str| -> u64 {
        let at = report
            .find(key)
            .unwrap_or_else(|| panic!("{key} in\n{report}"))
            + key.len();
        let digits: String = report[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().unwrap()
    };
    let bootstrap = 5;
    let loop_inferences = field("udf_calls=") - bootstrap;
    // extends + rebuilds = tuning-loop inferences: the subset-factor cache
    // saw one lookup per inference — the fast phase's `n − 1`, each slow
    // tuple's first, the last of each retrain that moved the model (one
    // that proposed nothing took one iteration and re-infers nothing), and
    // the loop's — and whatever of the loop's was not an extension was a
    // rebuild.
    let train_iters = &snap.histograms["olgapro.train_iters"];
    let retrains = train_iters.count - train_iters.buckets[1];
    let lookups = count("olgapro.lp_cache.hits") + count("olgapro.lp_cache.misses");
    let rebuilds = lookups - (n - 1) - field("slow=") - retrains - extends;
    assert_eq!(extends + rebuilds, loop_inferences, "{report}");
    assert!(
        extends as f64 >= 0.99 * loop_inferences as f64,
        "{extends} of {loop_inferences} tuning-loop inferences extended"
    );
    assert_eq!(field("udf_calls="), 96, "the model fills its cap");

    // The bound stage runs only where its value is read: every inference
    // either built its bound or was counted as skipping it, and on this
    // write-heavy statement most of the tuning loop's skip — answered by
    // counting, or superseded by the retrain that follows.
    let (built, skipped) = (
        count("olgapro.bounds_built"),
        count("olgapro.bounds_skipped"),
    );
    assert_eq!(
        built + skipped,
        lookups,
        "one ruling per inference\n{report}"
    );
    let in_loop = loop_inferences + field("slow=");
    assert!(
        skipped as f64 >= 0.8 * in_loop as f64,
        "{skipped} of {in_loop} slow-path bounds skipped"
    );
    assert!(report.contains(&format!("olgapro.bounds_skipped = {skipped}\n")));
}

/// A UDF that panics on its `bad`-th call, once, and is healthy otherwise.
struct PanicsOnce {
    calls: AtomicU64,
    bad: u64,
}

impl UdfFunction for PanicsOnce {
    fn dim(&self) -> usize {
        1
    }
    fn eval(&self, x: &[f64]) -> f64 {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        assert!(call != self.bad, "injected UDF panic");
        (x[0] * 3.0).sin()
    }
    fn name(&self) -> &str {
        "Boom"
    }
}

fn boom_ctx(bad: u64) -> Context {
    let mut ctx = ctx_with_sky();
    ctx.register_stream("synth", 1, || {
        Box::new(SyntheticSource::gaussian(1, 0.5, 11))
    });
    let boom = PanicsOnce {
        calls: AtomicU64::new(0),
        bad,
    };
    let domain = vec![(0.0, 2.0)];
    let entry = UdfEntry::probed(Arc::new(boom), CostModel::Free, domain, Some(2.0), "");
    ctx.udfs_mut().register(entry);
    ctx
}

/// A UDF panicking mid-statement: the statement fails — the panic unwinds
/// out of the sequential path (GP) or comes back as a worker error (MC),
/// which a relation and a stream report in the same words — and the next
/// statement in the same context returns what a fresh context returns.
#[test]
fn a_panicking_udf_fails_only_its_statement() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    const WORKER_PANIC: &str = "execution error: a worker thread panicked: injected UDF panic";
    // Call 8 is inside the first GP tuple's tuning loop; call 300 is on a
    // pool worker in the middle of the MC batch.
    for (using, bad) in [("gp", 8), ("mc", 300)] {
        let q = format!("SELECT Boom(z) FROM sky USING {using} WORKERS 2 SEED 7");
        let ctx = boom_ctx(bad);
        let failed = catch_unwind(AssertUnwindSafe(|| run_uql(&q, &ctx)));
        assert!(
            !matches!(failed, Ok(Ok(_))),
            "{using}: the statement succeeded"
        );
        if using == "mc" {
            let Ok(Err(e)) = &failed else {
                panic!("mc: the worker's panic did not come back as an error")
            };
            assert_eq!(e.to_string(), WORKER_PANIC);
        }

        let QueryOutput::Rows(again) = run_uql(&q, &ctx).unwrap() else {
            panic!("rows")
        };
        let QueryOutput::Rows(fresh) = run_uql(&q, &boom_ctx(u64::MAX)).unwrap() else {
            panic!("rows")
        };
        assert_eq!(again.rows.len(), 64, "{using}");
        assert_rows_identical(&again.rows, &fresh.rows, using);
    }

    let q = "SELECT Boom(x) FROM STREAM synth USING mc WORKERS 2 SEED 7 LIMIT 128";
    let ctx = boom_ctx(300);
    let err = run_uql(q, &ctx).unwrap_err();
    assert_eq!(err.to_string(), WORKER_PANIC, "stream");
    let QueryOutput::Stream(again) = run_uql(q, &ctx).unwrap() else {
        panic!("stream")
    };
    let QueryOutput::Stream(fresh) = run_uql(q, &boom_ctx(u64::MAX)).unwrap() else {
        panic!("stream")
    };
    assert_eq!(again.stats.tuples_in, 128);
    assert_eq!(again.digest, fresh.digest, "stream");
}
