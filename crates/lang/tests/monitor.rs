//! The monitor must be *output-blind*: a context whose monitor ticks
//! between statements produces byte-identical rows, join pairs, and stream
//! digests to one whose monitor never ticks — at workers 1/2/8. Plus e2e
//! coverage for the REPL-facing tick-driven `cap_hits_burst` alert.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use udf_core::udf::{CostModel, UdfFunction};
use udf_lang::{run_uql, Context, QueryOutput};
use udf_query::{ProjectedTuple, Relation, Schema, Tuple, Value};
use udf_stream::SyntheticSource;
use udf_workloads::astro::GalaxyCatalog;
use udf_workloads::UdfEntry;

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

/// A compact catalog for the join leg (pair evaluation is quadratic).
fn stars() -> Relation {
    let tuples = (0..16)
        .map(|i| {
            Tuple::new(vec![
                Value::Det(i as f64),
                Value::Gaussian {
                    mu: 0.1 + 1.7 * i as f64 / 16.0,
                    sigma: 0.02,
                },
            ])
        })
        .collect();
    Relation::new(Schema::new(&["objID", "z"]), tuples).unwrap()
}

fn demo_ctx() -> Context {
    let mut ctx = Context::standard();
    ctx.register_relation("sky", sky());
    ctx.register_relation("stars", stars());
    ctx.register_stream("synth", 1, || {
        Box::new(SyntheticSource::gaussian(1, 0.5, 11))
    });
    ctx
}

fn assert_rows_identical(a: &[ProjectedTuple], b: &[ProjectedTuple], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: row counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.source, y.source, "{label}: source index");
        assert_eq!(x.tep.to_bits(), y.tep.to_bits(), "{label}: TEP");
        assert_eq!(
            x.output.error_bound.to_bits(),
            y.output.error_bound.to_bits(),
            "{label}: error bound"
        );
        assert_eq!(x.output.ecdf, y.output.ecdf, "{label}: distribution");
    }
}

/// Run the three query shapes in one context. `monitored` ticks the
/// monitor before and after every statement.
fn run_all(workers: usize, monitored: bool) -> (Vec<ProjectedTuple>, Vec<(usize, usize)>, u64) {
    let mut ctx = demo_ctx();
    let tick = |ctx: &mut Context| {
        if monitored {
            ctx.monitor_mut().tick();
        }
    };
    tick(&mut ctx);

    let q = format!(
        "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 \
         USING gp WORKERS {workers} SEED 11"
    );
    let QueryOutput::Rows(rows) = run_uql(&q, &mut ctx).unwrap() else {
        panic!("rows")
    };
    tick(&mut ctx);

    let q = format!(
        "SELECT AngDist(a.z, b.z) FROM stars a JOIN stars b ON a.objID < b.objID \
         WHERE PR(AngDist(a.z, b.z) IN [0.0, 0.8]) >= 0.5 \
         USING gp WORKERS {workers} SEED 5"
    );
    let QueryOutput::Join(join) = run_uql(&q, &mut ctx).unwrap() else {
        panic!("join")
    };
    tick(&mut ctx);

    let q = format!(
        "SELECT F3(x) WITH ACCURACY 0.2 0.05 METRIC disc FROM STREAM synth \
         WHERE PR(F3(x) IN [0.4, 1.5]) >= 0.3 \
         USING gp WORKERS {workers} BATCH 64 SEED 9 LIMIT 192"
    );
    let QueryOutput::Stream(stream) = run_uql(&q, &mut ctx).unwrap() else {
        panic!("stream")
    };
    tick(&mut ctx);

    let pairs = join.rows.iter().map(|p| (p.left, p.right)).collect();
    (rows.rows, pairs, stream.digest)
}

/// The acceptance criterion: ticking vs. not changes nothing, at workers
/// 1/2/8.
#[test]
fn monitor_is_output_blind_across_worker_counts() {
    for workers in [1usize, 2, 8] {
        let (rows_on, pairs_on, digest_on) = run_all(workers, true);
        let (rows_off, pairs_off, digest_off) = run_all(workers, false);
        assert_rows_identical(&rows_on, &rows_off, &format!("monitor-blind/w{workers}"));
        assert_eq!(
            pairs_on, pairs_off,
            "monitor-blind join pairs, workers={workers}"
        );
        assert_eq!(
            digest_on, digest_off,
            "monitor-blind stream digest, workers={workers}"
        );
    }
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
    let mut ctx = demo_ctx();
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
/// out of the sequential path (GP) or comes back as a worker error (MC) —
/// and the next statement in the same context returns what a fresh
/// context returns.
#[test]
fn a_panicking_udf_fails_only_its_statement() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    // Call 8 is inside the first GP tuple's tuning loop; call 300 is on a
    // pool worker in the middle of the MC batch.
    for (using, bad) in [("gp", 8), ("mc", 300)] {
        let q = format!("SELECT Boom(z) FROM sky USING {using} WORKERS 2 SEED 7");
        let mut ctx = boom_ctx(bad);
        let failed = catch_unwind(AssertUnwindSafe(|| run_uql(&q, &mut ctx)));
        assert!(
            !matches!(failed, Ok(Ok(_))),
            "{using}: the statement succeeded"
        );

        let QueryOutput::Rows(again) = run_uql(&q, &mut ctx).unwrap() else {
            panic!("rows")
        };
        let QueryOutput::Rows(fresh) = run_uql(&q, &mut boom_ctx(u64::MAX)).unwrap() else {
            panic!("rows")
        };
        assert_eq!(again.rows.len(), 64, "{using}");
        assert_rows_identical(&again.rows, &fresh.rows, using);
    }
}

const CAPPED: &str = "SELECT GalAge(z) FROM sky USING gp SEED 7 MODEL CAP 8";
const UNCAPPED: &str = "SELECT GalAge(z) FROM sky USING mc SEED 7";

fn cap_hits_burst_fires(ctx: &Context) -> bool {
    ctx.monitor()
        .active_alerts()
        .iter()
        .any(|rule| rule == "cap_hits_burst")
}

/// Ticking the context's monitor around statements drives the standard
/// alert: a MODEL CAP query bursts `olgapro.cap_hits`, firing
/// `cap_hits_burst`.
#[test]
fn context_ticks_populate_series_and_alerts() {
    let mut ctx = demo_ctx();
    assert_eq!(ctx.monitor().rule_count(), 1, "standard rule pre-wired");
    ctx.monitor_mut().tick(); // baseline
    run_uql(CAPPED, &mut ctx).unwrap();
    ctx.monitor_mut().tick();
    assert!(
        cap_hits_burst_fires(&ctx),
        "standard cap_hits_burst rule fires"
    );
    let dashboard = ctx.monitor().render_top();
    assert!(
        dashboard.contains("FIRING cap_hits_burst"),
        "dashboard:\n{dashboard}"
    );
}

/// `\metrics reset` between two identical capped statements: the second
/// burst leaves `olgapro.cap_hits` below the pre-reset total, and must
/// still fire `cap_hits_burst`.
#[test]
fn cap_burst_after_a_metrics_reset_fires() {
    let mut ctx = demo_ctx();
    ctx.monitor_mut().tick();
    run_uql(CAPPED, &mut ctx).unwrap();
    ctx.monitor_mut().tick();
    assert!(cap_hits_burst_fires(&ctx), "first burst fires");
    run_uql(UNCAPPED, &mut ctx).unwrap();
    ctx.monitor_mut().tick();
    assert!(!cap_hits_burst_fires(&ctx), "a clean statement resolves");
    ctx.metrics().reset();
    run_uql(CAPPED, &mut ctx).unwrap();
    ctx.monitor_mut().tick();
    assert!(
        cap_hits_burst_fires(&ctx),
        "the burst after the reset fires:\n{}",
        ctx.monitor().render_top()
    );
}
