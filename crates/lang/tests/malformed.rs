//! A table of malformed queries asserting that every rejection carries a
//! source span pointing at the offending fragment and a message naming the
//! problem.

use udf_lang::{run_uql, Context, LangError, Stage};
use udf_query::{Relation, Schema, Tuple, Value};
use udf_stream::SyntheticSource;

fn ctx() -> Context {
    let mut ctx = Context::standard();
    let tuples = (0..4)
        .map(|i| {
            Tuple::new(vec![
                Value::Det(i as f64),
                Value::Gaussian {
                    mu: 0.5,
                    sigma: 0.1,
                },
            ])
        })
        .collect();
    ctx.register_relation(
        "sky",
        Relation::new(Schema::new(&["objID", "z"]), tuples).unwrap(),
    );
    ctx.register_stream("synth", 1, || {
        Box::new(SyntheticSource::gaussian(1, 0.5, 1))
    });
    ctx
}

struct Case {
    query: &'static str,
    /// Stage expected to reject it.
    stage: Stage,
    /// Substring the message must contain.
    message: &'static str,
    /// The source fragment the span must cover.
    at: &'static str,
}

#[test]
fn malformed_queries_fail_with_spans() {
    let cases = [
        // ── lexer ──────────────────────────────────────────────────────
        Case {
            query: "SELECT GalAge(z) FROM sky; DROP TABLE sky",
            stage: Stage::Lex,
            message: "unexpected character `;`",
            at: ";",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [1e, 2]) >= 0.5",
            stage: Stage::Lex,
            message: "empty exponent",
            at: "1e",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [1, 2]) > 0.5",
            stage: Stage::Lex,
            message: "expected `>=`",
            at: ">",
        },
        // ── parser ─────────────────────────────────────────────────────
        Case {
            query: "SELECT FROM sky",
            stage: Stage::Parse,
            message: "expected `(` after UDF name",
            at: "sky",
        },
        Case {
            query: "SELECT GalAge(z) sky",
            stage: Stage::Parse,
            message: "expected keyword `FROM`",
            at: "sky",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky WHERE GalAge(z) IN [0, 1]",
            stage: Stage::Parse,
            message: "expected keyword `PR`",
            at: "GalAge",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.1 0.2]) >= 0.5",
            stage: Stage::Parse,
            message: "`,` between interval bounds",
            at: "0.2",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky WORKERS 2.5",
            stage: Stage::Parse,
            message: "non-negative integer",
            at: "2.5",
        },
        Case {
            // 2^53 + 1 does not survive the f64 literal; silently rounding
            // a SEED would break the determinism contract.
            query: "SELECT GalAge(z) FROM sky SEED 9007199254740993",
            stage: Stage::Parse,
            message: "2^53",
            at: "9007199254740993",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky SEED 1 SEED 2",
            stage: Stage::Parse,
            message: "duplicate `SEED`",
            at: "SEED",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky USING turbo",
            stage: Stage::Parse,
            message: "unknown strategy `turbo`",
            at: "turbo",
        },
        Case {
            query: "SELECT GalAge(z) WITH ACCURACY 0.1 0.05 METRIC manhattan FROM sky",
            stage: Stage::Parse,
            message: "unknown metric `manhattan`",
            at: "manhattan",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky extra tokens",
            stage: Stage::Parse,
            message: "trailing input",
            at: "extra",
        },
        // ── binder ─────────────────────────────────────────────────────
        Case {
            query: "SELECT GalAgee(z) FROM sky",
            stage: Stage::Semantic,
            message: "unknown UDF `GalAgee`",
            at: "GalAgee",
        },
        Case {
            query: "SELECT GalAge(z, z) FROM sky",
            stage: Stage::Semantic,
            message: "takes 1 argument(s), got 2",
            at: "GalAge(z, z)",
        },
        Case {
            query: "SELECT GalAge(redshift) FROM sky",
            stage: Stage::Semantic,
            message: "no column `redshift`",
            at: "redshift",
        },
        Case {
            query: "SELECT GalAge(z) FROM skyy",
            stage: Stage::Semantic,
            message: "unknown relation `skyy`",
            at: "skyy",
        },
        Case {
            query: "SELECT GalAge(z) FROM STREAM nope LIMIT 10",
            stage: Stage::Semantic,
            message: "unknown stream source `nope`",
            at: "nope",
        },
        Case {
            query: "SELECT ComoveVol(x, x) FROM STREAM synth LIMIT 10",
            stage: Stage::Semantic,
            message: "2-dimensional but stream `synth` yields 1-dimensional",
            at: "ComoveVol(x, x)",
        },
        Case {
            query: "SELECT GalAge(z) WITH ACCURACY 1.5 0.05 FROM sky",
            stage: Stage::Semantic,
            message: "ε must be a finite number in (0, 1)",
            at: "1.5",
        },
        Case {
            query: "SELECT GalAge(z) WITH ACCURACY 0.1 0 FROM sky",
            stage: Stage::Semantic,
            message: "δ must be a finite number in (0, 1)",
            at: "0",
        },
        // A valid accuracy whose per-tuple sample count no buffer holds
        // (the count grows as 1/ε²): MC, GP under both metrics, a stream,
        // and the first ε past the limit on either strategy.
        Case {
            query: "SELECT GalAge(z) WITH ACCURACY 1e-7 0.05 FROM sky USING mc",
            stage: Stage::Semantic,
            message: "needs 737775890822788 samples per tuple with the mc strategy; \
                      the limit is 16777216",
            at: "1e-7",
        },
        Case {
            query: "SELECT GalAge(z) WITH ACCURACY 1e-7 0.05 FROM sky USING gp",
            stage: Stage::Semantic,
            message: "samples per tuple with the gp strategy; the limit is 16777216",
            at: "1e-7",
        },
        Case {
            query: "SELECT GalAge(z) WITH ACCURACY 1e-7 0.05 METRIC ks FROM sky USING gp",
            stage: Stage::Semantic,
            message: "samples per tuple with the gp strategy",
            at: "1e-7",
        },
        Case {
            query: "SELECT F1(x) WITH ACCURACY 1e-7 0.05 FROM STREAM synth USING mc LIMIT 4",
            stage: Stage::Semantic,
            message: "samples per tuple with the mc strategy",
            at: "1e-7",
        },
        Case {
            query: "SELECT GalAge(z) WITH ACCURACY 0.000663 0.05 FROM sky USING mc",
            stage: Stage::Semantic,
            message: "needs 16784075 samples per tuple",
            at: "0.000663",
        },
        Case {
            query: "SELECT GalAge(z) WITH ACCURACY 0.001031 0.05 FROM sky USING gp",
            stage: Stage::Semantic,
            message: "needs 16777491 samples per tuple",
            at: "0.001031",
        },
        Case {
            // δ's sampling share 1 − √(1 − δ) rounds to 0 on the GP path:
            // no finite count meets it.
            query: "SELECT GalAge(z) WITH ACCURACY 0.1 1e-17 FROM sky USING gp",
            stage: Stage::Semantic,
            message: "δ=0.00000000000000001 needs 18446744073709551615 samples per tuple",
            at: "0.1",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.9, 0.2]) >= 0.5",
            stage: Stage::Semantic,
            message: "empty interval",
            at: "0.9, 0.2",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.2, 0.9]) >= 1.0",
            stage: Stage::Semantic,
            message: "θ must lie in (0, 1)",
            at: "1.0",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky WHERE PR(ComoveVol(z, z) IN [0, 1]) >= 0.5",
            stage: Stage::Semantic,
            message: "must reference the selected call",
            at: "ComoveVol(z, z)",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky WORKERS 0",
            stage: Stage::Semantic,
            message: "WORKERS must be in 1..=1024",
            at: "0",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky LIMIT 10",
            stage: Stage::Semantic,
            message: "apply to `FROM STREAM` queries only",
            at: "10",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky USING gp MODEL 12",
            stage: Stage::Parse,
            message: "expected keyword `CAP`",
            at: "12",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky MODEL CAP 3 MODEL CAP 4",
            stage: Stage::Parse,
            message: "duplicate `MODEL CAP`",
            at: "MODEL",
        },
        Case {
            // A nonzero cap the model could never bootstrap under.
            query: "SELECT GalAge(z) FROM sky USING gp MODEL CAP 3",
            stage: Stage::Semantic,
            message: "at least the GP bootstrap size (5)",
            at: "3",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky USING mc MODEL CAP 16",
            stage: Stage::Semantic,
            message: "strategy resolved to MC",
            at: "16",
        },
        Case {
            // No USING clause: AUTO picks MC for the free 1-D F1, which
            // would silently drop the cap — same rejection as explicit mc.
            query: "SELECT F1(z) FROM sky MODEL CAP 16",
            stage: Stage::Semantic,
            message: "strategy resolved to MC",
            at: "16",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky USING gp MODEL CAP 2000000",
            stage: Stage::Semantic,
            message: "MODEL CAP must be at most 1000000",
            at: "2000000",
        },
        // ── joins & qualified references ───────────────────────────────
        Case {
            query: "SELECT AngDist(a.z, c.z) FROM sky a JOIN sky b USING gp",
            stage: Stage::Semantic,
            message: "unknown alias `c`",
            at: "c.z",
        },
        Case {
            query: "SELECT AngDist(z, b.z) FROM sky a JOIN sky b USING gp",
            stage: Stage::Semantic,
            message: "must be qualified in a JOIN query",
            at: "z",
        },
        Case {
            query: "SELECT AngDist(g.z, g.z) FROM sky g JOIN sky g USING gp",
            stage: Stage::Semantic,
            message: "join aliases must be distinct",
            at: "g",
        },
        Case {
            query: "SELECT AngDist(a.z, b.redshift) FROM sky a JOIN sky b USING gp",
            stage: Stage::Semantic,
            message: "no column `redshift`",
            at: "b.redshift",
        },
        Case {
            // Arity against the catalog entry's 2-D domain.
            query: "SELECT AngDist(a.z) FROM sky a JOIN sky b USING gp",
            stage: Stage::Semantic,
            message: "takes 2 argument(s), got 1",
            at: "AngDist(a.z)",
        },
        Case {
            query: "SELECT GalAge(a.z) FROM sky",
            stage: Stage::Semantic,
            message: "requires a `JOIN` source",
            at: "a.z",
        },
        Case {
            query: "SELECT AngDist(a.z, b.z) FROM skyy a JOIN sky b USING gp",
            stage: Stage::Semantic,
            message: "unknown relation `skyy`",
            at: "skyy",
        },
        Case {
            // Pair pruning was removed: the option is a parse error at its
            // token that says so.
            query: "SELECT AngDist(a.z, b.z) FROM sky a JOIN sky b \
                    WHERE PR(AngDist(a.z, b.z) IN [0.1, 0.2]) >= 0.5 USING gp PRUNE",
            stage: Stage::Parse,
            message: "`PRUNE` was removed",
            at: "PRUNE",
        },
        Case {
            query: "SELECT AngDist(a.z, b.z) FROM sky a JOIN sky b USING gp LIMIT 5",
            stage: Stage::Semantic,
            message: "apply to `FROM STREAM` queries only",
            at: "5",
        },
        Case {
            query: "SELECT AngDist(a.z, b.z) FROM sky a JOIN sky b ON a.objID < c.objID USING gp",
            stage: Stage::Semantic,
            message: "unknown alias `c`",
            at: "c.objID",
        },
    ];

    let mut ctx = ctx();
    for case in &cases {
        let err = run_uql(case.query, &mut ctx)
            .map(|_| ())
            .expect_err(&format!("must reject: {}", case.query));
        let LangError::Diagnostic {
            stage,
            span,
            message,
        } = &err
        else {
            panic!("{}: expected a span diagnostic, got {err}", case.query)
        };
        assert_eq!(*stage, case.stage, "{}: wrong stage ({err})", case.query);
        assert!(
            message.contains(case.message),
            "{}: message {message:?} missing {:?}",
            case.query,
            case.message,
        );
        // The span must cover the offending fragment. Find the expected
        // fragment's last occurrence that intersects the span.
        let covered = &case.query[span.start..span.end.min(case.query.len())];
        assert!(
            covered.contains(case.at) || case.at.contains(covered.trim()),
            "{}: span {span} covers {covered:?}, expected {:?}",
            case.query,
            case.at,
        );
        // And the caret rendering must not panic and must carry the message.
        assert!(err.render(case.query).contains(case.message));
    }
}

/// The largest ε inside the per-tuple sample limit still binds, on either
/// strategy (`EXPLAIN` binds and does not run: 2²⁴ samples a tuple is
/// allowed, not cheap). One digit tighter is rejected in the table above.
#[test]
fn accuracy_just_inside_the_sample_limit_binds() {
    let mut ctx = ctx();
    for query in [
        "EXPLAIN SELECT GalAge(z) WITH ACCURACY 0.000664 0.05 FROM sky USING mc",
        "EXPLAIN SELECT GalAge(z) WITH ACCURACY 0.001032 0.05 FROM sky USING gp",
    ] {
        let out = run_uql(query, &mut ctx);
        assert!(out.is_ok(), "{query}: {:?}", out.err());
    }
}

/// A user-registered catalog entry with a poisoned output range must
/// surface as a diagnostic on the call site, not a panic inside `bind`.
#[test]
fn poisoned_catalog_entry_is_a_diagnostic() {
    use std::sync::Arc;
    use udf_workloads::registry::UdfEntry;
    let mut ctx = ctx();
    ctx.udfs_mut().register(UdfEntry::probed(
        Arc::new(udf_uncertain_probe::Identity),
        udf_core::udf::CostModel::Free,
        vec![(0.0, 1.0)],
        Some(f64::NAN),
        "bad range",
    ));
    let err = run_uql("SELECT Identity(z) FROM sky", &mut ctx).unwrap_err();
    let LangError::Diagnostic { stage, message, .. } = &err else {
        panic!("expected diagnostic, got {err}")
    };
    assert_eq!(*stage, Stage::Semantic);
    assert!(message.contains("invalid output_range"), "{message}");

    // Re-registering a relation replaces it for the next statement: a
    // schema that lost the column is a diagnostic at the column.
    let bad = Relation::new(
        Schema::new(&["objID"]),
        vec![Tuple::new(vec![Value::Det(0.0)])],
    )
    .unwrap();
    ctx.register_relation("sky", bad);
    let err = run_uql("SELECT GalAge(z) FROM sky", &mut ctx).unwrap_err();
    assert!(err.to_string().contains("no column `z`"), "{err}");
}

mod udf_uncertain_probe {
    pub struct Identity;
    impl udf_core::udf::UdfFunction for Identity {
        fn dim(&self) -> usize {
            1
        }
        fn eval(&self, x: &[f64]) -> f64 {
            x[0]
        }
        fn name(&self) -> &str {
            "Identity"
        }
    }
}

/// The predicate call matches the selected call case-insensitively, like
/// catalog lookup does.
#[test]
fn predicate_call_matches_case_insensitively() {
    let mut ctx = ctx();
    let out = run_uql(
        "SELECT galage(z) FROM sky WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 USING mc SEED 1",
        &mut ctx,
    );
    assert!(out.is_ok(), "case difference must not reject: {out:?}");
}

/// Execution-stage errors (no span) still explain themselves.
#[test]
fn exec_errors_are_explained() {
    let mut ctx = ctx();
    let err = run_uql("SELECT F1(x) FROM STREAM synth", &mut ctx).unwrap_err();
    assert!(err.span().is_none());
    assert!(err
        .render("SELECT F1(x) FROM STREAM synth")
        .contains("LIMIT"));
}

/// Prepared-statement forms and `EXPLAIN TRACE` are not UQL, and each is
/// rejected where it starts, never a panic: a `$n` parameter at the
/// lexer's `$`, the `PREPARE`/`EXECUTE`/`DEALLOCATE` verbs and `TRACE` at
/// the parser's word.
#[test]
fn malformed_prepared_statements_fail_with_spans() {
    let cases = [
        Case {
            query: "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [$1, 1]) >= 0.5",
            stage: Stage::Lex,
            message: "unexpected character `$`",
            at: "$",
        },
        Case {
            query: "SELECT GalAge(z) FROM sky USING gp WORKERS $2 SEED 7",
            stage: Stage::Lex,
            message: "unexpected character `$`",
            at: "$",
        },
        Case {
            query: "PREPARE q AS SELECT GalAge(z) FROM sky \
                    WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 USING gp WORKERS 2 SEED 7",
            stage: Stage::Parse,
            message: "expected keyword `SELECT`, found `PREPARE`",
            at: "PREPARE",
        },
        Case {
            query: "EXECUTE q (0.5)",
            stage: Stage::Parse,
            message: "expected keyword `SELECT`, found `EXECUTE`",
            at: "EXECUTE",
        },
        Case {
            query: "EXPLAIN EXECUTE q",
            stage: Stage::Parse,
            message: "expected keyword `SELECT`, found `EXECUTE`",
            at: "EXECUTE",
        },
        Case {
            query: "DEALLOCATE q",
            stage: Stage::Parse,
            message: "expected keyword `SELECT`, found `DEALLOCATE`",
            at: "DEALLOCATE",
        },
        Case {
            query: "EXPLAIN TRACE SELECT GalAge(z) FROM sky \
                    WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 USING gp WORKERS 2 SEED 7",
            stage: Stage::Parse,
            message: "expected keyword `SELECT`, found `TRACE`",
            at: "TRACE",
        },
    ];
    let mut ctx = ctx();
    for case in &cases {
        let err = run_uql(case.query, &mut ctx)
            .map(|_| ())
            .expect_err(&format!("must reject: {}", case.query));
        let LangError::Diagnostic {
            stage,
            span,
            message,
        } = &err
        else {
            panic!("{}: expected a span diagnostic, got {err}", case.query)
        };
        assert_eq!(*stage, case.stage, "{}: wrong stage ({err})", case.query);
        assert!(
            message.contains(case.message),
            "{}: message {message:?} missing {:?}",
            case.query,
            case.message,
        );
        assert_eq!(&case.query[span.start..span.end], case.at, "{}", case.query);
        assert!(err.render(case.query).contains(case.message));
    }
}
