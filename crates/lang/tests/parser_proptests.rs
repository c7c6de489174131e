//! Parser property tests: pretty-print → reparse is an identity on the
//! AST (spans aside — `Spanned` equality ignores them) for randomly
//! generated queries covering every grammar production, including the
//! `JOIN` source form and qualified attribute references.

use proptest::prelude::*;
use udf_lang::ast::{
    AccuracyClause, AttrRef, CallExpr, ExplainMode, JoinSource, MetricName, OnExpr, Options,
    PrFilterExpr, Query, Select, SourceRef, StrategyName,
};
use udf_lang::error::{Span, Spanned};
use udf_lang::parse_statement;

fn sp<T>(node: T) -> Spanned<T> {
    Spanned::new(node, Span::default())
}

/// Identifier that cannot collide with a keyword in ident position.
fn ident() -> impl Strategy<Value = String> {
    (0u8..5, 0u32..1000).prop_map(|(k, n)| {
        let stem = ["GalAge", "f", "x_1", "ComoveVol", "_z"][k as usize];
        format!("{stem}{n}")
    })
}

/// A bare or alias-qualified attribute reference.
fn attr() -> impl Strategy<Value = AttrRef> {
    (ident(), ident(), 0u8..2).prop_map(|(name, alias, qualified)| AttrRef {
        alias: (qualified == 1).then_some(alias),
        name,
    })
}

/// Finite positive literal in the shapes users write: small integers,
/// plain decimals, and scientific-notation magnitudes.
fn number() -> impl Strategy<Value = f64> {
    (0u8..3, 1u32..1000, 0.001f64..1000.0, -6i32..6, 1.0f64..10.0).prop_map(
        |(kind, n, plain, e, m)| match kind {
            0 => n as f64,
            1 => plain,
            _ => m * 10f64.powi(e),
        },
    )
}

fn call(args: usize) -> impl Strategy<Value = CallExpr> {
    (ident(), prop::collection::vec(attr(), args..args + 1)).prop_map(|(name, args)| CallExpr {
        name: sp(name),
        args: args.into_iter().map(sp).collect(),
        span: Span::default(),
    })
}

fn accuracy() -> impl Strategy<Value = AccuracyClause> {
    (0.0001f64..0.9999, 0.0001f64..0.9999, 0u8..3).prop_map(|(eps, delta, m)| AccuracyClause {
        eps: sp(eps),
        delta: sp(delta),
        metric: match m {
            0 => None,
            1 => Some(sp(MetricName::Ks)),
            _ => Some(sp(MetricName::Disc)),
        },
    })
}

fn options() -> impl Strategy<Value = Options> {
    (
        0u8..4,
        1u64..64,
        1u64..4096,
        0u64..1_000_000,
        (1u64..100_000, 0u64..1000),
        0u8..128,
    )
        .prop_map(|(s, w, b, seed, (l, cap), mask)| Options {
            strategy: (mask & 1 != 0).then(|| {
                sp(match s % 3 {
                    0 => StrategyName::Mc,
                    1 => StrategyName::Gp,
                    _ => StrategyName::Auto,
                })
            }),
            workers: (mask & 2 != 0).then(|| sp(w)),
            batch: (mask & 4 != 0).then(|| sp(b)),
            seed: (mask & 8 != 0).then(|| sp(seed)),
            limit: (mask & 16 != 0).then(|| sp(l)),
            model_cap: (mask & 32 != 0).then(|| sp(cap)),
            prune: (mask & 64 != 0).then(|| sp(true)),
        })
}

fn join_source() -> impl Strategy<Value = JoinSource> {
    (
        (ident(), ident()),
        (ident(), ident()),
        (attr(), attr()),
        0u8..2,
    )
        .prop_map(
            |((left, la), (right, ra), (lhs, rhs), with_on)| JoinSource {
                left: sp(left),
                left_alias: sp(la),
                right: sp(right),
                right_alias: sp(ra),
                on: (with_on == 1).then(|| OnExpr {
                    lhs: sp(lhs),
                    rhs: sp(rhs),
                    span: Span::default(),
                }),
            },
        )
}

fn query() -> impl Strategy<Value = Query> {
    (
        ((1usize..4).prop_flat_map(call), accuracy()),
        (ident(), join_source()),
        (number(), number(), 0.0001f64..0.9999),
        options(),
        0u8..128,
    )
        .prop_map(
            |((call, acc), (src, join), (a, b, theta), options, flags)| {
                let explain = if flags & 1 == 0 {
                    ExplainMode::None
                } else if flags & 32 != 0 {
                    ExplainMode::Analyze
                } else {
                    ExplainMode::Plan
                };
                let with_acc = flags & 2 != 0;
                let with_pred = flags & 4 != 0;
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let predicate = with_pred.then(|| PrFilterExpr {
                    call: call.clone(),
                    lo: sp(lo),
                    hi: sp(hi + 1.0),
                    theta: sp(theta),
                    span: Span::default(),
                });
                let source = match flags & 24 {
                    0 | 16 => SourceRef::Relation(sp(src)),
                    8 => SourceRef::Stream(sp(src)),
                    _ => SourceRef::Join(Box::new(join)),
                };
                Query {
                    explain,
                    select: Select {
                        call,
                        accuracy: with_acc.then_some(acc),
                        source,
                        predicate,
                        options,
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pretty_print_reparses_to_identical_ast(q in query()) {
        let printed = q.to_string();
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("canonical form must reparse: {printed:?}\n{}", e.render(&printed)));
        prop_assert_eq!(&q, &reparsed, "round-trip drift on {}", printed);
        // And the canonical form is a fixed point of printing.
        prop_assert_eq!(printed.clone(), reparsed.to_string());
    }

    #[test]
    fn numeric_literals_round_trip_exactly(x in 1e-9f64..1e9) {
        let src = format!("SELECT f(a) FROM r WHERE PR(f(a) IN [{x:?}, 1e12]) >= 0.5");
        let q = parse_statement(&src).unwrap();
        let p = q.select.predicate.as_ref().unwrap();
        prop_assert_eq!(p.lo.node, x, "literal {:?} drifted", x);
    }

    #[test]
    fn random_whitespace_is_insignificant(q in query(), pad in 1usize..4) {
        let printed = q.to_string();
        let spaced: String = printed
            .split(' ')
            .collect::<Vec<_>>()
            .join(&" ".repeat(pad));
        prop_assert_eq!(parse_statement(&printed).unwrap(), parse_statement(&spaced).unwrap());
    }

    #[test]
    fn qualified_refs_round_trip(alias in ident(), name in ident()) {
        let src = format!("SELECT f({alias}.{name}) FROM r a JOIN s b");
        let q = parse_statement(&src).unwrap();
        let got = &q.select.call.args[0].node;
        prop_assert_eq!(got.alias.as_deref(), Some(alias.as_str()));
        prop_assert_eq!(&got.name, &name);
    }
}
