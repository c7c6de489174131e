//! The UQL recursive-descent parser: tokens → typed AST.
//!
//! Grammar (EBNF; keywords are case-insensitive):
//!
//! ```text
//! query     := [ "EXPLAIN" [ "ANALYZE" ] ] select ;
//! select    := "SELECT" call [ accuracy ] "FROM" source [ where ] { option } ;
//! call      := IDENT "(" attr { "," attr } ")" ;
//! attr      := IDENT [ "." IDENT ] ;
//! accuracy  := "WITH" "ACCURACY" NUMBER NUMBER [ "METRIC" ( "KS" | "DISC" ) ] ;
//! source    := "STREAM" IDENT
//!            | IDENT IDENT "JOIN" IDENT IDENT [ "ON" attr "<" attr ]
//!            | IDENT ;
//! where     := "WHERE" "PR" "(" call "IN" "[" NUMBER "," NUMBER "]" ")" ">=" NUMBER ;
//! option    := "USING" ( "MC" | "GP" | "AUTO" )
//!            | "WORKERS" INT | "BATCH" INT | "SEED" INT | "LIMIT" INT
//!            | "MODEL" "CAP" INT ;
//! ```
//!
//! Qualified attributes (`a.z`) and the `JOIN` source form go together:
//! the binder rejects qualification outside a join and requires it inside
//! one. The join form is recognized by two-token lookahead after the
//! relation name (`IDENT "JOIN"`), so relation names that collide with
//! keywords in other positions still parse.
//!
//! Options may appear in any order but at most once each; the AST
//! pretty-printer emits them canonically, so pretty-print → reparse is an
//! identity on the AST. `PRUNE`, the removed pair-pruning option, is
//! rejected at its token with a diagnostic that says so.

use crate::ast::{
    AccuracyClause, AttrRef, CallExpr, ExplainMode, JoinSource, MetricName, OnExpr, Options,
    PrFilterExpr, Query, Select, SourceRef, StrategyName,
};
use crate::error::{LangError, Result, Span, Spanned};
use crate::token::{lex, Tok, Token};

/// Parse one UQL statement: a [`Select`], optionally `EXPLAIN`-prefixed.
pub fn parse_statement(src: &str) -> Result<Query> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        eof: Span::new(src.len(), src.len()),
    };
    let q = p.query()?;
    p.expect_end()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    eof: Span,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, ahead: usize) -> Option<&Token> {
        self.tokens.get(self.pos + ahead)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> Span {
        self.peek().map_or(self.eof, |t| t.span)
    }

    fn expect_end(&self) -> Result<()> {
        match self.peek() {
            Some(t) => Err(LangError::parse(
                t.span,
                format!("trailing input: unexpected {}", t.tok.describe()),
            )),
            None => Ok(()),
        }
    }

    fn err_expected(&self, what: &str) -> LangError {
        match self.peek() {
            Some(t) => LangError::parse(
                t.span,
                format!("expected {what}, found {}", t.tok.describe()),
            ),
            None => LangError::parse(self.eof, format!("expected {what}, found end of input")),
        }
    }

    /// True when the next token is the given (case-insensitive) keyword.
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token { tok: Tok::Ident(s), .. }) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the given keyword or fail.
    fn expect_keyword(&mut self, kw: &str) -> Result<Span> {
        if self.at_keyword(kw) {
            Ok(self.next().expect("peeked").span)
        } else {
            Err(self.err_expected(&format!("keyword `{kw}`")))
        }
    }

    /// Consume the keyword if present.
    fn eat_keyword(&mut self, kw: &str) -> Option<Span> {
        if self.at_keyword(kw) {
            Some(self.next().expect("peeked").span)
        } else {
            None
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<Spanned<String>> {
        match self.peek() {
            Some(Token {
                tok: Tok::Ident(_), ..
            }) => {
                let t = self.next().expect("peeked");
                let Tok::Ident(s) = t.tok else { unreachable!() };
                Ok(Spanned::new(s, t.span))
            }
            _ => Err(self.err_expected(what)),
        }
    }

    fn expect_tok(&mut self, tok: Tok, what: &str) -> Result<Span> {
        match self.peek() {
            Some(t) if t.tok == tok => Ok(self.next().expect("peeked").span),
            _ => Err(self.err_expected(what)),
        }
    }

    fn expect_number(&mut self, what: &str) -> Result<Spanned<f64>> {
        match self.peek() {
            Some(Token {
                tok: Tok::Number(_),
                ..
            }) => {
                let t = self.next().expect("peeked");
                let Tok::Number(n) = t.tok else {
                    unreachable!()
                };
                Ok(Spanned::new(n, t.span))
            }
            _ => Err(self.err_expected(what)),
        }
    }

    /// A non-negative integer literal (for WORKERS/BATCH/SEED/LIMIT).
    /// Values must lie strictly below 2⁵³: at and above it the f64 literal
    /// no longer identifies the integer the user wrote (2⁵³ + 1 rounds to
    /// 2⁵³), and silently rounding a SEED would break the determinism
    /// contract.
    fn expect_uint(&mut self, what: &str) -> Result<Spanned<u64>> {
        const MAX_EXACT: f64 = (1u64 << 53) as f64;
        let n = self.expect_number(what)?;
        if n.node < 0.0 || n.node.fract() != 0.0 || n.node >= MAX_EXACT {
            return Err(LangError::parse(
                n.span,
                format!(
                    "{what} must be a non-negative integer below 2^53, got `{:?}`",
                    n.node
                ),
            ));
        }
        Ok(Spanned::new(n.node as u64, n.span))
    }

    fn query(&mut self) -> Result<Query> {
        let explain = if self.eat_keyword("EXPLAIN").is_some() {
            if self.eat_keyword("ANALYZE").is_some() {
                ExplainMode::Analyze
            } else {
                ExplainMode::Plan
            }
        } else {
            ExplainMode::None
        };
        let select = self.select()?;
        Ok(Query { explain, select })
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_keyword("SELECT")?;
        let call = self.call()?;
        let accuracy = if self.eat_keyword("WITH").is_some() {
            Some(self.accuracy_clause()?)
        } else {
            None
        };
        self.expect_keyword("FROM")?;
        let source = if self.eat_keyword("STREAM").is_some() {
            SourceRef::Stream(self.expect_ident("stream source name")?)
        } else {
            let rel = self.expect_ident("relation name")?;
            // Two-token lookahead: `rel alias JOIN …` is the join form;
            // a bare relation otherwise (aliases exist only for joins).
            let aliased_join = matches!(
                self.peek(),
                Some(Token {
                    tok: Tok::Ident(_),
                    ..
                })
            ) && matches!(
                self.peek_at(1),
                Some(Token { tok: Tok::Ident(k), .. }) if k.eq_ignore_ascii_case("JOIN")
            );
            if aliased_join {
                let left_alias = self.expect_ident("join alias")?;
                self.expect_keyword("JOIN")?;
                let right = self.expect_ident("right relation name")?;
                let right_alias = self.expect_ident("right join alias")?;
                let on = if self.eat_keyword("ON").is_some() {
                    let lhs = self.attr_ref()?;
                    self.expect_tok(Tok::Lt, "`<` between ON key columns")?;
                    let rhs = self.attr_ref()?;
                    let span = lhs.span.to(rhs.span);
                    Some(OnExpr { lhs, rhs, span })
                } else {
                    None
                };
                SourceRef::Join(Box::new(JoinSource {
                    left: rel,
                    left_alias,
                    right,
                    right_alias,
                    on,
                }))
            } else {
                SourceRef::Relation(rel)
            }
        };
        let predicate = if self.at_keyword("WHERE") {
            Some(self.where_clause()?)
        } else {
            None
        };
        let options = self.options()?;
        Ok(Select {
            call,
            accuracy,
            source,
            predicate,
            options,
        })
    }

    fn call(&mut self) -> Result<CallExpr> {
        let name = self.expect_ident("UDF name")?;
        self.expect_tok(Tok::LParen, "`(` after UDF name")?;
        let mut args = vec![self.attr_ref()?];
        while self.peek().is_some_and(|t| t.tok == Tok::Comma) {
            self.next();
            args.push(self.attr_ref()?);
        }
        let close = self.expect_tok(Tok::RParen, "`)` or `,` in argument list")?;
        let span = name.span.to(close);
        Ok(CallExpr { name, args, span })
    }

    /// `IDENT [ "." IDENT ]` — a bare or alias-qualified attribute.
    fn attr_ref(&mut self) -> Result<Spanned<AttrRef>> {
        let first = self.expect_ident("attribute name")?;
        if self.peek().is_some_and(|t| t.tok == Tok::Dot) {
            self.next();
            let name = self.expect_ident("attribute name after `.`")?;
            let span = first.span.to(name.span);
            Ok(Spanned::new(
                AttrRef::qualified(first.node, name.node),
                span,
            ))
        } else {
            let span = first.span;
            Ok(Spanned::new(AttrRef::bare(first.node), span))
        }
    }

    fn accuracy_clause(&mut self) -> Result<AccuracyClause> {
        self.expect_keyword("ACCURACY")?;
        let eps = self.expect_number("accuracy ε (a number in (0, 1))")?;
        let delta = self.expect_number("accuracy δ (a number in (0, 1))")?;
        let metric = if self.eat_keyword("METRIC").is_some() {
            let here = self.here();
            let name = self.expect_ident("metric name (`ks` or `disc`)")?;
            let m = if name.node.eq_ignore_ascii_case("ks") {
                MetricName::Ks
            } else if name.node.eq_ignore_ascii_case("disc") {
                MetricName::Disc
            } else {
                return Err(LangError::parse(
                    here,
                    format!("unknown metric `{}` (expected `ks` or `disc`)", name.node),
                ));
            };
            Some(Spanned::new(m, name.span))
        } else {
            None
        };
        Ok(AccuracyClause { eps, delta, metric })
    }

    fn where_clause(&mut self) -> Result<PrFilterExpr> {
        let start = self.expect_keyword("WHERE")?;
        self.expect_keyword("PR")?;
        self.expect_tok(Tok::LParen, "`(` after PR")?;
        let call = self.call()?;
        self.expect_keyword("IN")?;
        self.expect_tok(Tok::LBracket, "`[` opening the interval")?;
        let lo = self.expect_number("interval lower bound")?;
        self.expect_tok(Tok::Comma, "`,` between interval bounds")?;
        let hi = self.expect_number("interval upper bound")?;
        self.expect_tok(Tok::RBracket, "`]` closing the interval")?;
        self.expect_tok(Tok::RParen, "`)` closing PR(...)")?;
        self.expect_tok(Tok::Ge, "`>=` before the probability threshold")?;
        let theta = self.expect_number("probability threshold θ")?;
        let span = start.to(theta.span);
        Ok(PrFilterExpr {
            call,
            lo,
            hi,
            theta,
            span,
        })
    }

    fn options(&mut self) -> Result<Options> {
        let mut o = Options::default();
        loop {
            if self.at_keyword("USING") {
                let kw = self.next().expect("peeked").span;
                let here = self.here();
                let name = self.expect_ident("strategy (`mc`, `gp`, or `auto`)")?;
                let s = if name.node.eq_ignore_ascii_case("mc") {
                    StrategyName::Mc
                } else if name.node.eq_ignore_ascii_case("gp") {
                    StrategyName::Gp
                } else if name.node.eq_ignore_ascii_case("auto") {
                    StrategyName::Auto
                } else {
                    return Err(LangError::parse(
                        here,
                        format!(
                            "unknown strategy `{}` (expected `mc`, `gp`, or `auto`)",
                            name.node
                        ),
                    ));
                };
                set_once(&mut o.strategy, Spanned::new(s, name.span), kw, "USING")?;
            } else if self.at_keyword("WORKERS") {
                let kw = self.next().expect("peeked").span;
                let n = self.expect_uint("WORKERS count")?;
                set_once(&mut o.workers, n, kw, "WORKERS")?;
            } else if self.at_keyword("BATCH") {
                let kw = self.next().expect("peeked").span;
                let n = self.expect_uint("BATCH size")?;
                set_once(&mut o.batch, n, kw, "BATCH")?;
            } else if self.at_keyword("SEED") {
                let kw = self.next().expect("peeked").span;
                let n = self.expect_uint("SEED value")?;
                set_once(&mut o.seed, n, kw, "SEED")?;
            } else if self.at_keyword("LIMIT") {
                let kw = self.next().expect("peeked").span;
                let n = self.expect_uint("LIMIT count")?;
                set_once(&mut o.limit, n, kw, "LIMIT")?;
            } else if self.at_keyword("MODEL") {
                let kw = self.next().expect("peeked").span;
                self.expect_keyword("CAP")?;
                let n = self.expect_uint("MODEL CAP size")?;
                set_once(&mut o.model_cap, n, kw, "MODEL CAP")?;
            } else if self.at_keyword("PRUNE") {
                return Err(LangError::parse(
                    self.here(),
                    "`PRUNE` was removed: pair pruning saved no time; drop the option",
                ));
            } else {
                return Ok(o);
            }
        }
    }
}

fn set_once<T>(slot: &mut Option<T>, value: T, kw_span: Span, clause: &str) -> Result<()> {
    if slot.is_some() {
        return Err(LangError::parse(
            kw_span,
            format!("duplicate `{clause}` clause"),
        ));
    }
    *slot = Some(value);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_motivating_query() {
        let q = parse_statement(
            "SELECT GalAge(z) WITH ACCURACY 0.1 0.05 METRIC disc FROM sky \
             WHERE PR(ComoveVol(z, z2) IN [0.1, 0.4]) >= 0.8 USING gp WORKERS 4 SEED 7",
        )
        .unwrap();
        assert_eq!(q.explain, ExplainMode::None);
        assert_eq!(q.select.call.name.node, "GalAge");
        assert_eq!(q.select.call.args.len(), 1);
        let acc = q.select.accuracy.as_ref().unwrap();
        assert_eq!(acc.eps.node, 0.1);
        assert_eq!(acc.metric.as_ref().unwrap().node, MetricName::Disc);
        assert!(matches!(q.select.source, SourceRef::Relation(_)));
        let p = q.select.predicate.as_ref().unwrap();
        assert_eq!(p.call.args.len(), 2);
        assert_eq!(p.theta.node, 0.8);
        assert_eq!(q.select.options.workers.as_ref().unwrap().node, 4);
        assert_eq!(q.select.options.seed.as_ref().unwrap().node, 7);
        assert!(q.select.options.limit.is_none());
    }

    #[test]
    fn parses_stream_and_explain() {
        let q =
            parse_statement("EXPLAIN SELECT F3(x) FROM STREAM synth LIMIT 1000 BATCH 64").unwrap();
        assert_eq!(q.explain, ExplainMode::Plan);
        assert!(matches!(q.select.source, SourceRef::Stream(_)));
        assert_eq!(q.select.options.limit.as_ref().unwrap().node, 1000);
        assert_eq!(q.select.options.batch.as_ref().unwrap().node, 64);
        let q =
            parse_statement("EXPLAIN ANALYZE SELECT F3(x) FROM STREAM synth LIMIT 1000").unwrap();
        assert_eq!(q.explain, ExplainMode::Analyze);
        // TRACE is no keyword: it is a plain identifier (here, a relation
        // named `trace`).
        let q = parse_statement("SELECT F1(x) FROM trace").unwrap();
        assert_eq!(q.explain, ExplainMode::None);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let a = parse_statement("select F1(x) from sky using mc").unwrap();
        let b = parse_statement("SELECT F1(x) FROM sky USING MC").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn options_accept_any_order_but_not_duplicates() {
        let a = parse_statement("SELECT F1(x) FROM sky SEED 3 USING gp WORKERS 2").unwrap();
        let b = parse_statement("SELECT F1(x) FROM sky USING gp WORKERS 2 SEED 3").unwrap();
        assert_eq!(a, b);
        let err = parse_statement("SELECT F1(x) FROM sky SEED 3 SEED 4").unwrap_err();
        assert!(err.to_string().contains("duplicate `SEED`"), "{err}");
    }

    #[test]
    fn parses_model_cap() {
        let q = parse_statement("SELECT F2(x) FROM pts USING gp MODEL CAP 32 SEED 1").unwrap();
        assert_eq!(q.select.options.model_cap.as_ref().unwrap().node, 32);
        // Two-keyword clause: `MODEL` without `CAP` is a parse error.
        let err = parse_statement("SELECT F2(x) FROM pts MODEL 32").unwrap_err();
        assert!(err.to_string().contains("keyword `CAP`"), "{err}");
        let err = parse_statement("SELECT F2(x) FROM pts MODEL CAP 8 MODEL CAP 9").unwrap_err();
        assert!(err.to_string().contains("duplicate `MODEL CAP`"), "{err}");
        let err = parse_statement("SELECT F2(x) FROM pts MODEL CAP -3").unwrap_err();
        assert!(err.to_string().contains("non-negative integer"), "{err}");
    }

    #[test]
    fn parses_join_source_with_qualified_refs() {
        let q = parse_statement(
            "SELECT AngDist(a.z, b.z) FROM sky a JOIN sky b ON a.objID < b.objID \
             WHERE PR(AngDist(a.z, b.z) IN [0.1, 0.3]) >= 0.5 USING gp SEED 2",
        )
        .unwrap();
        let SourceRef::Join(j) = &q.select.source else {
            panic!("join source expected")
        };
        assert_eq!(j.left.node, "sky");
        assert_eq!(j.left_alias.node, "a");
        assert_eq!(j.right_alias.node, "b");
        let on = j.on.as_ref().unwrap();
        assert_eq!(on.lhs.node, AttrRef::qualified("a", "objID"));
        assert_eq!(on.rhs.node, AttrRef::qualified("b", "objID"));
        assert_eq!(q.select.call.args[0].node, AttrRef::qualified("a", "z"));

        // Join without ON; bare FROM still parses as a plain relation.
        let q = parse_statement("SELECT AngDist(a.z, b.z) FROM sky a JOIN stars b").unwrap();
        let SourceRef::Join(j) = &q.select.source else {
            panic!("join")
        };
        assert!(j.on.is_none());
        assert_eq!(j.right.node, "stars");
        let q = parse_statement("SELECT GalAge(z) FROM sky USING mc").unwrap();
        assert!(matches!(q.select.source, SourceRef::Relation(_)));
    }

    #[test]
    fn join_parse_errors_have_spans() {
        let err = parse_statement("SELECT AngDist(a.z, b.z) FROM sky a JOIN sky").unwrap_err();
        assert!(err.to_string().contains("right join alias"), "{err}");
        let err =
            parse_statement("SELECT AngDist(a.z, b.z) FROM sky a JOIN sky b ON a.objID >= b.objID")
                .unwrap_err();
        assert!(err.to_string().contains("`<` between ON key"), "{err}");
        let err = parse_statement("SELECT AngDist(a., b.z) FROM sky a JOIN sky b").unwrap_err();
        assert!(
            err.to_string().contains("attribute name after `.`"),
            "{err}"
        );
    }

    #[test]
    fn canonical_display_reparses_identically() {
        let srcs = [
            "SELECT GalAge(z) FROM sky",
            "explain analyze select GalAge(z) from sky using gp seed 4",
            "explain select AngDist(z1, z2) with accuracy 0.2 0.05 metric ks from stream pairs \
             where pr(AngDist(z1, z2) in [0.1, 0.3]) >= 0.5 using gp workers 8 batch 32 seed 9 \
             limit 500 model cap 64",
            "select AngDist(a.z, b.z) from sky a join sky b on a.objID < b.objID \
             where pr(AngDist(a.z, b.z) in [0.1, 0.3]) >= 0.5 using gp workers 2",
        ];
        for src in srcs {
            let ast = parse_statement(src).unwrap();
            let printed = ast.to_string();
            let reparsed = parse_statement(&printed).unwrap();
            assert_eq!(ast, reparsed, "canonical form {printed:?}");
        }
    }

    #[test]
    fn statement_parse_errors() {
        // The prepared-statement verbs are not part of the grammar: each
        // is a parse error at the verb, behind an EXPLAIN prefix or not.
        for (src, verb) in [
            ("PREPARE q AS SELECT F1(x) FROM sky", "PREPARE"),
            ("EXECUTE q (0.5)", "EXECUTE"),
            ("EXPLAIN EXECUTE q", "EXECUTE"),
            ("EXPLAIN ANALYZE EXECUTE q", "EXECUTE"),
            ("DEALLOCATE q", "DEALLOCATE"),
        ] {
            let err = parse_statement(src).unwrap_err();
            let span = err.span().unwrap();
            assert_eq!(&src[span.start..span.end], verb, "{src}: {err}");
            assert!(
                err.to_string().contains("expected keyword `SELECT`"),
                "{err}"
            );
        }
        let err = parse_statement("").unwrap_err();
        assert!(err.to_string().contains("found end of input"), "{err}");
        let err = parse_statement("EXPLAIN ANALYZE").unwrap_err();
        assert!(err.to_string().contains("found end of input"), "{err}");
    }

    #[test]
    fn statements_round_trip_through_display() {
        // Every EXPLAIN prefix survives print → reparse.
        let srcs = [
            "SELECT F1(x) FROM sky USING MC",
            "EXPLAIN SELECT F1(x) FROM sky USING MC",
            "EXPLAIN ANALYZE SELECT F1(x) FROM sky USING MC",
        ];
        for src in srcs {
            let ast = parse_statement(src).unwrap();
            let printed = ast.to_string();
            assert_eq!(printed, src);
            assert_eq!(ast, parse_statement(&printed).unwrap());
        }
    }
}
