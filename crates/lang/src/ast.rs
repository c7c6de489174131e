//! The typed UQL abstract syntax tree and its canonical pretty-printer.
//!
//! The [`Display`](std::fmt::Display) impl prints the canonical form of a
//! query: parsing its output yields a structurally identical AST (spans
//! aside — [`Spanned`] equality ignores them), which the proptest
//! round-trip suite exercises. Numeric literals print via `{:?}`, Rust's
//! shortest round-trip representation, so no precision is lost.

use crate::error::{Span, Spanned};
use std::fmt;

/// The `EXPLAIN` prefix, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExplainMode {
    /// No prefix: execute and return results.
    #[default]
    None,
    /// `EXPLAIN`: plan only, nothing executed.
    Plan,
    /// `EXPLAIN ANALYZE`: execute, then render the plan annotated with
    /// per-operator elapsed time and counters.
    Analyze,
}

/// A full UQL statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `EXPLAIN` / `EXPLAIN ANALYZE` prefix.
    pub explain: ExplainMode,
    /// The SELECT body.
    pub select: Select,
}

/// The SELECT body.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// The projected UDF call.
    pub call: CallExpr,
    /// Optional `WITH ACCURACY` clause.
    pub accuracy: Option<AccuracyClause>,
    /// The data source.
    pub source: SourceRef,
    /// Optional `WHERE PR(...) >= θ` clause.
    pub predicate: Option<PrFilterExpr>,
    /// Trailing options (`USING`/`WORKERS`/`BATCH`/`SEED`/`LIMIT`).
    pub options: Options,
}

/// An attribute reference: bare (`z`) or alias-qualified (`a.z`, join
/// queries only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrRef {
    /// Join-side alias, when qualified.
    pub alias: Option<String>,
    /// Column name.
    pub name: String,
}

impl AttrRef {
    /// A bare (unqualified) reference.
    pub fn bare(name: impl Into<String>) -> Self {
        AttrRef {
            alias: None,
            name: name.into(),
        }
    }

    /// An alias-qualified reference.
    pub fn qualified(alias: impl Into<String>, name: impl Into<String>) -> Self {
        AttrRef {
            alias: Some(alias.into()),
            name: name.into(),
        }
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{a}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// A UDF applied to attribute references, e.g. `ComoveVol(z1, z2)` or
/// `AngDist(a.z, b.z)`.
#[derive(Debug, Clone)]
pub struct CallExpr {
    /// UDF name.
    pub name: Spanned<String>,
    /// Argument attribute references.
    pub args: Vec<Spanned<AttrRef>>,
    /// Span of the whole call expression.
    pub span: Span,
}

impl PartialEq for CallExpr {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality ignores spans, like `Spanned`.
        self.name == other.name && self.args == other.args
    }
}

/// `WITH ACCURACY eps delta [METRIC ks|disc]`.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyClause {
    /// Error tolerance ε.
    pub eps: Spanned<f64>,
    /// Failure probability δ.
    pub delta: Spanned<f64>,
    /// Optional metric (defaults to the paper's λ-discrepancy).
    pub metric: Option<Spanned<MetricName>>,
}

/// The metric names UQL accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricName {
    /// Kolmogorov–Smirnov distance.
    Ks,
    /// λ-discrepancy (the paper's default).
    Disc,
}

impl fmt::Display for MetricName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricName::Ks => write!(f, "KS"),
            MetricName::Disc => write!(f, "DISC"),
        }
    }
}

/// `FROM rel a JOIN rel b [ON a.key < b.key]`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSource {
    /// Left relation name.
    pub left: Spanned<String>,
    /// Left alias (column prefix).
    pub left_alias: Spanned<String>,
    /// Right relation name.
    pub right: Spanned<String>,
    /// Right alias (column prefix).
    pub right_alias: Spanned<String>,
    /// Optional `ON lhs < rhs` pair filter over key columns.
    pub on: Option<OnExpr>,
}

/// `ON lhs < rhs` (the only supported comparison; compares attribute
/// means, intended for deterministic key columns).
#[derive(Debug, Clone)]
pub struct OnExpr {
    /// Left operand of `<`.
    pub lhs: Spanned<AttrRef>,
    /// Right operand of `<`.
    pub rhs: Spanned<AttrRef>,
    /// Span of the whole clause.
    pub span: Span,
}

impl PartialEq for OnExpr {
    fn eq(&self, other: &Self) -> bool {
        self.lhs == other.lhs && self.rhs == other.rhs
    }
}

/// What the query reads from.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceRef {
    /// A finite registered relation.
    Relation(Spanned<String>),
    /// A registered stream source (`FROM STREAM name`).
    Stream(Spanned<String>),
    /// A two-relation θ-join (`FROM rel a JOIN rel b …`); boxed to keep
    /// the enum small next to the plain name variants.
    Join(Box<JoinSource>),
}

impl SourceRef {
    /// The (left, for joins) referenced name.
    pub fn name(&self) -> &str {
        match self {
            SourceRef::Relation(n) | SourceRef::Stream(n) => &n.node,
            SourceRef::Join(j) => &j.left.node,
        }
    }

    /// The name's span.
    pub fn span(&self) -> Span {
        match self {
            SourceRef::Relation(n) | SourceRef::Stream(n) => n.span,
            SourceRef::Join(j) => j.left.span.to(j.right_alias.span),
        }
    }
}

/// `WHERE PR(g(attr) IN [lo, hi]) >= theta`.
#[derive(Debug, Clone)]
pub struct PrFilterExpr {
    /// The UDF call inside `PR(...)`.
    pub call: CallExpr,
    /// Interval lower bound.
    pub lo: Spanned<f64>,
    /// Interval upper bound.
    pub hi: Spanned<f64>,
    /// TEP threshold θ.
    pub theta: Spanned<f64>,
    /// Span of the whole clause.
    pub span: Span,
}

impl PartialEq for PrFilterExpr {
    fn eq(&self, other: &Self) -> bool {
        self.call == other.call
            && self.lo == other.lo
            && self.hi == other.hi
            && self.theta == other.theta
    }
}

/// The evaluation strategies UQL accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyName {
    /// Direct Monte Carlo sampling.
    Mc,
    /// OLGAPRO (GP emulation).
    Gp,
    /// Pick by the paper's §6.3 rules.
    Auto,
}

impl fmt::Display for StrategyName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyName::Mc => write!(f, "MC"),
            StrategyName::Gp => write!(f, "GP"),
            StrategyName::Auto => write!(f, "AUTO"),
        }
    }
}

/// Trailing options. Each may appear at most once, in any order; the
/// pretty-printer emits them in canonical order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Options {
    /// `USING mc|gp|auto` — evaluation strategy (default AUTO).
    pub strategy: Option<Spanned<StrategyName>>,
    /// `WORKERS n` — fast-path worker threads.
    pub workers: Option<Spanned<u64>>,
    /// `BATCH n` — stream micro-batch size.
    pub batch: Option<Spanned<u64>>,
    /// `SEED n` — master RNG seed.
    pub seed: Option<Spanned<u64>>,
    /// `LIMIT n` — stop a stream after n tuples.
    pub limit: Option<Spanned<u64>>,
    /// `MODEL CAP n` — GP model-size budget (0 = uncapped).
    pub model_cap: Option<Spanned<u64>>,
}

impl fmt::Display for CallExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name.node)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", a.node)?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix = match self.explain {
            ExplainMode::None => "",
            ExplainMode::Plan => "EXPLAIN ",
            ExplainMode::Analyze => "EXPLAIN ANALYZE ",
        };
        write!(f, "{prefix}{}", self.select)
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT {}", self.call)?;
        if let Some(acc) = &self.accuracy {
            write!(f, " WITH ACCURACY {:?} {:?}", acc.eps.node, acc.delta.node)?;
            if let Some(m) = &acc.metric {
                write!(f, " METRIC {}", m.node)?;
            }
        }
        match &self.source {
            SourceRef::Relation(n) => write!(f, " FROM {}", n.node)?,
            SourceRef::Stream(n) => write!(f, " FROM STREAM {}", n.node)?,
            SourceRef::Join(j) => {
                write!(
                    f,
                    " FROM {} {} JOIN {} {}",
                    j.left.node, j.left_alias.node, j.right.node, j.right_alias.node
                )?;
                if let Some(on) = &j.on {
                    write!(f, " ON {} < {}", on.lhs.node, on.rhs.node)?;
                }
            }
        }
        if let Some(p) = &self.predicate {
            write!(
                f,
                " WHERE PR({} IN [{:?}, {:?}]) >= {:?}",
                p.call, p.lo.node, p.hi.node, p.theta.node
            )?;
        }
        let o = &self.options;
        if let Some(s) = &o.strategy {
            write!(f, " USING {}", s.node)?;
        }
        if let Some(w) = &o.workers {
            write!(f, " WORKERS {}", w.node)?;
        }
        if let Some(b) = &o.batch {
            write!(f, " BATCH {}", b.node)?;
        }
        if let Some(s) = &o.seed {
            write!(f, " SEED {}", s.node)?;
        }
        if let Some(l) = &o.limit {
            write!(f, " LIMIT {}", l.node)?;
        }
        if let Some(c) = &o.model_cap {
            write!(f, " MODEL CAP {}", c.node)?;
        }
        Ok(())
    }
}
