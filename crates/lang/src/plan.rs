//! Logical plans, the predicate-pushdown rewrite, and the binder that
//! lowers UQL onto the execution engine.
//!
//! Compilation is three stages past parsing:
//!
//! 1. **naive logical plan** — the query as written:
//!    `PrFilter(UdfProject(Scan))`;
//! 2. **optimized logical plan** — predicate pushdown fuses the filter into
//!    the UDF operator (`UdfSelect(Scan)`), which is what routes selections
//!    through the engine's envelope-filtering fast path (§5.5): the
//!    predicate is ruled on the GP fast-path bounds *before* any
//!    model-mutating work is scheduled, and MC evaluation early-stops on
//!    the Hoeffding bound (Remark 2.1);
//! 3. **physical plan** — names resolved against the catalog/context,
//!    accuracy and predicate validated into engine types, strategy fixed
//!    (AUTO resolves by the paper's §6.3 rules), ready to execute.

use crate::ast::{
    AttrRef, JoinSource, MetricName, NumExpr, Query, Select, SourceRef, StrategyName, UintExpr,
};
use crate::error::{LangError, Result, Span, Spanned};
use crate::exec::Context;
use std::fmt;
use udf_core::config::{
    check_samples_per_tuple, AccuracyRequirement, Metric, OlgaproConfig, MAX_SAMPLES_PER_TUPLE,
};
use udf_core::filtering::Predicate;
use udf_core::hybrid::{rule_based_choice, HybridChoice};
use udf_core::udf::BlackBoxUdf;
use udf_join::Side;
use udf_query::EvalStrategy;
use udf_stream::StreamStrategy;

/// A logical-plan operator tree (used for `EXPLAIN`; the physical plan
/// carries the bound engine objects).
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a finite registered relation.
    Scan {
        /// Relation name.
        relation: String,
        /// Row count at bind time.
        rows: usize,
    },
    /// Scan a registered stream source.
    StreamScan {
        /// Source name.
        source: String,
        /// Tuple dimensionality.
        dim: usize,
    },
    /// Compute a UDF output distribution per tuple (query Q1).
    UdfProject {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Rendered call, e.g. `GalAge(z)`.
        call: String,
    },
    /// Keep tuples with `Pr[g(x) ∈ [lo, hi]] ≥ θ` (query Q2's selection).
    PrFilter {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Rendered predicate.
        predicate: String,
    },
    /// The fused projection + filter produced by predicate pushdown: the
    /// engine rules the predicate from fast-path bounds before paying for
    /// full evaluation.
    UdfSelect {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Rendered call.
        call: String,
        /// Rendered predicate.
        predicate: String,
    },
    /// Candidate-pair generation for a θ-join (`FROM rel a JOIN rel b`).
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Rendered `ON` filter, when present.
        on: Option<String>,
    },
    /// The fused join operator produced by pushdown: pair generation, the
    /// pair UDF, and the PR predicate execute inside `udf_join` — which
    /// is what enables envelope-based pair pruning (§4.2/§5.5) before any
    /// per-pair inference.
    UdfJoin {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Rendered `ON` filter, when present.
        on: Option<String>,
        /// Rendered pair call.
        call: String,
        /// Rendered predicate, when present.
        predicate: Option<String>,
        /// Whether envelope pair pruning is enabled.
        prune: bool,
    },
}

impl LogicalPlan {
    /// Predicate pushdown: `PrFilter(UdfProject(x))` fuses into
    /// `UdfSelect(x)` so the filter is evaluated inside the UDF operator
    /// (envelope bounds / Hoeffding early stop) instead of after full
    /// materialization. Over a [`Join`](LogicalPlan::Join) input the fused
    /// operator is [`UdfJoin`](LogicalPlan::UdfJoin): the predicate (and
    /// with `PRUNE`, the §4.2 envelope certificate over candidate pairs)
    /// executes inside the join instead of over a materialized cross
    /// product. `prune` marks the produced `UdfJoin` operators.
    pub fn optimize(self, prune: bool) -> LogicalPlan {
        match self {
            LogicalPlan::PrFilter { input, predicate } => match input.optimize(prune) {
                LogicalPlan::UdfProject { input, call } => LogicalPlan::UdfSelect {
                    input,
                    call,
                    predicate,
                },
                // The project already fused into the join operator; push
                // the filter into it too.
                LogicalPlan::UdfJoin {
                    left,
                    right,
                    on,
                    call,
                    predicate: None,
                    prune: p,
                } => LogicalPlan::UdfJoin {
                    left,
                    right,
                    on,
                    call,
                    predicate: Some(predicate),
                    prune: p,
                },
                other => LogicalPlan::PrFilter {
                    input: Box::new(other),
                    predicate,
                },
            },
            LogicalPlan::UdfProject { input, call } => match *input {
                LogicalPlan::Join { left, right, on } => LogicalPlan::UdfJoin {
                    left,
                    right,
                    on,
                    call,
                    predicate: None,
                    prune,
                },
                other => LogicalPlan::UdfProject {
                    input: Box::new(other.optimize(prune)),
                    call,
                },
            },
            leaf => leaf,
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan { relation, rows } => {
                writeln!(f, "{pad}Scan {relation} ({rows} rows)")
            }
            LogicalPlan::StreamScan { source, dim } => {
                writeln!(f, "{pad}StreamScan {source} (dim {dim})")
            }
            LogicalPlan::UdfProject { input, call } => {
                writeln!(f, "{pad}UdfProject {call}")?;
                input.fmt_indented(f, depth + 1)
            }
            LogicalPlan::PrFilter { input, predicate } => {
                writeln!(f, "{pad}PrFilter {predicate}")?;
                input.fmt_indented(f, depth + 1)
            }
            LogicalPlan::UdfSelect {
                input,
                call,
                predicate,
            } => {
                writeln!(
                    f,
                    "{pad}UdfSelect {call} {predicate}   [pushdown: fast-path filtering §5.5]"
                )?;
                input.fmt_indented(f, depth + 1)
            }
            LogicalPlan::Join { left, right, on } => {
                match on {
                    Some(on) => writeln!(f, "{pad}Join ON {on}")?,
                    None => writeln!(f, "{pad}Join")?,
                }
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            LogicalPlan::UdfJoin {
                left,
                right,
                on,
                call,
                predicate,
                prune,
            } => {
                write!(f, "{pad}UdfJoin {call}")?;
                if let Some(on) = on {
                    write!(f, " ON {on}")?;
                }
                if let Some(p) = predicate {
                    write!(f, " {p}")?;
                }
                writeln!(
                    f,
                    "   [pushdown: pair {}filtering §5.5{}]",
                    if *prune { "pruning §4.2 + " } else { "" },
                    if predicate.is_some() {
                        ""
                    } else {
                        " n/a (projection)"
                    },
                )?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

/// A fully bound, executable plan over a finite relation.
#[derive(Debug, Clone)]
pub struct RelPlan {
    /// Registered relation name.
    pub relation: String,
    /// The bound UDF (cloned from the catalog).
    pub udf: BlackBoxUdf,
    /// Argument column names, in call order.
    pub args: Vec<String>,
    /// Resolved evaluation strategy.
    pub strategy: EvalStrategy,
    /// Validated accuracy requirement.
    pub accuracy: AccuracyRequirement,
    /// Output-range estimate from the catalog (scales Γ and λ).
    pub output_range: f64,
    /// Validated selection predicate, when the query has a WHERE clause.
    pub predicate: Option<Predicate>,
    /// Fast-path worker threads.
    pub workers: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// GP model-size budget (0 = uncapped).
    pub model_cap: usize,
}

/// A fully bound, executable plan over a stream source.
#[derive(Debug, Clone)]
pub struct StreamPlan {
    /// Registered source name.
    pub source: String,
    /// The bound UDF (cloned from the catalog).
    pub udf: BlackBoxUdf,
    /// Resolved evaluation strategy.
    pub strategy: StreamStrategy,
    /// Validated accuracy requirement.
    pub accuracy: AccuracyRequirement,
    /// Output-range estimate from the catalog.
    pub output_range: f64,
    /// Validated selection predicate, when present.
    pub predicate: Option<Predicate>,
    /// Fast-path worker threads.
    pub workers: usize,
    /// Micro-batch size.
    pub batch: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Optional tuple limit for the run.
    pub limit: Option<u64>,
    /// GP model-size budget (0 = uncapped).
    pub model_cap: usize,
}

/// A fully bound, executable θ-join plan.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    /// Left registered relation name.
    pub left: String,
    /// Left alias (column prefix).
    pub left_alias: String,
    /// Right registered relation name.
    pub right: String,
    /// Right alias (column prefix).
    pub right_alias: String,
    /// Resolved `ON lhs < rhs` operands, when present.
    pub on: Option<((Side, String), (Side, String))>,
    /// The bound pair UDF (cloned from the catalog).
    pub udf: BlackBoxUdf,
    /// Resolved pair-UDF arguments `(side, column)`, in call order.
    pub args: Vec<(Side, String)>,
    /// Resolved evaluation strategy.
    pub strategy: EvalStrategy,
    /// Validated accuracy requirement.
    pub accuracy: AccuracyRequirement,
    /// Output-range estimate from the catalog.
    pub output_range: f64,
    /// Validated pair predicate, when the query has a WHERE clause.
    pub predicate: Option<Predicate>,
    /// Fast-path worker threads.
    pub workers: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// GP model-size budget (0 = uncapped).
    pub model_cap: usize,
    /// Envelope-based pair pruning.
    pub prune: bool,
}

/// The bound physical plan.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// One-shot batch execution over a relation
    /// ([`Executor::select_batch`](udf_query::Executor::select_batch) /
    /// [`project_batch`](udf_query::Executor::project_batch)).
    Relation(RelPlan),
    /// A [`udf_stream::Session`] subscription driven over the source.
    Stream(StreamPlan),
    /// A [`udf_join::JoinExecutor`] run over two registered relations.
    Join(JoinPlan),
}

/// Everything compilation produced for one statement.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    /// The query as written.
    pub logical: LogicalPlan,
    /// After predicate pushdown.
    pub optimized: LogicalPlan,
    /// The executable binding.
    pub physical: PhysicalPlan,
}

impl BoundQuery {
    /// The `EXPLAIN` rendering: both logical plans plus the physical
    /// binding details.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        s.push_str("Logical plan:\n");
        s.push_str(&indent(&self.logical.to_string()));
        if self.optimized != self.logical {
            s.push_str("Optimized plan (predicate pushdown):\n");
            s.push_str(&indent(&self.optimized.to_string()));
        }
        s.push_str("Physical plan:\n");
        match &self.physical {
            PhysicalPlan::Relation(p) => {
                s.push_str(&format!(
                    "  BatchExec relation={} udf={} strategy={:?} workers={} seed={}{}\n",
                    p.relation,
                    p.udf.name(),
                    p.strategy,
                    p.workers,
                    p.seed,
                    render_model_cap(p.model_cap),
                ));
                s.push_str(&format!(
                    "    accuracy: eps={} delta={} lambda={:.4} metric={:?}\n",
                    p.accuracy.eps, p.accuracy.delta, p.accuracy.lambda, p.accuracy.metric,
                ));
                match &p.predicate {
                    Some(pr) => s.push_str(&format!(
                        "    predicate: Pr[y ∈ [{}, {}]] ≥ {} — pushed into the {} fast path\n",
                        pr.lo,
                        pr.hi,
                        pr.theta,
                        match p.strategy {
                            EvalStrategy::Gp => "GP-envelope (§5.5)",
                            EvalStrategy::Mc => "Hoeffding early-stop (Remark 2.1)",
                        },
                    )),
                    None => s.push_str("    predicate: none (pure projection)\n"),
                }
            }
            PhysicalPlan::Join(p) => {
                s.push_str(&format!(
                    "  JoinExec {} {} JOIN {} {} udf={} strategy={:?} workers={} seed={}{}{}\n",
                    p.left,
                    p.left_alias,
                    p.right,
                    p.right_alias,
                    p.udf.name(),
                    p.strategy,
                    p.workers,
                    p.seed,
                    render_model_cap(p.model_cap),
                    if p.prune { " prune" } else { "" },
                ));
                if let Some(((ls, lc), (rs, rc))) = &p.on {
                    s.push_str(&format!(
                        "    on: {}.{lc} < {}.{rc}\n",
                        side_alias(p, *ls),
                        side_alias(p, *rs),
                    ));
                }
                s.push_str(&format!(
                    "    accuracy: eps={} delta={} lambda={:.4} metric={:?}\n",
                    p.accuracy.eps, p.accuracy.delta, p.accuracy.lambda, p.accuracy.metric,
                ));
                match &p.predicate {
                    Some(pr) => s.push_str(&format!(
                        "    predicate: Pr[y ∈ [{}, {}]] ≥ {} — {}\n",
                        pr.lo,
                        pr.hi,
                        pr.theta,
                        match (p.strategy, p.prune) {
                            (EvalStrategy::Gp, true) =>
                                "envelope pair pruning (§4.2) + GP fast-path filter (§5.5)",
                            (EvalStrategy::Gp, false) => "GP fast-path filter (§5.5)",
                            (EvalStrategy::Mc, _) => "Hoeffding early-stop (Remark 2.1)",
                        },
                    )),
                    None => s.push_str("    predicate: none (pure pair projection)\n"),
                }
            }
            PhysicalPlan::Stream(p) => {
                s.push_str(&format!(
                    "  StreamSubscribe source={} udf={} strategy={:?} workers={} batch={} seed={}{}\n",
                    p.source,
                    p.udf.name(),
                    p.strategy,
                    p.workers,
                    p.batch,
                    p.seed,
                    match p.limit {
                        Some(l) => format!("{} limit={l}", render_model_cap(p.model_cap)),
                        None => format!("{} (unbounded)", render_model_cap(p.model_cap)),
                    },
                ));
                s.push_str(&format!(
                    "    accuracy: eps={} delta={} lambda={:.4} metric={:?}\n",
                    p.accuracy.eps, p.accuracy.delta, p.accuracy.lambda, p.accuracy.metric,
                ));
                match &p.predicate {
                    Some(pr) => s.push_str(&format!(
                        "    predicate: Pr[y ∈ [{}, {}]] ≥ {} — online filter in the accept hook\n",
                        pr.lo, pr.hi, pr.theta,
                    )),
                    None => s.push_str("    predicate: none (every tuple is emitted)\n"),
                }
            }
        }
        s
    }
}

fn side_alias(p: &JoinPlan, side: Side) -> &str {
    match side {
        Side::Left => &p.left_alias,
        Side::Right => &p.right_alias,
    }
}

fn render_model_cap(cap: usize) -> String {
    if cap > 0 {
        format!(" model_cap={cap}")
    } else {
        String::new()
    }
}

fn indent(s: &str) -> String {
    s.lines().fold(String::new(), |mut acc, l| {
        acc.push_str("  ");
        acc.push_str(l);
        acc.push('\n');
        acc
    })
}

/// Bind a parsed one-shot query against a [`Context`]. The one-shot path
/// is prepare-then-execute-once: the statement is compiled with
/// [`prepare`] and its (necessarily empty) parameter set is bound
/// immediately, so one-shot and `PREPARE`d statements share every
/// resolution and validation rule.
pub fn bind(query: &Query, ctx: &Context) -> Result<BoundQuery> {
    let prepared = prepare(&query.select, ctx)?;
    if let Some(p) = prepared.params.first() {
        return Err(LangError::semantic(
            p.span,
            format!(
                "positional parameter `${}` is only allowed inside `PREPARE name AS ...` \
                 (bind it with `EXECUTE`)",
                p.index,
            ),
        ));
    }
    let physical = prepared.bind_args(&[], Span::new(0, 0))?;
    Ok(BoundQuery {
        logical: prepared.logical,
        optimized: prepared.optimized,
        physical,
    })
}

/// The value shape a parameter slot accepts, decided by position at
/// prepare time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamType {
    /// Any number: accuracy ε/δ, interval bounds, the threshold θ.
    Number,
    /// A non-negative integer: WORKERS, BATCH, SEED, LIMIT, MODEL CAP.
    Integer,
}

impl fmt::Display for ParamType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamType::Number => write!(f, "number"),
            ParamType::Integer => write!(f, "integer"),
        }
    }
}

/// One distinct `$n` slot of a prepared statement, typed at prepare time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSlot {
    /// 1-based parameter number (`$1` has index 1).
    pub index: usize,
    /// The shape `EXECUTE` arguments are checked against. A parameter
    /// used in both a numeric and an integer position binds as Integer.
    pub ty: ParamType,
    /// Span of one use inside the `PREPARE` text.
    pub span: Span,
    /// The clause the slot feeds (`WORKERS`, `accuracy ε`, ...).
    pub what: &'static str,
}

/// Catalog bindings resolved once at prepare time, per source form.
/// Numeric fields stay in the stored [`Select`] as
/// [`NumExpr`]/[`UintExpr`] slots and are resolved per execution by
/// [`PreparedPlan::bind_args`].
#[derive(Debug, Clone)]
enum SourceTemplate {
    Relation {
        relation: String,
        args: Vec<String>,
        strategy: EvalStrategy,
    },
    Stream {
        source: String,
        strategy: StreamStrategy,
        resolves_to_mc: bool,
    },
    Join {
        left: String,
        left_alias: String,
        right: String,
        right_alias: String,
        on: Option<((Side, String), (Side, String))>,
        args: Vec<(Side, String)>,
        strategy: EvalStrategy,
        prune: bool,
    },
}

/// A statement compiled against the catalog with its numeric slots still
/// open: names, schemas, and the strategy resolve once at prepare time
/// (with span diagnostics), the logical plans are built, and
/// [`bind_args`](Self::bind_args) then turns one set of `EXECUTE`
/// arguments into a [`PhysicalPlan`]. Bad arity or a bad argument at
/// `EXECUTE` is a bind-stage [`LangError`], never a panic.
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    /// The SELECT body as written (parameter slots included).
    select: Select,
    /// Names and strategy resolved against the catalog.
    source: SourceTemplate,
    /// The bound UDF (cloned from the catalog).
    udf: BlackBoxUdf,
    /// λ from the catalog's output-range estimate (§6.1-C).
    lambda: f64,
    /// Output-range estimate, validated finite and positive.
    output_range: f64,
    /// The query as written.
    pub logical: LogicalPlan,
    /// After predicate pushdown.
    pub optimized: LogicalPlan,
    /// Distinct parameter slots, sorted `$1..$n` (always contiguous).
    pub params: Vec<ParamSlot>,
}

impl PreparedPlan {
    /// Number of arguments `EXECUTE` must supply.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// The SELECT body this plan was prepared from.
    pub fn select(&self) -> &Select {
        &self.select
    }

    /// Bind one set of `EXECUTE` arguments: check arity and slot types,
    /// substitute the values, and run the same numeric validation the
    /// one-shot binder applies (accuracy, predicate, option ranges).
    /// `stmt_span` anchors arity diagnostics in the `EXECUTE` text;
    /// per-value diagnostics point at the argument that supplied the
    /// value (or at the literal in the prepared text).
    pub fn bind_args(&self, args: &[Spanned<f64>], stmt_span: Span) -> Result<PhysicalPlan> {
        if args.len() != self.params.len() {
            return Err(LangError::semantic(
                stmt_span,
                format!(
                    "prepared statement takes {} argument(s), got {}",
                    self.params.len(),
                    args.len(),
                ),
            ));
        }
        for (slot, arg) in self.params.iter().zip(args) {
            let v = arg.node;
            let integral = v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v < 2f64.powi(53);
            if slot.ty == ParamType::Integer && !integral {
                return Err(LangError::semantic(
                    arg.span,
                    format!(
                        "parameter `${}` feeds {} and must be a non-negative integer, got {v:?}",
                        slot.index, slot.what,
                    ),
                ));
            }
        }
        let num = |e: &Spanned<NumExpr>| -> Spanned<f64> {
            match e.node {
                NumExpr::Lit(v) => Spanned::new(v, e.span),
                NumExpr::Param(n) => {
                    let a = &args[n - 1];
                    Spanned::new(a.node, a.span)
                }
            }
        };
        let uint = |e: &Spanned<UintExpr>| -> Spanned<u64> {
            match e.node {
                UintExpr::Lit(v) => Spanned::new(v, e.span),
                UintExpr::Param(n) => {
                    let a = &args[n - 1];
                    Spanned::new(a.node as u64, a.span)
                }
            }
        };
        let sel = &self.select;

        // Whether the strategy resolved to MC, explicitly (`USING mc`) or
        // by AUTO.
        let is_mc = match &self.source {
            SourceTemplate::Relation { strategy, .. } | SourceTemplate::Join { strategy, .. } => {
                *strategy == EvalStrategy::Mc
            }
            SourceTemplate::Stream { resolves_to_mc, .. } => *resolves_to_mc,
        };

        // Accuracy: explicit clause or the paper's defaults.
        let accuracy = match &sel.accuracy {
            None => AccuracyRequirement::new(0.1, 0.05, self.lambda, Metric::Discrepancy)
                .expect("paper defaults with a validated lambda"),
            Some(acc) => {
                let metric = match acc.metric.as_ref().map(|m| m.node) {
                    Some(MetricName::Ks) => Metric::Ks,
                    _ => Metric::Discrepancy,
                };
                let eps = num(&acc.eps);
                let delta = num(&acc.delta);
                let accuracy = AccuracyRequirement::new(eps.node, delta.node, self.lambda, metric)
                    .map_err(|e| accuracy_diagnostic(e, eps.span, delta.span))?;
                // The evaluators refuse a valid but tiny ε (the count grows
                // as 1/ε²) too; here it fails with a span.
                let samples = if is_mc {
                    accuracy.mc_samples()
                } else {
                    OlgaproConfig::new(accuracy, self.output_range)
                        .expect("accuracy and output_range validated above")
                        .samples_per_input()
                };
                if check_samples_per_tuple(samples).is_err() {
                    return Err(LangError::semantic(
                        eps.span,
                        format!(
                            "accuracy ε={} δ={} needs {samples} samples per tuple with the {} \
                             strategy; the limit is {MAX_SAMPLES_PER_TUPLE}",
                            eps.node,
                            delta.node,
                            if is_mc { "mc" } else { "gp" },
                        ),
                    ));
                }
                accuracy
            }
        };

        // The WHERE predicate (the same-call shape was checked at prepare
        // time; values are validated here, where parameters have values).
        let predicate = match &sel.predicate {
            None => None,
            Some(p) => {
                let lo = num(&p.lo);
                let hi = num(&p.hi);
                let theta = num(&p.theta);
                Some(
                    Predicate::new(lo.node, hi.node, theta.node)
                        .map_err(|e| predicate_diagnostic(e, lo, hi, theta, p.span))?,
                )
            }
        };

        // Options.
        let workers = match &sel.options.workers {
            None => 1,
            Some(w) => {
                let w = uint(w);
                if (1..=1024).contains(&w.node) {
                    w.node as usize
                } else {
                    return Err(LangError::semantic(
                        w.span,
                        format!("WORKERS must be in 1..=1024, got {}", w.node),
                    ));
                }
            }
        };
        let seed = sel.options.seed.as_ref().map_or(0, |s| uint(s).node);
        let model_cap = match &sel.options.model_cap {
            None => 0usize,
            Some(c) => {
                let c = uint(c);
                if c.node > 1_000_000 {
                    return Err(LangError::semantic(
                        c.span,
                        format!("MODEL CAP must be at most 1000000, got {}", c.node),
                    ));
                }
                // Caps the model could never bootstrap under are rejected
                // here with a span, rather than as an engine error at run
                // time.
                let min = OlgaproConfig::new(accuracy, self.output_range)
                    .expect("accuracy and output_range validated above")
                    .min_model_cap();
                if c.node > 0 && (c.node as usize) < min {
                    return Err(LangError::semantic(
                        c.span,
                        format!(
                            "MODEL CAP must be 0 (uncapped) or at least the GP bootstrap \
                             size ({min}), got {}",
                            c.node
                        ),
                    ));
                }
                // A nonzero cap on a query whose strategy resolved to MC
                // would be silently dropped (MC has no model) — reject it,
                // whether the MC choice was explicit (`USING mc`) or made
                // by AUTO.
                if c.node > 0 && is_mc {
                    return Err(LangError::semantic(
                        c.span,
                        "MODEL CAP bounds the GP model, but this query's strategy resolved \
                         to MC (explicitly or via AUTO's §6.3 rules); use `USING gp` or \
                         drop the cap",
                    ));
                }
                c.node as usize
            }
        };

        match &self.source {
            SourceTemplate::Relation {
                relation,
                args: cols,
                strategy,
            } => Ok(PhysicalPlan::Relation(RelPlan {
                relation: relation.clone(),
                udf: self.udf.clone(),
                args: cols.clone(),
                strategy: *strategy,
                accuracy,
                output_range: self.output_range,
                predicate,
                workers,
                seed,
                model_cap,
            })),
            SourceTemplate::Stream {
                source, strategy, ..
            } => {
                let batch = match &sel.options.batch {
                    None => 256,
                    Some(b) => {
                        let b = uint(b);
                        if (1..=1_048_576).contains(&b.node) {
                            b.node as usize
                        } else {
                            return Err(LangError::semantic(
                                b.span,
                                format!("BATCH must be in 1..=1048576, got {}", b.node),
                            ));
                        }
                    }
                };
                Ok(PhysicalPlan::Stream(StreamPlan {
                    source: source.clone(),
                    udf: self.udf.clone(),
                    strategy: *strategy,
                    accuracy,
                    output_range: self.output_range,
                    predicate,
                    workers,
                    batch,
                    seed,
                    limit: sel.options.limit.as_ref().map(|l| uint(l).node),
                    model_cap,
                }))
            }
            SourceTemplate::Join {
                left,
                left_alias,
                right,
                right_alias,
                on,
                args: pair_args,
                strategy,
                prune,
            } => Ok(PhysicalPlan::Join(JoinPlan {
                left: left.clone(),
                left_alias: left_alias.clone(),
                right: right.clone(),
                right_alias: right_alias.clone(),
                on: on.clone(),
                udf: self.udf.clone(),
                args: pair_args.clone(),
                strategy: *strategy,
                accuracy,
                output_range: self.output_range,
                predicate,
                workers,
                seed,
                model_cap,
                prune: *prune,
            })),
        }
    }
}

/// Compile a SELECT body against a [`Context`]: resolve the UDF and the
/// source against the catalog, fix the strategy (AUTO resolves by the
/// paper's §6.3 rules), build the logical plans, and collect the `$n`
/// parameter slots with their types. Every name/shape/structure error
/// surfaces here, at prepare time; numeric validation runs per execution
/// in [`PreparedPlan::bind_args`].
pub fn prepare(sel: &Select, ctx: &Context) -> Result<PreparedPlan> {
    // 1. The projected UDF must exist in the catalog.
    let entry = ctx.udfs().get(&sel.call.name.node).ok_or_else(|| {
        LangError::semantic(
            sel.call.name.span,
            format!(
                "unknown UDF `{}` (registered: {})",
                sel.call.name.node,
                ctx.udfs().names().join(", "),
            ),
        )
    })?;
    let udf = entry.udf.clone();
    if sel.call.args.len() != udf.dim() {
        return Err(LangError::semantic(
            sel.call.span,
            format!(
                "UDF `{}` takes {} argument(s), got {}",
                udf.name(),
                udf.dim(),
                sel.call.args.len(),
            ),
        ));
    }

    // 2. λ is always 1% of the catalog's output-range estimate (§6.1-C).
    //    The range comes from a user-registrable entry, so a poisoned
    //    value (negative, NaN) must surface as a diagnostic, not a panic.
    let lambda = entry.default_lambda();
    let output_range = entry.output_range;
    if !(output_range > 0.0 && output_range.is_finite()) {
        return Err(LangError::semantic(
            sel.call.name.span,
            format!(
                "catalog entry `{}` has invalid output_range {output_range} \
                 (must be finite and positive)",
                udf.name(),
            ),
        ));
    }

    // 3. The WHERE predicate must filter on the *selected* UDF call — that
    //    is the shape the engine's fused select operators execute. The UDF
    //    name compares case-insensitively, matching catalog lookup.
    if let Some(p) = &sel.predicate {
        let same_call = p.call.name.node.eq_ignore_ascii_case(&sel.call.name.node)
            && p.call.args == sel.call.args;
        if !same_call {
            return Err(LangError::semantic(
                p.call.span,
                format!(
                    "the PR(...) predicate must reference the selected call `{}` \
                     (got `{}`); filtering on a different UDF is not supported",
                    sel.call, p.call,
                ),
            ));
        }
    }

    // 4. Source-specific resolution. The strategy fixes here (it depends
    //    only on the UDF), so PRUNE/cap checks can rule on it.
    let strategy_name = sel
        .options
        .strategy
        .as_ref()
        .map_or(StrategyName::Auto, |s| s.node);
    let call_text = sel.call.to_string();
    let pred_text = sel.predicate.as_ref().map(|p| {
        format!(
            "Pr[{} ∈ [{}, {}]] ≥ {}",
            p.call, p.lo.node, p.hi.node, p.theta.node
        )
    });
    // PRUNE is a join-operator knob; resolve it here so relation/stream
    // queries reject it with a span instead of silently ignoring it.
    if let (Some(p), false) = (&sel.options.prune, matches!(sel.source, SourceRef::Join(_))) {
        return Err(LangError::semantic(
            p.span,
            "PRUNE applies to `JOIN` queries only (it prunes candidate pairs)",
        ));
    }
    let (source, scan, prune) = match &sel.source {
        SourceRef::Relation(name) => {
            if let Some(c) = sel.options.batch.as_ref().or(sel.options.limit.as_ref()) {
                return Err(LangError::semantic(
                    c.span,
                    "BATCH and LIMIT apply to `FROM STREAM` queries only",
                ));
            }
            let rel = ctx.relation(&name.node).ok_or_else(|| {
                LangError::semantic(
                    name.span,
                    format!(
                        "unknown relation `{}` (registered: {})",
                        name.node,
                        ctx.relation_names().join(", "),
                    ),
                )
            })?;
            // Columns resolve now so typos fail at bind time with spans.
            for arg in &sel.call.args {
                reject_alias_outside_join(arg)?;
                if rel.schema().index_of(&arg.node.name).is_err() {
                    return Err(LangError::semantic(
                        arg.span,
                        format!(
                            "relation `{}` has no column `{}` (columns: {})",
                            name.node,
                            arg.node.name,
                            rel.schema().columns().join(", "),
                        ),
                    ));
                }
            }
            let strategy = resolve_strategy(strategy_name, &udf);
            let scan = LogicalPlan::Scan {
                relation: name.node.clone(),
                rows: rel.len(),
            };
            (
                SourceTemplate::Relation {
                    relation: name.node.clone(),
                    args: sel.call.args.iter().map(|a| a.node.name.clone()).collect(),
                    strategy,
                },
                scan,
                false,
            )
        }
        SourceRef::Join(join) => prepare_join(sel, join, &udf, strategy_name, ctx)?,
        SourceRef::Stream(name) => {
            let dim = ctx.stream_dim(&name.node).ok_or_else(|| {
                LangError::semantic(
                    name.span,
                    format!(
                        "unknown stream source `{}` (registered: {})",
                        name.node,
                        ctx.stream_names().join(", "),
                    ),
                )
            })?;
            for arg in &sel.call.args {
                reject_alias_outside_join(arg)?;
            }
            if udf.dim() != dim {
                return Err(LangError::semantic(
                    sel.call.span,
                    format!(
                        "UDF `{}` is {}-dimensional but stream `{}` yields {}-dimensional tuples",
                        udf.name(),
                        udf.dim(),
                        name.node,
                        dim,
                    ),
                ));
            }
            let strategy = match strategy_name {
                StrategyName::Mc => StreamStrategy::Mc,
                StrategyName::Gp => StreamStrategy::Gp,
                StrategyName::Auto => StreamStrategy::Auto,
            };
            // AUTO stays symbolic on streams (the engine resolves it at
            // subscribe), but it resolves by the same deterministic §6.3
            // rule — record the outcome so a cap AUTO would drop is
            // rejected with a span instead of silently ignored.
            let resolves_to_mc = match strategy {
                StreamStrategy::Mc => true,
                StreamStrategy::Gp => false,
                StreamStrategy::Auto => matches!(
                    rule_based_choice(udf.dim(), udf.cost_model().per_call()),
                    HybridChoice::Mc
                ),
            };
            let scan = LogicalPlan::StreamScan {
                source: name.node.clone(),
                dim,
            };
            (
                SourceTemplate::Stream {
                    source: name.node.clone(),
                    strategy,
                    resolves_to_mc,
                },
                scan,
                false,
            )
        }
    };
    let logical = build_logical(scan, &call_text, pred_text.as_deref());
    let optimized = logical.clone().optimize(prune);
    let params = collect_params(sel)?;
    Ok(PreparedPlan {
        select: sel.clone(),
        source,
        udf,
        lambda,
        output_range,
        logical,
        optimized,
        params,
    })
}

/// Record one `$n` use; a later use of the same index upgrades the slot
/// to Integer (the stricter shape) but never downgrades it.
fn add_slot(
    slots: &mut Vec<ParamSlot>,
    index: usize,
    ty: ParamType,
    span: Span,
    what: &'static str,
) {
    if let Some(s) = slots.iter_mut().find(|s| s.index == index) {
        if ty == ParamType::Integer && s.ty == ParamType::Number {
            s.ty = ty;
            s.span = span;
            s.what = what;
        }
    } else {
        slots.push(ParamSlot {
            index,
            ty,
            span,
            what,
        });
    }
}

/// Walk every numeric position of a SELECT body and collect its distinct
/// `$n` slots, typed by position. Indices must be contiguous from `$1`.
fn collect_params(sel: &Select) -> Result<Vec<ParamSlot>> {
    let mut slots = Vec::new();
    if let Some(acc) = &sel.accuracy {
        for (e, what) in [(&acc.eps, "accuracy ε"), (&acc.delta, "accuracy δ")] {
            if let NumExpr::Param(n) = e.node {
                add_slot(&mut slots, n, ParamType::Number, e.span, what);
            }
        }
    }
    if let Some(p) = &sel.predicate {
        for (e, what) in [
            (&p.lo, "the interval lower bound"),
            (&p.hi, "the interval upper bound"),
            (&p.theta, "the threshold θ"),
        ] {
            if let NumExpr::Param(n) = e.node {
                add_slot(&mut slots, n, ParamType::Number, e.span, what);
            }
        }
    }
    for (e, what) in [
        (&sel.options.workers, "WORKERS"),
        (&sel.options.batch, "BATCH"),
        (&sel.options.seed, "SEED"),
        (&sel.options.limit, "LIMIT"),
        (&sel.options.model_cap, "MODEL CAP"),
    ] {
        if let Some(e) = e {
            if let UintExpr::Param(n) = e.node {
                add_slot(&mut slots, n, ParamType::Integer, e.span, what);
            }
        }
    }
    slots.sort_by_key(|s| s.index);
    for (i, s) in slots.iter().enumerate() {
        if s.index != i + 1 {
            return Err(LangError::semantic(
                s.span,
                format!(
                    "parameters must be numbered contiguously from $1 \
                     (`${}` is used but `${}` is not)",
                    s.index,
                    i + 1,
                ),
            ));
        }
    }
    Ok(slots)
}

/// Resolve `USING mc|gp|auto` to a relational strategy; AUTO applies the
/// paper's §6.3 cost rules. One definition shared by the relation and
/// join binding arms, so both resolve AUTO identically.
fn resolve_strategy(name: StrategyName, udf: &BlackBoxUdf) -> EvalStrategy {
    match name {
        StrategyName::Mc => EvalStrategy::Mc,
        StrategyName::Gp => EvalStrategy::Gp,
        StrategyName::Auto => match rule_based_choice(udf.dim(), udf.cost_model().per_call()) {
            HybridChoice::Mc => EvalStrategy::Mc,
            HybridChoice::Gp | HybridChoice::Calibrating => EvalStrategy::Gp,
        },
    }
}

/// A qualified reference (`a.z`) outside a `JOIN` source has no alias to
/// resolve against.
fn reject_alias_outside_join(arg: &Spanned<AttrRef>) -> Result<()> {
    match &arg.node.alias {
        None => Ok(()),
        Some(alias) => Err(LangError::semantic(
            arg.span,
            format!(
                "qualified reference `{}.{}` requires a `JOIN` source \
                 (aliases name join sides)",
                alias, arg.node.name,
            ),
        )),
    }
}

/// Resolve the `FROM rel a JOIN rel b` source form against the catalog.
fn prepare_join(
    sel: &Select,
    join: &JoinSource,
    udf: &BlackBoxUdf,
    strategy_name: StrategyName,
    ctx: &Context,
) -> Result<(SourceTemplate, LogicalPlan, bool)> {
    if let Some(c) = sel.options.batch.as_ref().or(sel.options.limit.as_ref()) {
        return Err(LangError::semantic(
            c.span,
            "BATCH and LIMIT apply to `FROM STREAM` queries only",
        ));
    }
    let lookup = |name: &Spanned<String>| {
        ctx.relation(&name.node).ok_or_else(|| {
            LangError::semantic(
                name.span,
                format!(
                    "unknown relation `{}` (registered: {})",
                    name.node,
                    ctx.relation_names().join(", "),
                ),
            )
        })
    };
    let left = lookup(&join.left)?;
    let right = lookup(&join.right)?;
    if join.left_alias.node == join.right_alias.node {
        return Err(LangError::semantic(
            join.right_alias.span,
            format!(
                "join aliases must be distinct, `{}` is used for both sides",
                join.right_alias.node,
            ),
        ));
    }

    // Resolve a qualified reference to a (side, column) pair with span
    // diagnostics for unknown aliases and columns.
    let resolve = |arg: &Spanned<AttrRef>| -> Result<(Side, String)> {
        let Some(alias) = &arg.node.alias else {
            return Err(LangError::semantic(
                arg.span,
                format!(
                    "reference `{}` must be qualified in a JOIN query \
                     (write `{}.{}` or `{}.{}`)",
                    arg.node.name,
                    join.left_alias.node,
                    arg.node.name,
                    join.right_alias.node,
                    arg.node.name,
                ),
            ));
        };
        let (side, rel, rel_name) = if *alias == join.left_alias.node {
            (Side::Left, left, &join.left.node)
        } else if *alias == join.right_alias.node {
            (Side::Right, right, &join.right.node)
        } else {
            return Err(LangError::semantic(
                arg.span,
                format!(
                    "unknown alias `{alias}` (this join binds `{}` and `{}`)",
                    join.left_alias.node, join.right_alias.node,
                ),
            ));
        };
        if rel.schema().index_of(&arg.node.name).is_err() {
            return Err(LangError::semantic(
                arg.span,
                format!(
                    "relation `{rel_name}` has no column `{}` (columns: {})",
                    arg.node.name,
                    rel.schema().columns().join(", "),
                ),
            ));
        }
        Ok((side, arg.node.name.clone()))
    };
    let args = sel
        .call
        .args
        .iter()
        .map(resolve)
        .collect::<Result<Vec<_>>>()?;
    let on = match &join.on {
        None => None,
        Some(on) => Some((resolve(&on.lhs)?, resolve(&on.rhs)?)),
    };

    let strategy = resolve_strategy(strategy_name, udf);
    let prune = match &sel.options.prune {
        None => false,
        Some(p) => {
            if strategy == EvalStrategy::Mc {
                return Err(LangError::semantic(
                    p.span,
                    "PRUNE certifies pairs from the GP envelope band, but this query's \
                     strategy resolved to MC (explicitly or via AUTO's §6.3 rules); \
                     use `USING gp` or drop PRUNE",
                ));
            }
            if sel.predicate.is_none() {
                return Err(LangError::semantic(
                    p.span,
                    "PRUNE needs a `WHERE PR(...)` predicate to rule pairs against",
                ));
            }
            true
        }
    };

    let scan = |name: &str, rows: usize| LogicalPlan::Scan {
        relation: name.to_string(),
        rows,
    };
    let join_node = LogicalPlan::Join {
        left: Box::new(scan(&join.left.node, left.len())),
        right: Box::new(scan(&join.right.node, right.len())),
        on: join
            .on
            .as_ref()
            .map(|o| format!("{} < {}", o.lhs.node, o.rhs.node)),
    };
    Ok((
        SourceTemplate::Join {
            left: join.left.node.clone(),
            left_alias: join.left_alias.node.clone(),
            right: join.right.node.clone(),
            right_alias: join.right_alias.node.clone(),
            on,
            args,
            strategy,
            prune,
        },
        join_node,
        prune,
    ))
}

fn build_logical(scan: LogicalPlan, call: &str, pred: Option<&str>) -> LogicalPlan {
    let project = LogicalPlan::UdfProject {
        input: Box::new(scan),
        call: call.to_string(),
    };
    match pred {
        None => project,
        Some(p) => LogicalPlan::PrFilter {
            input: Box::new(project),
            predicate: p.to_string(),
        },
    }
}

/// Map an [`AccuracyRequirement`] construction error onto the literal at
/// fault.
fn accuracy_diagnostic(e: udf_core::CoreError, eps: Span, delta: Span) -> LangError {
    match &e {
        udf_core::CoreError::InvalidConfig { what: "eps", value } => LangError::semantic(
            eps,
            format!("accuracy ε must be a finite number in (0, 1), got {value}"),
        ),
        udf_core::CoreError::InvalidConfig {
            what: "delta",
            value,
        } => LangError::semantic(
            delta,
            format!("accuracy δ must be a finite number in (0, 1), got {value}"),
        ),
        _ => LangError::semantic(eps.to(delta), e.to_string()),
    }
}

/// Map a [`Predicate`] construction error onto the value at fault — the
/// literal in the statement text, or the `EXECUTE` argument that supplied
/// the parameter.
fn predicate_diagnostic(
    e: udf_core::CoreError,
    lo: Spanned<f64>,
    hi: Spanned<f64>,
    theta: Spanned<f64>,
    whole: Span,
) -> LangError {
    match &e {
        udf_core::CoreError::InvalidConfig {
            what: "predicate lower bound",
            value,
        } => LangError::semantic(
            lo.span,
            format!("interval bound must be finite, got {value}"),
        ),
        udf_core::CoreError::InvalidConfig {
            what: "predicate upper bound",
            value,
        } => LangError::semantic(
            hi.span,
            format!("interval bound must be finite, got {value}"),
        ),
        udf_core::CoreError::InvalidConfig {
            what: "predicate interval",
            ..
        } => LangError::semantic(
            lo.span.to(hi.span),
            format!(
                "empty interval: lower bound {:?} must be below upper bound {:?}",
                lo.node, hi.node
            ),
        ),
        udf_core::CoreError::InvalidConfig {
            what: "theta",
            value,
        } => LangError::semantic(
            theta.span,
            format!("probability threshold θ must lie in (0, 1), got {value}"),
        ),
        _ => LangError::semantic(whole, e.to_string()),
    }
}
