//! The binder that lowers UQL onto the execution engine, and the plan it
//! produces.
//!
//! Binding resolves names against the catalog/context, validates the
//! accuracy and predicate into engine types, and fixes the strategy (AUTO
//! resolves by the paper's §6.3 rules, once, here, for every source). The
//! result, a [`PhysicalPlan`], is the only description of how a statement
//! runs: execution dispatches on it and `EXPLAIN` prints it. A `WHERE`
//! predicate always runs inside the UDF operator, never after it: the
//! engine rules it on the GP fast-path bounds (§5.5) or the Monte Carlo
//! Hoeffding bound (Remark 2.1) before any model-mutating work.

use crate::ast::{AttrRef, JoinSource, MetricName, Query, Select, SourceRef, StrategyName};
use crate::error::{LangError, Result, Span, Spanned};
use crate::exec::Context;
use udf_core::config::{
    check_samples_per_tuple, AccuracyRequirement, Metric, OlgaproConfig, MAX_SAMPLES_PER_TUPLE,
};
use udf_core::filtering::Predicate;
use udf_core::hybrid::{rule_based_choice, HybridChoice};
use udf_core::udf::BlackBoxUdf;
use udf_join::Side;
use udf_query::EvalStrategy;
use udf_workloads::registry::UdfEntry;

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
    pub strategy: EvalStrategy,
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
    /// Always `false`: the parser rejects `PRUNE`. Kept only for the
    /// benchmark ladder's `.prune(p.prune)` call; it goes when the ladder
    /// drops that call (ROADMAP item 11).
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
    /// The executable binding.
    pub physical: PhysicalPlan,
}

impl BoundQuery {
    /// The `EXPLAIN` rendering: the operator the statement runs as, its
    /// accuracy, and where its predicate is ruled.
    pub fn explain(&self) -> String {
        let mut s = String::from("Physical plan:\n");
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
                s.push_str(&render_accuracy(&p.accuracy));
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
                    "  JoinExec {} {} JOIN {} {} udf={} strategy={:?} workers={} seed={}{}\n",
                    p.left,
                    p.left_alias,
                    p.right,
                    p.right_alias,
                    p.udf.name(),
                    p.strategy,
                    p.workers,
                    p.seed,
                    render_model_cap(p.model_cap),
                ));
                if let Some(((ls, lc), (rs, rc))) = &p.on {
                    s.push_str(&format!(
                        "    on: {}.{lc} < {}.{rc}\n",
                        side_alias(p, *ls),
                        side_alias(p, *rs),
                    ));
                }
                s.push_str(&render_accuracy(&p.accuracy));
                match &p.predicate {
                    Some(pr) => s.push_str(&format!(
                        "    predicate: Pr[y ∈ [{}, {}]] ≥ {} — {}\n",
                        pr.lo,
                        pr.hi,
                        pr.theta,
                        match p.strategy {
                            EvalStrategy::Gp => "GP fast-path filter (§5.5)",
                            EvalStrategy::Mc => "Hoeffding early-stop (Remark 2.1)",
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
                s.push_str(&render_accuracy(&p.accuracy));
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

fn render_accuracy(a: &AccuracyRequirement) -> String {
    format!(
        "    accuracy: eps={} delta={} lambda={:.4} metric={:?}\n",
        a.eps, a.delta, a.lambda, a.metric,
    )
}

/// Bind a parsed query against a [`Context`]: resolve the UDF and the
/// source against the catalog, fix the strategy (AUTO resolves by the
/// paper's §6.3 rules), and validate the numeric clauses into engine
/// types. Every name/shape/structure error surfaces before any numeric
/// one, each with the span at fault.
pub fn bind(query: &Query, ctx: &Context) -> Result<BoundQuery> {
    let sel = &query.select;
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
    let udf = &entry.udf;
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
    //    only on the UDF), so cap checks can rule on it; the numeric
    //    clauses are validated last, once it is known.
    let strategy = resolve_strategy(
        sel.options
            .strategy
            .as_ref()
            .map_or(StrategyName::Auto, |s| s.node),
        udf,
    );
    let physical = match &sel.source {
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
            let n = bind_numbers(sel, entry, strategy == EvalStrategy::Mc)?;
            PhysicalPlan::Relation(RelPlan {
                relation: name.node.clone(),
                udf: udf.clone(),
                args: sel.call.args.iter().map(|a| a.node.name.clone()).collect(),
                strategy,
                accuracy: n.accuracy,
                output_range,
                predicate: n.predicate,
                workers: n.workers,
                seed: n.seed,
                model_cap: n.model_cap,
            })
        }
        SourceRef::Join(join) => bind_join(sel, join, entry, strategy, ctx)?,
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
            let n = bind_numbers(sel, entry, strategy == EvalStrategy::Mc)?;
            let batch = match &sel.options.batch {
                None => 256,
                Some(b) if (1..=1_048_576).contains(&b.node) => b.node as usize,
                Some(b) => {
                    return Err(LangError::semantic(
                        b.span,
                        format!("BATCH must be in 1..=1048576, got {}", b.node),
                    ))
                }
            };
            PhysicalPlan::Stream(StreamPlan {
                source: name.node.clone(),
                udf: udf.clone(),
                strategy,
                accuracy: n.accuracy,
                output_range,
                predicate: n.predicate,
                workers: n.workers,
                batch,
                seed: n.seed,
                limit: sel.options.limit.as_ref().map(|l| l.node),
                model_cap: n.model_cap,
            })
        }
    };
    Ok(BoundQuery { physical })
}

/// The numeric clauses of a statement, validated into engine types.
struct Numbers {
    accuracy: AccuracyRequirement,
    predicate: Option<Predicate>,
    workers: usize,
    seed: u64,
    model_cap: usize,
}

/// Validate the accuracy, predicate and option values of `sel` against
/// the catalog `entry`, once the source has resolved whether the strategy
/// is MC (`is_mc`, explicitly or by AUTO). Diagnostics point at the
/// literal at fault.
fn bind_numbers(sel: &Select, entry: &UdfEntry, is_mc: bool) -> Result<Numbers> {
    let lambda = entry.default_lambda();
    let output_range = entry.output_range;
    // Accuracy: explicit clause or the paper's defaults.
    let accuracy = match &sel.accuracy {
        None => AccuracyRequirement::new(0.1, 0.05, lambda, Metric::Discrepancy)
            .expect("paper defaults with a validated lambda"),
        Some(acc) => {
            let metric = match acc.metric.as_ref().map(|m| m.node) {
                Some(MetricName::Ks) => Metric::Ks,
                _ => Metric::Discrepancy,
            };
            let (eps, delta) = (acc.eps, acc.delta);
            let accuracy = AccuracyRequirement::new(eps.node, delta.node, lambda, metric)
                .map_err(|e| accuracy_diagnostic(e, eps.span, delta.span))?;
            // The evaluators refuse a valid but tiny ε (the count grows
            // as 1/ε²) too; here it fails with a span.
            let samples = if is_mc {
                accuracy.mc_samples()
            } else {
                OlgaproConfig::new(accuracy, output_range)
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

    // The WHERE predicate (its same-call shape was checked by the caller).
    let predicate = match &sel.predicate {
        None => None,
        Some(p) => Some(
            Predicate::new(p.lo.node, p.hi.node, p.theta.node)
                .map_err(|e| predicate_diagnostic(e, p.lo, p.hi, p.theta, p.span))?,
        ),
    };

    // Options.
    let workers = match &sel.options.workers {
        None => 1,
        Some(w) if (1..=1024).contains(&w.node) => w.node as usize,
        Some(w) => {
            return Err(LangError::semantic(
                w.span,
                format!("WORKERS must be in 1..=1024, got {}", w.node),
            ))
        }
    };
    let seed = sel.options.seed.as_ref().map_or(0, |s| s.node);
    let model_cap = match &sel.options.model_cap {
        None => 0usize,
        Some(c) => {
            if c.node > 1_000_000 {
                return Err(LangError::semantic(
                    c.span,
                    format!("MODEL CAP must be at most 1000000, got {}", c.node),
                ));
            }
            // Caps the model could never bootstrap under are rejected
            // here with a span, rather than as an engine error at run
            // time.
            let min = OlgaproConfig::new(accuracy, output_range)
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
    Ok(Numbers {
        accuracy,
        predicate,
        workers,
        seed,
        model_cap,
    })
}

/// Resolve `USING mc|gp|auto` to a strategy; AUTO applies the paper's
/// §6.3 cost rules. The one place AUTO resolves, for relations, joins and
/// streams alike.
fn resolve_strategy(name: StrategyName, udf: &BlackBoxUdf) -> EvalStrategy {
    match name {
        StrategyName::Mc => EvalStrategy::Mc,
        StrategyName::Gp => EvalStrategy::Gp,
        StrategyName::Auto => match rule_based_choice(udf.dim(), udf.cost_model().per_call()) {
            HybridChoice::Mc => EvalStrategy::Mc,
            HybridChoice::Gp => EvalStrategy::Gp,
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

/// Bind the `FROM rel a JOIN rel b` source form against the catalog.
fn bind_join(
    sel: &Select,
    join: &JoinSource,
    entry: &UdfEntry,
    strategy: EvalStrategy,
    ctx: &Context,
) -> Result<PhysicalPlan> {
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

    let n = bind_numbers(sel, entry, strategy == EvalStrategy::Mc)?;
    Ok(PhysicalPlan::Join(JoinPlan {
        left: join.left.node.clone(),
        left_alias: join.left_alias.node.clone(),
        right: join.right.node.clone(),
        right_alias: join.right_alias.node.clone(),
        on,
        udf: entry.udf.clone(),
        args,
        strategy,
        accuracy: n.accuracy,
        output_range: entry.output_range,
        predicate: n.predicate,
        workers: n.workers,
        seed: n.seed,
        model_cap: n.model_cap,
        prune: false,
    }))
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

/// Map a [`Predicate`] construction error onto the literal at fault.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use udf_core::udf::CostModel;
    use udf_query::{Relation, Schema, Tuple, Value};
    use udf_stream::SyntheticSource;

    /// A context with a free and a 2 ms version of a 1-D and a 2-D UDF,
    /// a relation and a stream to bind them against.
    fn context() -> Context {
        let mut ctx = Context::standard();
        for (name, cost) in [
            ("Free", CostModel::Free),
            ("Slow", CostModel::Simulated(Duration::from_millis(2))),
        ] {
            let one = BlackBoxUdf::from_fn(name, 1, |x| x[0].sin()).with_cost(cost);
            let two = BlackBoxUdf::from_fn(format!("{name}2"), 2, |x| x[0] - x[1]).with_cost(cost);
            for (udf, domain) in [(one, vec![(0.0, 2.0)]), (two, vec![(0.0, 2.0); 2])] {
                ctx.udfs_mut().register(UdfEntry {
                    udf,
                    domain,
                    output_range: 2.0,
                    description: String::new(),
                });
            }
        }
        let tuples = vec![Tuple::new(vec![Value::Gaussian {
            mu: 1.0,
            sigma: 0.1,
        }])];
        ctx.register_relation("r", Relation::new(Schema::new(&["x"]), tuples).unwrap());
        ctx.register_stream("s", 1, || Box::new(SyntheticSource::gaussian(1, 0.4, 4)));
        ctx
    }

    fn strategy(ctx: &Context, statement: &str) -> EvalStrategy {
        match ctx.compile(statement).unwrap().physical {
            PhysicalPlan::Relation(p) => p.strategy,
            PhysicalPlan::Join(p) => p.strategy,
            PhysicalPlan::Stream(p) => p.strategy,
        }
    }

    /// `USING auto` (and no `USING` at all) binds by the §6.3 rules, the
    /// same way for every source: a free UDF to MC, a 2 ms one to GP.
    #[test]
    fn auto_strategy_resolves_by_cost() {
        let ctx = context();
        for (udf, want) in [("Free", EvalStrategy::Mc), ("Slow", EvalStrategy::Gp)] {
            for using in ["USING auto", ""] {
                for statement in [
                    format!("SELECT {udf}(x) FROM r {using}"),
                    format!("SELECT {udf}2(a.x, b.x) FROM r a JOIN r b {using}"),
                    format!("SELECT {udf}(x) FROM STREAM s {using} LIMIT 8"),
                ] {
                    assert_eq!(strategy(&ctx, &statement), want, "{statement}");
                }
            }
        }
        // An explicit strategy is never overridden.
        assert_eq!(
            strategy(&ctx, "SELECT Free(x) FROM STREAM s USING gp"),
            EvalStrategy::Gp
        );
        assert_eq!(
            strategy(&ctx, "SELECT Slow(x) FROM STREAM s USING mc"),
            EvalStrategy::Mc
        );
    }
}
