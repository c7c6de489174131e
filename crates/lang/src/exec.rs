//! Query execution: a [`Context`] of registered objects plus the
//! dispatcher that runs bound plans on the engine.
//!
//! Each statement builds its own [`BatchScheduler`] (its `GpModel` is new,
//! so predictor caches could not hit across statements anyway). Relation
//! queries run as one batch through [`Executor::select_batch`] /
//! [`Executor::project_batch`] — byte-identical results for any `WORKERS`
//! count. `JOIN` queries lower onto a [`udf_join::JoinExecutor`], which calls
//! the same batch operator on each `ON`-admitted pair (GP: warmup + main
//! rounds), byte-identical to the hand-built `cross_join` construction.
//! `FROM STREAM` queries subscribe a [`QuerySpec`] on a fresh [`Session`]
//! and drive it over the registered source, so a UQL stream query produces
//! exactly the determinism digest of the equivalent hand-built subscription.

use crate::ast::ExplainMode;
use crate::error::{LangError, Result};
use crate::parser::parse_statement;
use crate::plan::{bind, BoundQuery, JoinPlan, PhysicalPlan, RelPlan, StreamPlan};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use udf_core::batch::BatchCounts;
use udf_core::config::ModelBudget;
use udf_core::output::OutputDistribution;
use udf_core::sched::BatchScheduler;
use udf_join::{JoinExecutor, JoinSpec, JoinedPair};
use udf_obs::fmt::KvLine;
use udf_obs::{Histogram, MetricsRegistry, Snapshot};
use udf_query::{Executor, ProjectedTuple, Relation, UdfCall};
use udf_stream::{EngineConfig, KeptSummary, QuerySpec, Session, Source};
use udf_workloads::UdfCatalog;

/// A factory producing fresh instances of a registered stream source. Each
/// query run gets its own source, so repeated runs replay the same tuple
/// sequence (sources own their RNG seed).
type SourceFactory = Box<dyn Fn() -> Box<dyn Source>>;

/// Everything a UQL statement can reference by name: the UDF catalog,
/// finite relations, and stream-source factories.
pub struct Context {
    udfs: UdfCatalog,
    relations: BTreeMap<String, Relation>,
    streams: BTreeMap<String, (usize, SourceFactory)>,
    metrics: MetricsRegistry,
}

impl Context {
    /// An empty context (no UDFs, relations, or streams). Metrics are on
    /// by default — the handles are cheap enough to leave enabled (see
    /// `udf_obs`), and [`Context::metrics`]`.set_enabled(false)` turns
    /// every one of them into a no-op.
    pub(crate) fn new() -> Self {
        Context {
            udfs: UdfCatalog::new(),
            relations: BTreeMap::new(),
            streams: BTreeMap::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// A context pre-loaded with [`UdfCatalog::standard`] (`F1`–`F4`,
    /// `GalAge`, `ComoveVol`, `AngDist`).
    pub fn standard() -> Self {
        Context {
            udfs: UdfCatalog::standard(),
            ..Context::new()
        }
    }

    /// The UDF catalog.
    pub fn udfs(&self) -> &UdfCatalog {
        &self.udfs
    }

    /// Mutable access to the UDF catalog (for registering custom UDFs).
    pub fn udfs_mut(&mut self) -> &mut UdfCatalog {
        &mut self.udfs
    }

    /// Register (or replace) a named finite relation.
    pub fn register_relation(&mut self, name: impl Into<String>, rel: Relation) {
        self.relations.insert(name.into(), rel);
    }

    /// Look up a registered relation.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Registered relation names, sorted.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.keys().map(String::as_str).collect()
    }

    /// Register (or replace) a named stream source: `dim` is the tuple
    /// dimensionality every instance yields; `factory` builds a fresh
    /// source per query run.
    pub fn register_stream(
        &mut self,
        name: impl Into<String>,
        dim: usize,
        factory: impl Fn() -> Box<dyn Source> + 'static,
    ) {
        self.streams.insert(name.into(), (dim, Box::new(factory)));
    }

    /// Tuple dimensionality of a registered stream source.
    pub(crate) fn stream_dim(&self, name: &str) -> Option<usize> {
        self.streams.get(name).map(|(d, _)| *d)
    }

    /// Registered stream-source names, sorted.
    pub fn stream_names(&self) -> Vec<&str> {
        self.streams.keys().map(String::as_str).collect()
    }

    /// The context's metrics registry. Every statement run through this
    /// context records into it: `uql.*` phase timers, `sched.*` scheduler
    /// counters, `olgapro.*` model handles, `stream.*` engine timers, and
    /// `join.*` phase timers. Metrics never perturb results — digests are
    /// byte-identical with the registry enabled or disabled.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Parse, bind, and (unless `EXPLAIN`) execute one UQL statement.
    pub fn run(&mut self, src: &str) -> Result<QueryOutput> {
        run_uql(src, self)
    }

    /// Parse and bind a statement without executing (what `EXPLAIN`
    /// uses).
    pub fn compile(&self, src: &str) -> Result<BoundQuery> {
        let query = parse_statement(src)?;
        bind(&query, self)
    }
}

impl Default for Context {
    fn default() -> Self {
        Context::new()
    }
}

/// What a statement produced.
#[derive(Debug)]
pub enum QueryOutput {
    /// `EXPLAIN`: the rendered plan, nothing executed.
    Plan(String),
    /// A relation query's result set.
    Rows(RowsOutput),
    /// A θ-join query's result set.
    Join(JoinRowsOutput),
    /// A stream query's run summary.
    Stream(StreamOutput),
}

/// Result of a `JOIN` query.
#[derive(Debug)]
pub struct JoinRowsOutput {
    /// Kept pairs, in pair order.
    pub rows: Vec<JoinedPair>,
    /// The evaluated pairs' counter block (`in` counts the `ON`-admitted
    /// pairs).
    pub stats: BatchCounts,
    /// Wall-clock execution time (excluding parse/bind).
    pub elapsed: Duration,
}

/// Result of a one-shot relation query.
#[derive(Debug)]
pub struct RowsOutput {
    /// Kept rows, in source-tuple order.
    pub rows: Vec<ProjectedTuple>,
    /// Executor counters.
    pub stats: BatchCounts,
    /// Wall-clock execution time (excluding parse/bind).
    pub elapsed: Duration,
}

/// Result of a bounded stream query.
#[derive(Debug)]
pub struct StreamOutput {
    /// The subscription's counters.
    pub stats: BatchCounts,
    /// Micro-batches the run dispatched.
    pub batches: u64,
    /// Wall-clock run time (excluding parse/bind).
    pub elapsed: Duration,
    /// Determinism digest over every emitted distribution and decision.
    pub digest: u64,
    /// The subscription's most recent emitted tuples.
    pub recent: Vec<KeptSummary>,
}

impl QueryOutput {
    /// Human-readable report (what the REPL prints).
    pub fn report(&self) -> String {
        match self {
            QueryOutput::Plan(p) => p.clone(),
            QueryOutput::Rows(r) => listing("row(s)", r.elapsed, &r.stats, &r.rows, |row| {
                (format!("{:<6}", row.source), &row.output, row.tep)
            }),
            QueryOutput::Join(r) => listing("pair(s)", r.elapsed, &r.stats, &r.rows, |row| {
                let id = format!("({:<4},{:<4})", row.left, row.right);
                (id, &row.output, row.tep)
            }),
            QueryOutput::Stream(o) => format!(
                "stream run: {} tuple(s), {} batch(es) in {:.2?}\n  [{}]\n  digest=0x{:016x}\n",
                o.stats.tuples_in, o.batches, o.elapsed, o.stats, o.digest,
            ),
        }
    }
}

/// A report: the count of `rows`, their time and counters, then the first
/// ten rows (each labelled by the id `row` gives it) and a count of the rest.
fn listing<'r, T>(
    noun: &str,
    elapsed: Duration,
    stats: &BatchCounts,
    rows: &'r [T],
    row: impl Fn(&'r T) -> (String, &'r OutputDistribution, f64),
) -> String {
    const SHOW: usize = 10;
    let mut s = format!("{} {noun} in {elapsed:.2?}  [{stats}]\n", rows.len());
    for r in rows.iter().take(SHOW) {
        let (id, output, tep) = row(r);
        s.push_str(&format!(
            "  #{id} median={:<12.6} err≤{:<8.4} tep={:.3}\n",
            output.ecdf.quantile(0.5),
            output.error_bound,
            tep,
        ));
    }
    if rows.len() > SHOW {
        s.push_str(&format!("  … {} more\n", rows.len() - SHOW));
    }
    s
}

/// The one-shot facade: parse, bind, and execute one UQL statement
/// against `ctx`.
///
/// Every statement runs the full `Parse → Bind → Exec` pipeline, with each
/// phase timed (`uql.parse_ns` / `uql.bind_ns` / `uql.exec_ns`);
/// `EXPLAIN` stops after binding, `EXPLAIN ANALYZE` executes and annotates
/// the plan.
pub fn run_uql(src: &str, ctx: &Context) -> Result<QueryOutput> {
    let reg = ctx.metrics.clone();
    let (query, parse_time) = timed(&reg.histogram("uql.parse_ns"), || parse_statement(src));
    let query = query?;
    let (bound, bind_time) = timed(&reg.histogram("uql.bind_ns"), || bind(&query, ctx));
    let bound = bound?;
    if query.explain == ExplainMode::Plan {
        return Ok(QueryOutput::Plan(bound.explain()));
    }
    // For ANALYZE, attribute this statement's metrics via a snapshot
    // window around execution.
    let before = (query.explain == ExplainMode::Analyze).then(|| reg.snapshot());
    let out = reg
        .histogram("uql.exec_ns")
        .time(|| match &bound.physical {
            PhysicalPlan::Relation(p) => exec_relation(p, ctx),
            PhysicalPlan::Join(p) => exec_join(p, ctx),
            PhysicalPlan::Stream(p) => exec_stream(p, ctx),
        })?;
    if let Some(before) = before {
        let delta = reg.snapshot().delta(&before);
        return Ok(QueryOutput::Plan(annotate_analyze(
            &bound, &out, delta, parse_time, bind_time,
        )));
    }
    Ok(out)
}

/// Run `f`, record its wall time in `hist`, and return both. The clock is
/// read even when `hist` is disabled: `EXPLAIN ANALYZE` prints the
/// statement's own parse and bind times, not the registry's.
fn timed<T>(hist: &Histogram, f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    let elapsed = t0.elapsed();
    hist.record_duration(elapsed);
    (out, elapsed)
}

/// The `EXPLAIN ANALYZE` rendering: the executed plan, a per-operator
/// line with elapsed time, routing counters and the statement's own
/// `parse`/`bind` times — for GP statements also `tuning_extends`, the
/// tuning-loop inferences that grew the tuple's retained kernel rows
/// instead of rebuilding them — then the metrics-registry delta of its
/// execution. Histograms that recorded nothing in the window are left
/// out (a delta keeps the lifetime maximum, which would otherwise print
/// beside a zero count).
fn annotate_analyze(
    bound: &BoundQuery,
    out: &QueryOutput,
    mut delta: Snapshot,
    parse_time: Duration,
    bind_time: Duration,
) -> String {
    let op = match out {
        // Unreachable in practice (ANALYZE always executes), but degrade
        // to the plain report rather than panicking.
        QueryOutput::Plan(_) => return out.report(),
        QueryOutput::Rows(r) => KvLine::new()
            .raw(&format!("  BatchExec: time={:.2?}", r.elapsed))
            .field("rows", r.rows.len())
            .raw(&r.stats.to_string()),
        QueryOutput::Join(r) => KvLine::new()
            .raw(&format!("  JoinExec: time={:.2?}", r.elapsed))
            .raw(&r.stats.to_string()),
        QueryOutput::Stream(o) => KvLine::new()
            .raw(&format!("  StreamExec: time={:.2?}", o.elapsed))
            .field("batches", o.batches)
            .raw(&o.stats.to_string())
            .raw(&format!("digest=0x{:016x}", o.digest)),
    };
    let mut op = op.raw(&format!("parse={parse_time:.2?} bind={bind_time:.2?}"));
    if let Some(extends) = delta.counters.get("olgapro.tuning_extends") {
        op = op.field("tuning_extends", extends);
    }
    delta.histograms.retain(|_, h| h.count > 0);
    let mut s = bound.explain();
    s.push_str("Execution (ANALYZE):\n");
    s.push_str(&op.finish());
    s.push('\n');
    s.push_str("Metrics delta for this statement:\n");
    for line in delta.render().lines() {
        s.push_str("  ");
        s.push_str(line);
        s.push('\n');
    }
    s
}

/// A bound plan references a catalog name that no longer resolves. Can't
/// happen through `run_uql` (it binds and executes against one catalog),
/// but a caller holding a stale [`PhysicalPlan`] gets a bind-stage-style
/// error, never a panic.
fn stale_name(kind: &str, name: &str) -> LangError {
    LangError::Exec(format!(
        "{kind} `{name}` is no longer registered (stale plan; bind the statement again)"
    ))
}

fn exec_relation(p: &RelPlan, ctx: &Context) -> Result<QueryOutput> {
    let rel = ctx
        .relations
        .get(&p.relation)
        .ok_or_else(|| stale_name("relation", &p.relation))?;
    let metrics = &ctx.metrics;
    let sched = BatchScheduler::new(p.workers).with_metrics(metrics);
    let args: Vec<&str> = p.args.iter().map(String::as_str).collect();
    let call = UdfCall::resolve(p.udf.clone(), rel.schema(), &args)?;
    let mut executor = Executor::new(p.strategy, p.accuracy, &call, p.output_range)?
        .with_model_cap(p.model_cap, ModelBudget::StopGrowing)?
        .with_metrics(metrics);
    let t0 = Instant::now();
    let rows = match &p.predicate {
        Some(pred) => executor.select_batch(rel, &call, pred, &sched, p.seed)?,
        None => executor.project_batch(rel, &call, &sched, p.seed)?,
    };
    Ok(QueryOutput::Rows(RowsOutput {
        rows,
        stats: executor.stats(),
        elapsed: t0.elapsed(),
    }))
}

fn exec_join(p: &JoinPlan, ctx: &Context) -> Result<QueryOutput> {
    let left = ctx
        .relations
        .get(&p.left)
        .ok_or_else(|| stale_name("relation", &p.left))?;
    let right = ctx
        .relations
        .get(&p.right)
        .ok_or_else(|| stale_name("relation", &p.right))?;
    let metrics = &ctx.metrics;
    let sched = BatchScheduler::new(p.workers).with_metrics(metrics);
    let args: Vec<(udf_join::Side, &str)> = p.args.iter().map(|(s, c)| (*s, c.as_str())).collect();
    let mut spec = JoinSpec::new(
        left,
        p.left_alias.clone(),
        right,
        p.right_alias.clone(),
        p.udf.clone(),
        &args,
        p.accuracy,
        p.output_range,
    )?
    .strategy(p.strategy)
    .seed(p.seed)
    .model_cap(p.model_cap);
    if let Some(pred) = p.predicate {
        spec = spec.predicate(pred);
    }
    if let Some(((ls, lc), (rs, rc))) = &p.on {
        spec = spec.on_less_than((*ls, lc), (*rs, rc))?;
    }
    let t0 = Instant::now();
    let mut executor = JoinExecutor::new(&spec)?.with_metrics(metrics);
    let out = executor.run(&sched)?;
    Ok(QueryOutput::Join(JoinRowsOutput {
        rows: out.rows,
        stats: out.stats,
        elapsed: t0.elapsed(),
    }))
}

fn exec_stream(p: &StreamPlan, ctx: &Context) -> Result<QueryOutput> {
    if p.limit.is_none() {
        return Err(LangError::Exec(
            "stream query has no LIMIT and UQL sources may be unbounded; \
             add `LIMIT n` to bound the run"
                .to_string(),
        ));
    }
    let (_, factory) = ctx
        .streams
        .get(&p.source)
        .ok_or_else(|| stale_name("stream source", &p.source))?;
    let source = factory();
    let mut session = Session::new(
        EngineConfig::new()
            .workers(p.workers)
            .batch_size(p.batch)
            .seed(p.seed),
    )
    .with_metrics(&ctx.metrics);
    let mut spec = QuerySpec::new(
        format!("uql:{}@{}", p.udf.name(), p.source),
        p.udf.clone(),
        p.accuracy,
        p.strategy,
    )
    .output_range(p.output_range)
    .max_model_points(p.model_cap);
    if let Some(pred) = p.predicate {
        spec = spec.predicate(pred);
    }
    let id = session.subscribe(spec)?;
    let t0 = Instant::now();
    let batches = session.run(source, p.limit)?;
    let elapsed = t0.elapsed();
    Ok(QueryOutput::Stream(StreamOutput {
        stats: *session.stats(id)?,
        batches,
        elapsed,
        digest: session.digest(id)?,
        recent: session.recent(id)?,
    }))
}
