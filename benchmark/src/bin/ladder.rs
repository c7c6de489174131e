//! `udf-bench-ladder` — the traced run: per-layer numbers of one workload.
//!
//! The engine carries no tracing for this; the ladder drives the first
//! pass's statements through successively lower public APIs and brackets
//! every call with a span:
//!
//! * **rung A** `run_uql`;
//! * **rung B** the operator the physical plan lowers to, built by hand
//!   from [`Context::compile`]'s binding (`Executor`, `JoinExecutor`,
//!   `Session`);
//! * **rung C** the benchmark's own [`BatchOps`] over [`Olgapro`]
//!   (`fast` → `infer_only_with`, `slow` → `process`/`gp_filtered`) or
//!   `mc_eval_tuple`, under [`BatchScheduler`];
//! * **rung D** the fast path replayed call by call on a block of tuples
//!   against rung C's model, and the model's write calls on clones;
//! * **rung E** the `linalg`/`spatial` kernels at the sizes seen.
//!
//! Every rung must reproduce the digest of the rung above bit for bit
//! before its times count — otherwise it measures a different program.
//! Layer self times telescope: `lang = A − B`, operator `= B −` what rung
//! C's scheduler and evaluator spans cover, `sched` = its spans minus its
//! callbacks, evaluator = its spans; they sum to rung A by construction.
//!
//! Spans are kept in memory and written to `out/trace-<workload>.json`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;
use udf_benchmark::cli::{self, result_line};
use udf_benchmark::env;
use udf_benchmark::json::{arr, Obj};
use udf_benchmark::metrics::PER_LAYER;
use udf_benchmark::spans::{durations_ns, self_times_ns, Recorder, Span};
use udf_benchmark::stats::{median, percentile};
use udf_benchmark::workloads::{outcome, Fnv, Kind, Scale, Session, Workload};
use udf_core::config::{ModelBudget, OlgaproConfig};
use udf_core::error_bound::{envelope_ecdfs, lambda_discrepancy_bound};
use udf_core::filtering::{gp_filtered, mc_eval_tuple, FilterDecision, Predicate};
use udf_core::olgapro::{InferScratch, Olgapro};
use udf_core::output::GpOutput;
use udf_core::sched::{mix_seed, BatchOps, BatchScheduler, Verdict};
use udf_core::udf::BlackBoxUdf;
use udf_core::AccuracyRequirement;
use udf_gp::band::simultaneous_z;
use udf_gp::local::select_local_with;
use udf_gp::model::Prediction;
use udf_gp::train::{should_retrain, train, TrainConfig};
use udf_gp::{GpModel, LocalPredictorCache, PredictScratch, SelectScratch};
use udf_join::{warmup_indices, JoinAttr, JoinExecutor, JoinSpec, OnCondition, Side};
use udf_lang::{parse_statement, PhysicalPlan};
use udf_linalg::{Cholesky, Matrix};
use udf_prob::{Ecdf, InputDistribution};
use udf_query::{Executor, UdfCall};
use udf_spatial::{BoundingBox, RTree};
use udf_stream::health::{DEFAULT_CAPACITY, DEFAULT_SAMPLE_EVERY};
use udf_stream::{AstroSource, EngineConfig, HealthMonitor, QuerySpec, StreamStrategy};

/// Tuples the fast-path replay (rung D) walks: a consecutive block, so the
/// predictor cache sees the neighbour-to-neighbour reuse the engine sees.
const REPLAY_TUPLES: usize = 256;

/// Repetitions of the model write calls and kernels in rungs D and E.
const KERNEL_REPS: usize = 9;

/// Median of nanosecond samples in microseconds; 0 when the layer was
/// never entered.
fn p50_us(ns: &[f64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        median(ns) / 1e3
    }
}

fn total_ms(ns: &[f64]) -> f64 {
    ns.iter().sum::<f64>() / 1e6
}

/// One emitted or filtered item of a hand-driven rung.
enum Item {
    Kept {
        id: usize,
        tep: f64,
        error_bound: f64,
        udf_calls: u64,
        values: Vec<f64>,
    },
    Filtered {
        id: usize,
        rho_upper: f64,
    },
}

/// The relational digest (`Fnv::row` over kept rows in id order) — what
/// `workloads::outcome` computes from `run_uql`'s rows.
fn rows_digest(items: &mut [Item]) -> (usize, u64) {
    items.sort_by_key(|it| match it {
        Item::Kept { id, .. } | Item::Filtered { id, .. } => *id,
    });
    let mut fnv = Fnv::default();
    let mut rows = 0;
    for it in items.iter() {
        if let Item::Kept {
            id,
            tep,
            error_bound,
            udf_calls,
            values,
        } = it
        {
            fnv.row(*id, *tep, *error_bound, *udf_calls, values);
            rows += 1;
        }
    }
    (rows, fnv.0)
}

/// The stream engine's digest: every decision in stream order.
fn stream_digest(items: &[Item]) -> (usize, u64) {
    let mut fnv = Fnv::default();
    let mut kept = 0;
    for it in items {
        match it {
            Item::Kept {
                id, tep, values, ..
            } => {
                fnv.word(*id as u64);
                fnv.word(1);
                fnv.float(*tep);
                fnv.values(values);
                kept += 1;
            }
            Item::Filtered { id, rho_upper } => {
                fnv.word(*id as u64);
                fnv.word(0);
                fnv.float(*rho_upper);
            }
        }
    }
    (kept, fnv.0)
}

/// The benchmark's own two-phase adapter over one [`Olgapro`]: what
/// `udf_query`, `udf_join` and `udf_stream` each wrap around the evaluator,
/// reduced to the calls being timed.
struct GpOps<'a> {
    olga: &'a mut Olgapro,
    /// `(global id, input)`; the id seeds the tuple and labels its row.
    inputs: &'a [(usize, InputDistribution)],
    predicate: Option<Predicate>,
    seed: u64,
    budget: f64,
    items: &'a mut Vec<Item>,
    counts: &'a mut Counts,
    rec: &'a Mutex<Recorder>,
}

/// Routing and tuning counters of rung C.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    tuples: u64,
    rerouted: u64,
    filtered: u64,
    slow: u64,
    points_added: u64,
    retrains: u64,
}

impl GpOps<'_> {
    fn keep(&mut self, idx: usize, out: GpOutput, tep: f64) {
        self.items.push(Item::Kept {
            id: self.inputs[idx].0,
            tep,
            error_bound: out.error_bound(),
            udf_calls: out.udf_calls,
            values: out.y_hat.values().to_vec(),
        });
    }
}

/// Bracket `f` with a span on a shared recorder.
fn spanned<T>(
    rec: &Mutex<Recorder>,
    name: &'static str,
    layer: &'static str,
    item: Option<u32>,
    f: impl FnOnce() -> T,
) -> T {
    let token = rec.lock().expect("recorder").begin(name, layer, item);
    let out = f();
    rec.lock().expect("recorder").end(token);
    out
}

impl BatchOps for GpOps<'_> {
    fn tuple_seed(&self, idx: usize) -> u64 {
        // Stream word 0: single-query callers, and the one subscription of
        // a UQL stream statement (query id 0).
        mix_seed(self.seed, 0, self.inputs[idx].0 as u64)
    }

    fn needs_bootstrap(&self) -> bool {
        self.olga.model().is_empty()
    }

    fn fast(
        &self,
        idx: usize,
        rng: &mut StdRng,
        scratch: &mut InferScratch,
    ) -> udf_core::Result<GpOutput> {
        let (id, input) = &self.inputs[idx];
        spanned(
            self.rec,
            "infer_only_with",
            "olgapro",
            Some(*id as u32),
            || self.olga.infer_only_with(input, rng, scratch),
        )
    }

    fn accept(&self, _idx: usize, out: &GpOutput) -> Verdict {
        if let Some(pred) = self.predicate {
            let (_, _, rho_u) = out.tep_bounds(pred.lo, pred.hi);
            if rho_u < pred.theta {
                return Verdict::Filter { rho_upper: rho_u };
            }
        }
        if out.eps_gp <= self.budget || self.olga.model_full() {
            Verdict::Accept
        } else {
            Verdict::Reroute
        }
    }

    fn emit_fast(&mut self, idx: usize, out: GpOutput) -> udf_core::Result<()> {
        self.counts.tuples += 1;
        if out.eps_gp > self.budget {
            self.olga.note_cap_hit();
        }
        let tep = self.predicate.map_or(1.0, |p| out.tep_bounds(p.lo, p.hi).1);
        self.keep(idx, out, tep);
        Ok(())
    }

    fn emit_filtered(&mut self, idx: usize, rho_upper: f64) -> udf_core::Result<()> {
        self.counts.tuples += 1;
        self.counts.filtered += 1;
        self.items.push(Item::Filtered {
            id: self.inputs[idx].0,
            rho_upper,
        });
        Ok(())
    }

    fn slow(&mut self, idx: usize, rng: &mut StdRng) -> udf_core::Result<()> {
        self.counts.tuples += 1;
        self.counts.rerouted += 1;
        slow_tuple(self, idx, rng)
    }
}

/// The full model-mutating path of one tuple (`process`, or `gp_filtered`
/// when the statement has a `WHERE`), bracketed as one `process` span.
fn slow_tuple(ops: &mut GpOps<'_>, idx: usize, rng: &mut StdRng) -> udf_core::Result<()> {
    let (id, input) = &ops.inputs[idx];
    let decision = spanned(
        ops.rec,
        "process",
        "olgapro",
        Some(*id as u32),
        || match ops.predicate {
            Some(pred) => gp_filtered(ops.olga, input, &pred, rng),
            None => ops
                .olga
                .process(input, rng)
                .map(|out| FilterDecision::Kept {
                    output: out,
                    tep: 1.0,
                }),
        },
    )?;
    ops.counts.slow += 1;
    match decision {
        FilterDecision::Kept { output, tep } => {
            ops.counts.points_added += output.points_added as u64;
            ops.counts.retrains += u64::from(output.retrained);
            ops.keep(idx, output, tep);
        }
        FilterDecision::Filtered { rho_upper, .. } => {
            ops.counts.filtered += 1;
            ops.items.push(Item::Filtered { id: *id, rho_upper });
        }
    }
    Ok(())
}

/// What the ladder needs from one statement's physical plan.
struct Bound {
    /// The instance the statement belongs to.
    sub_seed: u64,
    udf: BlackBoxUdf,
    accuracy: AccuracyRequirement,
    output_range: f64,
    predicate: Option<Predicate>,
    seed: u64,
    model_cap: usize,
    gp: bool,
    batch: usize,
    plan: PhysicalPlan,
}

fn bind(workload: &Workload, session: &mut Session, sub_seed: u64) -> Result<Bound, String> {
    session.load(workload, sub_seed);
    let plan = session
        .ctx
        .compile(&workload.statement(sub_seed, false))
        .map_err(|e| format!("compile: {e}"))?
        .physical;
    Ok(match &plan {
        PhysicalPlan::Relation(p) => Bound {
            sub_seed,
            udf: p.udf.clone(),
            accuracy: p.accuracy,
            output_range: p.output_range,
            predicate: p.predicate,
            seed: p.seed,
            model_cap: p.model_cap,
            gp: p.strategy == udf_query::EvalStrategy::Gp,
            batch: 0,
            plan,
        },
        PhysicalPlan::Join(p) => Bound {
            sub_seed,
            udf: p.udf.clone(),
            accuracy: p.accuracy,
            output_range: p.output_range,
            predicate: p.predicate,
            seed: p.seed,
            model_cap: p.model_cap,
            gp: p.strategy == udf_query::EvalStrategy::Gp,
            batch: 0,
            plan,
        },
        PhysicalPlan::Stream(p) => Bound {
            sub_seed,
            udf: p.udf.clone(),
            accuracy: p.accuracy,
            output_range: p.output_range,
            predicate: p.predicate,
            seed: p.seed,
            model_cap: p.model_cap,
            gp: p.strategy == StreamStrategy::Gp,
            batch: p.batch,
            plan,
        },
    })
}

/// Rung B: run the operator the plan lowers to, by hand. Returns
/// `(rows, digest)` in `workloads::outcome`'s terms; records the operator
/// call as a span and the whole construction as its parent.
fn rung_b(
    workload: &Workload,
    session: &Session,
    b: &Bound,
    sched: &BatchScheduler,
    rec: &Mutex<Recorder>,
) -> Result<(usize, u64), String> {
    let err = |e: &dyn std::fmt::Display| format!("rung B: {e}");
    match &b.plan {
        PhysicalPlan::Relation(p) => spanned(rec, "exec_relation", "query", None, || {
            let rel = session.ctx.relation(&p.relation).ok_or("relation gone")?;
            let args: Vec<&str> = p.args.iter().map(String::as_str).collect();
            let call = UdfCall::resolve(p.udf.clone(), rel.schema(), &args).map_err(|e| err(&e))?;
            let mut ex = Executor::new(p.strategy, p.accuracy, &call, p.output_range)
                .and_then(|ex| ex.with_model_cap(p.model_cap, ModelBudget::StopGrowing))
                .map_err(|e| err(&e))?;
            let rows = spanned(rec, "select_batch", "query", None, || match &p.predicate {
                Some(pred) => ex.select_batch(rel, &call, pred, sched, p.seed),
                None => ex.project_batch(rel, &call, sched, p.seed),
            })
            .map_err(|e| err(&e))?;
            let mut fnv = Fnv::default();
            for r in &rows {
                let o = &r.output;
                fnv.row(r.source, r.tep, o.error_bound, o.udf_calls, o.ecdf.values());
            }
            Ok((rows.len(), fnv.0))
        }),
        PhysicalPlan::Join(p) => spanned(rec, "exec_join", "join", None, || {
            let left = session.ctx.relation(&p.left).ok_or("relation gone")?;
            let right = session.ctx.relation(&p.right).ok_or("relation gone")?;
            let args: Vec<(Side, &str)> = p.args.iter().map(|(s, c)| (*s, c.as_str())).collect();
            let mut spec = JoinSpec::new(
                left,
                p.left_alias.clone(),
                right,
                p.right_alias.clone(),
                p.udf.clone(),
                &args,
                p.accuracy,
                p.output_range,
            )
            .map_err(|e| err(&e))?
            .strategy(p.strategy)
            .prune(p.prune)
            .seed(p.seed)
            .model_cap(p.model_cap);
            if let Some(pred) = p.predicate {
                spec = spec.predicate(pred);
            }
            if let Some(((ls, lc), (rs, rc))) = &p.on {
                let attr = |side: Side, col: &str| -> Result<JoinAttr, String> {
                    let rel = if side == Side::Left { left } else { right };
                    Ok(JoinAttr {
                        side,
                        index: rel.schema().index_of(col).map_err(|e| err(&e))?,
                        name: col.to_string(),
                    })
                };
                spec = spec.on(OnCondition {
                    lhs: attr(*ls, lc)?,
                    rhs: attr(*rs, rc)?,
                });
            }
            let mut ex = JoinExecutor::new(&spec).map_err(|e| err(&e))?;
            let out = spanned(rec, "JoinExecutor::run", "join", None, || ex.run(sched))
                .map_err(|e| err(&e))?;
            let mut fnv = Fnv::default();
            for r in &out.rows {
                let o = &r.output;
                fnv.row(r.pair, r.tep, o.error_bound, o.udf_calls, o.ecdf.values());
            }
            Ok((out.rows.len(), fnv.0))
        }),
        PhysicalPlan::Stream(p) => spanned(rec, "exec_stream", "stream", None, || {
            let catalog = workload.catalog(b.sub_seed).ok_or("no stream catalog")?;
            let mut s = udf_stream::Session::new(
                EngineConfig::new()
                    .workers(p.workers)
                    .batch_size(p.batch)
                    .seed(p.seed),
            )
            .with_health(HealthMonitor::new(DEFAULT_SAMPLE_EVERY, DEFAULT_CAPACITY));
            let mut spec = QuerySpec::new("ladder", p.udf.clone(), p.accuracy, p.strategy)
                .output_range(p.output_range)
                .max_model_points(p.model_cap);
            if let Some(pred) = p.predicate {
                spec = spec.predicate(pred);
            }
            let id = s.subscribe(spec).map_err(|e| err(&e))?;
            let source = AstroSource::galage(catalog);
            spanned(rec, "Session::run", "stream", None, || {
                s.run(source, p.limit)
            })
            .map_err(|e| err(&e))?;
            let stats = s.stats(id).map_err(|e| err(&e))?;
            // `workloads::outcome` folds the engine digest with the counts.
            let mut fnv = Fnv::default();
            fnv.word(s.digest(id).map_err(|e| err(&e))?);
            fnv.word(stats.kept);
            fnv.word(stats.filtered);
            Ok((stats.kept as usize, fnv.0))
        }),
    }
}

/// What rung C leaves behind for rungs D and E.
struct RungC {
    rows: usize,
    digest: u64,
    counts: Counts,
    /// The evaluator after the statement (GP statements).
    olga: Option<Olgapro>,
    /// MC bookkeeping: `(udf calls, stopped early)` per tuple.
    mc: Vec<(u64, bool)>,
}

/// The `(global id, input)` list of the listed items of one instance, from
/// its generated rows (the same marginals the engine builds from the
/// relation or the stream source).
fn item_inputs(
    workload: &Workload,
    rows: &[(f64, f64)],
    items: impl Iterator<Item = usize>,
) -> Vec<(usize, InputDistribution)> {
    items
        .map(|k| {
            let input = InputDistribution::diagonal_gaussian(&workload.item_input(rows, k))
                .expect("generated inputs have positive spread");
            (k, input)
        })
        .collect()
}

/// Rung C: the statement's evaluation driven through the scheduler by the
/// benchmark's own adapter.
fn rung_c(
    workload: &Workload,
    b: &Bound,
    inputs: &[(usize, InputDistribution)],
    sched: &BatchScheduler,
    rec: &Mutex<Recorder>,
) -> Result<RungC, String> {
    let err = |e: &dyn std::fmt::Display| format!("rung C: {e}");
    let mut items: Vec<Item> = Vec::with_capacity(inputs.len());
    let mut counts = Counts::default();
    if !b.gp {
        // One parallel map of `mc_eval_tuple`, like every MC back end.
        let results = spanned(rec, "try_map", "sched", None, || {
            sched.try_map(inputs.len(), |i| {
                let (id, input) = &inputs[i];
                let mut rng = StdRng::seed_from_u64(mix_seed(b.seed, 0, *id as u64));
                spanned(rec, "mc_eval_tuple", "mc", Some(*id as u32), || {
                    mc_eval_tuple(&b.udf, input, &b.accuracy, b.predicate.as_ref(), &mut rng)
                })
            })
        })
        .map_err(|e| err(&e))?;
        let full = b.accuracy.mc_samples() as u64;
        let mut mc = Vec::with_capacity(inputs.len());
        for ((id, _), res) in inputs.iter().zip(results) {
            counts.tuples += 1;
            match res.map_err(|e| err(&e))? {
                FilterDecision::Kept { output, tep } => {
                    mc.push((output.udf_calls, output.udf_calls < full));
                    items.push(Item::Kept {
                        id: *id,
                        tep,
                        error_bound: output.error_bound,
                        udf_calls: output.udf_calls,
                        values: output.ecdf.values().to_vec(),
                    });
                }
                FilterDecision::Filtered {
                    rho_upper,
                    udf_calls,
                } => {
                    counts.filtered += 1;
                    mc.push((udf_calls, udf_calls < full));
                    items.push(Item::Filtered { id: *id, rho_upper });
                }
            }
        }
        let (rows, digest) = rows_digest(&mut items);
        return Ok(RungC {
            rows,
            digest,
            counts,
            olga: None,
            mc,
        });
    }

    let cfg = OlgaproConfig::new(b.accuracy, b.output_range)
        .and_then(|c| c.with_model_cap(b.model_cap, ModelBudget::StopGrowing))
        .map_err(|e| err(&e))?;
    let budget = cfg.split().eps_gp;
    let mut olga = Olgapro::new(b.udf.clone(), cfg);
    let ops = |olga: &mut Olgapro,
               inputs: &[(usize, InputDistribution)],
               items: &mut Vec<Item>,
               counts: &mut Counts|
     -> Result<(), String> {
        let n = inputs.len();
        let mut ops = GpOps {
            olga,
            inputs,
            predicate: b.predicate,
            seed: b.seed,
            budget,
            items,
            counts,
            rec,
        };
        spanned(rec, "run_two_phase", "sched", None, || {
            sched.run_two_phase(&mut ops, n)
        })
        .map(|_| ())
        .map_err(|e| err(&e))
    };
    let (rows, digest) = match workload.kind {
        Kind::StreamGpWarm => {
            // The engine's micro-batches, in stream order, on one model.
            for batch in inputs.chunks(b.batch) {
                ops(&mut olga, batch, &mut items, &mut counts)?;
            }
            let (kept, d) = stream_digest(&items);
            let mut fnv = Fnv::default();
            fnv.word(d);
            fnv.word(kept as u64);
            fnv.word(counts.filtered);
            (kept, fnv.0)
        }
        Kind::Q2JoinGp => {
            // Warmup round: strided pairs through the full path, one after
            // the other; then everything else as one two-phase batch.
            // (`InputDistribution` is not `Clone`: the rounds are rebuilt.)
            let warm = warmup_indices(inputs.len());
            let rows = workload.rows(b.sub_seed);
            let in_warm = |k: &usize| warm.binary_search(k).is_ok();
            let warm_inputs = item_inputs(workload, &rows, warm.iter().copied());
            let main = item_inputs(workload, &rows, (0..inputs.len()).filter(|k| !in_warm(k)));
            {
                let mut w = GpOps {
                    olga: &mut olga,
                    inputs: &warm_inputs,
                    predicate: b.predicate,
                    seed: b.seed,
                    budget,
                    items: &mut items,
                    counts: &mut counts,
                    rec,
                };
                for idx in 0..warm_inputs.len() {
                    let mut rng = StdRng::seed_from_u64(w.tuple_seed(idx));
                    w.counts.tuples += 1;
                    slow_tuple(&mut w, idx, &mut rng).map_err(|e| err(&e))?;
                }
            }
            ops(&mut olga, &main, &mut items, &mut counts)?;
            rows_digest(&mut items)
        }
        _ => {
            ops(&mut olga, inputs, &mut items, &mut counts)?;
            rows_digest(&mut items)
        }
    };
    Ok(RungC {
        rows,
        digest,
        counts,
        olga: Some(olga),
        mc: Vec::new(),
    })
}

/// Rung D, read path: `infer_only_with` replayed call by call on a block of
/// tuples against rung C's final model. Each replay must reproduce the
/// evaluator's own output for the tuple bit for bit. Returns the cache hit
/// share and the wall clock of the whole calls (ns), for the unattributed
/// share.
fn replay_fast_path(
    olga: &Olgapro,
    b: &Bound,
    inputs: &[(usize, InputDistribution)],
    rec: &mut Recorder,
) -> Result<(f64, f64), String> {
    let cfg = olga.config();
    let split = cfg.split();
    let m = cfg.samples_per_input();
    let model = olga.model();
    let mut samples: Vec<Vec<f64>> = Vec::new();
    let mut select = SelectScratch::default();
    let mut predict = PredictScratch::default();
    let mut cache = LocalPredictorCache::new();
    let mut preds: Vec<Prediction> = Vec::new();
    let mut whole_scratch = InferScratch::default();
    let mut whole_ns = 0.0;
    for (id, input) in inputs.iter().take(REPLAY_TUPLES) {
        let item = Some(*id as u32);
        let seed = mix_seed(b.seed, 0, *id as u64);
        // The evaluator's own call, for the reference bits and the total.
        let t0 = Instant::now();
        let want = olga
            .infer_only_with(input, &mut StdRng::seed_from_u64(seed), &mut whole_scratch)
            .map_err(|e| format!("rung D: {e}"))?;
        whole_ns += t0.elapsed().as_nanos() as f64;

        let mut rng = StdRng::seed_from_u64(seed);
        let root = rec.begin("fast_replay", "olgapro", item);
        let t = rec.begin("sample_n_into", "prob", item);
        input.sample_n_into(&mut rng, m, &mut samples);
        rec.end(t);
        let t = rec.begin("BoundingBox::from_points", "spatial", item);
        let bbox = BoundingBox::from_points(samples.iter().map(|s| s.as_slice()));
        rec.end(t);
        let t = rec.begin("simultaneous_z", "gp", item);
        let z = simultaneous_z(model.kernel(), &bbox, split.delta_gp);
        rec.end(t);
        let t = rec.begin("select_local_with", "gp", item);
        let selected = select_local_with(model, &bbox, cfg.gamma, &mut select);
        rec.end(t);
        let local = match selected {
            Ok(_) => !select.selected.is_empty(),
            Err(udf_gp::GpError::InvalidParameter { .. }) => false,
            Err(e) => return Err(format!("rung D: {e}")),
        };
        if local {
            let t = rec.begin("get_or_build", "gp", item);
            let built = cache.get_or_build(model, &select.selected);
            rec.end(t);
            let (lp, _) = built.map_err(|e| format!("rung D: {e}"))?;
            let t = rec.begin("predict_batch_with", "gp", item);
            let done = lp.predict_batch_with(&samples, &mut predict, &mut preds);
            rec.end(t);
            done.map_err(|e| format!("rung D: {e}"))?;
        } else {
            let t = rec.begin("predict_batch_with", "gp", item);
            let done = model.predict_batch_with(&samples, &mut predict, &mut preds);
            rec.end(t);
            done.map_err(|e| format!("rung D: {e}"))?;
        }
        let means: Vec<f64> = preds.iter().map(|p| p.mean).collect();
        let sds: Vec<f64> = preds.iter().map(|p| p.var.sqrt()).collect();
        // The evaluator builds the envelopes twice: once for the bound,
        // once for the output it returns.
        let mut envelopes = None;
        for _ in 0..2 {
            let t = rec.begin("envelope_ecdfs", "bound", item);
            envelopes = Some(envelope_ecdfs(&means, &sds, z));
            rec.end(t);
        }
        let (y_hat, y_s, y_l) = envelopes
            .expect("two rounds ran")
            .map_err(|e| format!("rung D: {e}"))?;
        let t = rec.begin("lambda_discrepancy_bound", "bound", item);
        let eps_gp = lambda_discrepancy_bound(&y_hat, &y_s, &y_l, cfg.accuracy.lambda);
        rec.end(t);
        rec.end(root);
        if eps_gp.to_bits() != want.eps_gp.to_bits() || y_hat.values() != want.y_hat.values() {
            return Err(format!(
                "rung D: replay of tuple {id} differs from infer_only_with \
                 (eps_gp {eps_gp} vs {})",
                want.eps_gp
            ));
        }
    }
    let (hits, misses) = cache.stats();
    let share = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    Ok((share, whole_ns))
}

/// Wall clock (ns) of `f`, `KERNEL_REPS` times over fresh state from `make`.
fn time_reps<S, T>(mut make: impl FnMut() -> S, mut f: impl FnMut(&mut S) -> T) -> Vec<f64> {
    (0..KERNEL_REPS)
        .map(|_| {
            let mut state = make();
            let t0 = Instant::now();
            let out = f(&mut state);
            let ns = t0.elapsed().as_nanos() as f64;
            std::hint::black_box(out);
            ns
        })
        .collect()
}

/// The model rebuilt from its first `n` training points, same kernel.
fn model_prefix(model: &GpModel, n: usize) -> Result<GpModel, String> {
    let mut m = GpModel::new(model.kernel().clone_box(), model.dim());
    m.fit(model.inputs()[..n].to_vec(), model.targets()[..n].to_vec())
        .map_err(|e| format!("rung D: refit at {n} points: {e}"))?;
    Ok(m)
}

/// The kernel matrix of `model`'s first `n` points plus jitter — what the
/// model factors.
fn kernel_matrix(model: &GpModel, idx: &[usize]) -> Matrix {
    let xs = model.inputs();
    let mut k = Matrix::from_symmetric_fn(idx.len(), |i, j| {
        model.kernel().eval(&xs[idx[i]], &xs[idx[j]])
    });
    k.add_diagonal(model.jitter().max(1e-8))
        .expect("kernel matrices are square");
    k
}

/// Everything the traced run measured, keyed by metric name.
#[derive(Default)]
struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        self.0.insert(name, value);
    }
}

struct Ladder {
    workload: Workload,
    session: Session,
    reps: usize,
    spans: Vec<(char, Span)>,
    failures: Vec<String>,
    attempted: u64,
    layers: Layers,
    /// `(rung A, sum of the layers' self times)`, ms — equal by construction.
    self_sum_ms: (f64, f64),
}

impl Ladder {
    /// Record whether `what` held; a rung that does not reproduce the rung
    /// above is a failed operation.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// File spans under their rung, re-basing `parent` from the recorder's
    /// numbering to positions in the trace file.
    fn keep_spans(&mut self, rung: char, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            (rung, s)
        }));
    }

    /// One pass of rung A; returns each statement's `(wall ms, outcome)`.
    fn pass_a(
        &mut self,
        sub_seeds: &[u64],
        mut rec: Option<&mut Recorder>,
    ) -> Vec<(f64, Option<(usize, u64)>)> {
        let eps = self.workload.eps();
        let mut out = Vec::with_capacity(sub_seeds.len());
        for &sub_seed in sub_seeds {
            // The span brackets loading the instance too; the time that
            // counts is `wall_ms`, taken around `run_uql` alone.
            let token = rec.as_mut().and_then(|r| r.begin("run_uql", "lang", None));
            let run = self.session.execute(&self.workload, sub_seed, false);
            if let Some(r) = rec.as_mut() {
                r.end(token);
            }
            self.attempted += 1;
            let o = match &run.output {
                Ok(q) => {
                    let o = outcome(q, eps);
                    Some((o.rows, o.digest))
                }
                Err(e) => {
                    self.failures.push(e.clone());
                    None
                }
            };
            out.push((run.wall_ms, o));
        }
        out
    }

    fn run(&mut self) -> Result<(), String> {
        let sub_seeds = self.workload.pass_sub_seeds(0);
        let bounds: Vec<Bound> = sub_seeds
            .iter()
            .map(|&s| bind(&self.workload, &mut self.session, s))
            .collect::<Result<_, _>>()?;
        let inputs: Vec<Vec<(usize, InputDistribution)>> = sub_seeds
            .iter()
            .map(|&s| {
                let rows = self.workload.rows(s);
                item_inputs(
                    &self.workload,
                    &rows,
                    0..self.workload.items_per_statement(),
                )
            })
            .collect();
        let first = self.workload.statement(sub_seeds[0], false);

        // lang: parse and bind, alone.
        self.session.load(&self.workload, sub_seeds[0]);
        let parse_ns = time_reps(|| (), |_| parse_statement(&first).is_ok());
        let compile_ns = time_reps(|| (), |_| self.session.ctx.compile(&first).is_ok());
        self.layers.set("lang.parse_us", p50_us(&parse_ns));
        self.layers.set(
            "lang.bind_us",
            (p50_us(&compile_ns) - p50_us(&parse_ns)).max(0.0),
        );

        // One untimed pass first, so pools, buffers and code are as warm for
        // rung A as they are for the rungs after it. It is also the
        // reference every rung below must reproduce.
        let reference: Vec<Option<(usize, u64)>> = self
            .pass_a(&sub_seeds, None)
            .into_iter()
            .map(|(_, o)| o)
            .collect();

        // The rungs take turns within each repetition, so the differences
        // between them (A − B, B − C) are taken between neighbours in time
        // and the host's slow drift mostly cancels.
        let sched = BatchScheduler::new(1);
        let mut rec_a = Recorder::new();
        let rec = Mutex::new(Recorder::new());
        let ns = |spans: &[Span], keep: &dyn Fn(&Span) -> bool| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| keep(s))
                .map(|s| s.dur_ns() as f64)
                .collect()
        };
        let (mut a_ms, mut off_ms, mut c_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut lang_self, mut op_ms, mut op_self) = (Vec::new(), Vec::new(), Vec::new());
        let (mut sched_ms, mut sched_self) = (Vec::new(), Vec::new());
        let (mut fast, mut slow, mut mc) = (Vec::new(), Vec::new(), Vec::new());
        let (mut fast_ms, mut slow_ms) = (Vec::new(), Vec::new());
        let mut last: Vec<RungC> = Vec::new();
        for rep in 0..self.reps {
            // Rung A twice: traced with the registry on (the default), and
            // with the registry off for the metrics delta — in alternating
            // order, so neither always runs first.
            let mut a = 0.0;
            for step in 0..2 {
                let traced = (step == 0) == (rep % 2 == 0);
                self.session.ctx.metrics().set_enabled(traced);
                rec_a.set_pass(rep as u32);
                let pass = self.pass_a(&sub_seeds, traced.then_some(&mut rec_a));
                let ms: f64 = pass.iter().map(|(ms, _)| ms).sum();
                let same = pass.iter().map(|(_, o)| o).eq(reference.iter());
                self.check(same, || {
                    format!("rung A: a pass with metrics enabled={traced} changed its output")
                });
                if traced {
                    a = ms;
                    a_ms.push(ms);
                    self.keep_spans('A', rec_a.take());
                } else {
                    off_ms.push(ms);
                }
            }
            self.session.ctx.metrics().set_enabled(true);

            // Rung B.
            rec.lock().expect("recorder").set_pass(rep as u32);
            for (k, b) in bounds.iter().enumerate() {
                self.session.load(&self.workload, b.sub_seed);
                let got = rung_b(&self.workload, &self.session, b, &sched, &rec);
                let want = reference[k];
                self.check(got.as_ref().ok().copied() == want && want.is_some(), || {
                    format!(
                        "rung B does not reproduce rung A on statement {k}: {got:?} vs {want:?}"
                    )
                });
            }
            let spans = rec.lock().expect("recorder").take();
            let b = total_ms(&ns(&spans, &|s| s.parent.is_none()));
            op_ms.push(total_ms(&ns(&spans, &|s| s.parent.is_some())));
            lang_self.push(a - b);
            self.keep_spans('B', spans);

            // Rung C.
            last.clear();
            let t_c = Instant::now();
            for (k, b) in bounds.iter().enumerate() {
                let got = rung_c(&self.workload, b, &inputs[k], &sched, &rec);
                let want = reference[k];
                let pair = got.as_ref().ok().map(|c| (c.rows, c.digest));
                self.check(pair == want && want.is_some(), || {
                    format!(
                        "rung C does not reproduce rung A on statement {k}: {pair:?} vs {want:?}"
                    )
                });
                last.push(got?);
            }
            c_ms.push(t_c.elapsed().as_secs_f64() * 1e3);
            let spans = rec.lock().expect("recorder").take();
            // Top-level spans (the scheduler's, and the join warmup's direct
            // evaluator calls) are what rung C covers of rung B.
            op_self.push(b - total_ms(&ns(&spans, &|s| s.parent.is_none())));
            sched_ms.push(total_ms(&ns(&spans, &|s| s.layer == "sched")));
            let own = self_times_ns(&spans);
            sched_self.push(
                spans
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.layer == "sched")
                    .map(|(_, o)| *o as f64 / 1e6)
                    .sum::<f64>(),
            );
            let (f, sl) = (
                durations_ns(&spans, "infer_only_with"),
                durations_ns(&spans, "process"),
            );
            fast_ms.push(total_ms(&f));
            slow_ms.push(total_ms(&sl));
            fast.extend(f);
            slow.extend(sl);
            mc.extend(durations_ns(&spans, "mc_eval_tuple"));
            self.keep_spans('C', spans);
        }
        let deltas: Vec<f64> = a_ms.iter().zip(&off_ms).map(|(on, off)| on - off).collect();
        self.layers.set("obs.metrics_on_delta_ms", median(&deltas));
        // Means, not medians, for the self-time family: the mean of a
        // difference is the difference of the means, so these telescope to
        // rung A's mean exactly.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        self.layers.set("lang.self_ms", mean(&lang_self));
        let (run_metric, self_metric) = match self.workload.kind {
            Kind::Q2JoinGp => ("join.run_ms", "join.self_ms"),
            Kind::StreamGpWarm => ("stream.run_ms", "stream.self_ms"),
            _ => ("query.batch_ms", "query.self_ms"),
        };
        let op_ms = median(&op_ms);
        self.layers.set(run_metric, op_ms);
        self.layers.set(self_metric, mean(&op_self));
        self.layers.set("sched.two_phase_ms", median(&sched_ms));
        self.layers.set("sched.self_ms", mean(&sched_self));
        let evaluator_ms: f64 =
            (fast.iter().chain(&slow).chain(&mc).sum::<f64>() / 1e6) / self.reps as f64;
        self.self_sum_ms = (
            mean(&a_ms),
            mean(&lang_self) + mean(&op_self) + mean(&sched_self) + evaluator_ms,
        );

        let counts = last.iter().fold(Counts::default(), |mut acc, c| {
            acc.tuples += c.counts.tuples;
            acc.rerouted += c.counts.rerouted;
            acc.filtered += c.counts.filtered;
            acc.slow += c.counts.slow;
            acc.points_added += c.counts.points_added;
            acc.retrains += c.counts.retrains;
            acc
        });
        let per = |part: u64, whole: u64| {
            if whole > 0 {
                part as f64 / whole as f64
            } else {
                0.0
            }
        };
        self.layers
            .set("sched.reroute_share", per(counts.rerouted, counts.tuples));
        self.layers
            .set("sched.filter_share", per(counts.filtered, counts.tuples));
        let items = (self.workload.items_per_statement() * sub_seeds.len()) as f64;
        match self.workload.kind {
            Kind::Q2JoinGp => {
                self.layers.set("join.pairs_per_s", items / (op_ms / 1e3));
                self.layers
                    .set("join.filtered_share", per(counts.filtered, counts.tuples));
            }
            Kind::StreamGpWarm => {
                self.layers
                    .set("stream.tuples_per_s", items / (op_ms / 1e3));
                self.layers.set(
                    "stream.fast_share",
                    per(counts.tuples - counts.slow, counts.tuples),
                );
            }
            _ => {}
        }

        if !fast.is_empty() {
            self.layers.set("olgapro.fast_us_p50", p50_us(&fast));
            self.layers
                .set("olgapro.fast_us_p95", percentile(&fast, 0.95) / 1e3);
            self.layers.set("olgapro.fast_ms_total", mean(&fast_ms));
        }
        if !slow.is_empty() {
            self.layers.set("olgapro.slow_ms_p50", median(&slow) / 1e6);
            self.layers.set("olgapro.slow_ms_total", mean(&slow_ms));
            self.layers.set(
                "olgapro.points_per_slow_tuple",
                per(counts.points_added, counts.slow),
            );
            self.layers
                .set("olgapro.retrain_count", counts.retrains as f64);
        }
        if !mc.is_empty() {
            self.layers.set("mc.tuple_us_p50", p50_us(&mc));
            self.layers
                .set("mc.tuple_us_p95", percentile(&mc, 0.95) / 1e3);
            let all: Vec<&(u64, bool)> = last.iter().flat_map(|c| &c.mc).collect();
            let calls: u64 = all.iter().map(|(c, _)| c).sum();
            let early = all.iter().filter(|(_, e)| *e).count() as u64;
            self.layers
                .set("mc.samples_per_tuple", per(calls, all.len() as u64));
            self.layers
                .set("mc.early_stop_share", per(early, all.len() as u64));
        }

        // The same batches at two workers: informational (every end-to-end
        // number runs WORKERS 1), and it says what nproc = 2 allows.
        let quiet = Mutex::new(Recorder::new());
        quiet.lock().expect("recorder").set_enabled(false);
        let timed_c = |sched: &BatchScheduler, ladder: &mut Ladder| -> Result<f64, String> {
            let t0 = Instant::now();
            for (k, b) in bounds.iter().enumerate() {
                let c = rung_c(&ladder.workload, b, &inputs[k], sched, &quiet)?;
                let want = reference[k];
                ladder.check(Some((c.rows, c.digest)) == want, || {
                    format!(
                        "rung C at {} workers changed statement {k}",
                        sched.workers()
                    )
                });
            }
            Ok(t0.elapsed().as_secs_f64())
        };
        let w1 = timed_c(&sched, self)?;
        let w2 = timed_c(&BatchScheduler::new(2), self)?;
        self.layers.set("sched.w2_speedup", w1 / w2);
        // Rung A's two clock reads per statement cost nothing; rung C, with
        // two spans per tuple, is where tracing could distort, so that is
        // where its overhead is taken: traced against the untraced run above.
        self.layers.set(
            "trace.overhead_share",
            (median(&c_ms) - w1 * 1e3) / (w1 * 1e3),
        );

        self.rungs_d_e(
            &bounds,
            inputs.last().expect("a pass has statements"),
            &last,
        )
    }

    /// Rungs D and E: the pieces of the evaluator's calls, on the last
    /// statement's final state.
    fn rungs_d_e(
        &mut self,
        bounds: &[Bound],
        inputs: &[(usize, InputDistribution)],
        last: &[RungC],
    ) -> Result<(), String> {
        let b = bounds.last().expect("a pass has statements");
        let mut rec = Recorder::new();

        // prob and udf terms, on the same block of tuples for every workload.
        let m = match last.last().and_then(|c| c.olga.as_ref()) {
            Some(olga) => olga.config().samples_per_input(),
            None => b.accuracy.mc_samples(),
        };
        let mut samples: Vec<Vec<f64>> = Vec::new();
        let mut rng = StdRng::seed_from_u64(b.seed);
        let (mut eval_ns, mut evals) = (0.0, 0u64);
        for (id, input) in inputs.iter().take(REPLAY_TUPLES) {
            let item = Some(*id as u32);
            let t = rec.begin("sample_n_into", "prob", item);
            input.sample_n_into(&mut rng, m, &mut samples);
            rec.end(t);
            let t0 = Instant::now();
            let ys: Vec<f64> = samples.iter().map(|x| self.session.raw.eval(x)).collect();
            eval_ns += t0.elapsed().as_nanos() as f64;
            evals += ys.len() as u64;
            let t = rec.begin("Ecdf::new", "prob", item);
            let ecdf = Ecdf::new(ys);
            rec.end(t);
            std::hint::black_box(ecdf.is_ok());
        }
        let spans = rec.take();
        self.layers.set(
            "prob.sample_us_p50",
            p50_us(&durations_ns(&spans, "sample_n_into")),
        );
        self.layers.set(
            "prob.ecdf_us_p50",
            p50_us(&durations_ns(&spans, "Ecdf::new")),
        );
        self.layers
            .set("udf.eval_ns", eval_ns / evals.max(1) as f64);
        self.keep_spans('D', spans);

        let Some(olga) = last.last().and_then(|c| c.olga.as_ref()) else {
            return Ok(()); // MC: no model, so no gp/linalg/spatial span at all
        };
        let model = olga.model();
        self.layers.set("olgapro.model_points", model.len() as f64);

        // Read path, replayed.
        let replay = replay_fast_path(olga, b, inputs, &mut rec);
        self.check(replay.is_ok(), || replay.clone().unwrap_err());
        let (hit_share, whole_ns) = replay?;
        let spans = rec.take();
        let parts: f64 = spans
            .iter()
            .filter(|s| s.parent.is_some())
            .map(|s| s.dur_ns() as f64)
            .sum();
        self.layers.set(
            "olgapro.fast_unattributed_share",
            (whole_ns - parts) / whole_ns,
        );
        let d = |name: &str| durations_ns(&spans, name);
        self.layers
            .set("bound.envelope_us_p50", p50_us(&d("envelope_ecdfs")));
        self.layers.set(
            "bound.lambda_us_p50",
            p50_us(&d("lambda_discrepancy_bound")),
        );
        self.layers
            .set("gp.band_z_us_p50", p50_us(&d("simultaneous_z")));
        self.layers
            .set("gp.select_us_p50", p50_us(&d("select_local_with")));
        self.layers.set("gp.cache_hit_share", hit_share);
        let predict = d("predict_batch_with");
        self.layers.set("gp.predict_us_p50", p50_us(&predict));
        self.layers
            .set("gp.predict_ns_per_sample", median(&predict) / m as f64);
        self.keep_spans('D', spans);

        // The selection sizes and budget overshoot the block saw.
        let cfg = olga.config();
        let budget = cfg.split().eps_gp;
        let mut select = SelectScratch::default();
        let mut scratch = InferScratch::default();
        let (mut selected, mut over, mut boxes) = (Vec::new(), Vec::new(), Vec::new());
        for (id, input) in inputs.iter().take(REPLAY_TUPLES) {
            let seed = mix_seed(b.seed, 0, *id as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            input.sample_n_into(&mut rng, m, &mut samples);
            let bbox = BoundingBox::from_points(samples.iter().map(|s| s.as_slice()));
            if select_local_with(model, &bbox, cfg.gamma, &mut select).is_ok() {
                selected.push(select.selected.len() as f64);
            }
            boxes.push(bbox);
            let out = olga
                .infer_only_with(input, &mut StdRng::seed_from_u64(seed), &mut scratch)
                .map_err(|e| format!("rung D: {e}"))?;
            over.push(out.eps_gp / budget);
        }
        let l = if selected.is_empty() {
            model.len()
        } else {
            (median(&selected) as usize).max(1)
        };
        self.layers.set("gp.selected_points_p50", l as f64);
        self.layers
            .set("olgapro.eps_gp_over_budget_p50", median(&over));

        // A cache miss: the subset factorization at the median selection.
        let subset: Vec<usize> = (0..l.min(model.len())).collect();
        let factor = time_reps(LocalPredictorCache::new, |cache| {
            cache.get_or_build(model, &subset).is_ok()
        });
        self.layers.set("gp.factor_us_p50", p50_us(&factor));

        // Write path, on clones at the final size.
        let n = model.len();
        if n >= 3 {
            let base = model_prefix(model, n - 1)?;
            let (x, y) = (model.inputs()[n - 1].clone(), model.targets()[n - 1]);
            let add = time_reps(|| base.clone(), |m| m.add_point(x.clone(), y).is_ok());
            self.layers.set("gp.add_point_us_p50", p50_us(&add));
            let full = model_prefix(model, n)?;
            let trained = time_reps(
                || full.clone(),
                |m| train(m, &TrainConfig::default()).is_ok(),
            );
            self.layers.set("gp.train_ms_p50", median(&trained) / 1e6);
            let check = time_reps(|| (), |_| should_retrain(&full, 0.05).is_ok());
            self.layers.set("gp.retrain_check_us_p50", p50_us(&check));

            // Rung E: the kernels under those calls, at the sizes seen.
            let all: Vec<usize> = (0..n).collect();
            let k_full = kernel_matrix(model, &all);
            let factor = time_reps(|| (), |_| Cholesky::factor(&k_full).is_ok());
            self.layers.set("linalg.factor_us", p50_us(&factor));
            let k_prev = kernel_matrix(model, &all[..n - 1]);
            if let Ok(prev) = Cholesky::factor(&k_prev) {
                let col: Vec<f64> = (0..n - 1).map(|i| k_full.row(n - 1)[i]).collect();
                let kss = k_full.row(n - 1)[n - 1];
                let append = time_reps(|| prev.clone(), |c| c.append(&col, kss).is_ok());
                self.layers.set("linalg.append_us", p50_us(&append));
            }
            let k_sub = kernel_matrix(model, &subset);
            if let Ok(chol) = Cholesky::factor(&k_sub) {
                let rhs: Vec<f64> = (0..subset.len() * m)
                    .map(|i| ((i * 37 % 101) as f64) / 101.0)
                    .collect();
                let solve = time_reps(|| rhs.clone(), |r| chol.solve_lower_in_place(r, m).is_ok());
                self.layers.set("linalg.solve_multi_us", p50_us(&solve));
            }
            let mut hits = Vec::new();
            let radius = model.half_value_distance().unwrap_or(1.0);
            let query: Vec<f64> = boxes
                .iter()
                .map(|bbox| {
                    let t0 = Instant::now();
                    model
                        .spatial_index()
                        .query_within_into(bbox, radius, &mut hits);
                    t0.elapsed().as_nanos() as f64
                })
                .collect();
            self.layers.set("spatial.query_us_p50", p50_us(&query));
            let mut tree = RTree::new(model.dim());
            let insert: Vec<f64> = model
                .inputs()
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    let x = x.clone();
                    let t0 = Instant::now();
                    tree.insert(x, i);
                    t0.elapsed().as_nanos() as f64
                })
                .collect();
            self.layers.set("spatial.insert_us_p50", p50_us(&insert));
        }
        Ok(())
    }

    fn write_trace(&self, seed: u64, seconds: u64) -> std::io::Result<()> {
        let spans = arr(self.spans.iter().map(|(rung, s)| {
            let mut o = Obj::new()
                .str("rung", &rung.to_string())
                .str("name", s.name)
                .str("layer", s.layer)
                .int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns)
                .int("pass", s.pass as u64);
            o = match s.parent {
                Some(p) => o.int("parent", p as u64),
                None => o.raw("parent", "null"),
            };
            o = match s.item {
                Some(i) => o.int("item", i as u64),
                None => o.raw("item", "null"),
            };
            o.finish()
        }));
        let mut layers = Obj::new();
        for d in PER_LAYER {
            layers = layers.num(d.name, self.layers.0.get(d.name).copied().unwrap_or(0.0));
        }
        let doc = Obj::new()
            .str("workload", self.workload.name())
            .raw("env", &env::stamp().finish())
            .int("seed", seed)
            .int("seconds", seconds)
            .int("reps", self.reps as u64)
            .str("note", "parent is a position in spans")
            .raw("per_layer", &layers.finish())
            .raw("spans", &spans)
            .finish();
        std::fs::write(
            env::out_dir()?.join(format!("trace-{}.json", self.workload.name())),
            doc + "\n",
        )
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("udf-bench-ladder: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = args.workload else {
        eprintln!("udf-bench-ladder: --workload is required");
        return ExitCode::from(2);
    };
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let t0 = Instant::now();
    let workload = Workload::new(kind, args.seed, &scale);
    let session = workload.session();
    let mut ladder = Ladder {
        workload,
        session,
        // A repetition is five passes (A twice, B, C, and a share of the
        // untraced runs): `--seconds 20` buys three.
        reps: if args.smoke {
            1
        } else {
            (args.seconds as usize).div_ceil(7).clamp(1, 8)
        },
        spans: Vec::new(),
        failures: Vec::new(),
        attempted: 0,
        layers: Layers::default(),
        self_sum_ms: (0.0, 0.0),
    };
    if let Err(e) = ladder.run() {
        ladder.failures.push(e);
    }
    if let Err(e) = ladder.write_trace(args.seed, args.seconds) {
        eprintln!("udf-bench-ladder: cannot write the trace: {e}");
    }

    println!(
        "# {} seed={} reps={} spans={} run={:.1}s (trace: benchmark/out/trace-{}.json)",
        ladder.workload.name(),
        args.seed,
        ladder.reps,
        ladder.spans.len(),
        t0.elapsed().as_secs_f64(),
        ladder.workload.name(),
    );
    println!(
        "#   rung A {:.1} ms = lang + operator + sched self + evaluator spans {:.1} ms",
        ladder.self_sum_ms.0, ladder.self_sum_ms.1
    );
    for f in &ladder.failures {
        println!("#   FAILED: {f}");
    }
    let value = |name: &str| ladder.layers.0.get(name).copied().unwrap_or(0.0);
    for d in PER_LAYER {
        println!("{:<34} {:>16.4} {}", d.name, value(d.name), d.unit);
    }
    let finite = PER_LAYER.iter().all(|d| value(d.name).is_finite());
    let correct = ladder.failures.is_empty() && finite;
    println!(
        "{}",
        result_line(
            correct,
            ladder.attempted,
            ladder.failures.len() as u64,
            PER_LAYER.iter().map(|d| (d.name, d.unit, value(d.name))),
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
