//! The four workloads: their inputs, their UQL statements, and the session
//! each run executes them in.
//!
//! Everything here goes through the engine's front door only — `Context`,
//! `run_uql`, relation/stream/UDF registration and the fields of the rows
//! that come back — so an engine refactor that keeps UQL working cannot
//! break end-to-end measurement.
//!
//! One *pass* of a workload is a fixed number of executions of the same
//! statement text that differ only in `SEED` (and, for the catalog
//! workloads, in the catalog generated from that seed); successive passes
//! use fresh sub-seeds. GP model growth in this engine is chaotic in the
//! sampling seed (the same statement runs 1.5 s under one seed and 2.1 s
//! under the next, see README.md), so one instance per run would make
//! `--seed` the largest term in every number; a run therefore measures a
//! sample of instances, all derived from `--seed`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use udf_core::udf::{BlackBoxUdf, UdfFunction};
use udf_lang::{run_uql, Context, QueryOutput};
use udf_query::{Relation, Schema, Tuple, Value};
use udf_stream::AstroSource;
use udf_workloads::astro::GalaxyCatalog;
use udf_workloads::registry::UdfEntry;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monte Carlo selection with Hoeffding early stop over a galaxy catalog.
    Q1SelectMc,
    /// Warm, read-mostly GP inference through the micro-batched stream engine.
    StreamGpWarm,
    /// GP online tuning from a cold model up to its cap (the write path).
    F2TuningCapped,
    /// 2-D GP inference under a saturated model through the θ-join.
    Q2JoinGp,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::Q1SelectMc,
        Kind::StreamGpWarm,
        Kind::F2TuningCapped,
        Kind::Q2JoinGp,
    ];

    /// The fixed name later issues cite.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Q1SelectMc => "q1_select_mc",
            Kind::StreamGpWarm => "stream_gp_warm",
            Kind::F2TuningCapped => "f2_tuning_capped",
            Kind::Q2JoinGp => "q2_join_gp",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How big one workload's statement is and how many make a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Input tuples (relations), `LIMIT` (stream) or stars per side (join).
    pub n: usize,
    /// `MODEL CAP` (unused by the MC workload).
    pub cap: usize,
    /// Statement executions, each under its own sub-seed, per pass.
    pub per_pass: usize,
}

/// The sizes of a whole benchmark configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// `q1_select_mc`.
    pub q1: Sizes,
    /// `stream_gp_warm`.
    pub stream: Sizes,
    /// `f2_tuning_capped`.
    pub f2: Sizes,
    /// `q2_join_gp`.
    pub join: Sizes,
    /// Galaxies the stream source cycles over.
    pub stream_catalog: usize,
    /// How long one pass is meant to last on the reference box; `--seconds`
    /// divided by this is the number of timed passes.
    pub pass_seconds: f64,
    /// Fewest timed passes, whatever `--seconds` says.
    pub min_passes: usize,
    /// Set-up cycles per run (`setup_s` is their median).
    pub setup_cycles: usize,
    /// Emitted rows checked against ground truth.
    pub accuracy_rows: usize,
    /// Dropped input items checked against ground truth (`WHERE` only).
    pub dropped_rows: usize,
    /// Raw-UDF samples behind each ground-truth distribution.
    pub truth_samples: usize,
}

impl Scale {
    /// The sizes `BENCHMARK.json` runs: a pass lasts ≈ 2 s on the 2-vCPU
    /// reference box, so `--seconds 20` is ten passes.
    pub const FULL: Scale = Scale {
        q1: Sizes {
            n: 1536,
            cap: 0,
            per_pass: 2,
        },
        stream: Sizes {
            n: 640,
            cap: 24,
            per_pass: 2,
        },
        f2: Sizes {
            n: 64,
            cap: 96,
            per_pass: 4,
        },
        join: Sizes {
            n: 40,
            cap: 64,
            per_pass: 4,
        },
        stream_catalog: 256,
        pass_seconds: 2.0,
        min_passes: 5,
        setup_cycles: 3,
        accuracy_rows: 48,
        dropped_rows: 16,
        truth_samples: 20_000,
    };

    /// `--smoke`: every check on, three passes, all four workloads in under
    /// ten seconds. Timings at this size mean nothing and gate nothing.
    pub const SMOKE: Scale = Scale {
        q1: Sizes {
            n: 192,
            cap: 0,
            per_pass: 1,
        },
        stream: Sizes {
            n: 128,
            cap: 16,
            per_pass: 1,
        },
        f2: Sizes {
            n: 24,
            cap: 32,
            per_pass: 1,
        },
        join: Sizes {
            n: 16,
            cap: 32,
            per_pass: 1,
        },
        stream_catalog: 64,
        pass_seconds: f64::INFINITY,
        min_passes: 3,
        setup_cycles: 1,
        accuracy_rows: 12,
        dropped_rows: 4,
        truth_samples: 5_000,
    };

    /// The sizes of one workload.
    pub fn sizes(&self, kind: Kind) -> Sizes {
        match kind {
            Kind::Q1SelectMc => self.q1,
            Kind::StreamGpWarm => self.stream,
            Kind::F2TuningCapped => self.f2,
            Kind::Q2JoinGp => self.join,
        }
    }

    /// Timed passes for a `--seconds` budget.
    pub fn passes(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.pass_seconds).round() as usize).max(self.min_passes)
    }
}

/// A `WHERE PR(f IN [lo, hi]) >= theta` clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Where {
    /// Interval lower bound.
    pub lo: f64,
    /// Interval upper bound.
    pub hi: f64,
    /// Threshold on the tuple-existence probability.
    pub theta: f64,
}

/// One workload under one `--seed`: a family of *instances*, one per
/// sub-seed. An instance is the statement under `SEED sub_seed` over the
/// inputs generated from that same sub-seed (the catalog workloads) or over
/// the workload's fixed relation (`f2`, the join).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The `--seed` everything is derived from.
    pub seed: u64,
    /// Its sizes.
    pub sizes: Sizes,
    /// Galaxies the stream source cycles over.
    stream_catalog: usize,
}

/// SplitMix64 finalizer, so neighbouring seeds give unrelated sub-seeds.
fn mix(seed: u64, idx: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(idx.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The workload `kind` under `seed`: the same seed always gives the
    /// same instances.
    pub fn new(kind: Kind, seed: u64, scale: &Scale) -> Self {
        Workload {
            kind,
            seed,
            sizes: scale.sizes(kind),
            stream_catalog: scale.stream_catalog,
        }
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Catalog name of the UDF the statement calls.
    pub fn udf_name(&self) -> &'static str {
        match self.kind {
            Kind::Q1SelectMc | Kind::StreamGpWarm => "GalAge",
            Kind::F2TuningCapped => "F2",
            Kind::Q2JoinGp => "AngDist",
        }
    }

    /// The requested accuracy ε (the join asks for 0.2, the rest take the
    /// language default 0.1).
    pub fn eps(&self) -> f64 {
        match self.kind {
            Kind::Q2JoinGp => 0.2,
            _ => 0.1,
        }
    }

    /// The statement's `WHERE` clause, when it has one.
    pub fn predicate(&self) -> Option<Where> {
        match self.kind {
            Kind::Q1SelectMc => Some(Where {
                lo: 0.5,
                hi: 0.9,
                theta: 0.6,
            }),
            Kind::Q2JoinGp => Some(Where {
                lo: 0.3,
                hi: 0.36,
                theta: 0.5,
            }),
            Kind::StreamGpWarm | Kind::F2TuningCapped => None,
        }
    }

    /// Input items of one statement: tuples, or candidate pairs for the join.
    pub fn items_per_statement(&self) -> usize {
        match self.kind {
            Kind::Q2JoinGp => self.sizes.n * (self.sizes.n - 1) / 2,
            _ => self.sizes.n,
        }
    }

    /// The sub-seed of statement `j` of pass `pass` (31 bits: UQL integers
    /// are lexed as `f64`).
    pub fn sub_seed(&self, pass: usize, j: usize) -> u64 {
        mix(self.seed, (pass * self.sizes.per_pass + j) as u64 + 1) & 0x7FFF_FFFF
    }

    /// The sub-seeds of one pass.
    pub fn pass_sub_seeds(&self, pass: usize) -> Vec<u64> {
        (0..self.sizes.per_pass)
            .map(|j| self.sub_seed(pass, j))
            .collect()
    }

    /// The statement under `SEED sub_seed`; `reference` asks for the same
    /// statement `USING mc`, the paper's baseline.
    pub fn statement(&self, sub_seed: u64, reference: bool) -> String {
        let Sizes { n, cap, .. } = self.sizes;
        let using = if reference { "mc" } else { "gp" };
        // The binder rejects MODEL CAP under MC (there is no model to cap).
        let cap = if reference {
            String::new()
        } else {
            format!(" MODEL CAP {cap}")
        };
        match self.kind {
            Kind::Q1SelectMc => format!(
                "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 \
                 USING mc WORKERS 1 SEED {sub_seed}"
            ),
            Kind::StreamGpWarm => format!(
                "SELECT GalAge(z) FROM STREAM sky_stream USING {using} LIMIT {n} BATCH 128{cap} \
                 WORKERS 1 SEED {sub_seed}"
            ),
            Kind::F2TuningCapped => {
                format!("SELECT F2(x) FROM points USING {using}{cap} WORKERS 1 SEED {sub_seed}")
            }
            Kind::Q2JoinGp => format!(
                "SELECT AngDist(a.z, b.z) WITH ACCURACY 0.2 0.05 \
                 FROM stars a JOIN stars b ON a.objID < b.objID \
                 WHERE PR(AngDist(a.z, b.z) IN [0.3, 0.36]) >= 0.5 \
                 USING {using}{cap} WORKERS 1 SEED {sub_seed}"
            ),
        }
    }

    /// The galaxy catalog of instance `sub_seed` (catalog workloads).
    pub fn catalog(&self, sub_seed: u64) -> Option<GalaxyCatalog> {
        let n = match self.kind {
            Kind::Q1SelectMc => self.sizes.n,
            Kind::StreamGpWarm => self.stream_catalog,
            Kind::F2TuningCapped | Kind::Q2JoinGp => return None,
        };
        let mut rng = StdRng::seed_from_u64(mix(sub_seed, 0xCA7A));
        Some(GalaxyCatalog::generate(n, &mut rng))
    }

    /// `(mean, sigma)` of the uncertain attribute of every input tuple of
    /// instance `sub_seed` (for the stream: of every catalog galaxy).
    pub fn rows(&self, sub_seed: u64) -> Vec<(f64, f64)> {
        let n = self.sizes.n;
        match self.kind {
            Kind::Q1SelectMc | Kind::StreamGpWarm => self
                .catalog(sub_seed)
                .expect("catalog workload")
                .rows()
                .iter()
                .map(|r| (r.z_mean, r.z_sigma))
                .collect(),
            Kind::F2TuningCapped => (0..n).map(|i| ((0.61 * i as f64) % 10.0, 0.5)).collect(),
            Kind::Q2JoinGp => (0..n)
                .map(|i| (0.1 + 1.7 * i as f64 / n as f64, 0.02))
                .collect(),
        }
    }

    /// `(mean, sigma)` of every argument of the UDF call on input item
    /// `item` (a tuple index, a stream position, or a join pair index),
    /// given the instance's [`rows`](Workload::rows).
    pub fn item_input(&self, rows: &[(f64, f64)], item: usize) -> Vec<(f64, f64)> {
        match self.kind {
            Kind::StreamGpWarm => vec![rows[item % rows.len()]],
            Kind::Q2JoinGp => {
                let (i, j) = self.pair(item);
                vec![rows[i], rows[j]]
            }
            _ => vec![rows[item]],
        }
    }

    /// `(left, right)` of candidate pair `k`, in the engine's enumeration
    /// order (`ON a.objID < b.objID`, row-major).
    pub fn pair(&self, k: usize) -> (usize, usize) {
        let n = self.sizes.n;
        let mut first = 0usize; // index of pair (i, i + 1)
        for i in 0..n {
            let in_row = n - 1 - i;
            if k < first + in_row {
                return (i, i + 1 + (k - first));
            }
            first += in_row;
        }
        panic!("pair index {k} out of range for {n} stars");
    }

    /// The input relation of instance `sub_seed` (relational workloads),
    /// under the name its statement uses.
    pub fn relation(&self, sub_seed: u64) -> Option<(&'static str, Relation)> {
        let gaussian = |&(mu, sigma): &(f64, f64)| Value::Gaussian { mu, sigma };
        let rows = self.rows(sub_seed);
        let keyed = |schema: &[&str]| {
            let tuples = rows
                .iter()
                .enumerate()
                .map(|(i, r)| Tuple::new(vec![Value::Det(i as f64), gaussian(r)]))
                .collect();
            Relation::new(Schema::new(schema), tuples).expect("arity matches the schema")
        };
        match self.kind {
            Kind::Q1SelectMc => Some(("sky", keyed(&["objID", "z"]))),
            Kind::Q2JoinGp => Some(("stars", keyed(&["objID", "z"]))),
            Kind::F2TuningCapped => {
                let tuples = rows.iter().map(|r| Tuple::new(vec![gaussian(r)])).collect();
                let rel = Relation::new(Schema::new(&["x"]), tuples).expect("arity 1");
                Some(("points", rel))
            }
            Kind::StreamGpWarm => None,
        }
    }

    /// One session, as a user would set it up: the standard catalog, the
    /// statement's UDF wrapped so the benchmark counts calls itself, and
    /// the workload's inputs under the names its statement uses (the fixed
    /// relations now; an instance's generated inputs when it is loaded).
    pub fn session(&self) -> Session {
        let mut ctx = Context::standard();
        let entry = ctx
            .udfs()
            .get(self.udf_name())
            .expect("the standard catalog has the workload's UDF")
            .clone();
        let calls = Arc::new(AtomicU64::new(0));
        let counting = CountingUdf {
            inner: entry.udf.clone(),
            calls: Arc::clone(&calls),
        };
        ctx.udfs_mut().register(UdfEntry {
            udf: BlackBoxUdf::new(Arc::new(counting), entry.udf.cost_model()),
            ..entry.clone()
        });
        let stream = Arc::new(Mutex::new(None));
        match self.kind {
            Kind::F2TuningCapped | Kind::Q2JoinGp => {
                let (name, rel) = self.relation(0).expect("relational workload");
                ctx.register_relation(name, rel);
            }
            Kind::StreamGpWarm => {
                let current = Arc::clone(&stream);
                ctx.register_stream("sky_stream", 1, move || {
                    let catalog: GalaxyCatalog = current
                        .lock()
                        .expect("no panic holds this lock")
                        .clone()
                        .expect("an instance is loaded before its statement runs");
                    Box::new(AstroSource::galage(catalog))
                });
            }
            Kind::Q1SelectMc => {} // registered per instance
        }
        Session {
            ctx,
            calls,
            stream,
            lambda: entry.default_lambda(),
            raw: entry.udf,
        }
    }
}

/// Counts calls on their way to the catalog's UDF. The engine forks and
/// resets its own counters per tuple, so the benchmark keeps one it owns.
struct CountingUdf {
    inner: BlackBoxUdf,
    calls: Arc<AtomicU64>,
}

impl UdfFunction for CountingUdf {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        // Relaxed: a statistic, read only after the statement returned.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.eval(x)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A set-up session: the context statements run in, the benchmark's own
/// call counter, and the unwrapped UDF for ground truth.
pub struct Session {
    /// The UQL context (one per run, like one REPL session).
    pub ctx: Context,
    calls: Arc<AtomicU64>,
    /// The catalog the registered stream source cycles over: the loaded
    /// instance's.
    stream: Arc<Mutex<Option<GalaxyCatalog>>>,
    /// The catalog's UDF without the counting wrapper.
    pub raw: BlackBoxUdf,
    /// The λ the binder derives for the UDF (1 % of its output range).
    pub lambda: f64,
}

/// One statement execution: wall clock around `run_uql` alone, the UDF
/// calls it made by the benchmark's own counter, and its output.
pub struct Executed {
    /// Wall clock of the `run_uql` call, milliseconds.
    pub wall_ms: f64,
    /// UDF calls, from the benchmark's counting wrapper.
    pub calls: u64,
    /// The output, or why there is none.
    pub output: Result<QueryOutput, String>,
}

impl Session {
    /// UDF calls counted since the session was built.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Put instance `sub_seed`'s generated inputs in place (untimed): the
    /// catalog relation is re-registered, the stream source is pointed at
    /// the instance's catalog; fixed relations stay as they are.
    pub fn load(&mut self, workload: &Workload, sub_seed: u64) {
        match workload.kind {
            Kind::Q1SelectMc => {
                let (name, rel) = workload.relation(sub_seed).expect("relational workload");
                self.ctx.register_relation(name, rel);
            }
            Kind::StreamGpWarm => {
                *self.stream.lock().expect("no panic holds this lock") = workload.catalog(sub_seed);
            }
            Kind::F2TuningCapped | Kind::Q2JoinGp => {}
        }
    }

    /// Load instance `sub_seed` and run its statement. An `Err` or a panic
    /// inside the engine is a failed operation, not the end of the
    /// benchmark.
    pub fn execute(&mut self, workload: &Workload, sub_seed: u64, reference: bool) -> Executed {
        self.load(workload, sub_seed);
        let statement = workload.statement(sub_seed, reference);
        let calls_before = self.calls();
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| run_uql(&statement, &mut self.ctx)));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let output = match result {
            Ok(Ok(out)) => Ok(out),
            Ok(Err(e)) => Err(format!("{statement}: {e}")),
            Err(_) => Err(format!("{statement}: panicked")),
        };
        Executed {
            wall_ms,
            calls: self.calls() - calls_before,
            output,
        }
    }
}

/// FNV-1a over 64-bit words — the algorithm of the stream engine's own
/// determinism digest, so a hand-driven stream rung can be compared with
/// what `run_uql` reports bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in, little-endian byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold a float's exact bit pattern in.
    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Fold a whole empirical distribution in.
    pub fn values(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for &v in values {
            self.float(v);
        }
    }

    /// Fold one emitted relational row in: its input item, its
    /// tuple-existence probability, its error bound, the UDF calls it was
    /// charged, and every value of its distribution.
    pub fn row(&mut self, item: usize, tep: f64, error_bound: f64, udf_calls: u64, ecdf: &[f64]) {
        self.word(item as u64);
        self.float(tep);
        self.float(error_bound);
        self.word(udf_calls);
        self.values(ecdf);
    }
}

/// One emitted row, reduced to what the output checks read.
#[derive(Debug, Clone)]
pub struct Emitted {
    /// The input item it came from.
    pub item: usize,
    /// Median of the emitted distribution.
    pub median: f64,
    /// The row's own total error bound.
    pub error_bound: f64,
    /// The emitted distribution's sorted values (the stream keeps none).
    pub values: Option<Vec<f64>>,
}

/// What one statement produced, reduced to what runs compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Rows emitted.
    pub rows: usize,
    /// Bit-exact digest of every emitted row (and, for the stream, of every
    /// filter decision).
    pub digest: u64,
    /// Rows whose own error bound exceeds the requested ε.
    pub loose: usize,
    /// Sum over emitted rows of `error_bound / ε`.
    pub bound_ratio_sum: f64,
}

/// Reduce a statement's output. For the stream, whose rows are not
/// retained, looseness comes from the engine's `cap_hits` (a capped
/// emission is by definition over budget) and the bound ratio from the
/// retained `recent` summaries.
pub fn outcome(out: &QueryOutput, eps: f64) -> Outcome {
    let mut fnv = Fnv::default();
    let mut loose = 0usize;
    let mut ratio = 0.0f64;
    let mut tally = |error_bound: f64| {
        loose += usize::from(error_bound > eps);
        ratio += error_bound / eps;
    };
    let rows = match out {
        QueryOutput::Rows(r) => {
            for row in &r.rows {
                let o = &row.output;
                fnv.row(
                    row.source,
                    row.tep,
                    o.error_bound,
                    o.udf_calls,
                    o.ecdf.values(),
                );
                tally(o.error_bound);
            }
            r.rows.len()
        }
        QueryOutput::Join(r) => {
            for row in &r.rows {
                let o = &row.output;
                fnv.row(
                    row.pair,
                    row.tep,
                    o.error_bound,
                    o.udf_calls,
                    o.ecdf.values(),
                );
                tally(o.error_bound);
            }
            r.rows.len()
        }
        QueryOutput::Stream(s) => {
            fnv.word(s.digest);
            fnv.word(s.stats.kept);
            fnv.word(s.stats.filtered);
            let kept = s.stats.kept as usize;
            loose = s.stats.cap_hits as usize;
            if !s.recent.is_empty() {
                let mean: f64 = s.recent.iter().map(|k| k.error_bound / eps).sum::<f64>()
                    / s.recent.len() as f64;
                ratio = mean * kept as f64;
            }
            kept
        }
        other => panic!("a SELECT returned {other:?}"),
    };
    Outcome {
        rows,
        digest: fnv.0,
        loose,
        bound_ratio_sum: ratio,
    }
}

/// Up to `max` evenly strided emitted rows of a statement's output, and the
/// items of every emitted row (to tell which inputs were dropped).
pub fn emitted_sample(out: &QueryOutput, max: usize) -> (Vec<Emitted>, Vec<usize>) {
    fn strided<T>(rows: &[T], max: usize) -> impl Iterator<Item = &T> {
        let step = rows.len().div_ceil(max.max(1)).max(1);
        rows.iter().step_by(step)
    }
    match out {
        QueryOutput::Rows(r) => (
            strided(&r.rows, max)
                .map(|row| Emitted {
                    item: row.source,
                    median: row.output.ecdf.quantile(0.5),
                    error_bound: row.output.error_bound,
                    values: Some(row.output.ecdf.values().to_vec()),
                })
                .collect(),
            r.rows.iter().map(|row| row.source).collect(),
        ),
        QueryOutput::Join(r) => (
            strided(&r.rows, max)
                .map(|row| Emitted {
                    item: row.pair,
                    median: row.output.ecdf.quantile(0.5),
                    error_bound: row.output.error_bound,
                    values: Some(row.output.ecdf.values().to_vec()),
                })
                .collect(),
            r.rows.iter().map(|row| row.pair).collect(),
        ),
        QueryOutput::Stream(s) => (
            s.recent
                .iter()
                .map(|k| Emitted {
                    item: k.tuple as usize,
                    median: k.median,
                    error_bound: k.error_bound,
                    values: None,
                })
                .collect(),
            Vec::new(),
        ),
        other => panic!("a SELECT returned {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_instances() {
        for kind in Kind::ALL {
            let a = Workload::new(kind, 7, &Scale::SMOKE);
            let b = Workload::new(kind, 7, &Scale::SMOKE);
            let c = Workload::new(kind, 8, &Scale::SMOKE);
            assert_eq!(a.pass_sub_seeds(2), b.pass_sub_seeds(2), "{}", kind.name());
            assert_ne!(a.pass_sub_seeds(0), c.pass_sub_seeds(0), "{}", kind.name());
            let s = a.sub_seed(0, 0);
            assert_eq!(a.rows(s), b.rows(s));
            assert_eq!(a.statement(s, false), b.statement(s, false));
            assert!(a.statement(s, false).ends_with(&format!("SEED {s}")));
        }
    }

    #[test]
    fn catalog_instances_differ_and_fixed_relations_do_not() {
        let q1 = Workload::new(Kind::Q1SelectMc, 7, &Scale::SMOKE);
        assert_ne!(q1.rows(1), q1.rows(2));
        assert_eq!(q1.rows(1).len(), q1.sizes.n);
        let stream = Workload::new(Kind::StreamGpWarm, 7, &Scale::SMOKE);
        assert_eq!(stream.rows(1).len(), Scale::SMOKE.stream_catalog);
        let f2 = Workload::new(Kind::F2TuningCapped, 7, &Scale::SMOKE);
        assert_eq!(f2.rows(1), f2.rows(2));
    }

    #[test]
    fn sub_seeds_are_distinct_across_passes() {
        let w = Workload::new(Kind::F2TuningCapped, 7, &Scale::FULL);
        let mut seen = std::collections::BTreeSet::new();
        for pass in 0..10 {
            for j in 0..w.sizes.per_pass {
                assert!(
                    seen.insert(w.sub_seed(pass, j)),
                    "pass {pass} statement {j}"
                );
            }
        }
    }

    #[test]
    fn pair_enumeration_is_row_major_upper_triangle() {
        let w = Workload::new(Kind::Q2JoinGp, 7, &Scale::SMOKE);
        let n = w.sizes.n;
        let mut k = 0;
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(w.pair(k), (i, j));
                k += 1;
            }
        }
        assert_eq!(k, w.items_per_statement());
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn pass_count_follows_seconds() {
        assert_eq!(Scale::FULL.passes(20), 10);
        assert_eq!(Scale::FULL.passes(1), Scale::FULL.min_passes);
        assert_eq!(Scale::SMOKE.passes(60), 3);
    }
}
