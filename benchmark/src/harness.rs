//! The end-to-end measurement: set-up cycles, the Monte Carlo reference,
//! the ground-truth output checks and the timed passes of one workload.
//!
//! Closed loop, one client, one process: a single [`Session`] executes the
//! workload's statements back to back through `run_uql`, `WORKERS 1`
//! everywhere. UDF cost is charged, not slept, so wall clock is engine
//! overhead and UDF cost enters through exact call counts.

use crate::metrics::{MetricDecl, END_TO_END};
use crate::stats;
use crate::workloads::{
    emitted_sample, outcome, Emitted, Executed, Fnv, Kind, Outcome, Scale, Session, Workload,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use udf_lang::QueryOutput;
use udf_prob::metrics::lambda_discrepancy;
use udf_prob::{Ecdf, InputDistribution};

/// The paper's default per-call UDF cost T, in milliseconds (`fig5h`).
pub const UDF_COST_MS: f64 = 1.0;

/// A 20 000-sample (at full scale) distribution of the raw UDF on one input
/// item — the ground truth emitted rows are judged against.
pub fn ground_truth(
    workload: &Workload,
    session: &Session,
    rows: &[(f64, f64)],
    item: usize,
    samples: usize,
) -> Ecdf {
    let input = InputDistribution::diagonal_gaussian(&workload.item_input(rows, item))
        .expect("generated inputs have positive spread");
    let mut rng = StdRng::seed_from_u64(workload.seed ^ (item as u64).wrapping_mul(0x9E37_79B9));
    let mut x = vec![0.0; input.dim()];
    let ys = (0..samples)
        .map(|_| {
            input.sample_into(&mut rng, &mut x);
            session.raw.eval(&x)
        })
        .collect();
    Ecdf::new(ys).expect("the workloads' UDFs are finite on their inputs")
}

/// The ground-truth verdict on a statement's output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accuracy {
    /// Checks made.
    pub checked: usize,
    /// Checks that held.
    pub ok: usize,
    /// Emitted rows within the *requested* ε of the truth — what the user
    /// asked for, which a capped model is allowed to miss as long as the
    /// row's own bound says so. Printed, not gated.
    pub within_eps: usize,
    /// Emitted rows checked (the denominator of `within_eps`).
    pub emitted: usize,
}

/// What the ground-truth check needs from one statement's output: a strided
/// sample of its emitted rows and (first sample of a `WHERE` workload only)
/// a strided sample of the input items it dropped. Cheap to take — the
/// ground truths are computed later, outside the timed passes.
pub struct Sample {
    sub_seed: u64,
    emitted: Vec<Emitted>,
    dropped: Vec<usize>,
}

impl Sample {
    /// Sample `out`, the output of instance `sub_seed`: up to `rows`
    /// emitted rows and up to `dropped` dropped items.
    pub fn take(
        workload: &Workload,
        sub_seed: u64,
        out: &QueryOutput,
        rows: usize,
        dropped: usize,
    ) -> Sample {
        let (emitted, emitted_items) = emitted_sample(out, rows);
        let mut sample = Sample {
            sub_seed,
            emitted,
            dropped: Vec::new(),
        };
        if workload.predicate().is_some() && dropped > 0 {
            let emitted: std::collections::BTreeSet<usize> = emitted_items.into_iter().collect();
            let gone: Vec<usize> = (0..workload.items_per_statement())
                .filter(|i| !emitted.contains(i))
                .collect();
            let step = gone.len().div_ceil(dropped).max(1);
            sample.dropped = gone.into_iter().step_by(step).collect();
        }
        sample
    }

    /// Emitted rows sampled.
    pub fn rows(&self) -> usize {
        self.emitted.len()
    }

    /// Judge the sample against the raw UDF.
    ///
    /// Emitted rows answer for the bound they carry: the emitted
    /// distribution must lie within the row's *own* `error_bound` of the
    /// truth under the statement's metric (λ-discrepancy); for the stream,
    /// whose rows are summaries, the emitted median must lie inside the
    /// truth's `[Q(0.5 − bound), Q(0.5 + bound)]` band. How loose that
    /// bound is relative to what was asked is printed beside it
    /// (`bound_over_eps`) — between them, accuracy given up for speed shows
    /// either as a looser bound or as a broken one. `WHERE` statements also
    /// answer for what they dropped: a strided input item that was not
    /// emitted although its true tuple-existence probability is at least
    /// θ + ε is a miss.
    pub fn judge(&self, workload: &Workload, session: &Session, scale: &Scale) -> Accuracy {
        let eps = workload.eps();
        let rows = workload.rows(self.sub_seed);
        let truth_of = |item| ground_truth(workload, session, &rows, item, scale.truth_samples);
        let mut acc = Accuracy::default();
        for Emitted {
            item,
            median,
            error_bound,
            values,
        } in &self.emitted
        {
            let truth = truth_of(*item);
            let median_within = |band: f64| {
                truth.quantile((0.5 - band).max(0.0)) <= *median
                    && *median <= truth.quantile((0.5 + band).min(1.0))
            };
            let (ok, within_eps) = match values {
                Some(values) => {
                    let emitted = Ecdf::new(values.clone()).expect("emitted rows are non-empty");
                    let d = lambda_discrepancy(&emitted, &truth, session.lambda);
                    (d <= *error_bound, d <= eps)
                }
                None => (median_within(*error_bound), median_within(eps)),
            };
            acc.checked += 1;
            acc.emitted += 1;
            acc.ok += usize::from(ok);
            acc.within_eps += usize::from(within_eps);
        }
        if let Some(pred) = workload.predicate() {
            for &item in &self.dropped {
                let tep = truth_of(item).interval_prob(pred.lo, pred.hi);
                acc.checked += 1;
                acc.ok += usize::from(tep < pred.theta + eps);
            }
        }
        acc
    }
}

impl std::ops::AddAssign for Accuracy {
    fn add_assign(&mut self, other: Accuracy) {
        self.checked += other.checked;
        self.ok += other.ok;
        self.within_eps += other.within_eps;
        self.emitted += other.emitted;
    }
}

/// Everything one end-to-end run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// Wall clock of each timed pass, milliseconds.
    pub pass_ms: Vec<f64>,
    /// Wall clock of each set-up cycle, seconds.
    pub setup_s: Vec<f64>,
    /// Statement executions per pass.
    pub statements_per_pass: usize,
    /// Input items over all timed passes.
    pub items: u64,
    /// Rows emitted over all timed passes.
    pub rows: u64,
    /// UDF calls over all timed passes (the benchmark's own count).
    pub calls: u64,
    /// Digest over every timed statement's digest, in order.
    pub digest: u64,
    /// Emitted rows whose own bound exceeds the requested ε.
    pub loose_rows: u64,
    /// Mean over emitted rows of `error_bound / ε` (1 on Monte Carlo rows).
    pub bound_over_eps: f64,
    /// Wall clock and calls of the `USING mc` reference statement.
    pub reference: (f64, u64),
    /// Ground-truth verdict on the first timed statements' outputs.
    pub accuracy: Accuracy,
    /// Operations attempted (timed statements + the determinism replay).
    pub attempted: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub metrics: Vec<(MetricDecl, f64)>,
    /// Process start (of this measurement) to its end, seconds.
    pub run_s: f64,
}

impl Report {
    /// Value of the metric called `name`.
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("no metric {name}"))
    }

    /// True when nothing failed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|(_, v)| v.is_finite())
    }
}

/// One set-up cycle, as a user meets it: generate the inputs, open a
/// session, register inputs and UDF, and run one statement so pools,
/// buffers and code are warm. Returns the session, the warm-up execution
/// and the cycle's wall clock in seconds.
fn set_up(kind: Kind, seed: u64, scale: &Scale) -> (Workload, Session, Executed, f64) {
    let t0 = Instant::now();
    let workload = Workload::new(kind, seed, scale);
    let mut session = workload.session();
    let warm = session.execute(&workload, workload.sub_seed(0, 0), false);
    let secs = t0.elapsed().as_secs_f64();
    (workload, session, warm, secs)
}

/// Measure one workload end to end.
pub fn measure(kind: Kind, seed: u64, seconds: u64, scale: &Scale) -> Report {
    let t_run = Instant::now();
    let mut failures = Vec::new();

    // Set-up, several times over; the last session is the one measured.
    let mut setup_s = Vec::with_capacity(scale.setup_cycles);
    let mut last = None;
    for _ in 0..scale.setup_cycles.max(1) {
        let (workload, session, warm, secs) = set_up(kind, seed, scale);
        setup_s.push(secs);
        last = Some((workload, session, warm));
    }
    let (workload, mut session, warm) = last.expect("at least one set-up cycle");
    let eps = workload.eps();

    // The paper's baseline: the same statement USING mc, once.
    let first = workload.sub_seed(0, 0);
    let reference = session.execute(&workload, first, true);
    if let Err(e) = &reference.output {
        failures.push(format!("reference: {e}"));
    }

    let warm_outcome = match &warm.output {
        Ok(out) => Some(outcome(out, eps)),
        Err(e) => {
            failures.push(format!("warm-up: {e}"));
            None
        }
    };

    // Timed passes.
    let passes = scale.passes(seconds);
    let per_pass = workload.sizes.per_pass;
    let mut pass_ms = Vec::with_capacity(passes);
    let (mut items, mut rows, mut calls, mut loose) = (0u64, 0u64, 0u64, 0u64);
    let mut bound_ratio_sum = 0.0f64;
    let mut digest = Fnv::default();
    let mut attempted = 0u64;
    let mut samples: Vec<Sample> = Vec::new();
    for pass in 0..passes {
        let mut ms = 0.0;
        for (j, sub_seed) in workload.pass_sub_seeds(pass).into_iter().enumerate() {
            let run = session.execute(&workload, sub_seed, false);
            attempted += 1;
            ms += run.wall_ms;
            calls += run.calls;
            items += workload.items_per_statement() as u64;
            match &run.output {
                Ok(out) => {
                    let o: Outcome = outcome(out, eps);
                    rows += o.rows as u64;
                    loose += o.loose as u64;
                    bound_ratio_sum += o.bound_ratio_sum;
                    digest.word(o.digest);
                    // Ground-truth samples come from the first statements
                    // (one for the relational workloads; the stream retains
                    // 8 rows a statement, so it takes several).
                    let sampled: usize = samples.iter().map(Sample::rows).sum();
                    if sampled < scale.accuracy_rows {
                        let dropped = if samples.is_empty() {
                            scale.dropped_rows
                        } else {
                            0
                        };
                        let want = scale.accuracy_rows - sampled;
                        samples.push(Sample::take(&workload, sub_seed, out, want, dropped));
                    }
                    if pass == 0 && j == 0 {
                        // Determinism: same statement, same session, same
                        // seed as the warm-up — same bits.
                        attempted += 1;
                        if warm_outcome.as_ref() != Some(&o) {
                            failures.push(format!(
                                "replay of the warm-up statement differs: {:?} vs {o:?}",
                                warm_outcome
                            ));
                        }
                    }
                }
                Err(e) => failures.push(e.clone()),
            }
        }
        pass_ms.push(ms);
    }

    let mut accuracy = Accuracy::default();
    for sample in &samples {
        accuracy += sample.judge(&workload, &session, scale);
    }

    let wall_ms_p50 = stats::median(&pass_ms);
    let calls_per_pass = calls as f64 / passes as f64;
    let total_ms = wall_ms_p50 + calls_per_pass * UDF_COST_MS;
    // The reference ran one statement; a pass runs `per_pass` of them.
    let reference_total_ms =
        per_pass as f64 * (reference.wall_ms + reference.calls as f64 * UDF_COST_MS);
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { f64::NAN };
    let values = [
        stats::median(&setup_s),
        wall_ms_p50,
        share(calls as f64, items as f64),
        total_ms,
        reference_total_ms / total_ms,
        share(accuracy.ok as f64, accuracy.checked as f64),
        crate::env::peak_rss_mb().unwrap_or(f64::NAN),
        1.0 - share(failures.len() as f64, attempted as f64),
    ];
    Report {
        workload: workload.name(),
        seed,
        pass_ms,
        setup_s,
        statements_per_pass: per_pass,
        items,
        rows,
        calls,
        digest: digest.0,
        loose_rows: loose,
        bound_over_eps: share(bound_ratio_sum, rows as f64),
        reference: (reference.wall_ms, reference.calls),
        accuracy,
        attempted,
        failures,
        metrics: END_TO_END.into_iter().zip(values).collect(),
        run_s: t_run.elapsed().as_secs_f64(),
    }
}
