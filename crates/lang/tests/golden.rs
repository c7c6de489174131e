//! Golden digests: what each UQL surface emitted, bit for bit, at the commit
//! before the batch operator moved into `udf_core::batch`.
//!
//! Every other determinism test in the workspace is path-vs-path (UQL vs.
//! hand-built, workers 1 vs. 8), so a refactor that shifts both paths alike
//! passes them all. These constants do not move with the code: a digest
//! folds every emitted row — `(source | pair, tep, error_bound, udf_calls,
//! ECDF values)` — plus the statement's counters, and each statement must
//! reproduce its constant at `WORKERS` 1, 2 and 8. The counters are hashed
//! as the words of the recording commit, derived from today's
//! [`BatchCounts`](udf_core::BatchCounts): relations and joins counted as
//! `fast` only the tuples *kept* there (`fast_kept`), streams every tuple
//! settled there (`fast`). Before hashing, the counts are checked against
//! the rows they describe.
//!
//! The six GP digests were re-recorded when the squared-exponential kernel
//! got its own `exp` and z_α its Newton solve: both change the bits every
//! GP row is computed from. The Monte Carlo digests run neither and stand.

use udf_lang::{run_uql, Context, QueryOutput};
use udf_query::{Relation, Schema, Tuple, Value};
use udf_stream::SyntheticSource;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn row(&mut self, id: usize, tep: f64, out: &udf_core::OutputDistribution) {
        self.word(id as u64);
        self.word(tep.to_bits());
        self.word(out.error_bound.to_bits());
        self.word(out.udf_calls);
        self.word(out.ecdf.len() as u64);
        for v in out.ecdf.values() {
            self.word(v.to_bits());
        }
    }
}

/// `n` tuples with Gaussian-uncertain redshifts spread over `[0.1, 1.8)`.
fn sky(n: usize) -> Relation {
    let tuples = (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Det(i as f64),
                Value::Gaussian {
                    mu: 0.1 + 1.7 * i as f64 / n as f64,
                    sigma: 0.02,
                },
            ])
        })
        .collect();
    Relation::new(Schema::new(&["objID", "z"]), tuples).unwrap()
}

fn context() -> Context {
    let mut ctx = Context::standard();
    ctx.register_relation("sky", sky(48));
    ctx.register_relation("small", sky(12));
    ctx.register_stream("synth", 1, || {
        Box::new(SyntheticSource::gaussian(1, 0.5, 11))
    });
    ctx
}

/// The counts a statement reported must describe the rows it returned:
/// every returned row is a kept tuple, and no row spent a UDF call the
/// counts did not see.
fn check_counts<'a>(
    c: &udf_core::BatchCounts,
    rows: impl ExactSizeIterator<Item = &'a udf_core::OutputDistribution>,
    statement: &str,
) {
    assert_eq!(c.kept, rows.len() as u64, "{statement}: kept ≠ rows");
    let row_calls: u64 = rows.map(|o| o.udf_calls).sum();
    assert!(
        c.udf_calls >= row_calls,
        "{statement}: {} UDF calls counted, the rows spent {row_calls}",
        c.udf_calls
    );
}

/// Run one statement and fold everything it reported.
fn digest(statement: &str) -> u64 {
    let mut fnv = Fnv::new();
    match run_uql(statement, &mut context()).unwrap() {
        QueryOutput::Rows(out) => {
            for r in &out.rows {
                fnv.row(r.source, r.tep, &r.output);
            }
            let s = out.stats;
            check_counts(&s, out.rows.iter().map(|r| &r.output), statement);
            for w in [
                s.tuples_in,
                s.kept,
                s.udf_calls,
                s.cap_hits,
                s.fast_kept,
                s.slow,
            ] {
                fnv.word(w);
            }
        }
        QueryOutput::Join(out) => {
            for r in &out.rows {
                fnv.row(r.pair, r.tep, &r.output);
            }
            // `filtered` is left out on purpose: the join under-counted
            // slow-path drops at the recording commit.
            let (s, c) = (out.stats, out.stats.counts);
            check_counts(&c, out.rows.iter().map(|r| &r.output), statement);
            assert_eq!(
                s.pairs_generated,
                c.kept + c.filtered,
                "{statement}: a pair was lost or counted twice"
            );
            // The literal 0 stands where the recording commit hashed
            // `pairs_pruned`: pair pruning is removed, and it was 0 on every
            // row that is left.
            for w in [
                s.pairs_generated,
                0,
                c.kept,
                c.fast_kept,
                c.slow,
                c.cap_hits,
                c.udf_calls,
            ] {
                fnv.word(w);
            }
        }
        QueryOutput::Stream(out) => {
            fnv.word(out.digest);
            let s = &out.stats;
            for w in [
                s.tuples_in,
                s.kept,
                s.filtered,
                s.fast,
                s.slow,
                s.udf_calls,
                s.cap_hits,
            ] {
                fnv.word(w);
            }
        }
        other => panic!("statement must execute, got {other:?}"),
    }
    fnv.0
}

const SELECT: &str = "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6";
const STREAM: &str = "SELECT F3(x) WITH ACCURACY 0.2 0.05 METRIC disc FROM STREAM synth \
                      WHERE PR(F3(x) IN [0.4, 1.5]) >= 0.3";
const STREAM_TAIL: &str = "BATCH 64 SEED 9 LIMIT 192";
const JOIN: &str = "SELECT AngDist(a.z, b.z) WITH ACCURACY 0.2 0.05 FROM small a JOIN small b \
                    ON a.objID < b.objID WHERE PR(AngDist(a.z, b.z) IN [0.3, 0.36]) >= 0.5";

/// `(label, statement, strategy clause, clauses after WORKERS, digest)`.
/// The two `USING auto` rows carry no digest of their own: AUTO resolves
/// in the binder (GalAge's 0.29 ms → GP, the free F3 → MC), so each must
/// reproduce the recorded digest of the strategy it resolves to.
const GOLDEN: [(&str, &str, &str, &str, u64); 9] = [
    (
        "select/mc",
        SELECT,
        "USING mc",
        "SEED 7",
        0xb0cd_78e3_2cf1_19ce,
    ),
    (
        "select/gp",
        SELECT,
        "USING gp",
        "SEED 7",
        0x2a92_7646_3fdb_0757,
    ),
    (
        "select/auto",
        SELECT,
        "USING auto",
        "SEED 7",
        0x2a92_7646_3fdb_0757,
    ),
    (
        "project/gp/cap",
        "SELECT GalAge(z) FROM sky",
        "USING gp",
        "SEED 7 MODEL CAP 8",
        0x5725_b926_6a10_68dc,
    ),
    (
        "stream/mc",
        STREAM,
        "USING mc",
        STREAM_TAIL,
        0x7fa1_e8b7_e670_5677,
    ),
    (
        "stream/auto",
        STREAM,
        "USING auto",
        STREAM_TAIL,
        0x7fa1_e8b7_e670_5677,
    ),
    // The one digest that folds a dropped tuple's ρ_U: re-recorded when the
    // fast path began dropping on a certificate over its first samples
    // (`Olgapro::infer_ruled_with`), which can sit above the full count's
    // ρ_U.
    (
        "stream/gp",
        STREAM,
        "USING gp",
        STREAM_TAIL,
        0x476c_12e3_cc45_a563,
    ),
    (
        "stream/gp/cap",
        "SELECT F3(x) WITH ACCURACY 0.2 0.05 METRIC disc FROM STREAM synth",
        "USING gp",
        "BATCH 32 SEED 9 MODEL CAP 8 LIMIT 192",
        0xf0af_aba4_380a_cc0c,
    ),
    ("join/gp", JOIN, "USING gp", "SEED 7", 0xa791_ceeb_0952_5c9e),
];

#[test]
fn every_surface_reproduces_its_recorded_digest_at_workers_1_2_8() {
    let mut wrong = Vec::new();
    for (label, head, using, tail, want) in GOLDEN {
        for workers in [1usize, 2, 8] {
            let got = digest(&format!("{head} {using} WORKERS {workers} {tail}"));
            if got != want {
                wrong.push(format!(
                    "{label} WORKERS {workers}: {got:#018x}, recorded {want:#018x}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}
