//! Byte-level fuzzing of [`run_uql`]: whatever arrives — arbitrary bytes
//! (invalid UTF-8 decoded lossily, as a terminal or a socket would hand
//! them over), keyword soup, or a real statement with a few bytes flipped,
//! dropped, doubled or cut — the answer is `Ok` or a [`LangError`], never a
//! panic. Seeded, so a failure names an input that fails again.
//!
//! Inputs that happen to parse do run: on 4-tuple relations and a stream
//! source that ends after 256 tuples, so the whole suite stays well under a
//! minute.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use udf_lang::{run_uql, Context, LangError, QueryOutput, Stage};
use udf_query::{Relation, Schema, Tuple, Value};
use udf_stream::{Source, SyntheticSource, VecSource};

fn ctx() -> Context {
    let mut ctx = Context::standard();
    let tuples = |sigma: f64| -> Vec<Tuple> {
        (0..4)
            .map(|i| {
                let mu = 0.3 + 0.15 * i as f64;
                Tuple::new(vec![Value::Det(i as f64), Value::Gaussian { mu, sigma }])
            })
            .collect()
    };
    for (name, cols) in [("sky", ["objID", "z"]), ("stars", ["objID", "z"])] {
        let rel = Relation::new(Schema::new(&cols), tuples(0.05)).unwrap();
        ctx.register_relation(name, rel);
    }
    let rel = Relation::new(Schema::new(&["id", "x"]), tuples(0.5)).unwrap();
    ctx.register_relation("points", rel);
    ctx.register_stream("synth", 1, || {
        let mut tuples = Vec::new();
        SyntheticSource::gaussian(1, 0.5, 1).next_batch(256, &mut tuples);
        Box::new(VecSource::new(tuples))
    });
    ctx
}

/// Statements the mutator starts from: the CI REPL smoke's, and one of each
/// kind of rejection `malformed.rs` tabulates.
const CORPUS: &[&str] = &[
    "EXPLAIN SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 USING gp",
    "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 USING gp WORKERS 2 SEED 7",
    "SELECT F3(x) FROM STREAM synth USING mc LIMIT 128 SEED 3",
    "SELECT F2(x) FROM points USING gp MODEL CAP 16 SEED 5 WORKERS 2",
    "EXPLAIN SELECT AngDist(a.z, b.z) FROM stars a JOIN stars b ON a.objID < b.objID \
     WHERE PR(AngDist(a.z, b.z) IN [0.3, 0.36]) >= 0.5 USING gp PRUNE",
    "SELECT AngDist(a.z, b.z) WITH ACCURACY 0.2 0.05 FROM stars a JOIN stars b \
     ON a.objID < b.objID WHERE PR(AngDist(a.z, b.z) IN [0.3, 0.36]) >= 0.5 \
     USING gp WORKERS 2 SEED 9 PRUNE",
    "EXPLAIN ANALYZE SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 \
     USING gp WORKERS 2 SEED 7",
    "EXPLAIN ANALYZE SELECT F3(x) WITH ACCURACY 0.25 0.05 FROM STREAM synth \
     USING gp BATCH 32 SEED 4 LIMIT 96",
    // `EXPLAIN TRACE` and the prepared-statement forms, which are not UQL:
    // each is rejected where it starts.
    "EXPLAIN TRACE SELECT GalAge(z) FROM sky USING gp WORKERS 2 SEED 7",
    "PREPARE q AS SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [$1, 0.9]) >= 0.6 \
     USING gp WORKERS 2 SEED 7",
    "EXECUTE q (0.5)",
    "DEALLOCATE q",
    "SELECT GalAge(z) FROM sky; DROP TABLE sky",
    "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [1e, 2]) >= 0.5",
    "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [1, 2]) > 0.5",
    "SELECT GalAge(z) FROM sky WORKERS 2.5",
    "SELECT GalAge(z) FROM sky SEED 9007199254740993",
    "SELECT GalAge(z) WITH ACCURACY 0.1 0.05 METRIC manhattan FROM sky",
    "SELECT GalAge(z) WITH ACCURACY 0.3 0.05 METRIC ks FROM sky USING auto",
    "SELECT ComoveVol(x, x) FROM STREAM synth LIMIT 10",
    "SELECT F1(x) FROM STREAM synth USING gp LIMIT 64 BATCH 16 MODEL CAP 8 SEED 1",
    "SELECT GalAge(z) FROM sky USING gp MODEL CAP 2000000",
    "SELECT AngDist(g.z, g.z) FROM sky g JOIN sky g USING gp",
    "SELECT AngDist(a.z, b.z) FROM sky a JOIN sky b ON a.objID < c.objID USING gp",
    "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [$0, 1]) >= 0.5",
    "EXECUTE q (0.5, 2.5)",
    // A rejected verb, then a comment of multi-byte characters.
    "EXECUTE q(5)--≥≥≥≥≥≥≥≥≥≥≥≥≥≥≥≥≥≥≥≥≥≥≥≥",
];

/// What the soup generator draws from: every keyword and punctuation mark
/// of the grammar, names that bind and names that do not, and numbers the
/// lexer and the binder each have an opinion on.
const VOCAB: &[&str] = &[
    "SELECT",
    "FROM",
    "STREAM",
    "WHERE",
    "PR",
    "IN",
    "USING",
    "gp",
    "mc",
    "auto",
    "WITH",
    "ACCURACY",
    "METRIC",
    "ks",
    "discrepancy",
    "WORKERS",
    "SEED",
    "LIMIT",
    "BATCH",
    "MODEL",
    "CAP",
    "PRUNE",
    "JOIN",
    "ON",
    "EXPLAIN",
    "ANALYZE",
    "TRACE",
    "PREPARE",
    "AS",
    "EXECUTE",
    "DEALLOCATE",
    "(",
    ")",
    "[",
    "]",
    ",",
    ".",
    "<",
    ">=",
    ">",
    ";",
    "$1",
    "$0",
    "$",
    "GalAge",
    "AngDist",
    "F2",
    "ComoveVol",
    "sky",
    "stars",
    "points",
    "synth",
    "q",
    "a",
    "b",
    "z",
    "x",
    "objID",
    "a.z",
    "b.z",
    "0",
    "1",
    "2",
    "0.5",
    "0.9",
    "0.05",
    "1e",
    "1e400",
    "-1",
    "NaN",
    "inf",
    "9007199254740993",
    "16",
    "\u{0}",
    "é",
    "\"",
    "'",
    "\n",
];

/// Any byte — but mostly the printable ASCII a statement is made of, so a
/// mutation is as likely to change a statement's meaning as to break it.
fn byte(rng: &mut StdRng) -> u8 {
    if rng.gen_bool(0.7) {
        rng.gen_range(0x20..0x7Fu32) as u8
    } else {
        rng.gen_range(0..=255u32) as u8
    }
}

fn arbitrary_bytes(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0..96);
    (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect()
}

fn soup(rng: &mut StdRng) -> Vec<u8> {
    let words = rng.gen_range(1..24);
    let mut text = String::new();
    for _ in 0..words {
        text.push_str(VOCAB[rng.gen_range(0..VOCAB.len())]);
        if rng.gen_bool(0.8) {
            text.push(' ');
        }
    }
    text.into_bytes()
}

fn mutated(rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = CORPUS[rng.gen_range(0..CORPUS.len())].as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=2) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..6) {
            0 => bytes[at] ^= 1u8 << rng.gen_range(0..8u32),
            1 => bytes[at] = byte(rng),
            2 => bytes.insert(at, byte(rng)),
            3 => drop(bytes.remove(at)),
            4 => bytes.truncate(at),
            _ => {
                // Double a slice in place (nesting, repeated clauses).
                let end = rng.gen_range(at..bytes.len().min(at + 12));
                let slice = bytes[at..=end].to_vec();
                bytes.splice(at..at, slice);
            }
        }
    }
    bytes
}

#[test]
fn no_input_makes_run_uql_panic() {
    const INPUTS: usize = 24_000;
    let mut rng = StdRng::seed_from_u64(0xF022);
    let mut ctx = ctx();
    let (mut ok, mut ran, mut by_stage) = (0, 0, [0usize; 4]);
    for i in 0..INPUTS {
        let bytes = match i % 4 {
            0 => arbitrary_bytes(&mut rng),
            1 => soup(&mut rng),
            _ => mutated(&mut rng),
        };
        let text = String::from_utf8_lossy(&bytes).into_owned();
        // The diagnostic is rendered against the text, as the REPL does: a
        // span that splits a character would panic there, not in `run_uql`.
        let result: Result<QueryOutput, (LangError, String)> =
            catch_unwind(AssertUnwindSafe(|| {
                run_uql(&text, &ctx).map_err(|e| {
                    let rendered = e.render(&text);
                    (e, rendered)
                })
            }))
            .unwrap_or_else(|_| panic!("input {i} panicked: {text:?}"));
        let past_the_parser = match &result {
            Ok(out) => {
                ok += 1;
                ran += usize::from(!matches!(out, QueryOutput::Plan(_)));
                true
            }
            Err((e, rendered)) => {
                assert!(!rendered.is_empty(), "input {i}: {text:?}");
                let stage = match e {
                    LangError::Diagnostic { stage, span, .. } => {
                        assert!(
                            span.start <= span.end && span.end <= text.len(),
                            "input {i}: {e:?} on {text:?}"
                        );
                        [Stage::Lex, Stage::Parse, Stage::Semantic]
                            .iter()
                            .position(|s| s == stage)
                            .expect("a known stage")
                    }
                    LangError::Exec(_) => 3,
                };
                by_stage[stage] += 1;
                stage >= 2
            }
        };
        // A statement that got as far as binding may have built a scheduler
        // (up to WORKERS 1024 scratch slots): start the next one from a clean
        // session so nothing accumulates.
        if past_the_parser {
            ctx = self::ctx();
        }
    }
    // The generators reach every layer, not just the lexer.
    assert!(ok > 200 && ran > 100, "{ok} accepted, {ran} executed");
    assert!(
        by_stage[..3].iter().all(|&n| n > 100) && by_stage[3] > 0,
        "{by_stage:?}"
    );
}
