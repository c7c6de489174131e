//! The arguments the driver passes, shared by both binaries, and the
//! result line both print last.

use crate::json::{num, Obj};
use crate::workloads::Kind;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload`; every workload when absent (`--selfcheck`, `--smoke`).
    pub workload: Option<Kind>,
    /// `--seed` (default 7).
    pub seed: u64,
    /// `--seconds` (default 20, what `BENCHMARK.json` asks for).
    pub seconds: u64,
    /// `--trace 1`.
    pub trace: bool,
    /// `--selfcheck`.
    pub selfcheck: bool,
    /// `--smoke`.
    pub smoke: bool,
}

/// Parse `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 7,
        seconds: 20,
        trace: false,
        selfcheck: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload = Some(Kind::parse(name).ok_or_else(|| {
                    let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => out.seed = number(flag, value()?)?,
            "--seconds" => out.seconds = number(flag, value()?)?.max(1),
            "--trace" => out.trace = number(flag, value()?)? != 0,
            "--selfcheck" => out.selfcheck = true,
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn number(flag: &str, text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{flag} takes a whole number, got {text:?}"))
}

/// `{name: {"value": v, "unit": u}, ...}` — how every output of the
/// benchmark writes a set of metrics.
pub fn metrics_json(
    metrics: impl IntoIterator<Item = (&'static str, &'static str, f64)>,
) -> String {
    let mut m = Obj::new();
    for (name, unit, value) in metrics {
        m = m.raw(
            name,
            &Obj::new()
                .raw("value", &num(value))
                .str("unit", unit)
                .finish(),
        );
    }
    m.finish()
}

/// The one JSON object the driver reads from the last line of standard
/// output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (&'static str, &'static str, f64)>,
) -> String {
    Obj::new()
        .bool("correct", correct)
        .int("attempted", attempted.max(1))
        .int("failed", failed)
        .raw("metrics", &metrics_json(metrics))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::read;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_arguments() {
        let a = parse(&args(
            "--workload q2_join_gp --seed 11 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Kind::Q2JoinGp));
        assert_eq!((a.seed, a.seconds, a.trace), (11, 20, true));
        assert!(!a.selfcheck && !a.smoke);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--bogus")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 41, 0, [("wall_ms_p50", "ms", 1.25)]);
        let v = read::parse(&line);
        assert_eq!(v.keys(), ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").get("wall_ms_p50");
        assert_eq!((m.get("value").num(), m.get("unit").str()), (1.25, "ms"));
        assert!(!line.contains('\n'));
    }
}
