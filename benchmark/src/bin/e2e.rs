//! `udf-bench-e2e` — the end-to-end metrics of one workload, tracing off.
//!
//! ```sh
//! bash benchmark/run.sh --workload stream_gp_warm --seed 7 --seconds 20 --trace 0
//! bash benchmark/run.sh --selfcheck      # every workload twice, A/A
//! bash benchmark/run.sh --smoke          # every workload, tiny, checks on
//! ```
//!
//! Prints every metric by name with its unit, then — last line — the JSON
//! object the driver reads. Exits non-zero when an output check failed.

use std::process::ExitCode;
use udf_benchmark::cli::{self, metrics_json, result_line};
use udf_benchmark::env;
use udf_benchmark::harness::{measure, Report};
use udf_benchmark::json::{arr, num, Obj};
use udf_benchmark::stats::Summary;
use udf_benchmark::workloads::{Kind, Scale};

/// Print the human-readable report of one run.
fn print_report(r: &Report) {
    let s = Summary::of(&r.pass_ms);
    println!(
        "# {} seed={} passes={} statements/pass={} run={:.1}s",
        r.workload, r.seed, s.n, r.statements_per_pass, r.run_s
    );
    println!(
        "#   pass wall: p50={:.1} ms  min={:.1} ms  MAD={:.1} ms  n={}{}",
        s.p50,
        s.min,
        s.mad,
        s.n,
        match s.tail {
            Some((p, v)) => format!("  p{}={v:.1} ms", p * 100.0),
            None => "  (no tail percentile has ten samples beyond it)".to_string(),
        }
    );
    println!(
        "#   items={} rows={} udf_calls={} loose_rows={} digest={:016x}",
        r.items, r.rows, r.calls, r.loose_rows, r.digest
    );
    println!(
        "#   reference (USING mc, one statement): {:.1} ms wall, {} calls; accuracy checks {}/{} ok",
        r.reference.0, r.reference.1, r.accuracy.ok, r.accuracy.checked
    );
    println!(
        "#   within_requested_eps={}/{} rows  loose_bound_share={:.4}  bound_over_eps={:.4}  failed_share={:.4} ({} of {} operations)",
        r.accuracy.within_eps,
        r.accuracy.emitted,
        r.loose_rows as f64 / r.rows.max(1) as f64,
        r.bound_over_eps,
        1.0 - r.metric("passed_share"),
        r.failures.len(),
        r.attempted,
    );
    for f in &r.failures {
        println!("#   FAILED: {f}");
    }
    for (d, v) in &r.metrics {
        println!("{:<22} {:>16.6} {}", d.name, v, d.unit);
    }
}

/// Write the run's stamp (environment, seed, per-pass times, metrics) next
/// to the trace files.
fn write_stamp(r: &Report, seconds: u64) -> std::io::Result<()> {
    let doc = Obj::new()
        .str("workload", r.workload)
        .raw("env", &env::stamp().finish())
        .int("seed", r.seed)
        .int("seconds", seconds)
        .int("passes", r.pass_ms.len() as u64)
        .int("statements_per_pass", r.statements_per_pass as u64)
        .raw("pass_ms", &arr(r.pass_ms.iter().map(|v| num(*v))))
        .raw("setup_s", &arr(r.setup_s.iter().map(|v| num(*v))))
        .num("run_s", r.run_s)
        .int("attempted", r.attempted)
        .int("failed", r.failures.len() as u64)
        .str("digest", &format!("{:016x}", r.digest))
        .raw("metrics", &metrics_json(metric_triples(r)))
        .finish();
    std::fs::write(
        env::out_dir()?.join(format!("run-{}.json", r.workload)),
        doc + "\n",
    )
}

fn metric_triples(r: &Report) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
    r.metrics.iter().map(|(d, v)| (d.name, d.unit, *v))
}

fn report_line(r: &Report) -> String {
    result_line(
        r.correct(),
        r.attempted,
        r.failures.len() as u64,
        metric_triples(r),
    )
}

/// A/A: every workload twice with the same seed. Counts and digests must
/// be identical; every end-to-end metric must agree within its own bound.
fn selfcheck(kinds: &[Kind], seed: u64, seconds: u64, scale: &Scale) -> bool {
    let mut ok = true;
    for &kind in kinds {
        let a = measure(kind, seed, seconds, scale);
        let b = measure(kind, seed, seconds, scale);
        println!(
            "# selfcheck {} (seed {seed}, {} passes each)",
            a.workload,
            a.pass_ms.len()
        );
        let counts = |r: &Report| (r.items, r.rows, r.calls, r.digest, r.loose_rows, r.accuracy);
        if counts(&a) != counts(&b) || !a.correct() || !b.correct() {
            ok = false;
            println!("#   FAILED: counts/digests differ or a run failed its checks");
            for (label, r) in [("A", &a), ("B", &b)] {
                println!("#     {label}: {:?} {:?}", counts(r), r.failures);
            }
        }
        for ((d, va), (_, vb)) in a.metrics.iter().zip(&b.metrics) {
            let gap = (va - vb).abs() / va.abs().max(vb.abs());
            let bound = d.bound.expect("end-to-end metrics have bounds");
            let within = gap <= bound;
            ok &= within;
            println!(
                "{:<22} A={va:<14.6} B={vb:<14.6} gap={:>6.2}% bound={:>4.0}% {}",
                d.name,
                gap * 100.0,
                bound * 100.0,
                if within { "ok" } else { "FAILED" }
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("udf-bench-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        eprintln!(
            "udf-bench-e2e: --trace 1 is the udf-bench-ladder binary (benchmark/run.sh picks it)"
        );
        return ExitCode::from(2);
    }
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);

    if args.selfcheck {
        let ok = selfcheck(&kinds, args.seed, args.seconds, &scale);
        println!("# selfcheck {}", if ok { "passed" } else { "FAILED" });
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if !args.smoke && args.workload.is_none() {
        eprintln!("udf-bench-e2e: --workload is required (or --selfcheck / --smoke)");
        return ExitCode::from(2);
    }

    let mut all_ok = true;
    let mut last_line = String::new();
    for kind in kinds {
        let report = measure(kind, args.seed, args.seconds, &scale);
        print_report(&report);
        if let Err(e) = write_stamp(&report, args.seconds) {
            eprintln!("udf-bench-e2e: cannot write the run stamp: {e}");
        }
        all_ok &= report.correct();
        last_line = report_line(&report);
        if args.smoke {
            println!("{last_line}");
        }
    }
    if !args.smoke {
        println!("{last_line}");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
