//! §6.4 / Fig. 6: the astrophysics case study.
//!
//! * the table of UDF dimensionalities and evaluation times (paper's values
//!   vs. this machine's measured values);
//! * Fig. 6(a): the output pdf of AngDist on an uncertain input pair
//!   (non-Gaussian);
//! * Fig. 6(b,c,d): GP (OLGAPRO) vs. MC running time vs. ε for AngDist,
//!   GalAge, and ComoveVol on the synthetic SDSS-like catalog.
//!
//! Paper shape: OLGAPRO somewhat slower than MC for the very fast AngDist,
//! and 1–2 orders of magnitude faster for GalAge and ComoveVol.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use udf_bench::{header, total_ms_per_input};
use udf_core::config::{AccuracyRequirement, Metric, OlgaproConfig};
use udf_core::filtering::{mc_eval_tuple, FilterDecision};
use udf_core::olgapro::Olgapro;
use udf_core::udf::BlackBoxUdf;
use udf_prob::InputDistribution;
use udf_workloads::astro::{astro_udfs, paper_eval_time, Cosmology, GalaxyCatalog};

fn main() {
    let cosmology = Cosmology::default();
    let udfs = astro_udfs(cosmology, 0.1);
    let mut rng = StdRng::seed_from_u64(2013);
    let catalog = GalaxyCatalog::generate(64, &mut rng);

    // ------------------------------------------------------------------
    // Table: dims and evaluation times.
    // ------------------------------------------------------------------
    header(
        "§6.4 table",
        "astro UDFs — dimensionality and evaluation time",
        "FunctName   Dim   paper T (ms)   measured T here (ms)",
    );
    for udf in &udfs {
        let probe = if udf.dim() == 1 {
            vec![vec![0.5], vec![1.0], vec![1.5]]
        } else {
            vec![vec![0.3, 0.9], vec![0.5, 1.5], vec![0.2, 1.8]]
        };
        // Measure the real numerical cost (cost model charges are separate).
        let reps = 200;
        let t0 = Instant::now();
        for _ in 0..reps {
            for p in &probe {
                std::hint::black_box(udf_measure_eval(udf, p));
            }
        }
        let measured = t0.elapsed().as_secs_f64() * 1e3 / (reps * probe.len()) as f64;
        println!(
            "{:<11} {:>3}   {:>10.5}   {:>12.5}",
            udf.name(),
            udf.dim(),
            paper_eval_time(udf.name()).expect("known").as_secs_f64() * 1e3,
            measured
        );
    }

    // ------------------------------------------------------------------
    // Fig 6(a): example output pdf of AngDist.
    // ------------------------------------------------------------------
    println!("\nFig 6(a): output pdf of AngDist on one uncertain pair (histogram)");
    let input = catalog.pair_input(0, 1);
    let acc = AccuracyRequirement::new(0.02, 0.05, 0.0, Metric::Ks).expect("valid");
    let FilterDecision::Kept { output: out, .. } =
        mc_eval_tuple(&udfs[0], &input, &acc, None, &mut rng).expect("mc")
    else {
        unreachable!("no predicate, nothing is dropped")
    };
    for (y, density) in out.ecdf.density_histogram(24) {
        let bar = "#".repeat((density / 2.0).min(60.0) as usize);
        println!("  y={y:>7.4}  pdf={density:>8.4}  {bar}");
    }

    // ------------------------------------------------------------------
    // Fig 6(b,c,d): GP vs MC time vs ε per UDF.
    // ------------------------------------------------------------------
    let n_pairs = udf_bench::inputs_per_point().min(20);
    for udf in &udfs {
        println!(
            "\nFig 6({}): {} — time vs ε   [total ms/input = overhead + #calls x paper T]",
            match udf.name() {
                "AngDist" => "b",
                "GalAge" => "c",
                _ => "d",
            },
            udf.name()
        );
        println!("  ε       GP (ms)       MC (ms)    GP model size");
        let inputs: Vec<InputDistribution> = (0..n_pairs)
            .map(|i| {
                if udf.dim() == 1 {
                    catalog.galage_input(i % catalog.len())
                } else {
                    catalog.pair_input(i % catalog.len(), (i * 7 + 1) % catalog.len())
                }
            })
            .collect();
        // Output range estimate for Γ/λ scaling.
        let range = estimate_range(udf, &inputs, &mut rng);
        for eps in [0.02f64, 0.05, 0.1, 0.2] {
            let acc = AccuracyRequirement::new(eps, 0.05, 0.01 * range, Metric::Discrepancy)
                .expect("valid");
            // GP.
            let cfg = OlgaproConfig::new(acc, range).expect("config");
            let mut olga = Olgapro::new(udf.clone(), cfg);
            let mut r = StdRng::seed_from_u64(7);
            let t0 = Instant::now();
            let mut gp_calls = 0;
            for inp in &inputs {
                gp_calls += olga.process(inp, &mut r).expect("gp").udf_calls;
            }
            let gp_ms = total_ms_per_input(t0.elapsed(), udf, gp_calls, inputs.len());
            // MC.
            let mut r = StdRng::seed_from_u64(7);
            let t0 = Instant::now();
            let mut mc_calls = 0;
            for inp in &inputs {
                let FilterDecision::Kept { output, .. } =
                    mc_eval_tuple(udf, inp, &acc, None, &mut r).expect("mc")
                else {
                    unreachable!("no predicate, nothing is dropped")
                };
                mc_calls += output.udf_calls;
            }
            let mc_ms = total_ms_per_input(t0.elapsed(), udf, mc_calls, inputs.len());
            println!(
                "  {eps:<6} {gp_ms:>9.2} {mc_ms:>13.2} {:>12}",
                olga.model().len()
            );
        }
    }
    println!("\nExpected shape: GP ≫ faster for GalAge/ComoveVol; MC competitive for AngDist.");
}

fn udf_measure_eval(udf: &BlackBoxUdf, x: &[f64]) -> f64 {
    udf.eval(x)
}

fn estimate_range(udf: &BlackBoxUdf, inputs: &[InputDistribution], rng: &mut StdRng) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for inp in inputs.iter().take(5) {
        for _ in 0..20 {
            let v = udf.eval(&inp.sample(rng));
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    (hi - lo).max(1e-6)
}
