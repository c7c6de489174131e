//! An interactive UQL shell over a demo context.
//!
//! Reads one statement per line from stdin until EOF — pipe a script for
//! non-interactive use (this is what the CI smoke step does):
//!
//! ```sh
//! cargo run --release --example uql_repl
//! printf 'SELECT GalAge(z) FROM sky USING gp SEED 1\n' | \
//!     cargo run --release --example uql_repl
//! ```
//!
//! The demo context registers [`UdfCatalog::standard`] (F1–F4 +
//! GalAge/ComoveVol/AngDist), a 256-galaxy `sky` relation with
//! Gaussian-uncertain redshifts, and three stream sources: `synth` (1-D
//! synthetic), `sky_stream` (catalog redshifts), `pairs` (redshift pairs).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, BufRead, Write as _};
use udf_uncertain::prelude::*;
use udf_uncertain::workloads::astro::GalaxyCatalog;
use udf_uncertain::workloads::synthetic::DOMAIN;

fn demo_context() -> UqlContext {
    let mut ctx = UqlContext::standard();

    // A synthetic SDSS-like catalog as the `sky` relation.
    let mut rng = StdRng::seed_from_u64(42);
    let catalog = GalaxyCatalog::generate(256, &mut rng);
    let tuples = catalog
        .rows()
        .iter()
        .map(|r| {
            Tuple::new(vec![
                Value::Det(r.obj_id as f64),
                Value::Gaussian {
                    mu: r.z_mean,
                    sigma: r.z_sigma,
                },
            ])
        })
        .collect();
    ctx.register_relation(
        "sky",
        Relation::new(Schema::new(&["objID", "z"]), tuples).unwrap(),
    );

    // A small catalog for JOIN demos: n² pair evaluation is quadratic, so
    // the self-join playground stays deliberately compact (24 galaxies →
    // 276 ordered pairs).
    let tuples = (0..24)
        .map(|i| {
            Tuple::new(vec![
                Value::Det(i as f64),
                Value::Gaussian {
                    mu: 0.1 + 1.7 * i as f64 / 24.0,
                    sigma: 0.02,
                },
            ])
        })
        .collect();
    ctx.register_relation(
        "stars",
        Relation::new(Schema::new(&["objID", "z"]), tuples).unwrap(),
    );

    // A relation on the synthetic functions' domain, for F1–F4 queries.
    let tuples = (0..256)
        .map(|i| {
            Tuple::new(vec![
                Value::Det(i as f64),
                Value::Gaussian {
                    mu: DOMAIN.0 + (i as f64 * 0.61) % (DOMAIN.1 - DOMAIN.0),
                    sigma: 0.5,
                },
            ])
        })
        .collect();
    ctx.register_relation(
        "points",
        Relation::new(Schema::new(&["id", "x"]), tuples).unwrap(),
    );

    ctx.register_stream("synth", 1, || {
        Box::new(SyntheticSource::gaussian(1, 0.5, 11))
    });
    ctx.register_stream("sky_stream", 1, || {
        let mut rng = StdRng::seed_from_u64(42);
        Box::new(AstroSource::galage(GalaxyCatalog::generate(256, &mut rng)))
    });
    ctx.register_stream("pairs", 2, || {
        let mut rng = StdRng::seed_from_u64(42);
        Box::new(AstroSource::pairs(GalaxyCatalog::generate(256, &mut rng)))
    });
    ctx
}

fn print_catalog(ctx: &UqlContext) {
    println!("UDFs:");
    for (name, e) in ctx.udfs().iter() {
        println!(
            "  {name:<10} dim={} range≈{:<8.3} {}",
            e.dim(),
            e.output_range,
            e.description
        );
    }
    println!("Relations: {}", ctx.relation_names().join(", "));
    println!("Streams:   {}", ctx.stream_names().join(", "));
}

fn main() {
    let mut ctx = demo_context();
    println!("UQL shell — `\\d` lists the catalog, `\\h` shows the grammar, `\\metrics` dumps counters, `\\top` shows firing alerts, `\\q` quits.");
    println!("Example: SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.5, 0.9]) >= 0.6 USING gp WORKERS 2 SEED 7");

    let stdin = io::stdin();
    loop {
        print!("uql> ");
        io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line {
            "\\q" | "quit" | "exit" => break,
            "\\d" => {
                print_catalog(&ctx);
                continue;
            }
            "\\metrics" => {
                print!("{}", ctx.metrics().render());
                continue;
            }
            "\\top" => {
                // The loop already ticks once per executed statement, so
                // the dashboard is current; ticking again here would fold
                // an empty window and resolve every alert.
                print!("{}", ctx.monitor().render_top());
                continue;
            }
            "\\metrics reset" => {
                ctx.metrics().reset();
                println!("metrics reset (the monitor's next window starts from zero)");
                continue;
            }
            "\\h" | "help" => {
                println!(
                    "SELECT f(attr, ...) [WITH ACCURACY eps delta [METRIC ks|disc]]\n\
                     FROM <relation> | STREAM <source> | <rel> a JOIN <rel> b [ON a.key < b.key]\n\
                     [WHERE PR(f(attr, ...) IN [lo, hi]) >= theta]\n\
                     [USING mc|gp|auto] [WORKERS n] [BATCH n] [SEED n] [LIMIT n] [MODEL CAP n]\n\
                     JOIN queries qualify attributes with their alias (AngDist(a.z, b.z)).\n\
                     Prefix with EXPLAIN to print the plan without executing, or\n\
                     EXPLAIN ANALYZE to execute and print per-operator timings and\n\
                     the statement's metrics delta (reroutes, model size, cap hits);\n\
                     `\\metrics` dumps the session's metrics registry,\n\
                     `\\metrics <prefix>` dumps only metrics under a prefix,\n\
                     `\\metrics reset` zeroes it,\n\
                     `\\top` shows the monitor (firing alerts, recent transitions)."
                );
                continue;
            }
            _ => {}
        }
        if let Some(rest) = line.strip_prefix("\\metrics ") {
            let prefix = rest.trim();
            if !prefix.is_empty() {
                println!("metrics filtered by prefix `{prefix}`:");
                print!("{}", ctx.metrics().snapshot().filtered(prefix).render());
                continue;
            }
        }
        match ctx.run(line) {
            Ok(out) => print!("{}", out.report()),
            Err(e) => println!("{}", e.render(line)),
        }
        // One monitor tick per executed statement, so each `\top` verdict
        // covers the statements since the previous one. Output-blind: the
        // tick only reads a snapshot.
        ctx.monitor_mut().tick();
    }
    println!("bye");
}
