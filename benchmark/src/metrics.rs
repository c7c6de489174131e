//! The metrics the benchmark prints. `BENCHMARK.json` declares the same two
//! tables; the tests below keep code and file equal.

/// A metric the benchmark prints: its name, unit, direction and the share
/// of the parent's median it may worsen by. `BENCHMARK.json` declares the
/// same table; a test keeps the two equal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDecl {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// The end-to-end metrics, the same eight on every workload.
pub const END_TO_END: [MetricDecl; 8] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_ms_p50", "ms", "lower", 0.25),
    e2e("udf_calls_per_item", "count", "lower", 0.05),
    e2e("total_ms_at_1ms", "ms", "lower", 0.25),
    e2e("speedup_vs_mc", "ratio", "higher", 0.25),
    e2e("accuracy_ok_share", "ratio", "higher", 0.20),
    e2e("peak_rss_mb", "MB", "lower", 0.20),
    e2e("passed_share", "ratio", "higher", 0.02),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them. A
/// metric whose layer a workload never enters reads 0 there.
pub const PER_LAYER: [MetricDecl; 54] = [
    layer("lang.parse_us", "us", "lower"),
    layer("lang.bind_us", "us", "lower"),
    layer("lang.self_ms", "ms", "lower"),
    layer("query.batch_ms", "ms", "lower"),
    layer("query.self_ms", "ms", "lower"),
    layer("join.run_ms", "ms", "lower"),
    layer("join.self_ms", "ms", "lower"),
    layer("join.pairs_per_s", "1/s", "higher"),
    layer("join.filtered_share", "ratio", "higher"),
    layer("stream.run_ms", "ms", "lower"),
    layer("stream.self_ms", "ms", "lower"),
    layer("stream.tuples_per_s", "1/s", "higher"),
    layer("stream.fast_share", "ratio", "higher"),
    layer("sched.two_phase_ms", "ms", "lower"),
    layer("sched.self_ms", "ms", "lower"),
    layer("sched.reroute_share", "ratio", "lower"),
    layer("sched.filter_share", "ratio", "higher"),
    layer("sched.w2_speedup", "ratio", "higher"),
    layer("olgapro.fast_us_p50", "us", "lower"),
    layer("olgapro.fast_us_p95", "us", "lower"),
    layer("olgapro.fast_ms_total", "ms", "lower"),
    layer("olgapro.slow_ms_p50", "ms", "lower"),
    layer("olgapro.slow_ms_total", "ms", "lower"),
    layer("olgapro.model_points", "count", "lower"),
    layer("olgapro.points_per_slow_tuple", "count", "lower"),
    layer("olgapro.retrain_count", "count", "lower"),
    layer("olgapro.eps_gp_over_budget_p50", "ratio", "lower"),
    layer("olgapro.fast_unattributed_share", "ratio", "lower"),
    layer("mc.tuple_us_p50", "us", "lower"),
    layer("mc.tuple_us_p95", "us", "lower"),
    layer("mc.samples_per_tuple", "count", "lower"),
    layer("mc.early_stop_share", "ratio", "higher"),
    layer("bound.envelope_us_p50", "us", "lower"),
    layer("bound.lambda_us_p50", "us", "lower"),
    layer("gp.band_z_us_p50", "us", "lower"),
    layer("gp.select_us_p50", "us", "lower"),
    layer("gp.selected_points_p50", "count", "lower"),
    layer("gp.factor_us_p50", "us", "lower"),
    layer("gp.cache_hit_share", "ratio", "higher"),
    layer("gp.predict_us_p50", "us", "lower"),
    layer("gp.predict_ns_per_sample", "ns", "lower"),
    layer("gp.add_point_us_p50", "us", "lower"),
    layer("gp.train_ms_p50", "ms", "lower"),
    layer("gp.retrain_check_us_p50", "us", "lower"),
    layer("linalg.solve_multi_us", "us", "lower"),
    layer("linalg.factor_us", "us", "lower"),
    layer("linalg.append_us", "us", "lower"),
    layer("spatial.query_us_p50", "us", "lower"),
    layer("spatial.insert_us_p50", "us", "lower"),
    layer("prob.sample_us_p50", "us", "lower"),
    layer("prob.ecdf_us_p50", "us", "lower"),
    layer("udf.eval_ns", "ns", "lower"),
    layer("obs.metrics_on_delta_ms", "ms", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::read::{parse, Value};
    use crate::workloads::Kind;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    /// Names, units, directions and bounds printed == those declared.
    fn assert_same(declared: &Value, printed: &[MetricDecl]) {
        let declared = declared.arr();
        assert_eq!(declared.len(), printed.len());
        for (d, p) in declared.iter().zip(printed) {
            assert!(well_formed(p.name), "{:?}", p.name);
            assert_eq!(d.get("name").str(), p.name);
            assert_eq!(d.get("unit").str(), p.unit, "{}", p.name);
            assert_eq!(d.get("better").str(), p.better, "{}", p.name);
            match p.bound {
                Some(bound) => {
                    assert_eq!(d.get("bound").num(), bound, "{}", p.name);
                    assert!(bound <= 0.25, "{}", p.name);
                }
                None => assert_eq!(d.keys(), ["name", "unit", "better"], "{}", p.name),
            }
        }
        let mut names: Vec<&str> = printed.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), printed.len(), "a metric name is used twice");
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        let m = manifest();
        assert_same(m.get("end_to_end"), &END_TO_END);
        assert_same(m.get("per_layer"), &PER_LAYER);
        assert!(END_TO_END
            .iter()
            .any(|d| (d.name, d.unit, d.better) == ("setup_s", "s", "lower")));
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            END_TO_END[0].bound,
            Some(largest),
            "setup_s takes the largest bound"
        );
    }

    #[test]
    fn declared_workloads_are_the_four_kinds() {
        let m = manifest();
        let declared: Vec<&str> = m
            .get("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").str())
            .collect();
        let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(declared, kinds);
        assert_eq!(m.get("paths").arr(), &[Value::Str("benchmark".into())]);
    }
}
