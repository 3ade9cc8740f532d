//! The metric registry: every metric the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names (a self-test keeps the two in step).

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

// Directions are read by the registry self-test against BENCHMARK.json.
#[cfg_attr(not(test), allow(dead_code))]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run (`--trace 0`). An
/// "operation" is one `schedule` call on `schedule_suite` and one sharded
/// cache simulation on the trace workloads. Times are process CPU time,
/// all threads included (see `harness::Phase::cpu`).
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
    def("ops_per_cpu_s", "1/s", Higher),
    def("op_cpu_p50_ms", "ms", Lower),
    def("op_cpu_tail_ms", "ms", Lower),
    def("model_speedup_geomean", "x", Higher),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). Each is
/// named after the crate or module it times.
pub const PER_LAYER: &[MetricDef] = &[
    // daisy: the scheduler's own phase split and plan decisions.
    def("daisy.normalize_ms", "ms", Lower),
    def("daisy.seed_ms", "ms", Lower),
    def("daisy.search_ms", "ms", Lower),
    def("daisy.cost_ms", "ms", Lower),
    def("daisy.search.candidates", "count", Lower),
    def("daisy.search.rewrites_priced", "count", Lower),
    def("daisy.plan.candidates_priced", "count", Lower),
    def("daisy.plan.exact_hits", "count", Higher),
    def("daisy.plan.idiom_hits", "count", Higher),
    def("daisy.plan.unoptimized", "count", Lower),
    def("daisy.transfer_hit_ratio", "ratio", Higher),
    def("daisy.variant_spread_geomean", "x", Lower),
    def("daisy.seed_from_programs_s", "s", Lower),
    // tunestore: persisting and warm-starting the tuning database.
    def("tunestore.persist_ms", "ms", Lower),
    def("tunestore.warm_start_ms", "ms", Lower),
    // normalize, dependence, transforms: the front of the pipeline.
    def("normalize.run_ms", "ms", Lower),
    def("normalize.nests_out", "count", Lower),
    def("normalize.repeat_share", "ratio", Lower),
    def("dependence.analyze_ms", "ms", Lower),
    def("transforms.fuse_ms", "ms", Lower),
    // machine.cost: the roofline model.
    def("machine.cost.estimate_us", "us", Lower),
    def("machine.cost.memo_hit_ratio", "ratio", Higher),
    // machine.exec / machine.shard / machine.cache: the exact simulator.
    def("machine.exec.lower_ms", "ms", Lower),
    def("machine.exec.stream_macc_per_s", "Macc/s", Higher),
    def("machine.shard.plan_ms", "ms", Lower),
    def("machine.shard.shards", "count", Lower),
    def("machine.shard.block_access_share", "ratio", Higher),
    def("machine.shard.one_worker_macc_per_s", "Macc/s", Higher),
    def("machine.shard.parallel_speedup", "x", Higher),
    def("machine.cache.sim_macc_per_s", "Macc/s", Higher),
    def("machine.cache.probes_per_access", "ratio", Lower),
    def("machine.cache.l1_hit_rate", "ratio", Higher),
    def("machine.cache.l2_hit_rate", "ratio", Higher),
    // machine.analytic: the bounded-error tier no timed path calls.
    def("machine.analytic.estimate_ms", "ms", Lower),
    def("machine.analytic.speedup_vs_exact", "x", Higher),
    def("machine.analytic.error_bound_share", "ratio", Lower),
    // Tracing overhead: traced minus untraced end-to-end timings.
    def("trace.overhead.ops_per_cpu_s", "1/s", Higher),
    def("trace.overhead.op_cpu_p50_ms", "ms", Lower),
    def("trace.overhead.op_cpu_tail_ms", "ms", Lower),
];

/// Metric values collected by one run, keyed by registry name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`, which must be a registry metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Renders `{"name": {"value": v, "unit": u}, ...}` over `defs`, in
    /// registry order. Every metric of `defs` must have been set.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let fields: Vec<String> = defs
            .iter()
            .map(|d| {
                let value = self
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(d.name),
                    json_num(value),
                    json_str(d.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    telemetry::json::json_string(s)
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which JSON cannot hold) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::{parse, Json};

    fn registry_of(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn local(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(registry_of(&doc, "end_to_end"), local(END_TO_END));
        assert_eq!(registry_of(&doc, "per_layer"), local(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn json_rendering_keeps_every_digit_and_parses_back() {
        let mut m = Metrics::default();
        for d in END_TO_END {
            m.set(d.name, 1.0 / 3.0);
        }
        let text = m.to_json(END_TO_END);
        let doc = parse(&text).unwrap();
        let v = doc.get("op_cpu_p50_ms").unwrap();
        assert_eq!(v.get("value").and_then(Json::as_f64), Some(1.0 / 3.0));
        assert_eq!(v.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    #[should_panic(expected = "unregistered metric")]
    fn unregistered_names_are_refused() {
        Metrics::default().set("no.such.metric", 1.0);
    }
}
