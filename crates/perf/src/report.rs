//! The metric contract (`BENCHMARK.json`, embedded at build time so names
//! and units have one source) and the result a run prints.

use tcsim_serve::json::{self, JsonValue};
use tcsim_sim::JsonWriter;

/// The benchmark contract this binary was built against.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One metric of the contract.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the base (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload names, in contract order.
    pub workloads: Vec<String>,
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// Metrics a user of the system sees.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers.
    pub per_layer: Vec<MetricSpec>,
}

fn metric_list(v: &JsonValue, key: &str) -> Result<Vec<MetricSpec>, String> {
    let items = v
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: missing array `{key}`"))?;
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.str_field(k)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry missing `{k}`"))
            };
            let better = match s("better")?.as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("BENCHMARK.json: bad `better` {other:?}")),
            };
            Ok(MetricSpec {
                name: s("name")?,
                unit: s("unit")?,
                better,
                bound: m.get("bound").and_then(JsonValue::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses a `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = v
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("BENCHMARK.json: missing array `workloads`")?
            .iter()
            .map(|w| {
                w.str_field("name")
                    .map(str::to_string)
                    .ok_or("BENCHMARK.json: workload without `name`".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Spec {
            workloads,
            run_seconds: v
                .u64_field("run_seconds")
                .ok_or("BENCHMARK.json: missing `run_seconds`")?,
            end_to_end: metric_list(&v, "end_to_end")?,
            per_layer: metric_list(&v, "per_layer")?,
        })
    }

    /// The contract embedded in this binary.
    pub fn embedded() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("embedded BENCHMARK.json parses")
    }
}

/// Values for one list of the contract's metrics, filled in by name.
pub struct Metrics<'a> {
    specs: &'a [MetricSpec],
    values: Vec<Option<f64>>,
}

impl<'a> Metrics<'a> {
    /// An empty set over `specs`.
    pub fn new(specs: &'a [MetricSpec]) -> Metrics<'a> {
        Metrics {
            specs,
            values: vec![None; specs.len()],
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics if the contract does not list `name`, or the value is not
    /// finite: both are harness bugs.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .specs
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in BENCHMARK.json"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values[i] = Some(value);
    }

    /// Gives every unset metric the value 0 — for per-layer metrics of
    /// layers the workload does not exercise.
    pub fn zero_fill(&mut self) {
        for v in &mut self.values {
            v.get_or_insert(0.0);
        }
    }

    /// `(spec, value)` rows in contract order.
    ///
    /// # Panics
    ///
    /// Panics if a metric was never set: every listed metric is printed.
    pub fn rows(&self) -> Vec<(&'a MetricSpec, f64)> {
        self.specs
            .iter()
            .zip(&self.values)
            .map(|(m, v)| {
                let v = v.unwrap_or_else(|| panic!("metric {} was never set", m.name));
                (m, v)
            })
            .collect()
    }
}

/// Outcome of one benchmark run.
pub struct RunResult<'a> {
    /// Operations attempted (launches, jobs, output checks).
    pub attempted: u64,
    /// Operations that failed a check, were refused or timed out.
    pub failed: u64,
    /// The metrics of this run.
    pub metrics: Metrics<'a>,
}

impl RunResult<'_> {
    /// The human-readable table: one `name value unit` line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (m, v) in self.metrics.rows() {
            out.push_str(&format!("{:<36} {:>18} {}\n", m.name, fmt_value(v), m.unit));
        }
        out
    }

    /// The contract's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut metrics = JsonWriter::object();
        for (m, v) in self.metrics.rows() {
            let mut one = JsonWriter::object();
            one.raw_field("value", &fmt_value(v));
            one.field_str("unit", &m.unit);
            metrics.raw_field(&m.name, &one.finish());
        }
        let mut w = JsonWriter::object();
        w.raw_field("correct", if self.failed == 0 { "true" } else { "false" });
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        w.raw_field("metrics", &metrics.finish());
        w.finish()
    }
}

/// A value with all its digits: integers without a fraction, everything
/// else in Rust's shortest round-tripping decimal form.
pub fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_contract_parses_and_names_are_unique() {
        let spec = Spec::embedded();
        assert_eq!(spec.workloads.len(), 5);
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(spec.workloads.iter().map(String::as_str))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let specs = vec![MetricSpec {
            name: "latency_ms".into(),
            unit: "ms".into(),
            better: Better::Lower,
            bound: Some(0.1),
        }];
        let mut metrics = Metrics::new(&specs);
        metrics.set("latency_ms", 1.25);
        let r = RunResult {
            attempted: 3,
            failed: 0,
            metrics,
        };
        assert_eq!(
            r.json_line(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"latency_ms":{"value":1.25,"unit":"ms"}}}"#
        );
        assert!(r.table().contains("latency_ms"));
    }

    #[test]
    fn values_keep_their_digits() {
        assert_eq!(fmt_value(12.0), "12");
        assert_eq!(fmt_value(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn unknown_metric_names_are_a_bug() {
        let specs: Vec<MetricSpec> = Vec::new();
        Metrics::new(&specs).set("nope", 1.0);
    }
}
