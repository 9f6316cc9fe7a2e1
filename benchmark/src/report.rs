//! The metric tables and the result a run prints.
//!
//! The two tables below are the single source of the metric names and
//! units: `BENCHMARK.json` lists exactly these, and a run prints every
//! metric of the table its `--trace` mode selects.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit as `BENCHMARK.json` declares them.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the engine sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] =
    &[def("setup_s", "s"), def("pass_ms", "ms"), def("qps", "1/s"), def("peak_rss_mb", "MB")];

/// One layer each; measured by the traced run. A metric whose layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    def("core.parser.ms", "ms"),
    def("core.plan_cache.ms", "ms"),
    def("core.plan_cache.cover_hit_ratio", "ratio"),
    def("core.plan_cache.plan_hit_ratio", "ratio"),
    def("optimizer.search_ms", "ms"),
    def("optimizer.covers_explored", "count"),
    def("optimizer.us_per_cover", "us"),
    def("reformulation.jucq_ms", "ms"),
    def("reformulation.union_terms", "count"),
    def("store.plan.ms", "ms"),
    def("store.exec.ms", "ms"),
    def("store.exec.ms.star", "ms"),
    def("store.exec.ms.path", "ms"),
    def("store.exec.ms.tree", "ms"),
    def("store.exec.ms.cyclic", "ms"),
    def("store.exec.tuples_scanned", "count"),
    def("store.exec.tuples_joined", "count"),
    def("store.exec.tuples_materialized", "count"),
    def("store.exec.tuples_deduped", "count"),
    def("store.exec.scanned_per_row", "ratio"),
    def("model.dict.decode_ms", "ms"),
    def("model.dict.render_ms", "ms"),
    def("model.dict.terms_decoded", "count"),
    def("model.dict.ns_per_term", "ns"),
    def("core.answer.overhead_ms", "ms"),
    def("core.request.p50_ms", "ms"),
    def("core.request.p95_ms", "ms"),
    def("core.strategy.sat_pass_ms", "ms"),
    def("core.strategy.ucq_pass_ms", "ms"),
    def("core.strategy.scq_pass_ms", "ms"),
    def("core.strategy.gcov_pass_ms", "ms"),
    def("core.strategy.gcov_regret", "ratio"),
    def("core.strategy.refused", "count"),
    def("core.serving.update_ms", "ms"),
    def("core.serving.first_query_after_update_ms", "ms"),
    def("server.overhead_ms_p50", "ms"),
    def("server.response_bytes", "bytes"),
    def("server.rejected_429", "count"),
    def("datagen.generate_s", "s"),
    def("reformulation.saturate_s", "s"),
    def("store.build_s", "s"),
    def("optimizer.calibrate_s", "s"),
    def("store.triples", "count"),
    def("store.saturated_triples", "count"),
    def("trace.overhead_ratio", "ratio"),
];

/// One measured value and the number of samples behind it.
#[derive(Clone, Copy)]
struct Value {
    value: f64,
    samples: usize,
}

/// Everything one run measured.
pub struct Report {
    pub workload: String,
    table: &'static [MetricDef],
    values: BTreeMap<&'static str, Value>,
    /// Timed operations (queries and updates).
    pub attempted: u64,
    /// Operations whose outcome did not match the oracle.
    pub failed: u64,
    /// Free-form facts for the JSON document (environment, query
    /// shapes, layer shares); not part of the result line.
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn new(workload: &str, traced: bool) -> Self {
        Report {
            workload: workload.to_owned(),
            table: if traced { PER_LAYER } else { END_TO_END },
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Record a metric of this run's table.
    ///
    /// # Panics
    /// Panics on a name the table does not declare: the tables are the
    /// contract with `BENCHMARK.json`.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let def = self
            .table
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared for this mode"));
        self.values.insert(def.name, Value { value, samples });
    }

    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.notes.push((key.to_owned(), value.into()));
    }

    fn value(&self, def: &MetricDef) -> Value {
        self.values.get(def.name).copied().unwrap_or(Value { value: 0.0, samples: 0 })
    }

    /// The `workload metric value unit n` lines.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for def in self.table {
            let v = self.value(def);
            let _ = writeln!(
                out,
                "{} {} {} {} {}",
                self.workload,
                def.name,
                number(v.value),
                def.unit,
                v.samples
            );
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, def) in self.table.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                number(self.value(def).value),
                def.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The JSON document written under `out/`: the result plus sample
    /// counts and notes.
    pub fn document(&self) -> String {
        let mut out = format!(
            "{{\n  \"workload\": \"{}\",\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n",
            self.workload, self.attempted, self.failed
        );
        for (i, def) in self.table.iter().enumerate() {
            let v = self.value(def);
            let _ = writeln!(
                out,
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}}}{}",
                def.name,
                number(v.value),
                def.unit,
                v.samples,
                if i + 1 < self.table.len() { "," } else { "" }
            );
        }
        out.push_str("  },\n  \"notes\": {\n");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{}\": \"{}\"{}",
                escape(k),
                escape(v),
                if i + 1 < self.notes.len() { "," } else { "" }
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// A JSON number with all the digits measured; non-finite values and
/// the empty sum's negative zero read 0.
fn number(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics of the two tables.
    #[test]
    fn tables_match_benchmark_json() {
        let declared = include_str!("../../BENCHMARK.json");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let section = declared.split_once(&format!("\"{key}\": [")).expect("section").1;
            let section = section.split_once(']').expect("section end").0;
            assert_eq!(section.matches("\"name\"").count(), table.len(), "{key}");
            for def in table {
                let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
                assert!(section.contains(&entry), "{key} lacks {entry}");
            }
        }
    }
}
