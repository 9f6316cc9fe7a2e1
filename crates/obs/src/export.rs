//! Text and JSON renderings of an [`ObsSession`].
//!
//! The JSON exporter is hand-rolled (this crate is dependency-free) and
//! emits one stable schema shared by `jucq --metrics-json` and the
//! bench harness sidecars:
//!
//! ```json
//! {
//!   "schema": "jucq-obs/1",
//!   "spans": [{"id": 1, "parent": null, "name": "answer",
//!              "start_ns": 0, "dur_ns": 12345, "thread": 1}],
//!   "dropped_spans": 0,
//!   "counters": {"plan_cache.hits": 3},
//!   "gauges": {"plan_cache.hit_ratio": 0.75},
//!   "histograms": {"pipeline.execution.ns":
//!       {"count": 4, "sum": 100, "min": 10, "max": 40,
//!        "p50": 31, "p90": 63, "p95": 63, "p99": 63,
//!        "buckets": [[16, 32, 2], [32, 64, 2]]}}
//! }
//! ```

use crate::span::SpanRecord;
use crate::ObsSession;
use std::fmt::Write as _;

/// Escape `s` as the body of a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_escaped(&mut out, s);
    out
}

/// Append `s` to `out`, escaped as the body of a JSON string literal.
fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A `fmt::Write` over a `String` that JSON-escapes what passes
/// through, so a `Display` value lands in a JSON string literal without
/// being rendered to a `String` of its own first.
pub struct JsonEscaped<'a>(pub &'a mut String);

impl std::fmt::Write for JsonEscaped<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        push_json_escaped(self.0, s);
        Ok(())
    }
}

/// Render a finite `f64` in a JSON-safe way (`NaN`/`inf` become null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Render a session as the stable JSON schema above.
pub fn to_json(session: &ObsSession) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"schema\":\"jucq-obs/1\",\"spans\":[");
    for (i, s) in session.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"thread\":{}}}",
            s.id,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            escape_json(s.name),
            s.start_ns,
            s.dur_ns,
            s.thread,
        );
    }
    let _ = write!(out, "],\"dropped_spans\":{},\"counters\":{{", session.dropped_spans);
    for (i, (k, v)) in session.metrics.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape_json(k), v);
    }
    out.push_str("},\"gauges\":{");
    for (i, (k, v)) in session.metrics.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape_json(k), json_f64(*v));
    }
    out.push_str("},\"histograms\":{");
    for (i, (k, h)) in session.metrics.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
             \"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
            escape_json(k),
            h.count,
            h.sum,
            h.min,
            h.max,
            h.p50,
            h.p90,
            h.p95,
            h.p99,
        );
        for (j, (lo, hi, c)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{lo},{hi},{c}]");
        }
        out.push_str("]}");
    }
    out.push_str("}}");
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Append `span` and its children (pre-order) to `out`.
fn render_span_tree(
    out: &mut String,
    spans: &[SpanRecord],
    children: &[Vec<usize>],
    ix: usize,
    depth: usize,
) {
    let s = &spans[ix];
    let _ = writeln!(out, "{:indent$}{} {}", "", s.name, fmt_ns(s.dur_ns), indent = depth * 2);
    for &c in &children[ix] {
        render_span_tree(out, spans, children, c, depth + 1);
    }
}

/// Render a session as an indented span tree plus a metrics table.
pub fn to_text(session: &ObsSession) -> String {
    let mut out = String::new();
    if !session.spans.is_empty() {
        out.push_str("spans:\n");
        // Index spans by id, then attach children in start order.
        let spans = &session.spans;
        let pos_of_id: std::collections::HashMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| (spans[i].start_ns, spans[i].id));
        for &i in &order {
            match spans[i].parent.and_then(|p| pos_of_id.get(&p)) {
                Some(&p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        for r in roots {
            render_span_tree(&mut out, spans, &children, r, 1);
        }
        if session.dropped_spans > 0 {
            let _ = writeln!(out, "  ({} spans dropped)", session.dropped_spans);
        }
    }
    if !session.metrics.counters.is_empty() {
        out.push_str("counters:\n");
        for (k, v) in &session.metrics.counters {
            let _ = writeln!(out, "  {k:<40} {v}");
        }
    }
    if !session.metrics.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (k, v) in &session.metrics.gauges {
            let _ = writeln!(out, "  {k:<40} {v:.4}");
        }
    }
    if !session.metrics.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (k, h) in &session.metrics.histograms {
            let _ = writeln!(
                out,
                "  {k:<40} n={} p50≤{} p90≤{} p95≤{} p99≤{} max={}",
                h.count, h.p50, h.p90, h.p95, h.p99, h.max
            );
        }
    }
    if out.is_empty() {
        out.push_str("(no observability data collected)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::ObsSession;

    fn sample_session() -> ObsSession {
        let r = Registry::default();
        r.counter_add("plan_cache.hits", 3);
        r.counter_add("plan_cache.misses", 1);
        r.gauge_set("plan_cache.hit_ratio", 0.75);
        for v in [10u64, 25, 31, 40] {
            r.histogram_record("pipeline.execution.ns", v);
        }
        ObsSession {
            spans: vec![
                crate::SpanRecord {
                    id: 1,
                    parent: None,
                    name: "answer",
                    start_ns: 0,
                    dur_ns: 5_000,
                    thread: 1,
                },
                crate::SpanRecord {
                    id: 2,
                    parent: Some(1),
                    name: "execution \"quoted\"",
                    start_ns: 100,
                    dur_ns: 4_000,
                    thread: 1,
                },
            ],
            dropped_spans: 0,
            metrics: r.snapshot(),
        }
    }

    #[test]
    fn json_export_is_valid_json() {
        let j = to_json(&sample_session());
        crate::json::parse(&j).expect("exporter must emit valid JSON");
        assert!(j.contains("\"plan_cache.hits\":3"));
        assert!(j.contains("\"schema\":\"jucq-obs/1\""));
        assert!(j.contains("execution \\\"quoted\\\""));
        assert!(j.contains("\"p95\":"), "percentile snapshot includes p95");
    }

    #[test]
    fn text_export_nests_children() {
        let t = to_text(&sample_session());
        let answer_at = t.find("  answer").expect("root span line");
        let child_at = t.find("    execution").expect("indented child line");
        assert!(child_at > answer_at);
        assert!(t.contains("plan_cache.hits"));
        assert!(t.contains("pipeline.execution.ns"));
    }

    #[test]
    fn empty_session_renders_placeholder() {
        let empty = ObsSession { spans: vec![], dropped_spans: 0, metrics: Default::default() };
        crate::json::parse(&to_json(&empty)).expect("empty JSON valid");
        assert!(to_text(&empty).contains("no observability data"));
    }
}
