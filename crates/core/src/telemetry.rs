//! Workload telemetry: building [`QueryRecord`]s from answered queries
//! and replaying a recorded log against the current build.
//!
//! The record side renders each answered query back to normalized
//! SPARQL (so the log is self-contained and re-parseable), fingerprints
//! the canonicalized query and the physical plan, and attaches the
//! per-node estimate/actual profile of the run. The replay side
//! ([`replay`]) re-executes every recorded query under its recorded
//! strategy and diffs row counts, outcomes, latency percentiles, and
//! Q-error drift into a [`ReplayReport`] — the regression harness
//! behind `jucq replay`.

use std::fmt::Write as _;
use std::hash::Hasher as _;

use jucq_model::hash::FxHasher;
use jucq_model::{Dictionary, Term};
use jucq_obs::export::escape_json;
use jucq_obs::record::{q_error_safe, NodeRecord, QueryRecord, RecordCounters};
use jucq_reformulation::{BgpQuery, Cover};
use jucq_store::{ExecProfile, PatternTerm};

use crate::database::RdfDatabase;
use crate::epoch::{Answered, Snapshot};
use crate::plan_cache::PlanCacheStats;
use crate::report::AnswerError;
use crate::strategy::Strategy;

/// Render `q` back to parseable SPARQL under `dict`.
///
/// Variables print as `?v<N>`, URIs in angle brackets, literals with
/// only `"` and `\` escaped (the tokenizer's `\X → X` rule makes that
/// round-trip), blank constants with the `_:` prefix (not re-parseable
/// — replay reports those queries as parse errors instead of guessing).
///
/// A constant `dict` cannot decode — a frozen parse's sentinel, or an
/// id the writer interned after this dictionary was published — prints
/// as a reserved `urn:jucq:unknown:` term of its kind. The data holds
/// neither, so the text re-parses to a query with the same (empty)
/// extent for that atom and replays to the same rows.
pub fn render_sparql(q: &BgpQuery, dict: &Dictionary) -> String {
    let term = |t: &PatternTerm| match t {
        PatternTerm::Var(v) => format!("?v{v}"),
        PatternTerm::Const(id) => {
            let decoded = if dict.contains_id(*id) {
                dict.decode(*id)
            } else {
                Term::new(id.kind(), format!("urn:jucq:unknown:{}", id.index()).into())
            };
            match decoded {
                Term::Uri(u) => format!("<{u}>"),
                Term::Literal(s) => {
                    let mut out = String::with_capacity(s.len() + 2);
                    out.push('"');
                    for c in s.chars() {
                        if c == '"' || c == '\\' {
                            out.push('\\');
                        }
                        out.push(c);
                    }
                    out.push('"');
                    out
                }
                Term::Blank(b) => format!("_:{b}"),
            }
        }
    };
    let mut out = String::from("SELECT");
    if q.head.is_empty() {
        // `SELECT *`-less grammar: a headless query keeps no variables;
        // render a `*` so the text stays parseable.
        out.push_str(" *");
    }
    for v in &q.head {
        let _ = write!(out, " ?v{v}");
    }
    out.push_str(" WHERE {");
    for (i, a) in q.atoms.iter().enumerate() {
        if i > 0 {
            out.push_str(" .");
        }
        let _ = write!(out, " {} {} {}", term(&a.s), term(&a.p), term(&a.o));
    }
    out.push_str(" }");
    if let Some(n) = q.limit {
        let _ = write!(out, " LIMIT {n}");
    }
    out
}

fn fx_hex(text: &str) -> String {
    let mut h = FxHasher::default();
    h.write(text.as_bytes());
    format!("{:016x}", h.finish())
}

/// Stable fingerprint of `q`: the hash of its canonicalized rendering,
/// so the same query shape fingerprints identically regardless of the
/// variable numbering or atom order it arrived with. (Constants render
/// through the dictionary, so the fingerprint is also independent of
/// interning order.)
pub fn query_fingerprint(q: &BgpQuery, dict: &Dictionary) -> String {
    let (canonical, _) = q.canonicalize();
    fx_hex(&render_sparql(&canonical, dict))
}

/// Fingerprint of a physical plan: the hash of its node labels in
/// execution order.
pub fn plan_fingerprint(profile: &ExecProfile) -> String {
    let mut text = String::new();
    for n in &profile.nodes {
        text.push_str(&n.label);
        text.push('\n');
    }
    fx_hex(&text)
}

fn outcome_name(result: &Result<Answered, AnswerError>) -> &'static str {
    use jucq_store::EngineError;
    match result {
        Ok(_) => "ok",
        Err(AnswerError::Engine(EngineError::UnionTooLarge { .. })) => "union_too_large",
        Err(AnswerError::Engine(EngineError::MemoryBudgetExceeded { .. })) => "memory_breach",
        Err(AnswerError::Engine(EngineError::Timeout { .. })) => "deadline",
        Err(AnswerError::Cover(_)) => "cover_error",
    }
}

/// `Some(hit?)` when the stat pair shows the cache was consulted for
/// this query, `None` when there is no cache or no lookup happened.
fn cache_hit(before: Option<&PlanCacheStats>, after: Option<&PlanCacheStats>) -> Option<bool> {
    let (b, a) = (before?, after?);
    let lookups = (a.hits + a.misses).checked_sub(b.hits + b.misses)?;
    (lookups > 0).then_some(a.hits > b.hits)
}

fn plan_cache_hit(before: Option<&PlanCacheStats>, after: Option<&PlanCacheStats>) -> Option<bool> {
    let (b, a) = (before?, after?);
    let lookups = (a.plan_hits + a.plan_misses).checked_sub(b.plan_hits + b.plan_misses)?;
    (lookups > 0).then_some(a.plan_hits > b.plan_hits)
}

/// Build the structured log record of one query answered (or failed)
/// on `snapshot`. `seq` is left at 0 — the sink assigns it on submit.
pub(crate) fn build_record(
    snapshot: &Snapshot,
    q: &BgpQuery,
    strategy: &Strategy,
    result: &Result<Answered, AnswerError>,
    stats_before: Option<&PlanCacheStats>,
    stats_after: Option<&PlanCacheStats>,
) -> QueryRecord {
    let (dict, profile) = (snapshot.dict(), snapshot.profile());
    let mut rec = QueryRecord {
        query: render_sparql(q, dict),
        fingerprint: query_fingerprint(q, dict),
        strategy: strategy.name().to_owned(),
        profile: profile.plan_cache_key(),
        outcome: outcome_name(result).to_owned(),
        cover_cache_hit: cache_hit(stats_before, stats_after),
        plan_cache_hit: plan_cache_hit(stats_before, stats_after),
        ..QueryRecord::default()
    };
    let Ok(Answered { report, exec: exec_profile, .. }) = result else {
        return rec;
    };
    rec.rows = report.rows.len() as u64;
    rec.union_terms = report.union_terms as u64;
    rec.planning_ns = report.planning_time.as_nanos() as u64;
    rec.eval_ns = report.eval_time.as_nanos() as u64;
    rec.cover = report.cover.as_ref().map(|c| {
        c.fragments().into_iter().map(|f| f.into_iter().map(|i| i as u64).collect()).collect()
    });
    let c = report.counters;
    rec.counters = RecordCounters {
        tuples_scanned: c.tuples_scanned,
        tuples_joined: c.tuples_joined,
        tuples_materialized: c.tuples_materialized,
        tuples_deduped: c.tuples_deduped,
        sip_probes: c.sip_probes,
        sip_drops: c.sip_drops,
        range_scans: c.range_scans,
        view_hits: c.view_hits,
    };
    rec.range_eligible = report.range_eligible as u64;
    rec.range_scans_used = c.range_scans;
    rec.view_catalog_size = report.view_catalog_size as u64;
    if let Some(p) = exec_profile {
        rec.plan_fingerprint = Some(plan_fingerprint(p));
        rec.nodes = p
            .nodes
            .iter()
            .map(|n| NodeRecord {
                label: n.label.clone(),
                est_rows: n.est_rows,
                actual_rows: n.actual_rows,
                elapsed_ns: n.elapsed_ns,
                q_error: q_error_safe(n.est_rows, n.actual_rows),
            })
            .collect();
        rec.max_q_error = rec.nodes.iter().filter_map(|n| n.q_error).reduce(f64::max);
        if let Some(threshold) = jucq_obs::record::slow_threshold() {
            if report.planning_time + report.eval_time >= threshold {
                rec.slow_explain = Some(jucq_store::explain::render_analyze_report(
                    &profile.name,
                    report.cover.as_ref().map_or(1, Cover::len),
                    report.union_terms,
                    report.rows.len(),
                    rec.eval_ns,
                    &c,
                    p,
                ));
            }
        }
    }
    rec
}

/// Latency percentiles (nearest-rank over exact samples), nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyPercentiles {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl LatencyPercentiles {
    /// Nearest-rank percentiles of `samples` (order irrelevant); zeros
    /// when empty.
    pub fn of(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |q: f64| {
            let n = sorted.len();
            let r = ((q * n as f64).ceil() as usize).clamp(1, n);
            sorted[r - 1]
        };
        LatencyPercentiles { p50: rank(0.50), p95: rank(0.95), p99: rank(0.99) }
    }
}

/// One replayed record's comparison against its recording.
#[derive(Debug, Clone)]
pub struct ReplayEntry {
    /// The recording's sequence number.
    pub seq: u64,
    /// The recording's query fingerprint.
    pub fingerprint: String,
    /// Strategy short name replayed under.
    pub strategy: String,
    /// Recorded outcome string.
    pub recorded_outcome: String,
    /// Replayed outcome string (`None` when replay itself failed).
    pub replayed_outcome: Option<String>,
    /// Recorded answer rows.
    pub recorded_rows: u64,
    /// Replayed answer rows.
    pub replayed_rows: Option<u64>,
    /// Whether rows (for `ok`/`ok`) or outcomes (otherwise) match.
    pub rows_match: bool,
    /// Recorded evaluation time, nanoseconds.
    pub recorded_eval_ns: u64,
    /// Replayed evaluation time, nanoseconds.
    pub replayed_eval_ns: Option<u64>,
    /// Recorded largest per-node Q-error.
    pub recorded_max_q_error: Option<f64>,
    /// Replayed largest per-node Q-error.
    pub replayed_max_q_error: Option<f64>,
    /// Why the record could not be replayed (parse/strategy failure).
    pub error: Option<String>,
}

/// The regression report `jucq replay` prints and writes.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Records replayed.
    pub total: usize,
    /// `ok`/`ok` pairs whose row counts disagree.
    pub row_mismatches: usize,
    /// Pairs whose outcome strings disagree.
    pub outcome_mismatches: usize,
    /// Records that could not be replayed at all.
    pub replay_errors: usize,
    /// Percentiles of the recorded evaluation times.
    pub recorded_latency: LatencyPercentiles,
    /// Percentiles of the replayed evaluation times.
    pub replayed_latency: LatencyPercentiles,
    /// Largest `|replayed − recorded|` max-Q-error drift.
    pub max_q_error_drift: Option<f64>,
    /// Mean absolute max-Q-error drift.
    pub mean_q_error_drift: Option<f64>,
    /// Per-record detail, in log order.
    pub entries: Vec<ReplayEntry>,
}

impl ReplayReport {
    /// Mismatches that should fail a regression gate.
    pub fn mismatches(&self) -> usize {
        self.row_mismatches + self.outcome_mismatches + self.replay_errors
    }

    /// Render as a JSON document (schema `jucq-replay/1`).
    pub fn to_json(&self) -> String {
        let opt_f64 = |v: Option<f64>| match v {
            Some(v) if v.is_finite() => format!("{v}"),
            _ => "null".to_owned(),
        };
        let pct = |p: &LatencyPercentiles| {
            format!("{{\"p50\":{},\"p95\":{},\"p99\":{}}}", p.p50, p.p95, p.p99)
        };
        let mut out = String::with_capacity(512 + self.entries.len() * 160);
        let _ = write!(
            out,
            "{{\"schema\":\"jucq-replay/1\",\"total\":{},\"row_mismatches\":{},\
             \"outcome_mismatches\":{},\"replay_errors\":{}",
            self.total, self.row_mismatches, self.outcome_mismatches, self.replay_errors,
        );
        let _ = write!(
            out,
            ",\"recorded_latency_ns\":{},\"replayed_latency_ns\":{}",
            pct(&self.recorded_latency),
            pct(&self.replayed_latency),
        );
        let _ = write!(
            out,
            ",\"latency_delta_ns\":{{\"p50\":{},\"p95\":{},\"p99\":{}}}",
            self.replayed_latency.p50 as i64 - self.recorded_latency.p50 as i64,
            self.replayed_latency.p95 as i64 - self.recorded_latency.p95 as i64,
            self.replayed_latency.p99 as i64 - self.recorded_latency.p99 as i64,
        );
        let _ = write!(
            out,
            ",\"max_q_error_drift\":{},\"mean_q_error_drift\":{}",
            opt_f64(self.max_q_error_drift),
            opt_f64(self.mean_q_error_drift),
        );
        out.push_str(",\"entries\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"fingerprint\":\"{}\",\"strategy\":\"{}\",\
                 \"recorded_outcome\":\"{}\",\"replayed_outcome\":{},\
                 \"recorded_rows\":{},\"replayed_rows\":{},\"rows_match\":{},\
                 \"recorded_eval_ns\":{},\"replayed_eval_ns\":{},\
                 \"recorded_max_q_error\":{},\"replayed_max_q_error\":{},\"error\":{}}}",
                e.seq,
                escape_json(&e.fingerprint),
                escape_json(&e.strategy),
                escape_json(&e.recorded_outcome),
                e.replayed_outcome
                    .as_deref()
                    .map_or("null".to_owned(), |o| format!("\"{}\"", escape_json(o))),
                e.recorded_rows,
                e.replayed_rows.map_or("null".to_owned(), |r| r.to_string()),
                e.rows_match,
                e.recorded_eval_ns,
                e.replayed_eval_ns.map_or("null".to_owned(), |r| r.to_string()),
                opt_f64(e.recorded_max_q_error),
                opt_f64(e.replayed_max_q_error),
                e.error.as_deref().map_or("null".to_owned(), |m| format!("\"{}\"", escape_json(m))),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Rebuild the [`Strategy`] a record was answered under. Budgeted
/// searches replay with their default budgets (the recorded knobs are
/// in the profile fingerprint, not the strategy name); `Cover` records
/// rebuild their exact recorded fragments.
fn strategy_for(rec: &QueryRecord, q: &BgpQuery) -> Result<Strategy, String> {
    if rec.strategy == "Cover" {
        let fragments = rec.cover.as_ref().ok_or("Cover record without a cover")?;
        let fragments: Vec<Vec<usize>> =
            fragments.iter().map(|f| f.iter().map(|&i| i as usize).collect()).collect();
        return Cover::new(q, fragments)
            .map(Strategy::FixedCover)
            .map_err(|e| format!("cover: {e}"));
    }
    Strategy::from_name(&rec.strategy).ok_or_else(|| format!("unknown strategy `{}`", rec.strategy))
}

/// Re-execute `records` against `db` and diff the results.
///
/// Row counts are compared for `ok`/`ok` pairs; for anything else the
/// outcome strings themselves must match (a query that breached memory
/// when recorded should still breach it now). Unreplayable records
/// (unparsable text, unknown strategy) count as replay errors, not
/// panics — a log may predate the current parser.
pub fn replay(db: &mut RdfDatabase, records: &[QueryRecord]) -> ReplayReport {
    let mut report = ReplayReport { total: records.len(), ..ReplayReport::default() };
    for rec in records {
        let mut entry = ReplayEntry {
            seq: rec.seq,
            fingerprint: rec.fingerprint.clone(),
            strategy: rec.strategy.clone(),
            recorded_outcome: rec.outcome.clone(),
            replayed_outcome: None,
            recorded_rows: rec.rows,
            replayed_rows: None,
            rows_match: false,
            recorded_eval_ns: rec.eval_ns,
            replayed_eval_ns: None,
            recorded_max_q_error: rec.max_q_error,
            replayed_max_q_error: None,
            error: None,
        };
        let replayed = db
            .parse_query(&rec.query)
            .map_err(|e| format!("parse: {e}"))
            .and_then(|q| strategy_for(rec, &q).map(|s| (q, s)))
            .map(|(q, strategy)| db.answer_recorded(&q, &strategy).1);
        match replayed {
            Err(e) => {
                entry.error = Some(e);
                report.replay_errors += 1;
            }
            Ok(None) => {
                // An empty-body query produces no record; treat it as a
                // clean empty replay.
                entry.replayed_outcome = Some("ok".to_owned());
                entry.replayed_rows = Some(0);
                entry.replayed_eval_ns = Some(0);
                entry.rows_match = rec.outcome == "ok" && rec.rows == 0;
            }
            Ok(Some(new)) => {
                entry.rows_match = match (rec.outcome.as_str(), new.outcome.as_str()) {
                    ("ok", "ok") => rec.rows == new.rows,
                    (a, b) => a == b,
                };
                entry.replayed_outcome = Some(new.outcome);
                entry.replayed_rows = Some(new.rows);
                entry.replayed_eval_ns = Some(new.eval_ns);
                entry.replayed_max_q_error = new.max_q_error;
            }
        }
        if entry.error.is_none() && !entry.rows_match {
            if entry.replayed_outcome.as_deref() == Some(entry.recorded_outcome.as_str()) {
                report.row_mismatches += 1;
            } else {
                report.outcome_mismatches += 1;
            }
        }
        report.entries.push(entry);
    }
    let recorded: Vec<u64> = report
        .entries
        .iter()
        .filter(|e| e.recorded_outcome == "ok")
        .map(|e| e.recorded_eval_ns)
        .collect();
    let replayed: Vec<u64> = report
        .entries
        .iter()
        .filter(|e| e.replayed_outcome.as_deref() == Some("ok"))
        .filter_map(|e| e.replayed_eval_ns)
        .collect();
    report.recorded_latency = LatencyPercentiles::of(&recorded);
    report.replayed_latency = LatencyPercentiles::of(&replayed);
    let drifts: Vec<f64> = report
        .entries
        .iter()
        .filter_map(|e| Some((e.recorded_max_q_error?, e.replayed_max_q_error?)))
        .map(|(a, b)| (b - a).abs())
        .filter(|d| d.is_finite())
        .collect();
    if !drifts.is_empty() {
        report.max_q_error_drift = drifts.iter().copied().reduce(f64::max);
        report.mean_q_error_drift = Some(drifts.iter().sum::<f64>() / drifts.len() as f64);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let p = LatencyPercentiles::of(&samples);
        assert_eq!(p, LatencyPercentiles { p50: 50, p95: 95, p99: 99 });
        assert_eq!(LatencyPercentiles::of(&[7]), LatencyPercentiles { p50: 7, p95: 7, p99: 7 });
        assert_eq!(LatencyPercentiles::of(&[]), LatencyPercentiles::default());
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = ReplayReport {
            total: 1,
            entries: vec![ReplayEntry {
                seq: 1,
                fingerprint: "abc".into(),
                strategy: "UCQ".into(),
                recorded_outcome: "ok".into(),
                replayed_outcome: Some("ok".into()),
                recorded_rows: 3,
                replayed_rows: Some(3),
                rows_match: true,
                recorded_eval_ns: 1000,
                replayed_eval_ns: Some(1100),
                recorded_max_q_error: Some(2.0),
                replayed_max_q_error: Some(2.5),
                error: None,
            }],
            ..ReplayReport::default()
        };
        let text = report.to_json();
        let doc = jucq_obs::json::parse(&text).expect("valid JSON");
        use jucq_obs::json::Value;
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("jucq-replay/1"));
        assert_eq!(doc.get("total").and_then(Value::as_u64), Some(1));
        let deltas = doc.get("latency_delta_ns").expect("deltas");
        assert!(deltas.get("p50").and_then(Value::as_f64).is_some());
        let entries = doc.get("entries").and_then(Value::as_arr).expect("entries");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("rows_match").and_then(Value::as_bool), Some(true));
    }
}
