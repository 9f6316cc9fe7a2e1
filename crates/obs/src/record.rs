//! The structured query log: one [`QueryRecord`] per answered query,
//! appended as JSONL to an optional file and retained in a bounded
//! in-process ring.
//!
//! This is the workload capture the serving layer and the view advisor
//! consume: enough to re-execute the query (normalized text +
//! strategy + profile fingerprint), to attribute its cost (per-phase
//! timings, executor counters, per-node estimate quality), and to spot
//! regressions (`jucq replay` diffs a recorded log against the current
//! build). The sink is process-global like the rest of the crate, and
//! configured via [`install`] (the CLI's `--query-log` / `--slow-ms`)
//! or [`install_from_env`] (`JUCQ_QUERY_LOG` / `JUCQ_SLOW_MS`).
//!
//! Records are written independently of the [`crate::enabled`] span/
//! metrics switch: installing the sink *is* the opt-in.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use crate::export::escape_json;
use crate::json::{self, Value};

/// Executor work counters of one query, mirrored into the log.
///
/// (A standalone mirror of the executor's counter block — this crate
/// sits below the store and cannot name its types.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordCounters {
    /// Tuples read from scans.
    pub tuples_scanned: u64,
    /// Tuples produced by joins.
    pub tuples_joined: u64,
    /// Tuples materialized into intermediates.
    pub tuples_materialized: u64,
    /// Duplicate tuples removed.
    pub tuples_deduped: u64,
    /// Sideways-information-passing filter probes.
    pub sip_probes: u64,
    /// Probes dropped by SIP filters before the join.
    pub sip_drops: u64,
    /// Collapsed-interval (`RangeScan`) operator executions.
    pub range_scans: u64,
    /// Epoch-exact materialized-view resolutions (`ViewScan` leaves
    /// served from the catalog).
    pub view_hits: u64,
}

/// One profiled plan node: the estimate/actual pair behind the Q-error.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// Scoped plan-node label, e.g. `fragment[0].union`.
    pub label: String,
    /// Optimizer cardinality estimate, when the node has one.
    pub est_rows: Option<f64>,
    /// Measured output rows.
    pub actual_rows: u64,
    /// Inclusive wall time, nanoseconds.
    pub elapsed_ns: u64,
    /// `inf`-safe Q-error (see [`q_error_safe`]).
    pub q_error: Option<f64>,
}

/// One answered (or failed) query, as logged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryRecord {
    /// Sequence number within the log (assigned by [`submit`]).
    pub seq: u64,
    /// Normalized SPARQL text (re-parseable by `jucq replay`).
    pub query: String,
    /// Stable fingerprint of the canonicalized query.
    pub fingerprint: String,
    /// Strategy short name (`SAT`, `UCQ`, `SCQ`, `ECov`, `GCov`,
    /// `Cover`; logs from before their deletion may name `Range` or
    /// `UCQmin`, which replay as an error).
    pub strategy: String,
    /// The engine profile's plan-affecting knob fingerprint.
    pub profile: String,
    /// `ok`, `union_too_large`, `memory_breach`, `deadline` or
    /// `cover_error`.
    pub outcome: String,
    /// Answer rows (0 on failure).
    pub rows: u64,
    /// Union terms of the evaluated reformulation.
    pub union_terms: u64,
    /// Planning (reformulation + cover search) time, nanoseconds.
    pub planning_ns: u64,
    /// Evaluation time, nanoseconds.
    pub eval_ns: u64,
    /// Chosen cover as atom-index fragments, for cover-based strategies.
    pub cover: Option<Vec<Vec<u64>>>,
    /// Fingerprint of the physical plan's node labels.
    pub plan_fingerprint: Option<String>,
    /// Executor counters.
    pub counters: RecordCounters,
    /// Whether the cover came from the plan cache (`None`: no cache or
    /// not a cached strategy).
    pub cover_cache_hit: Option<bool>,
    /// Whether the lowered physical plan came from the plan cache.
    pub plan_cache_hit: Option<bool>,
    /// Largest per-node Q-error of the run.
    pub max_q_error: Option<f64>,
    /// Per-node estimate/actual profile.
    pub nodes: Vec<NodeRecord>,
    /// Rendered `explain_analyze` tree, present when the query breached
    /// the slow-query threshold.
    pub slow_explain: Option<String>,
    /// Fragments the planner found range-collapsible — whether or not
    /// the collapse was applied.
    pub range_eligible: u64,
    /// `RangeScan` nodes in the executed plan. `range_eligible > 0 &&
    /// range_scans_used == 0` marks a query that *could* have used
    /// interval scans but did not (knob off, or the run was broken up by
    /// the cover choice).
    pub range_scans_used: u64,
    /// Materialized fragment views resident in the catalog when the
    /// query ran. Together with
    /// `counters.view_hits` this is the advisor's signal: queries with
    /// a large catalog and zero hits pinned the wrong fragments.
    pub view_catalog_size: u64,
}

/// The `inf`-safe Q-error: `max(est/actual, actual/est)` with both
/// sides clamped to ≥ 1 row, `None` when there is no estimate or the
/// estimate is not finite (an overflowed cardinality product must not
/// poison the log with `inf`/`NaN`).
pub fn q_error_safe(est_rows: Option<f64>, actual_rows: u64) -> Option<f64> {
    let est = est_rows.filter(|e| e.is_finite())?.max(1.0);
    let actual = (actual_rows as f64).max(1.0);
    Some((est / actual).max(actual / est))
}

fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_owned(),
    }
}

fn json_opt_bool(v: Option<bool>) -> String {
    match v {
        Some(b) => b.to_string(),
        None => "null".to_owned(),
    }
}

impl QueryRecord {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"schema\":\"jucq-log/5\",\"seq\":{},\"query\":\"{}\",\"fingerprint\":\"{}\",\
             \"strategy\":\"{}\",\"profile\":\"{}\",\"outcome\":\"{}\",\"rows\":{},\
             \"union_terms\":{},\"planning_ns\":{},\"eval_ns\":{}",
            self.seq,
            escape_json(&self.query),
            escape_json(&self.fingerprint),
            escape_json(&self.strategy),
            escape_json(&self.profile),
            escape_json(&self.outcome),
            self.rows,
            self.union_terms,
            self.planning_ns,
            self.eval_ns,
        );
        out.push_str(",\"cover\":");
        match &self.cover {
            None => out.push_str("null"),
            Some(fragments) => {
                out.push('[');
                for (i, frag) in fragments.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('[');
                    for (j, atom) in frag.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{atom}");
                    }
                    out.push(']');
                }
                out.push(']');
            }
        }
        out.push_str(",\"plan_fingerprint\":");
        match &self.plan_fingerprint {
            None => out.push_str("null"),
            Some(fp) => {
                let _ = write!(out, "\"{}\"", escape_json(fp));
            }
        }
        let c = &self.counters;
        let _ = write!(
            out,
            ",\"counters\":{{\"tuples_scanned\":{},\"tuples_joined\":{},\
             \"tuples_materialized\":{},\"tuples_deduped\":{},\"sip_probes\":{},\
             \"sip_drops\":{},\"range_scans\":{},\"view_hits\":{}}}",
            c.tuples_scanned,
            c.tuples_joined,
            c.tuples_materialized,
            c.tuples_deduped,
            c.sip_probes,
            c.sip_drops,
            c.range_scans,
            c.view_hits,
        );
        let _ = write!(
            out,
            ",\"range_eligible\":{},\"range_scans_used\":{},\"view_catalog_size\":{}",
            self.range_eligible, self.range_scans_used, self.view_catalog_size,
        );
        let _ = write!(
            out,
            ",\"cover_cache_hit\":{},\"plan_cache_hit\":{},\"max_q_error\":{}",
            json_opt_bool(self.cover_cache_hit),
            json_opt_bool(self.plan_cache_hit),
            json_opt_f64(self.max_q_error),
        );
        out.push_str(",\"nodes\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"label\":\"{}\",\"est_rows\":{},\"actual_rows\":{},\"elapsed_ns\":{},\
                 \"q_error\":{}}}",
                escape_json(&n.label),
                json_opt_f64(n.est_rows),
                n.actual_rows,
                n.elapsed_ns,
                json_opt_f64(n.q_error),
            );
        }
        out.push_str("],\"slow_explain\":");
        match &self.slow_explain {
            None => out.push_str("null"),
            Some(text) => {
                let _ = write!(out, "\"{}\"", escape_json(text));
            }
        }
        out.push('}');
        out
    }

    /// Parse one JSONL line produced by [`QueryRecord::to_json_line`].
    /// Only the current schema (`jucq-log/5`) is accepted, and every
    /// field its writer always emits is required.
    pub fn from_json_line(line: &str) -> Result<QueryRecord, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        match v.get("schema").and_then(Value::as_str) {
            Some("jucq-log/5") => {}
            other => return Err(format!("unsupported query-log schema {other:?}")),
        }
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(ToOwned::to_owned)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("missing field `{key}`"))
        };
        let opt_f64 = |key: &str| v.get(key).and_then(Value::as_f64);
        let opt_bool = |key: &str| v.get(key).and_then(Value::as_bool);
        let cover = match v.get("cover") {
            None | Some(Value::Null) => None,
            Some(Value::Arr(fragments)) => Some(
                fragments
                    .iter()
                    .map(|f| {
                        f.as_arr()
                            .map(|atoms| atoms.iter().filter_map(Value::as_u64).collect())
                            .ok_or_else(|| "malformed cover fragment".to_owned())
                    })
                    .collect::<Result<Vec<Vec<u64>>, String>>()?,
            ),
            Some(_) => return Err("malformed `cover`".to_owned()),
        };
        let counters_v = v.get("counters").ok_or("missing `counters`")?;
        let counter = |key: &str| -> Result<u64, String> {
            counters_v
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing counter `{key}`"))
        };
        let nodes = match v.get("nodes") {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|n| {
                    Ok(NodeRecord {
                        label: n
                            .get("label")
                            .and_then(Value::as_str)
                            .ok_or("node without `label`")?
                            .to_owned(),
                        est_rows: n.get("est_rows").and_then(Value::as_f64),
                        actual_rows: n
                            .get("actual_rows")
                            .and_then(Value::as_u64)
                            .ok_or("node without `actual_rows`")?,
                        elapsed_ns: n.get("elapsed_ns").and_then(Value::as_u64).unwrap_or(0),
                        q_error: n.get("q_error").and_then(Value::as_f64),
                    })
                })
                .collect::<Result<Vec<NodeRecord>, String>>()?,
            _ => Vec::new(),
        };
        Ok(QueryRecord {
            seq: u64_field("seq")?,
            query: str_field("query")?,
            fingerprint: str_field("fingerprint")?,
            strategy: str_field("strategy")?,
            profile: str_field("profile")?,
            outcome: str_field("outcome")?,
            rows: u64_field("rows")?,
            union_terms: u64_field("union_terms")?,
            planning_ns: u64_field("planning_ns")?,
            eval_ns: u64_field("eval_ns")?,
            cover,
            plan_fingerprint: v
                .get("plan_fingerprint")
                .and_then(Value::as_str)
                .map(ToOwned::to_owned),
            counters: RecordCounters {
                tuples_scanned: counter("tuples_scanned")?,
                tuples_joined: counter("tuples_joined")?,
                tuples_materialized: counter("tuples_materialized")?,
                tuples_deduped: counter("tuples_deduped")?,
                sip_probes: counter("sip_probes")?,
                sip_drops: counter("sip_drops")?,
                range_scans: counter("range_scans")?,
                view_hits: counter("view_hits")?,
            },
            cover_cache_hit: opt_bool("cover_cache_hit"),
            plan_cache_hit: opt_bool("plan_cache_hit"),
            max_q_error: opt_f64("max_q_error"),
            nodes,
            slow_explain: v.get("slow_explain").and_then(Value::as_str).map(ToOwned::to_owned),
            range_eligible: u64_field("range_eligible")?,
            range_scans_used: u64_field("range_scans_used")?,
            view_catalog_size: u64_field("view_catalog_size")?,
        })
    }
}

/// Parse a whole query-log document: one record per non-empty line.
/// Unparsable lines are returned separately rather than aborting the
/// load (logs may be truncated mid-line by a crash).
pub fn parse_log(text: &str) -> (Vec<QueryRecord>, Vec<String>) {
    let mut records = Vec::new();
    let mut errors = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match QueryRecord::from_json_line(line) {
            Ok(r) => records.push(r),
            Err(e) => errors.push(format!("line {}: {e}", lineno + 1)),
        }
    }
    (records, errors)
}

/// Query-log sink configuration (see [`install`]).
#[derive(Debug, Clone, Default)]
pub struct QueryLogConfig {
    /// JSONL file to append records to; `None` keeps records only in
    /// the in-process ring.
    pub path: Option<PathBuf>,
    /// Ring capacity; 0 selects the default (1024).
    pub ring_capacity: usize,
    /// Queries at or above this total (planning + evaluation) duration
    /// also log their rendered `explain_analyze` tree.
    pub slow_threshold: Option<Duration>,
}

const DEFAULT_RING_CAPACITY: usize = 1024;

struct Sink {
    file: Option<File>,
    path: Option<PathBuf>,
    ring: VecDeque<QueryRecord>,
    capacity: usize,
    slow_threshold: Option<Duration>,
    next_seq: u64,
}

impl Sink {
    /// Flush buffered writes and force the bytes to disk, so every
    /// record submitted before a replacement is durable before the old
    /// handle drops. Failures warn once instead of failing the caller —
    /// the same policy as [`submit`].
    fn flush(&mut self) {
        if let Some(file) = &mut self.file {
            if file.flush().and_then(|()| file.sync_all()).is_err() {
                let msg = format!("query-log flush of {:?} failed on sink replacement", self.path);
                crate::warn_once("warn.query_log_flush_failed", &msg);
            }
        }
    }
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

fn sink() -> std::sync::MutexGuard<'static, Option<Sink>> {
    SINK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Install the query-log sink. A previous sink is flushed to disk and
/// then dropped — replacement can never lose its tail records. With a
/// `path`, records are appended to the file as JSONL; the ring always
/// retains the most recent `ring_capacity` records in memory. On open
/// failure the previous sink stays installed untouched.
pub fn install(config: QueryLogConfig) -> std::io::Result<()> {
    let file = match &config.path {
        Some(p) => Some(File::options().create(true).append(true).open(p)?),
        None => None,
    };
    let capacity =
        if config.ring_capacity == 0 { DEFAULT_RING_CAPACITY } else { config.ring_capacity };
    let mut guard = sink();
    if let Some(mut old) = guard.take() {
        old.flush();
    }
    *guard = Some(Sink {
        file,
        path: config.path,
        ring: VecDeque::with_capacity(capacity.min(4096)),
        capacity,
        slow_threshold: config.slow_threshold,
        next_seq: 1,
    });
    Ok(())
}

/// Install the sink from `JUCQ_QUERY_LOG` (file path) and `JUCQ_SLOW_MS`
/// (slow-query threshold in milliseconds), when set. Returns whether a
/// sink was installed. An unparsable `JUCQ_SLOW_MS` warns once and is
/// ignored.
pub fn install_from_env() -> bool {
    let path = std::env::var_os("JUCQ_QUERY_LOG").map(PathBuf::from);
    let slow_threshold = slow_ms_from_env();
    if path.is_none() && slow_threshold.is_none() {
        return false;
    }
    let config = QueryLogConfig { path: path.clone(), ring_capacity: 0, slow_threshold };
    match install(config) {
        Ok(()) => true,
        Err(e) => {
            crate::warn_once(
                "warn.query_log_open_failed",
                &format!("cannot open JUCQ_QUERY_LOG {path:?}: {e}"),
            );
            false
        }
    }
}

/// Parse `JUCQ_SLOW_MS` into a threshold, warning once when unparsable.
pub fn slow_ms_from_env() -> Option<Duration> {
    let raw = std::env::var("JUCQ_SLOW_MS").ok()?;
    match raw.trim().parse::<u64>() {
        Ok(ms) => Some(Duration::from_millis(ms)),
        Err(_) => {
            crate::warn_once(
                "warn.slow_ms_invalid",
                &format!("ignoring unparsable JUCQ_SLOW_MS `{raw}` (expected milliseconds)"),
            );
            None
        }
    }
}

/// Whether a query-log sink is installed.
pub fn installed() -> bool {
    sink().is_some()
}

/// The installed sink's slow-query threshold (None: no sink or no
/// threshold). Callers use this to decide whether to render the
/// `explain_analyze` tree before [`submit`]ting.
pub fn slow_threshold() -> Option<Duration> {
    sink().as_ref().and_then(|s| s.slow_threshold)
}

/// Submit one record: assigns its sequence number, appends the JSONL
/// line to the configured file (write failures warn once rather than
/// failing the query), and retains it in the ring. Returns the assigned
/// sequence number, or `None` when no sink is installed.
pub fn submit(mut record: QueryRecord) -> Option<u64> {
    let mut guard = sink();
    let s = guard.as_mut()?;
    record.seq = s.next_seq;
    s.next_seq += 1;
    let seq = record.seq;
    if let Some(file) = &mut s.file {
        let mut line = record.to_json_line();
        line.push('\n');
        if file.write_all(line.as_bytes()).is_err() {
            let msg =
                format!("query-log write to {:?} failed; further records may be lost", s.path);
            drop(guard);
            crate::warn_once("warn.query_log_write_failed", &msg);
            return Some(seq);
        }
    }
    while s.ring.len() >= s.capacity {
        s.ring.pop_front();
    }
    s.ring.push_back(record);
    crate::metrics::counter_add("query_log.records", 1);
    Some(seq)
}

/// Drain the in-memory ring (oldest first). The file, if any, is
/// untouched.
pub fn drain_ring() -> Vec<QueryRecord> {
    match sink().as_mut() {
        Some(s) => s.ring.drain(..).collect(),
        None => Vec::new(),
    }
}

/// Remove the sink, flushing and closing the log file.
pub fn uninstall() {
    if let Some(mut old) = sink().take() {
        old.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> QueryRecord {
        QueryRecord {
            seq: 7,
            query: "SELECT ?v0 WHERE { ?v0 <p> \"a \\\"quoted\\\" literal\" }".into(),
            fingerprint: "00c0ffee00c0ffee".into(),
            strategy: "GCov".into(),
            profile: "pg-like|join=Hash|mat=AllButLargest|inlj=false|share=true|sip=true".into(),
            outcome: "ok".into(),
            rows: 42,
            union_terms: 13,
            planning_ns: 1_000_000,
            eval_ns: 2_500_000,
            cover: Some(vec![vec![0, 1], vec![2]]),
            plan_fingerprint: Some("deadbeef01020304".into()),
            counters: RecordCounters {
                tuples_scanned: 100,
                tuples_joined: 50,
                tuples_materialized: 20,
                tuples_deduped: 3,
                sip_probes: 10,
                sip_drops: 4,
                range_scans: 2,
                view_hits: 5,
            },
            cover_cache_hit: Some(false),
            plan_cache_hit: None,
            max_q_error: Some(3.25),
            nodes: vec![
                NodeRecord {
                    label: "fragment[0].union".into(),
                    est_rows: Some(130.0),
                    actual_rows: 40,
                    elapsed_ns: 900,
                    q_error: Some(3.25),
                },
                NodeRecord {
                    label: "dedup".into(),
                    est_rows: None,
                    actual_rows: 42,
                    elapsed_ns: 100,
                    q_error: None,
                },
            ],
            slow_explain: None,
            range_eligible: 1,
            range_scans_used: 2,
            view_catalog_size: 3,
        }
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        let rec = sample_record();
        let line = rec.to_json_line();
        crate::json::parse(&line).expect("record line is valid JSON");
        let parsed = QueryRecord::from_json_line(&line).expect("parses back");
        assert_eq!(parsed, rec);
        // Including the slow-explain text with newlines and quotes.
        let mut slow = rec;
        slow.slow_explain = Some("EXPLAIN ANALYZE\n  node \"x\"\t1 row\n".into());
        let parsed = QueryRecord::from_json_line(&slow.to_json_line()).expect("parses back");
        assert_eq!(parsed, slow);
    }

    #[test]
    fn older_schemas_are_rejected() {
        let line = sample_record().to_json_line();
        for old in ["jucq-log/1", "jucq-log/2", "jucq-log/3", "jucq-log/4"] {
            let line = line.replace("\"schema\":\"jucq-log/5\"", &format!("\"schema\":\"{old}\""));
            let err = QueryRecord::from_json_line(&line).expect_err("older schemas are rejected");
            assert!(err.contains("unsupported query-log schema"), "{old}: {err}");
        }
    }

    #[test]
    fn fields_added_by_later_schemas_are_required() {
        let line = sample_record().to_json_line();
        for (field, missing) in [
            (",\"range_scans\":2", "missing counter `range_scans`"),
            (",\"view_hits\":5", "missing counter `view_hits`"),
            (",\"range_eligible\":1", "missing field `range_eligible`"),
            (",\"view_catalog_size\":3", "missing field `view_catalog_size`"),
        ] {
            assert!(line.contains(field), "{line}");
            let err = QueryRecord::from_json_line(&line.replace(field, "")).expect_err(missing);
            assert_eq!(err, missing);
        }
    }

    #[test]
    fn parse_log_collects_errors_without_aborting() {
        let good = sample_record().to_json_line();
        let text = format!("{good}\n\nnot json\n{good}\n{{\"schema\":\"other/9\"}}\n");
        let (records, errors) = parse_log(&text);
        assert_eq!(records.len(), 2);
        assert_eq!(errors.len(), 2);
        assert!(errors[0].contains("line 3"), "{errors:?}");
    }

    #[test]
    fn q_error_is_inf_safe() {
        // Zero actual and zero estimate both clamp to one row.
        assert_eq!(q_error_safe(Some(0.0), 0), Some(1.0));
        assert_eq!(q_error_safe(Some(0.0), 10), Some(10.0));
        assert_eq!(q_error_safe(Some(10.0), 0), Some(10.0));
        // Non-finite estimates yield None, never inf/NaN.
        assert_eq!(q_error_safe(Some(f64::INFINITY), 5), None);
        assert_eq!(q_error_safe(Some(f64::NAN), 5), None);
        assert_eq!(q_error_safe(None, 5), None);
        // All produced values are finite and ≥ 1.
        for (est, actual) in [(1.0, 1u64), (1e300, 1), (1.0, u64::MAX)] {
            let q = q_error_safe(Some(est), actual).unwrap();
            assert!(q.is_finite() && q >= 1.0, "{est}/{actual} -> {q}");
        }
    }

    #[test]
    fn sink_assigns_seq_and_bounds_the_ring() {
        let _serial = crate::test_lock();
        uninstall();
        assert!(!installed());
        assert_eq!(submit(sample_record()), None, "no sink, no seq");
        install(QueryLogConfig { path: None, ring_capacity: 2, slow_threshold: None })
            .expect("install");
        assert!(installed());
        assert_eq!(slow_threshold(), None);
        for i in 0..3 {
            let mut r = sample_record();
            r.rows = i;
            assert_eq!(submit(r), Some(i + 1));
        }
        let drained = drain_ring();
        assert_eq!(drained.len(), 2, "ring keeps the most recent records");
        assert_eq!(drained[0].seq, 2);
        assert_eq!(drained[1].seq, 3);
        assert_eq!(drained[1].rows, 2);
        uninstall();
        assert!(!installed());
    }

    #[test]
    fn sink_appends_jsonl_to_the_file() {
        let _serial = crate::test_lock();
        uninstall();
        let path =
            std::env::temp_dir().join(format!("jucq-record-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        install(QueryLogConfig {
            path: Some(path.clone()),
            ring_capacity: 0,
            slow_threshold: Some(Duration::from_millis(250)),
        })
        .expect("install");
        assert_eq!(slow_threshold(), Some(Duration::from_millis(250)));
        submit(sample_record());
        submit(sample_record());
        uninstall();
        let text = std::fs::read_to_string(&path).expect("log file written");
        let (records, errors) = parse_log(&text);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 1);
        assert_eq!(records[1].seq, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reinstall_flushes_the_previous_sink_before_replacing_it() {
        let _serial = crate::test_lock();
        uninstall();
        let pid = std::process::id();
        let first = std::env::temp_dir().join(format!("jucq-record-reinstall-a-{pid}.jsonl"));
        let second = std::env::temp_dir().join(format!("jucq-record-reinstall-b-{pid}.jsonl"));
        let _ = std::fs::remove_file(&first);
        let _ = std::fs::remove_file(&second);

        install(QueryLogConfig {
            path: Some(first.clone()),
            ring_capacity: 4,
            slow_threshold: None,
        })
        .expect("install first");
        submit(sample_record());
        submit(sample_record());
        // Replace the sink while the first still holds tail records.
        install(QueryLogConfig {
            path: Some(second.clone()),
            ring_capacity: 4,
            slow_threshold: None,
        })
        .expect("install second");

        // Every record submitted before the swap is durable on disk —
        // without waiting for the process to exit or the file to drop.
        let text = std::fs::read_to_string(&first).expect("first log written");
        let (records, errors) = parse_log(&text);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(records.len(), 2, "no tail records lost on replacement");
        assert_eq!(records[0].seq, 1);
        assert_eq!(records[1].seq, 2);

        // The fresh sink starts clean: its own seq space and ring.
        submit(sample_record());
        let drained = drain_ring();
        assert_eq!(drained.len(), 1, "old ring does not leak into the new sink");
        assert_eq!(drained[0].seq, 1);
        uninstall();
        let text = std::fs::read_to_string(&second).expect("second log written");
        let (records, errors) = parse_log(&text);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(records.len(), 1);
        let _ = std::fs::remove_file(&first);
        let _ = std::fs::remove_file(&second);
    }
}
