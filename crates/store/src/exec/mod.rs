//! The relational executor: σ, π, ⋈, ∪ and duplicate elimination.
//!
//! Split by operator family:
//! * [`cq`] — conjunctive-query pipelines over the triple table
//!   (a leaf scan extended by index-nested-loop probes);
//! * [`join`] — joins of materialized relations (hash,
//!   block-nested-loop);
//! * [`union`] — unions of CQ results with set semantics;
//! * [`sip`] — Bloom filters passed sideways between fragment joins.
//!
//! There is one kernel per plan node. Every kernel resolves column
//! positions and probe-key templates once per operator, gathers its
//! output into a flat buffer of [`BATCH_ROWS`] rows flushed in one bulk
//! append, and polls liveness ([`ExecContext::tick_n`]) and the memory
//! budget once per batch.
//!
//! A query runs on the thread that submitted it: every operator of a
//! plan runs there, one after another, inside one [`ExecContext`] that
//! enforces the engine profile's deadline and memory budget and records
//! the counters the calibration layer fits cost constants against.

pub mod cq;
pub mod join;
pub mod sip;
pub mod union;

use std::fmt::{self, Write as _};
use std::time::{Duration, Instant};

use crate::error::EngineError;
use crate::profile::EngineProfile;
pub use sip::SipStage;

/// How often (in produced tuples) the deadline is polled.
const DEADLINE_POLL_MASK: u64 = 0x3FFF; // every 16384 tuples

/// Rows a kernel gathers before it flushes its output buffer, polls
/// liveness and checks the memory budget: large enough to amortize the
/// per-batch bookkeeping, small enough to stay cache-resident.
pub const BATCH_ROWS: usize = 1024;

/// Work counters, exposed for calibration and diagnostics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Tuples read from index scans.
    pub tuples_scanned: u64,
    /// Tuples emitted by join operators.
    pub tuples_joined: u64,
    /// Tuples copied into materialized intermediates.
    pub tuples_materialized: u64,
    /// Tuples examined by duplicate elimination.
    pub tuples_deduped: u64,
    /// Rows tested against sideways-information-passing filters, at
    /// whichever stage of their member first bound the filter's key.
    pub sip_probes: u64,
    /// Rows a sideways-information-passing filter dropped at that stage
    /// — before they were copied, probed for or projected.
    pub sip_drops: u64,
    /// Collapsed-interval (`RangeScan`) operator executions.
    pub range_scans: u64,
    /// Fragments served from the materialized-view catalog (epoch-exact
    /// `ViewScan` resolutions; fallback unions do not count).
    pub view_hits: u64,
    /// Scan rows handed to a consumer without the usual dedup/ownership
    /// pass (zero-copy boundary: provably-distinct scan output).
    pub scan_rows_borrowed: u64,
    /// Rows of output capacity reserved up-front from the plan's
    /// cardinality estimates (compare with actual output tuples to see
    /// how well pre-sizing tracks reality).
    pub rows_reserved: u64,
    /// Index lookups issued by probe operators (one per probed input
    /// row, whether or not it matched anything — `tuples_scanned` only
    /// counts the matches).
    pub index_probes: u64,
    /// Index lookups that could not continue forward from where the
    /// operator's previous lookup started: the key went backwards and a
    /// part of the index was bisected again.
    pub probe_reseeks: u64,
}

/// Per-filter test/drop totals of one sideways-information-passing
/// Bloom filter, keyed by its node label (`fragment[i].sip_filter`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SipFilterStat {
    /// The filter's node label.
    pub label: String,
    /// Rows tested against the filter.
    pub probes: u64,
    /// Rows dropped (test missed: they cannot join).
    pub drops: u64,
    /// Where the fragment's members tested the filter: each stage with
    /// the number of members that ran it there, in pipeline order.
    pub stages: Vec<(SipStage, u64)>,
}

/// Aggregated runtime profile of one plan node (operator × position in
/// the plan), produced when the context runs with profiling on.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeProfile {
    /// Scoped node label, e.g. `fragment[0].union` or `join[1].hash_join`.
    pub label: String,
    /// Operator invocations merged into this node.
    pub invocations: u64,
    /// Output rows across all invocations.
    pub rows: u64,
    /// Wall time across all invocations, in nanoseconds.
    pub elapsed_ns: u64,
    /// Left and right input rows across all invocations — fragment joins
    /// only, so a step that outputs more than it was handed shows.
    pub inputs: Option<(u64, u64)>,
}

/// Merges operator samples into per-label [`NodeProfile`]s, preserving
/// first-seen order (which follows plan order).
#[derive(Debug, Default)]
struct NodeRecorder {
    nodes: Vec<NodeProfile>,
    by_label: jucq_model::FxHashMap<String, usize>,
    scope: String,
}

impl NodeRecorder {
    fn record(&mut self, op: &str, rows: u64, elapsed_ns: u64, inputs: Option<(u64, u64)>) {
        let label = format!("{}{}", self.scope, op);
        let ix = *self.by_label.entry(label.clone()).or_insert_with(|| {
            self.nodes.push(NodeProfile {
                label,
                invocations: 0,
                rows: 0,
                elapsed_ns: 0,
                inputs: None,
            });
            self.nodes.len() - 1
        });
        let node = &mut self.nodes[ix];
        node.invocations += 1;
        node.rows += rows;
        node.elapsed_ns += elapsed_ns;
        if let Some((l, r)) = inputs {
            let (nl, nr) = node.inputs.unwrap_or((0, 0));
            node.inputs = Some((nl + l, nr + r));
        }
    }
}

/// One query's evaluation state: profile, deadline, counters.
#[derive(Debug)]
pub struct ExecContext<'a> {
    profile: &'a EngineProfile,
    started: Instant,
    /// Cumulative work counters.
    pub counters: Counters,
    ticks: u64,
    recorder: Option<NodeRecorder>,
    sip_stats: Vec<SipFilterStat>,
}

impl<'a> ExecContext<'a> {
    /// Start an evaluation clock for `profile`.
    pub fn new(profile: &'a EngineProfile) -> Self {
        ExecContext {
            profile,
            started: Instant::now(),
            counters: Counters::default(),
            ticks: 0,
            recorder: None,
            sip_stats: Vec::new(),
        }
    }

    /// Like [`ExecContext::new`], additionally collecting per-node
    /// runtime profiles (operators pay for an `Instant` read per call).
    pub fn with_profiling(profile: &'a EngineProfile) -> Self {
        let mut ctx = Self::new(profile);
        ctx.recorder = Some(NodeRecorder::default());
        ctx
    }

    /// Whether per-node profiling is on.
    pub fn profiling(&self) -> bool {
        self.recorder.is_some()
    }

    /// Set the label prefix for subsequently recorded operators, e.g.
    /// `format_args!("fragment[{i}].")`. No-op unless profiling: the
    /// prefix is only formatted for a profiled run.
    pub fn set_scope(&mut self, scope: fmt::Arguments<'_>) {
        if let Some(r) = &mut self.recorder {
            r.scope.clear();
            let _ = r.scope.write_fmt(scope);
        }
    }

    /// Clear the label prefix set by [`ExecContext::set_scope`].
    pub fn clear_scope(&mut self) {
        if let Some(r) = &mut self.recorder {
            r.scope.clear();
        }
    }

    /// Start timing one operator invocation; `None` unless profiling,
    /// so unprofiled runs skip the clock read entirely.
    #[inline]
    pub fn op_start(&self) -> Option<Instant> {
        if self.recorder.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close the invocation opened by [`ExecContext::op_start`],
    /// merging it into the node `scope + op`.
    #[inline]
    pub fn op_finish(&mut self, start: Option<Instant>, op: &str, rows: u64) {
        self.finish(start, op, rows, None);
    }

    /// [`ExecContext::op_finish`] for a join, also recording the rows of
    /// its `(left, right)` inputs.
    #[inline]
    pub fn op_finish_join(
        &mut self,
        start: Option<Instant>,
        op: &str,
        inputs: (u64, u64),
        rows: u64,
    ) {
        self.finish(start, op, rows, Some(inputs));
    }

    #[inline]
    fn finish(&mut self, start: Option<Instant>, op: &str, rows: u64, inputs: Option<(u64, u64)>) {
        if let (Some(start), Some(r)) = (start, &mut self.recorder) {
            r.record(op, rows, start.elapsed().as_nanos() as u64, inputs);
        }
    }

    /// Take the collected node profiles (empty unless profiling).
    pub fn take_nodes(&mut self) -> Vec<NodeProfile> {
        self.recorder.take().map(|r| r.nodes).unwrap_or_default()
    }

    /// Merge one member's use of a filter into the per-filter SIP
    /// statistics (always collected — once per member, so this is far
    /// off the per-tuple hot path). `stage` is where the member tested
    /// it; `None` when the member had no rows to test.
    pub fn record_sip(&mut self, label: &str, probes: u64, drops: u64, stage: Option<SipStage>) {
        let Some(s) = self.sip_stats.iter_mut().find(|s| s.label == label) else {
            self.sip_stats.push(SipFilterStat {
                label: label.to_string(),
                probes,
                drops,
                stages: stage.map(|s| (s, 1)).into_iter().collect(),
            });
            return;
        };
        s.probes += probes;
        s.drops += drops;
        if let Some(stage) = stage {
            match s.stages.binary_search_by_key(&stage, |&(st, _)| st) {
                Ok(i) => s.stages[i].1 += 1,
                Err(i) => s.stages.insert(i, (stage, 1)),
            }
        }
    }

    /// Take the per-filter SIP statistics accumulated so far.
    pub fn take_sip_stats(&mut self) -> Vec<SipFilterStat> {
        std::mem::take(&mut self.sip_stats)
    }

    /// The governing profile.
    pub fn profile(&self) -> &EngineProfile {
        self.profile
    }

    /// Amortized deadline check for a whole batch of `n` produced
    /// tuples: advances the tick counter in one step and checks the
    /// deadline once per crossed poll window (16384 tuples), without one
    /// branch per tuple.
    #[inline]
    pub fn tick_n(&mut self, n: u64) -> Result<(), EngineError> {
        let before = self.ticks;
        self.ticks = self.ticks.wrapping_add(n);
        if self.ticks / (DEADLINE_POLL_MASK + 1) != before / (DEADLINE_POLL_MASK + 1) {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Unconditional deadline check (call at operator boundaries).
    pub fn check_deadline(&self) -> Result<(), EngineError> {
        if self.started.elapsed() > self.profile.timeout {
            Err(EngineError::Timeout { limit: self.profile.timeout })
        } else {
            Ok(())
        }
    }

    /// Shift the evaluation clock `by` into the past, as if the context
    /// had been created earlier. Test support for deterministic deadline
    /// coverage: a zero timeout plus any positive backdate is expired
    /// without sleeping.
    pub fn backdate(&mut self, by: Duration) {
        if let Some(t) = self.started.checked_sub(by) {
            self.started = t;
        }
    }

    /// Enforce the memory budget for `tuples` held rows: one
    /// materialized intermediate, or a running sum of several.
    pub fn check_memory(&self, tuples: usize) -> Result<(), EngineError> {
        if tuples > self.profile.memory_budget_tuples {
            Err(EngineError::MemoryBudgetExceeded {
                tuples,
                budget: self.profile.memory_budget_tuples,
            })
        } else {
            Ok(())
        }
    }

    /// Time elapsed since the context was created.
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn deadline_enforced() {
        // Backdated clock instead of sleeping: deterministic under any
        // scheduler load.
        let p = EngineProfile::pg_like().with_timeout(Duration::from_millis(0));
        let mut ctx = ExecContext::new(&p);
        ctx.backdate(Duration::from_millis(2));
        assert!(matches!(ctx.check_deadline(), Err(EngineError::Timeout { .. })));
        let generous = EngineProfile::pg_like();
        let fresh = ExecContext::new(&generous);
        assert!(fresh.check_deadline().is_ok(), "generous deadline passes");
    }

    #[test]
    fn memory_budget_enforced() {
        let p = EngineProfile::pg_like().with_memory_budget(10);
        let ctx = ExecContext::new(&p);
        assert!(ctx.check_memory(10).is_ok());
        assert!(matches!(
            ctx.check_memory(11),
            Err(EngineError::MemoryBudgetExceeded { tuples: 11, budget: 10 })
        ));
    }

    #[test]
    fn node_profiles_merge_by_scoped_label() {
        let p = EngineProfile::pg_like();
        let mut ctx = ExecContext::with_profiling(&p);
        assert!(ctx.profiling());
        ctx.set_scope(format_args!("fragment[0]."));
        let t = ctx.op_start();
        ctx.op_finish(t, "union", 10);
        let t = ctx.op_start();
        ctx.op_finish(t, "union", 5);
        ctx.clear_scope();
        let t = ctx.op_start();
        ctx.op_finish(t, "dedup", 3);
        let nodes = ctx.take_nodes();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].label, "fragment[0].union");
        assert_eq!(nodes[0].invocations, 2);
        assert_eq!(nodes[0].rows, 15);
        assert_eq!(nodes[1].label, "dedup");
        assert_eq!(nodes[1].rows, 3);

        let mut off = ExecContext::new(&p);
        assert!(off.op_start().is_none());
        let t = off.op_start();
        off.op_finish(t, "union", 1);
        assert!(off.take_nodes().is_empty());
    }

    #[test]
    fn tick_n_polls_once_per_crossed_window() {
        let p = EngineProfile::pg_like().with_timeout(Duration::from_millis(0));
        let mut ctx = ExecContext::new(&p);
        ctx.backdate(Duration::from_millis(2));
        // Inside the first poll window nothing is checked...
        assert!(ctx.tick_n(DEADLINE_POLL_MASK).is_ok());
        // ...crossing the boundary surfaces the expired deadline.
        assert!(matches!(ctx.tick_n(1), Err(EngineError::Timeout { .. })));

        // A single huge batch crosses a window by itself.
        let mut ctx = ExecContext::new(&p);
        ctx.backdate(Duration::from_millis(2));
        assert!(matches!(
            ctx.tick_n(10 * (DEADLINE_POLL_MASK + 1)),
            Err(EngineError::Timeout { .. })
        ));
    }

    #[test]
    fn sip_stats_merge_by_label() {
        let p = EngineProfile::pg_like();
        let mut ctx = ExecContext::new(&p);
        ctx.record_sip("fragment[1].sip_filter", 10, 4, Some(SipStage::Head));
        ctx.record_sip("fragment[1].sip_filter", 5, 1, Some(SipStage::Scan));
        ctx.record_sip("fragment[1].sip_filter", 0, 0, None);
        ctx.record_sip("fragment[2].sip_filter", 7, 7, Some(SipStage::BeforeProbe(1)));
        ctx.record_sip("fragment[1].sip_filter", 0, 0, Some(SipStage::Scan));

        let stats = ctx.take_sip_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].label, "fragment[1].sip_filter");
        assert_eq!(stats[0].probes, 15);
        assert_eq!(stats[0].drops, 5);
        assert_eq!(stats[0].stages, vec![(SipStage::Scan, 2), (SipStage::Head, 1)]);
        assert_eq!(stats[1].stages, vec![(SipStage::BeforeProbe(1), 1)]);
        assert_eq!(stats[1].label, "fragment[2].sip_filter");
        assert!(ctx.take_sip_stats().is_empty(), "take drains the stats");
    }
}
