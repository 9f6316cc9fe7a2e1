//! The relational executor: σ, π, ⋈, ∪ and duplicate elimination.
//!
//! Split by operator family:
//! * [`cq`] — conjunctive-query pipelines over the triple table
//!   (a leaf scan extended by index-nested-loop probes);
//! * [`join`] — joins of materialized relations (hash, sort-merge,
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
//! All operators run inside an [`ExecContext`] that enforces the engine
//! profile's deadline and memory budget and records the counters the
//! calibration layer fits cost constants against.

pub mod cq;
pub mod join;
pub mod parallel;
pub mod pool;
pub mod sip;
pub mod union;

use std::fmt::{self, Write as _};
use std::ops::AddAssign;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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
    /// Merge-join inputs whose sort was skipped because the rows already
    /// arrived in key order from a clustered permutation index.
    pub sorts_elided: u64,
    /// Galloping (exponential-search) seeks taken by skewed merge joins
    /// in place of linear advancement on the larger side.
    pub gallop_seeks: u64,
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

impl AddAssign for Counters {
    /// Add every counter of `other`. The destructuring is exhaustive, so
    /// a counter added to the struct but not summed here fails to
    /// compile instead of silently losing worker-thread counts.
    fn add_assign(&mut self, other: Counters) {
        let Counters {
            tuples_scanned,
            tuples_joined,
            tuples_materialized,
            tuples_deduped,
            sip_probes,
            sip_drops,
            range_scans,
            view_hits,
            sorts_elided,
            gallop_seeks,
            scan_rows_borrowed,
            rows_reserved,
            index_probes,
            probe_reseeks,
        } = other;
        self.tuples_scanned += tuples_scanned;
        self.tuples_joined += tuples_joined;
        self.tuples_materialized += tuples_materialized;
        self.tuples_deduped += tuples_deduped;
        self.sip_probes += sip_probes;
        self.sip_drops += sip_drops;
        self.range_scans += range_scans;
        self.view_hits += view_hits;
        self.sorts_elided += sorts_elided;
        self.gallop_seeks += gallop_seeks;
        self.scan_rows_borrowed += scan_rows_borrowed;
        self.rows_reserved += rows_reserved;
        self.index_probes += index_probes;
        self.probe_reseeks += probe_reseeks;
    }
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
        self.merge(NodeProfile { label, invocations: 1, rows, elapsed_ns, inputs });
    }

    /// Merge an already-labelled profile (e.g. from a worker context)
    /// into the per-label aggregate, ignoring the current scope.
    fn merge(&mut self, profile: NodeProfile) {
        let ix = *self.by_label.entry(profile.label.clone()).or_insert_with(|| {
            self.nodes.push(NodeProfile {
                label: profile.label.clone(),
                invocations: 0,
                rows: 0,
                elapsed_ns: 0,
                inputs: None,
            });
            self.nodes.len() - 1
        });
        let node = &mut self.nodes[ix];
        node.invocations += profile.invocations;
        node.rows += profile.rows;
        node.elapsed_ns += profile.elapsed_ns;
        if let Some((l, r)) = profile.inputs {
            let (nl, nr) = node.inputs.unwrap_or((0, 0));
            node.inputs = Some((nl + l, nr + r));
        }
    }
}

/// Cross-thread evaluation state shared by every worker context of one
/// query: a cooperative cancel flag (set on the first failure, polled by
/// the amortized tick) and the total tuples currently held by worker
/// results, charged against the profile's memory budget *globally* so a
/// parallel run cannot hold more than a sequential one is allowed to.
#[derive(Debug, Default)]
pub struct ExecShared {
    cancel: AtomicBool,
    held_tuples: AtomicU64,
}

impl ExecShared {
    /// Ask every sibling context to stop at its next poll.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether a sibling context requested a stop.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// Shared evaluation state: profile, deadline, counters.
#[derive(Debug)]
pub struct ExecContext<'a> {
    profile: &'a EngineProfile,
    started: Instant,
    /// Cumulative work counters.
    pub counters: Counters,
    ticks: u64,
    recorder: Option<NodeRecorder>,
    sip_stats: Vec<SipFilterStat>,
    shared: Arc<ExecShared>,
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
            shared: Arc::new(ExecShared::default()),
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
        self.merge_sip(SipFilterStat {
            label: label.to_string(),
            probes,
            drops,
            stages: stage.map(|s| (s, 1)).into_iter().collect(),
        });
    }

    fn merge_sip(&mut self, stat: SipFilterStat) {
        let Some(s) = self.sip_stats.iter_mut().find(|s| s.label == stat.label) else {
            self.sip_stats.push(stat);
            return;
        };
        s.probes += stat.probes;
        s.drops += stat.drops;
        for (stage, members) in stat.stages {
            match s.stages.binary_search_by_key(&stage, |&(st, _)| st) {
                Ok(i) => s.stages[i].1 += members,
                Err(i) => s.stages.insert(i, (stage, members)),
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

    /// A [`WorkerSpawner`] capturing everything worker threads need to
    /// open sibling contexts: the profile, the *same* start instant (the
    /// deadline is global) and the shared cancel/budget state.
    pub fn spawner(&self) -> WorkerSpawner<'a> {
        WorkerSpawner {
            profile: self.profile,
            started: self.started,
            shared: Arc::clone(&self.shared),
            profiling: self.recorder.is_some(),
        }
    }

    /// Fold a finished worker context into this one: counters add up
    /// (they are commutative sums, so aggregate totals are independent
    /// of scheduling) and node profiles merge by their recorded labels.
    pub fn absorb(&mut self, mut worker: ExecContext<'_>) {
        self.counters += worker.counters;
        for s in worker.take_sip_stats() {
            self.merge_sip(s);
        }
        if let Some(r) = &mut self.recorder {
            for node in worker.take_nodes() {
                r.merge(node);
            }
        }
    }

    /// The cross-thread shared state (cancel flag + held-tuples budget).
    pub fn shared(&self) -> &Arc<ExecShared> {
        &self.shared
    }

    /// Charge `tuples` held worker-result tuples against the *global*
    /// memory budget (the cross-thread sum, not one intermediate).
    /// Release with [`ExecContext::release_memory`] once merged.
    pub fn reserve_memory(&self, tuples: usize) -> Result<(), EngineError> {
        let total =
            self.shared.held_tuples.fetch_add(tuples as u64, Ordering::Relaxed) + tuples as u64;
        if total > self.profile.memory_budget_tuples as u64 {
            Err(EngineError::MemoryBudgetExceeded {
                tuples: total as usize,
                budget: self.profile.memory_budget_tuples,
            })
        } else {
            Ok(())
        }
    }

    /// Return `tuples` previously charged by [`ExecContext::reserve_memory`].
    pub fn release_memory(&self, tuples: usize) {
        self.shared.held_tuples.fetch_sub(tuples as u64, Ordering::Relaxed);
    }

    /// Amortized liveness check for a whole batch of `n` produced
    /// tuples: advances the tick counter in one step and, once per
    /// crossed poll window (16384 tuples), checks the deadline and the
    /// shared cancel flag — so a failure on one worker stops all of them
    /// promptly without one branch per tuple.
    #[inline]
    pub fn tick_n(&mut self, n: u64) -> Result<(), EngineError> {
        let before = self.ticks;
        self.ticks = self.ticks.wrapping_add(n);
        if self.ticks / (DEADLINE_POLL_MASK + 1) != before / (DEADLINE_POLL_MASK + 1) {
            self.check_live()?;
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

    /// Deadline check plus cross-thread cancellation: errors with
    /// [`EngineError::Cancelled`] when a sibling worker already failed.
    pub fn check_live(&self) -> Result<(), EngineError> {
        if self.shared.cancelled() {
            return Err(EngineError::Cancelled);
        }
        self.check_deadline()
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

    /// Enforce the memory budget for a materialized intermediate of
    /// `tuples` rows.
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

/// Everything a worker thread needs to open a sibling [`ExecContext`]
/// of a running evaluation. `Sync`, so one spawner can be borrowed by
/// every thread of a [`std::thread::scope`].
#[derive(Debug)]
pub struct WorkerSpawner<'a> {
    profile: &'a EngineProfile,
    started: Instant,
    shared: Arc<ExecShared>,
    profiling: bool,
}

impl<'a> WorkerSpawner<'a> {
    /// Open a sibling context: fresh counters/profiles, but the same
    /// profile, start instant (global deadline) and shared cancel/budget
    /// state as the originating context.
    pub fn context(&self) -> ExecContext<'a> {
        ExecContext {
            profile: self.profile,
            started: self.started,
            counters: Counters::default(),
            ticks: 0,
            recorder: self.profiling.then(NodeRecorder::default),
            sip_stats: Vec::new(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// The shared cross-thread state.
    pub fn shared(&self) -> &ExecShared {
        &self.shared
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
    fn sip_stats_merge_by_label_and_absorb() {
        let p = EngineProfile::pg_like();
        let mut ctx = ExecContext::new(&p);
        ctx.record_sip("fragment[1].sip_filter", 10, 4, Some(SipStage::Head));
        ctx.record_sip("fragment[1].sip_filter", 5, 1, Some(SipStage::Scan));
        ctx.record_sip("fragment[1].sip_filter", 0, 0, None);

        let spawner = ctx.spawner();
        let mut w = spawner.context();
        w.record_sip("fragment[2].sip_filter", 7, 7, Some(SipStage::BeforeProbe(1)));
        w.record_sip("fragment[1].sip_filter", 0, 0, Some(SipStage::Scan));
        w.counters.sip_probes = 7;
        w.counters.sip_drops = 7;
        ctx.absorb(w);

        assert_eq!(ctx.counters.sip_probes, 7);
        assert_eq!(ctx.counters.sip_drops, 7);
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

    #[test]
    fn worker_contexts_share_deadline_and_cancel() {
        let p = EngineProfile::pg_like().with_timeout(Duration::from_millis(0));
        let mut ctx = ExecContext::new(&p);
        ctx.backdate(Duration::from_millis(2));
        // A worker opened from an expired context is itself expired.
        let worker = ctx.spawner().context();
        assert!(matches!(worker.check_deadline(), Err(EngineError::Timeout { .. })));

        let p = EngineProfile::pg_like();
        let ctx = ExecContext::new(&p);
        let spawner = ctx.spawner();
        let a = spawner.context();
        let b = spawner.context();
        assert!(a.check_live().is_ok());
        b.shared().cancel();
        assert!(matches!(a.check_live(), Err(EngineError::Cancelled)));
        assert!(matches!(ctx.check_live(), Err(EngineError::Cancelled)));
    }

    #[test]
    fn reserved_memory_is_charged_globally() {
        let p = EngineProfile::pg_like().with_memory_budget(10);
        let ctx = ExecContext::new(&p);
        let spawner = ctx.spawner();
        let a = spawner.context();
        let b = spawner.context();
        assert!(a.reserve_memory(6).is_ok());
        // Each worker is within budget alone, but the cross-thread sum
        // is not.
        assert!(matches!(
            b.reserve_memory(6),
            Err(EngineError::MemoryBudgetExceeded { tuples: 12, budget: 10 })
        ));
        // Releasing the breached reservation restores headroom.
        b.release_memory(6);
        a.release_memory(6);
        assert!(ctx.reserve_memory(10).is_ok());
    }

    #[test]
    fn counters_add_every_field() {
        // Distinct values: a field summed into the wrong one shows.
        let one = Counters {
            tuples_scanned: 1,
            tuples_joined: 2,
            tuples_materialized: 3,
            tuples_deduped: 4,
            sip_probes: 5,
            sip_drops: 6,
            range_scans: 7,
            view_hits: 8,
            sorts_elided: 9,
            gallop_seeks: 10,
            scan_rows_borrowed: 11,
            rows_reserved: 12,
            index_probes: 13,
            probe_reseeks: 14,
        };
        let mut sum = one;
        sum += one;
        let want = Counters {
            tuples_scanned: 2,
            tuples_joined: 4,
            tuples_materialized: 6,
            tuples_deduped: 8,
            sip_probes: 10,
            sip_drops: 12,
            range_scans: 14,
            view_hits: 16,
            sorts_elided: 18,
            gallop_seeks: 20,
            scan_rows_borrowed: 22,
            rows_reserved: 24,
            index_probes: 26,
            probe_reseeks: 28,
        };
        assert_eq!(sum, want);
    }

    #[test]
    fn absorb_sums_counters_and_merges_nodes() {
        let p = EngineProfile::pg_like();
        let mut ctx = ExecContext::with_profiling(&p);
        let t = ctx.op_start();
        ctx.op_finish(t, "dedup", 3);
        ctx.counters.tuples_scanned = 5;

        let spawner = ctx.spawner();
        let mut w = spawner.context();
        assert!(w.profiling(), "workers inherit profiling");
        w.set_scope(format_args!("fragment[0]."));
        let t = w.op_start();
        w.op_finish(t, "cq", 7);
        w.counters.tuples_scanned = 2;
        w.counters.tuples_joined = 4;

        ctx.absorb(w);
        assert_eq!(ctx.counters.tuples_scanned, 7);
        assert_eq!(ctx.counters.tuples_joined, 4);
        let nodes = ctx.take_nodes();
        let labels: Vec<&str> = nodes.iter().map(|n| n.label.as_str()).collect();
        assert_eq!(labels, vec!["dedup", "fragment[0].cq"]);
        assert_eq!(nodes[1].rows, 7);
    }
}
