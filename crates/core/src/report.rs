//! What an answer and an update report, and how answering fails.

use std::fmt;
use std::time::Duration;

use jucq_reformulation::cover::CoverError;
use jucq_reformulation::Cover;
use jucq_store::exec::Counters;
use jucq_store::{EngineError, Relation};

/// Failures surfaced by [`Snapshot::answer`](crate::Snapshot::answer).
#[derive(Debug, Clone, PartialEq)]
pub enum AnswerError {
    /// The engine refused or aborted the evaluation (the paper's
    /// missing bars).
    Engine(EngineError),
    /// The query admits no valid cover of the requested shape (e.g. a
    /// cartesian-product body asked for a single-fragment cover).
    Cover(CoverError),
}

impl fmt::Display for AnswerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnswerError::Engine(e) => write!(f, "engine: {e}"),
            AnswerError::Cover(e) => write!(f, "cover: {e}"),
        }
    }
}

impl std::error::Error for AnswerError {}

impl From<EngineError> for AnswerError {
    fn from(e: EngineError) -> Self {
        AnswerError::Engine(e)
    }
}

impl From<CoverError> for AnswerError {
    fn from(e: CoverError) -> Self {
        AnswerError::Cover(e)
    }
}

/// The outcome of a data update (see
/// [`RdfDatabase::apply_data_updates`](crate::RdfDatabase::apply_data_updates)).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// New explicit triples inserted.
    pub inserted: usize,
    /// Explicit triples removed.
    pub deleted: usize,
    /// Entailed triples added to the saturation: the saturated store's
    /// new triples that are not data triples. 0 unless
    /// `saturation_maintained`.
    pub entailed_added: usize,
    /// Entailed triples dropped from the saturation: the saturated
    /// store's lost triples that were not data triples. 0 unless
    /// `saturation_maintained`.
    pub entailed_removed: usize,
    /// True iff the closure was unchanged: the covers, the constants and
    /// a built saturated store carried over. `false` for a batch that
    /// carries a schema statement or brings a class or property the
    /// closure lacks, and for one that published the first snapshot.
    pub incremental: bool,
    /// True iff this update also maintained the saturated store: it is
    /// maintained only once a snapshot has built it (a Saturation
    /// answer, or a `saturated_store()` call, on the snapshot the update
    /// derives from). A reformulation-only database never saturates, so
    /// its updates leave this `false` and the two entailed counts 0.
    pub saturation_maintained: bool,
}

/// The outcome of answering one query under one strategy.
#[derive(Debug, Clone)]
pub struct AnswerReport {
    /// Strategy short name (`SAT`, `UCQ`, `SCQ`, `ECov`, `GCov`,
    /// `Cover`).
    pub strategy: &'static str,
    /// The deduplicated answer relation (columns = the query head).
    pub rows: Relation,
    /// Executor work counters.
    pub counters: Counters,
    /// Time spent evaluating the final (reformulated) query.
    pub eval_time: Duration,
    /// Time spent reformulating and searching covers.
    pub planning_time: Duration,
    /// Union terms in the evaluated query (the paper's `|q_ref|` for
    /// UCQ; summed over fragments otherwise; 1 for saturation).
    pub union_terms: usize,
    /// The cover used, when the strategy is cover-based.
    pub cover: Option<Cover>,
    /// Covers explored by the search, when one ran.
    pub covers_explored: Option<usize>,
    /// Fragments whose union members contained at least one
    /// consecutive-id run the planner *could* collapse into an
    /// [`Interval`](jucq_store::Interval) — detected even when the
    /// profile's `range_scans` knob is off, so the query log can report
    /// missed opportunities.
    pub range_eligible: usize,
    /// Collapsed intervals (range scans and range probes) actually
    /// present in the executed plan (0 when the knob is off or nothing
    /// was contiguous).
    pub range_scans_planned: usize,
    /// Materialized fragment views resident in the catalog when this
    /// answer ran (0 when no catalog is enabled). Epoch-exact view
    /// *resolutions* are in [`Counters::view_hits`].
    pub view_catalog_size: usize,
}
