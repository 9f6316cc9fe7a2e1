//! The epoch snapshot: the one type that knows what an answer needs.
//!
//! A [`Snapshot`] is one published state of the database — dictionary,
//! schema closure, `rdf:type`, the **plain store** (explicit data +
//! materialized closed schema, the target of reformulation-based
//! answering), the cost constants, and handles on the shared plan cache
//! and view catalog — stamped with the epoch it was published at and
//! never mutated afterwards. The **saturated store** (`G∞` + the same
//! schema triples, the target of saturation-based answering: the plain
//! store's own table under an entailed layer of what saturation adds) is
//! the one part built on demand: reformulation never reads it, so the
//! first Saturation request on a snapshot derives it from the snapshot's
//! own plain store ([`Snapshot::saturated_store`]), once, and every later
//! request and every snapshot sharing the same data and profile reuses
//! it. Everything query-facing runs here, on `&self`, exactly
//! once: [`Snapshot::parse_query`], then [`Snapshot::answer`],
//! [`Snapshot::answer_recorded`], [`Snapshot::explain`] or
//! [`Snapshot::explain_analyze`], all four over the same three steps —
//! choose a cover and reformulate ([`plan_jucq_on`]), lower to a
//! physical plan (cached or fresh, view catalog attached), execute and
//! report ([`answer_on`]).
//!
//! Snapshots are built by the single writer, [`crate::RdfDatabase`] —
//! each from the previous snapshot, or none, plus one batch, the closure
//! recomputed when the batch changes it — whose own query-facing methods
//! delegate to its current snapshot; [`crate::ServingDb`] hands the
//! writer's snapshots to concurrent readers. Any number of threads share one snapshot
//! without locks: parsing never interns, the shared mutable state —
//! the plan cache and the view catalog — sits behind its own mutex, and
//! the saturated store is a once-cell whose concurrent first callers
//! wait for one build.
//!
//! (The other "snapshot" of this crate, [`crate::snapshot`], is the
//! binary *file* a graph is saved to and restored from — the data on
//! disk, not the prepared database in memory.)

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use jucq_model::{Dictionary, FxHashSet, SchemaClosure, Term, TermId, TripleId};
use jucq_optimizer::{
    ecov, gcov, CostConstants, CoverSearch, EngineCostModel, JucqCostEstimator, PaperCostModel,
};
use jucq_reformulation::jucq::jucq_for_cover_bounded;
use jucq_reformulation::reformulate::ReformulationEnv;
use jucq_reformulation::saturation::consequences;
use jucq_reformulation::{BgpQuery, Cover};
use jucq_store::exec::Counters;
use jucq_store::{
    EngineError, EngineProfile, ExecProfile, Plan, Relation, Store, StoreJucq, TripleTable,
    ViewCatalog, ViewCatalogStats, ViewSource,
};

use crate::parser::ParseError;
use crate::plan_cache::{PlanCache, PlanCacheStats, PlanKey};
use crate::report::{AnswerError, AnswerReport};
use crate::strategy::{CostSource, Strategy};

/// One published epoch: an immutable view of the database sufficient
/// to parse, answer and explain queries on `&self`. Cheap to share
/// (`Arc`) and to hold — pinning an old snapshot keeps its stores alive
/// but never blocks the writer.
pub struct Snapshot {
    pub(crate) epoch: u64,
    /// The dictionary as of publication (a clone shares its tables with
    /// the writer's until the writer learns a term). Ids interned by
    /// the writer afterwards are unknown here and, like the frozen
    /// parser's sentinels, match nothing in this epoch's stores.
    pub(crate) dict: Dictionary,
    pub(crate) closure: Arc<SchemaClosure>,
    pub(crate) rdf_type: TermId,
    /// The plain store; it carries the engine profile requests run
    /// under. Its data triples ([`Snapshot::data`]) are the writer's only
    /// copy of the data while this snapshot is current.
    pub(crate) plain: Store,
    /// The saturated store, under the same profile: empty until the
    /// first request that needs it builds it
    /// ([`Snapshot::saturated_store`]), or filled from the start by the
    /// writer when it maintained the store from the previous epoch's.
    /// Snapshots of the same data and profile share the cell.
    pub(crate) saturated: Arc<OnceLock<Store>>,
    /// The materialized closed-schema triples, sorted: both stores hold
    /// them, and the plain store holds nothing else but the data.
    pub(crate) schema_triples: Arc<[TripleId]>,
    pub(crate) constants: CostConstants,
    /// This snapshot's plan cache instance: the writer starts a new one
    /// for every data change and view pin (see
    /// [`PlanCache::successor`]), so a plan cached here was lowered
    /// against this snapshot's stores.
    pub(crate) cache: Option<Arc<Mutex<PlanCache>>>,
    /// The shared view catalog (entries are epoch-stamped; this
    /// snapshot's requests resolve only entries stamped with exactly
    /// `epoch`, so sharing the handle across epochs is safe).
    pub(crate) views: Option<Arc<ViewCatalog>>,
}

/// Lock the shared plan cache, recovering from poisoning: the cache's
/// operations keep its invariants at every await-free step, so a reader
/// that panicked mid-request must not wedge every other request.
pub(crate) fn lock_cache(cache: &Mutex<PlanCache>) -> std::sync::MutexGuard<'_, PlanCache> {
    cache.lock().unwrap_or_else(|e| e.into_inner())
}

/// What [`plan_jucq_on`] decides: the reformulated JUCQ, the cover
/// behind it, which store evaluates it, and the plan-cache key used
/// (when caching applies), so lowering can reuse the entry's physical
/// plan.
pub(crate) struct Planned {
    pub(crate) jucq: StoreJucq,
    cover: Option<Cover>,
    explored: Option<usize>,
    /// `true` = the saturated store evaluates the JUCQ.
    pub(crate) saturated: bool,
    key: Option<PlanKey>,
}

/// One profiled or unprofiled run: the report plus what `explain
/// analyze` and the query log read besides it.
pub(crate) struct Answered {
    pub(crate) report: AnswerReport,
    pub(crate) exec: Option<ExecProfile>,
    /// The physical plan that ran.
    plan: Arc<Plan>,
    saturated: bool,
}

impl Snapshot {
    /// A second handle on the same state: every field is an `Arc`, a
    /// [`Store`] (two `Arc`s and a profile), a [`Dictionary`] (three
    /// `Arc`s) or a scalar, so nothing is copied — the saturated store's
    /// cell included, so a build on either handle serves both. The
    /// writer builds each successor as `Snapshot { what_changed,
    /// ..prev.share() }`.
    pub(crate) fn share(&self) -> Snapshot {
        Snapshot {
            epoch: self.epoch,
            dict: self.dict.clone(),
            closure: Arc::clone(&self.closure),
            rdf_type: self.rdf_type,
            plain: self.plain.clone(),
            saturated: Arc::clone(&self.saturated),
            schema_triples: Arc::clone(&self.schema_triples),
            constants: self.constants,
            cache: self.cache.clone(),
            views: self.views.clone(),
        }
    }

    /// The epoch this snapshot was published at (0 = the first
    /// preparation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine profile requests run under by default.
    pub fn profile(&self) -> &EngineProfile {
        self.plain.profile()
    }

    /// This epoch's dictionary: the one its answers' ids decode against.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The plain (non-saturated) store, for direct engine access.
    pub fn plain_store(&self) -> &Store {
        &self.plain
    }

    /// The saturated store, `saturate_with(data) ∪ schema_triples`,
    /// built on first use, as two layers: the plain store's own table
    /// (shared, not copied), and under the `prepare.saturated` span an
    /// *entailed layer* of what the saturation adds to it — the
    /// consequences of the data triples that the plain store lacks, so
    /// no triple is in both. Callers racing the first one wait for that
    /// one build. A snapshot the writer maintained from its
    /// predecessor's store has it from the start.
    pub fn saturated_store(&self) -> &Store {
        self.saturated.get_or_init(|| {
            jucq_obs::span!("prepare.saturated");
            let mut derived = FxHashSet::default();
            for t in self.data() {
                consequences(&self.closure, self.rdf_type, t, |c| {
                    derived.insert(c);
                });
            }
            let mut entailed: Vec<TripleId> = derived.into_iter().collect();
            entailed.sort_unstable();
            // Both runs are sorted in SPO order: one merge drops what the
            // plain store holds.
            let mut plain = self.plain.table().all().iter().peekable();
            entailed.retain(|c| {
                while plain.next_if(|t| *t < c).is_some() {}
                plain.next_if_eq(&c).is_none()
            });
            jucq_obs::span!("prepare.index_build");
            Store::layered(&self.plain, TripleTable::from_vec(entailed))
        })
    }

    /// The data triples, in SPO order: the plain store without the
    /// schema triples. Once prepared, the writer keeps no other copy.
    pub(crate) fn data(&self) -> impl Iterator<Item = &TripleId> + '_ {
        // Both runs are sorted in SPO order: one merge skips the schema.
        let mut schema = self.schema_triples.iter().peekable();
        self.plain.table().all().iter().filter(move |t| {
            while schema.next_if(|s| s < t).is_some() {}
            schema.next_if_eq(t).is_none()
        })
    }

    /// The number of data triples, [`Snapshot::data`]'s length: the
    /// plain store holds every schema triple besides them.
    pub(crate) fn data_len(&self) -> usize {
        self.plain.table().len() - self.schema_triples.len()
    }

    /// True iff `t`, a triple without a schema property, is one of the
    /// data triples: an SPO lookup in the plain store, whose only other
    /// triples all carry schema properties.
    pub(crate) fn contains_data(&self, t: &TripleId) -> bool {
        self.plain.table().all().binary_search(t).is_ok()
    }

    /// The schema closure.
    pub fn closure(&self) -> &SchemaClosure {
        &self.closure
    }

    /// The dictionary id of `rdf:type`.
    pub fn rdf_type(&self) -> TermId {
        self.rdf_type
    }

    /// The calibrated (or pinned) cost constants.
    pub fn cost_constants(&self) -> CostConstants {
        self.constants
    }

    /// The shared plan cache's counters, if caching is enabled.
    pub fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.cache.as_deref().map(|c| lock_cache(c).stats())
    }

    /// The view catalog's counters, if views are enabled.
    pub fn view_stats(&self) -> Option<ViewCatalogStats> {
        self.views.as_deref().map(|c| c.stats())
    }

    /// Decode an answer relation against this epoch's dictionary to
    /// owned terms ([`crate::rows::decode_rows`];
    /// [`crate::rows::term_rows`] over [`Snapshot::dict`] borrows them
    /// instead).
    pub fn decode_rows(&self, rows: &Relation) -> Vec<Vec<Term>> {
        crate::rows::decode_rows(&self.dict, rows)
    }

    /// Parse a SPARQL query against this epoch's dictionary without
    /// interning: constants unknown to the epoch resolve to sentinel
    /// ids beyond the dictionary, matching nothing — exactly the
    /// answer a just-interned constant would produce.
    pub fn parse_query(&self, text: &str) -> Result<BgpQuery, ParseError> {
        crate::parser::parse_query_frozen(&self.dict, text)
    }

    /// A per-request profile: the snapshot's own, with the deadline
    /// and/or memory budget tightened. `None` keeps the default.
    pub fn request_profile(
        &self,
        deadline: Option<Duration>,
        memory_budget_tuples: Option<usize>,
    ) -> EngineProfile {
        let mut p = self.profile().clone();
        p.timeout = deadline.unwrap_or(p.timeout);
        p.memory_budget_tuples = memory_budget_tuples.unwrap_or(p.memory_budget_tuples);
        p
    }

    /// Answer `q` under `strategy` with the snapshot's own profile,
    /// reporting timings and plan shape.
    pub fn answer(&self, q: &BgpQuery, strategy: &Strategy) -> Result<AnswerReport, AnswerError> {
        self.answer_with_limits(q, strategy, None)
    }

    /// Answer with a per-request execution override (deadline, memory
    /// budget — see [`Snapshot::request_profile`]). The override never
    /// affects plan identity: [`EngineProfile::plan_cache_key`]
    /// excludes both knobs, so cached plans are shared across requests
    /// with different limits.
    ///
    /// When a query-log sink is installed (`--query-log` /
    /// `JUCQ_QUERY_LOG`; see [`jucq_obs::record`]), the run is profiled
    /// per node and a structured [`jucq_obs::QueryRecord`] is submitted
    /// to the sink.
    pub fn answer_with_limits(
        &self,
        q: &BgpQuery,
        strategy: &Strategy,
        limits: Option<&EngineProfile>,
    ) -> Result<AnswerReport, AnswerError> {
        if jucq_obs::record::installed() {
            let (result, record) = self.answer_recorded(q, strategy, limits);
            if let Some(rec) = record {
                jucq_obs::record::submit(rec);
            }
            return result;
        }
        jucq_obs::span!("answer");
        if q.is_empty() {
            return Ok(empty_answer(q, strategy));
        }
        answer_on(self, q, strategy, limits, false).map(|a| a.report)
    }

    /// Answer, profiled, and also build — but do not submit — the
    /// query-log record. [`Snapshot::answer_with_limits`] (and so
    /// [`Snapshot::answer`] and the server) submits it when a sink is
    /// installed, and the replay harness ([`crate::telemetry::replay`])
    /// compares records instead of logging them. `None` only for the empty-body
    /// short-circuit, which has nothing to profile.
    pub fn answer_recorded(
        &self,
        q: &BgpQuery,
        strategy: &Strategy,
        limits: Option<&EngineProfile>,
    ) -> (Result<AnswerReport, AnswerError>, Option<jucq_obs::QueryRecord>) {
        jucq_obs::span!("answer");
        if q.is_empty() {
            return (Ok(empty_answer(q, strategy)), None);
        }
        let before = self.plan_cache_stats();
        let result = answer_on(self, q, strategy, limits, true);
        let after = self.plan_cache_stats();
        let record = crate::telemetry::build_record(
            self,
            q,
            strategy,
            &result,
            before.as_ref(),
            after.as_ref(),
        );
        (result.map(|a| a.report), Some(record))
    }

    /// `EXPLAIN`: plan `q` exactly as [`Snapshot::answer`] would — cover
    /// choice, reformulation, and the physical plan from the plan cache
    /// or lowered against the view catalog — and render the admission
    /// decision plus the physical operator tree, without executing
    /// anything.
    pub fn explain(&self, q: &BgpQuery, strategy: &Strategy) -> Result<String, AnswerError> {
        if q.is_empty() {
            return Ok(empty_explain(strategy));
        }
        let (planned, plan, _) = lower(self, q, strategy)?;
        let mut out = header(strategy, planned.saturated, planned.cover.as_ref(), q.limit);
        out.push_str(&jucq_store::explain::explain_plan(
            self.target(planned.saturated).0,
            &planned.jucq,
            Some(&plan),
            Some(&|raw| self.term_name(raw)),
        ));
        Ok(out)
    }

    /// `EXPLAIN ANALYZE`: the profiled run [`Snapshot::answer`] would
    /// make — views, cached plan, `LIMIT` and all — rendered as the
    /// physical plan that ran plus each node's estimated vs. actual
    /// rows and Q-error.
    pub fn explain_analyze(
        &self,
        q: &BgpQuery,
        strategy: &Strategy,
    ) -> Result<String, AnswerError> {
        if q.is_empty() {
            return Ok(empty_explain(strategy));
        }
        let Answered { report, exec, plan, saturated } = answer_on(self, q, strategy, None, true)?;
        let mut out = header(strategy, saturated, report.cover.as_ref(), q.limit);
        out.push_str(&jucq_store::explain::render_physical_plan(
            &plan,
            Some(&|raw| self.term_name(raw)),
        ));
        out.push_str(&jucq_store::explain::render_analyze_report(
            &self.profile().name,
            report.cover.as_ref().map_or(1, Cover::len),
            report.union_terms,
            report.rows.len(),
            report.eval_time.as_nanos() as u64,
            &report.counters,
            &exec.unwrap_or_default(),
        ));
        Ok(out)
    }

    /// The store `saturated` selects, and the catalog that may serve
    /// plans on it: views were materialized from the plain store, so a
    /// saturation plan never binds a view.
    fn target(&self, saturated: bool) -> (&Store, Option<&ViewCatalog>) {
        if saturated {
            (self.saturated_store(), None)
        } else {
            (&self.plain, self.views.as_deref())
        }
    }

    /// The lexical form behind a raw URI id, for plan rendering: a
    /// `RangeScan` reads `o∈[#u12, #u12+5) (Publication)` instead of a
    /// bare id interval.
    fn term_name(&self, raw: u32) -> Option<String> {
        let id = TermId::from_raw(raw);
        self.dict.contains_id(id).then(|| self.dict.lexical(id).to_owned())
    }
}

/// The lines `explain` and `explain analyze` open with.
fn header(
    strategy: &Strategy,
    saturated: bool,
    cover: Option<&Cover>,
    limit: Option<usize>,
) -> String {
    let mut out = format!(
        "Strategy: {} (target: {} store)\n",
        strategy.name(),
        if saturated { "saturated" } else { "plain" }
    );
    if let Some(c) = cover {
        let _ = writeln!(out, "Cover: {:?}", c.fragments());
    }
    if let Some(n) = limit {
        let _ = writeln!(out, "Limit: the first {n} row(s) of the result");
    }
    out
}

fn empty_explain(strategy: &Strategy) -> String {
    format!("Strategy: {} (empty query: no atoms, no answers)\n", strategy.name())
}

/// Run the ECov/GCov cover search: the chosen cover and how many
/// covers were explored.
fn run_cover_search(
    s: &Snapshot,
    q: &BgpQuery,
    env: &ReformulationEnv<'_>,
    cost: &CostSource,
    strategy: &Strategy,
    limit: usize,
) -> Result<(Cover, usize), AnswerError> {
    let paper_model = PaperCostModel::new(s.plain.table(), s.plain.stats(), s.constants)
        .with_range_pricing(s.profile().range_scans)
        .with_view_pricing(s.views.as_deref());
    let engine_model = EngineCostModel::new(&s.plain);
    let estimator: &dyn JucqCostEstimator = match cost {
        CostSource::Paper => &paper_model,
        CostSource::Engine => &engine_model,
    };
    let search = CoverSearch::new(q, *env, estimator).with_union_limit(limit);
    let result = match strategy {
        Strategy::ECov { budget, .. } => ecov(&search, *budget)?,
        Strategy::GCov { budget, max_moves, .. } => gcov(&search, *budget, *max_moves)?,
        _ => unreachable!("callers narrow to ECov/GCov"),
    };
    Ok((result.cover, result.explored))
}

/// The ECov/GCov cover of `q`: looked up in the plan cache, or searched
/// for and stored there. Also returns the covers-explored count of the
/// search that chose it and the plan-cache key used, when caching
/// applies.
///
/// Plan-cache keys are canonical query forms, so isomorphic queries
/// (same shape, different variable names or atom order) share one
/// cached cover; the cover's atom indices are canonical and translated
/// through this query's permutation. The profile's plan-affecting
/// fingerprint (name plus the join, materialization and range-collapse
/// knobs) keys cost-model- and executor-dependent choices apart, so
/// toggling `range_scans` can never serve a plan lowered for the old
/// knobs.
fn choose_cover(
    s: &Snapshot,
    q: &BgpQuery,
    env: &ReformulationEnv<'_>,
    cost: &CostSource,
    strategy: &Strategy,
    limit: usize,
) -> Result<(Cover, Option<usize>, Option<PlanKey>), AnswerError> {
    let Some(cache) = s.cache.as_deref() else {
        let (cover, explored) = run_cover_search(s, q, env, cost, strategy, limit)?;
        return Ok((cover, Some(explored), None));
    };
    let (canonical, perm) = q.canonicalize();
    let key = PlanKey::new(canonical.clone(), strategy.name(), &s.profile().plan_cache_key());
    let renumbered = |cover: &Cover, atom: &dyn Fn(usize) -> usize| -> Vec<Vec<usize>> {
        cover.fragments().into_iter().map(|f| f.into_iter().map(atom).collect()).collect()
    };
    // Hold the lock only for the lookup — a miss runs the cover search
    // unlocked, so concurrent requests never serialize behind planning.
    let cached = lock_cache(cache).get(&key);
    if let Some((canonical_cover, explored)) = cached {
        let cover = Cover::new(q, renumbered(&canonical_cover, &|i| perm[i]))
            .expect("canonical covers translate to valid covers");
        return Ok((cover, explored, Some(key)));
    }
    let (cover, explored) = run_cover_search(s, q, env, cost, strategy, limit)?;
    // Store the cover in canonical indices.
    let inverse: jucq_model::FxHashMap<usize, usize> =
        perm.iter().enumerate().map(|(ci, &oi)| (oi, ci)).collect();
    if let Ok(canonical_cover) = Cover::new(&canonical, renumbered(&cover, &|i| inverse[&i])) {
        lock_cache(cache).put(key.clone(), canonical_cover, Some(explored));
    }
    Ok((cover, Some(explored), Some(key)))
}

/// Plan `q` under `strategy`: choose (or look up) a cover and build the
/// reformulated JUCQ.
pub(crate) fn plan_jucq_on(
    s: &Snapshot,
    q: &BgpQuery,
    strategy: &Strategy,
) -> Result<Planned, AnswerError> {
    let env = ReformulationEnv { closure: &s.closure, rdf_type: s.rdf_type };
    // Reformulation is bounded by the engine's union limit: a union
    // the engine would reject is not materialized at all (the paper's
    // engines likewise fail during parsing/planning, not execution).
    let limit = s.profile().max_union_terms;
    let (mut explored, mut key) = (None, None);
    let cover = match strategy {
        Strategy::Saturation => {
            let ucq = jucq_store::StoreUcq::new(vec![q.to_store_cq()], q.head.clone());
            let jucq = StoreJucq::new(vec![ucq], q.head.clone());
            return Ok(Planned { jucq, cover: None, explored, saturated: true, key });
        }
        Strategy::Ucq => Cover::single_fragment(q)?,
        Strategy::Scq => Cover::singletons(q)?,
        Strategy::FixedCover(cover) => cover.clone(),
        Strategy::ECov { cost, .. } | Strategy::GCov { cost, .. } => {
            let cover;
            (cover, explored, key) = choose_cover(s, q, &env, cost, strategy, limit)?;
            cover
        }
    };
    let jucq = jucq_for_cover_bounded(q, &cover, &env, limit)
        .map_err(|n| EngineError::UnionTooLarge { terms: n, limit })?;
    Ok(Planned { jucq, cover: Some(cover), explored, saturated: false, key })
}

/// Plan, then lower: reuse the cache entry's physical plan when it was
/// built for exactly this query under this profile; otherwise lower one
/// — against the view catalog, when one is attached — and attach it for
/// the next repetition. Also returns the planning time (cover search
/// and reformulation; lowering reports through its own spans).
fn lower(
    s: &Snapshot,
    q: &BgpQuery,
    strategy: &Strategy,
) -> Result<(Planned, Arc<Plan>, Duration), AnswerError> {
    let planning_start = Instant::now();
    let planned = {
        jucq_obs::span!("planning");
        plan_jucq_on(s, q, strategy)?
    };
    let planning_time = planning_start.elapsed();
    let (target, catalog) = s.target(planned.saturated);
    let plan = match (s.cache.as_deref(), &planned.key) {
        (Some(cache), Some(key)) => {
            let cached = lock_cache(cache).get_plan(key, q);
            match cached {
                Some(plan) => plan,
                None => {
                    let plan = Arc::new(target.plan_jucq_views(&planned.jucq, catalog)?);
                    lock_cache(cache).attach_plan(key, q.clone(), Arc::clone(&plan));
                    plan
                }
            }
        }
        _ => Arc::new(target.plan_jucq_views(&planned.jucq, catalog)?),
    };
    Ok((planned, plan, planning_time))
}

/// A zero-atom query's uniform answer: clean and empty for *every*
/// strategy. An empty body has no cover (UCQ's single fragment would be
/// empty, SCQ's cover has no fragments), and letting each strategy
/// improvise its own degenerate behaviour made them disagree. No atoms,
/// no answers — uniformly.
fn empty_answer(q: &BgpQuery, strategy: &Strategy) -> AnswerReport {
    jucq_obs::metrics::counter_add("queries.answered", 1);
    AnswerReport {
        strategy: strategy.name(),
        rows: Relation::empty(q.head.clone()),
        counters: Counters::default(),
        eval_time: Duration::ZERO,
        planning_time: Duration::ZERO,
        union_terms: 0,
        cover: None,
        covers_explored: None,
        range_eligible: 0,
        range_scans_planned: 0,
        view_catalog_size: 0,
    }
}

/// The answering pipeline: plan, lower, execute, report. Callers emit
/// the `answer` span and short-circuit zero-atom queries through
/// [`empty_answer`] first. With `profiled`, evaluation collects the
/// per-node [`ExecProfile`] (the data behind query-log records and
/// `explain analyze`); without, it takes the unprofiled fast path.
fn answer_on(
    s: &Snapshot,
    q: &BgpQuery,
    strategy: &Strategy,
    limits: Option<&EngineProfile>,
    profiled: bool,
) -> Result<Answered, AnswerError> {
    let (planned, plan, planning_time) = lower(s, q, strategy)?;
    let Planned { jucq, cover, explored, saturated, .. } = planned;
    let (target, catalog) = s.target(saturated);
    let union_terms = jucq.union_terms();
    let (range_eligible, range_scans_planned) = (plan.range_eligible, plan.range_scans);
    // Per-request limits (deadline, memory budget) override only the
    // execution context, never the plan: `plan_cache_key` excludes
    // them by design, so a request with a tight deadline still reuses
    // the shared plan. View resolution is pinned to *this* epoch: a
    // cached plan's view-served fragment takes rows only from a catalog
    // entry computed at exactly `s.epoch`, and evaluates its members
    // otherwise — so a racing plan-cache entry can never surface another
    // epoch's rows.
    let source = catalog.map(|c| ViewSource { catalog: c, epoch: s.epoch });
    let (mut outcome, exec) = target.eval_plan_views(&plan, profiled, limits, source.as_ref())?;
    if let Some(n) = q.limit {
        outcome.relation.truncate(n);
    }

    let c = outcome.counters;
    if c.view_hits > 0 {
        jucq_obs::metrics::counter_add("views.hits", c.view_hits);
    }
    jucq_obs::metrics::counter_add("queries.answered", 1);
    jucq_obs::metrics::counter_add("exec.tuples_scanned", c.tuples_scanned);
    jucq_obs::metrics::counter_add("exec.tuples_joined", c.tuples_joined);
    jucq_obs::metrics::counter_add("exec.tuples_materialized", c.tuples_materialized);
    jucq_obs::metrics::counter_add("exec.tuples_deduped", c.tuples_deduped);
    jucq_obs::metrics::counter_add("exec.scan_rows_borrowed", c.scan_rows_borrowed);
    jucq_obs::metrics::counter_add("exec.index_probes", c.index_probes);
    jucq_obs::metrics::counter_add("exec.probe_reseeks", c.probe_reseeks);
    jucq_obs::metrics::histogram_record("pipeline.planning.ns", planning_time.as_nanos() as u64);
    jucq_obs::metrics::histogram_record("pipeline.execution.ns", outcome.elapsed.as_nanos() as u64);
    if let Some(cache) = s.cache.as_deref() {
        let stats = lock_cache(cache).stats();
        let lookups = stats.hits + stats.misses;
        if lookups > 0 {
            jucq_obs::metrics::gauge_set(
                "plan_cache.hit_ratio",
                stats.hits as f64 / lookups as f64,
            );
        }
    }

    Ok(Answered {
        report: AnswerReport {
            strategy: strategy.name(),
            rows: outcome.relation,
            counters: c,
            eval_time: outcome.elapsed,
            planning_time,
            union_terms,
            cover,
            covers_explored: explored,
            range_eligible,
            range_scans_planned,
            view_catalog_size: s.views.as_deref().map_or(0, |c| c.stats().entries),
        },
        exec,
        plan,
        saturated,
    })
}
