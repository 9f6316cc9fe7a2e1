//! The `RdfDatabase` facade.
//!
//! Owns the RDF graph (dictionary + schema + data), lazily prepares the
//! two engine-backed stores the paper compares —
//!
//! * the **plain store** (explicit data + materialized closed schema),
//!   targeted by reformulation-based answering, and
//! * the **saturated store** (`G∞` + the same schema triples), targeted
//!   by saturation-based answering —
//!
//! and dispatches [`Strategy`]s over them, reporting the measurements
//! the paper's experiments record (planning vs. evaluation time, union
//! terms, covers explored).

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use jucq_model::{Graph, SchemaClosure, Term, TermId, Triple};
use jucq_optimizer::{
    calibrate, ecov, gcov, CostConstants, CoverSearch, EngineCostModel, JucqCostEstimator,
    PaperCostModel,
};
use jucq_reformulation::cover::CoverError;
use jucq_reformulation::incremental::IncrementalSaturation;
use jucq_reformulation::jucq::jucq_for_cover_bounded;
use jucq_reformulation::reformulate::ReformulationEnv;
use jucq_reformulation::saturation::{saturate, schema_triples};
use jucq_reformulation::{BgpQuery, Cover};
use jucq_store::exec::Counters;
use jucq_store::{
    DeltaFootprint, EngineError, EngineProfile, Relation, Store, StoreJucq, ViewCatalog,
    ViewCatalogStats, ViewFootprint, ViewSignature, ViewSource,
};

use crate::strategy::{CostSource, Strategy};

/// Failures surfaced by [`RdfDatabase::answer`].
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

/// How the database's dictionary assigns ids to URIs.
///
/// With [`EncodingMode::Hierarchical`], class and property ids are
/// re-assigned by DFS interval labeling over the `rdfs:subClassOf` /
/// `rdfs:subPropertyOf` DAGs (see [`jucq_model::encoding`]) before the
/// first query-facing id escapes, so a class subtree occupies one
/// contiguous id block and the planner's range-collapse pass can turn
/// reformulation unions over it into single interval scans.
///
/// The re-encoding runs at the first of [`RdfDatabase::prepare`],
/// [`RdfDatabase::parse_query`], [`RdfDatabase::intern_uri`] or
/// [`RdfDatabase::intern_term`] — and runs **again** after any schema
/// insertion (a new `subClassOf`/`subPropertyOf` edge changes the
/// interval labeling), so `descendant_range` intervals never go stale.
/// Queries parsed before a re-encoding must be re-parsed: their
/// constants hold pre-remap ids. Plain *data* terms interned between
/// re-encodings get append ids and stay outside every interval until
/// the next schema change (correctness is unaffected — the collapse
/// pass only merges constants whose ids happen to be contiguous).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingMode {
    /// First-seen append order (the default).
    #[default]
    Plain,
    /// Hierarchy-aware interval labeling of classes and properties.
    Hierarchical,
}

/// The outcome of a data update (see
/// [`RdfDatabase::apply_data_updates`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// New explicit triples inserted.
    pub inserted: usize,
    /// Explicit triples removed.
    pub deleted: usize,
    /// Entailed triples added to the saturation (beyond the explicit).
    pub entailed_added: usize,
    /// Entailed triples dropped from the saturation.
    pub entailed_removed: usize,
    /// True iff the stores were maintained in place (no rebuild).
    pub incremental: bool,
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
    /// consecutive-id run the planner *could* collapse into a
    /// [`RangeScan`](jucq_store::PlanNode) — detected even when the
    /// profile's `range_scans` knob is off, so the query log can report
    /// missed opportunities.
    pub range_eligible: usize,
    /// `RangeScan` nodes actually present in the executed plan (0 when
    /// the knob is off or nothing was contiguous).
    pub range_scans_planned: usize,
    /// Materialized fragment views resident in the catalog when this
    /// answer ran (0 when no catalog is enabled). Epoch-exact view
    /// *resolutions* are in [`Counters::view_hits`].
    pub view_catalog_size: usize,
}

/// Everything one answer needs besides the query: closure, stores,
/// constants. `Clone` + `Arc` so the serving layer can pin an epoch's
/// preparation in an immutable snapshot while the writer builds the
/// next one copy-on-write ([`Arc::make_mut`]).
#[derive(Clone)]
pub(crate) struct Prepared {
    pub(crate) closure: SchemaClosure,
    pub(crate) rdf_type: TermId,
    pub(crate) plain: Store,
    pub(crate) saturated: Store,
    pub(crate) constants: CostConstants,
    /// The saturation under counting-based maintenance, enabling
    /// incremental data updates (see [`RdfDatabase::apply_data_updates`]).
    pub(crate) incremental: IncrementalSaturation,
    /// The materialized closed-schema triples (shared by both stores).
    pub(crate) schema_triples: Vec<jucq_model::TripleId>,
}

/// The immutable ingredients one answer needs besides the query: the
/// prepared stores, the engine profile, and (optionally) the shared
/// plan cache and a per-request execution-limit override. Borrowed
/// from `&mut RdfDatabase` on the classic path and from a pinned
/// [`crate::serving::Snapshot`] on the serving path — the pipeline
/// itself ([`answer_on`]) never mutates anything but the cache, which
/// sits behind its own lock.
pub(crate) struct AnswerCtx<'a> {
    pub(crate) prepared: &'a Prepared,
    pub(crate) profile: &'a EngineProfile,
    pub(crate) cache: Option<&'a Mutex<crate::plan_cache::PlanCache>>,
    /// Execution-only override (deadline / memory budget). Never part
    /// of plan identity: [`EngineProfile::plan_cache_key`] excludes
    /// those knobs, so cached plans are shared across requests with
    /// different limits.
    pub(crate) exec_profile: Option<&'a EngineProfile>,
    /// The materialized-view catalog, already gated on the profile's
    /// `view_scans` knob by the ctx builder (`None` when the knob is
    /// off or no catalog is enabled).
    pub(crate) views: Option<&'a ViewCatalog>,
    /// The epoch this answer is pinned to: the snapshot's on the
    /// serving path, the catalog's own on the classic `&mut self` path
    /// (where reads and writes are serialized anyway). View resolution
    /// is exact against this value.
    pub(crate) epoch: u64,
}

/// Lock the shared plan cache, recovering from poisoning: the cache's
/// operations keep its invariants at every await-free step, so a reader
/// that panicked mid-request must not wedge every other request.
pub(crate) fn lock_cache(
    cache: &Mutex<crate::plan_cache::PlanCache>,
) -> std::sync::MutexGuard<'_, crate::plan_cache::PlanCache> {
    cache.lock().unwrap_or_else(|e| e.into_inner())
}

/// True iff `t` is an RDFS schema statement. Schema statements change
/// the class/property hierarchies the interval labeling is computed
/// from, so inserting one obsoletes the hierarchy encoding.
fn is_schema_triple(t: &Triple) -> bool {
    matches!(&t.p, Term::Uri(p) if jucq_model::vocab::is_schema_property(p))
}

/// An RDF database answering BGP queries under RDFS constraints.
pub struct RdfDatabase {
    graph: Graph,
    profile: EngineProfile,
    constants: Option<CostConstants>,
    prepared: Option<Arc<Prepared>>,
    plan_cache: Option<Arc<Mutex<crate::plan_cache::PlanCache>>>,
    /// The materialized fragment-view catalog, when enabled
    /// ([`RdfDatabase::enable_views`]). `Arc`-shared with serving
    /// snapshots; all mutation goes through interior locking.
    views: Option<Arc<ViewCatalog>>,
    encoding: EncodingMode,
    /// Whether the hierarchy-aware re-encoding is current. Reset when
    /// the schema grows (a new `subClassOf` edge changes the interval
    /// labeling), so the next preparation re-runs the encoding; callers
    /// must re-parse queries afterwards (constants interned before a
    /// re-encoding hold pre-remap ids).
    encoded: bool,
}

impl Default for RdfDatabase {
    fn default() -> Self {
        Self::new()
    }
}

impl RdfDatabase {
    /// An empty database with the default (PostgreSQL-like) profile.
    pub fn new() -> Self {
        Self::with_profile(EngineProfile::pg_like())
    }

    /// An empty database with a specific engine profile.
    pub fn with_profile(profile: EngineProfile) -> Self {
        RdfDatabase {
            graph: Graph::new(),
            profile,
            constants: None,
            prepared: None,
            plan_cache: None,
            views: None,
            encoding: EncodingMode::Plain,
            encoded: false,
        }
    }

    /// Wrap an existing graph.
    pub fn from_graph(graph: Graph, profile: EngineProfile) -> Self {
        RdfDatabase {
            graph,
            profile,
            constants: None,
            prepared: None,
            plan_cache: None,
            views: None,
            encoding: EncodingMode::Plain,
            encoded: false,
        }
    }

    /// Select the dictionary [`EncodingMode`]. Call before the first
    /// query-facing operation; switching modes invalidates prepared
    /// stores (and, when switching *to* hierarchical after an earlier
    /// re-encoding, re-runs the labeling over the current schema).
    pub fn set_encoding(&mut self, mode: EncodingMode) {
        if self.encoding != mode {
            self.encoding = mode;
            self.encoded = false;
            self.invalidate();
        }
    }

    /// Builder-style [`RdfDatabase::set_encoding`].
    pub fn with_encoding(mut self, mode: EncodingMode) -> Self {
        self.set_encoding(mode);
        self
    }

    /// The dictionary encoding mode in use.
    pub fn encoding_mode(&self) -> EncodingMode {
        self.encoding
    }

    /// The hierarchy encoding's interval table, once the re-encoding has
    /// run (`None` under [`EncodingMode::Plain`] or before first use).
    pub fn hierarchy_encoding(&self) -> Option<&jucq_model::HierarchyEncoding> {
        self.graph.encoding()
    }

    /// Run the hierarchy-aware re-encoding exactly once, before any
    /// dictionary id escapes to a caller (query constants and store
    /// triples must agree on the id space).
    fn ensure_encoded(&mut self) {
        if self.encoded || self.encoding == EncodingMode::Plain {
            return;
        }
        jucq_obs::span!("hierarchy_encoding");
        self.graph.apply_hierarchy_encoding();
        self.encoded = true;
        self.invalidate();
    }

    /// Insert one triple (invalidates prepared stores; a schema triple
    /// also obsoletes the hierarchy encoding).
    pub fn insert(&mut self, triple: &Triple) -> bool {
        self.invalidate();
        if is_schema_triple(triple) {
            self.encoded = false;
        }
        self.graph.insert(triple)
    }

    /// Bulk-insert triples (invalidates prepared stores; schema triples
    /// also obsolete the hierarchy encoding).
    pub fn extend<'a>(&mut self, triples: impl IntoIterator<Item = &'a Triple>) {
        self.invalidate();
        let triples: Vec<&Triple> = triples.into_iter().collect();
        if triples.iter().any(|t| is_schema_triple(t)) {
            self.encoded = false;
        }
        self.graph.extend(triples);
    }

    /// Load a Turtle-subset document (see [`crate::turtle`]).
    pub fn load_turtle(&mut self, text: &str) -> Result<usize, crate::turtle::TurtleError> {
        self.invalidate();
        let schema_before = self.graph.schema().len();
        let loaded = crate::turtle::load(&mut self.graph, text);
        if self.graph.schema().len() != schema_before {
            self.encoded = false;
        }
        loaded
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The engine profile in use.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Switch the engine profile (keeps data; rebuilds stores lazily
    /// with the same triples but new execution behaviour).
    ///
    /// The cost constants calibrated under the old profile are stale —
    /// they encode the old join algorithm and materialization policy —
    /// so unless they were pinned with
    /// [`RdfDatabase::set_cost_constants`] they are recalibrated
    /// against the new profile. Cached covers and physical plans are
    /// keyed by the profile's plan-affecting fingerprint (name plus
    /// join, materialization, sharing, batch and SIP knobs), so
    /// entries chosen for the old settings simply stop matching (and
    /// keep serving if the profile is switched back).
    pub fn set_profile(&mut self, profile: EngineProfile) {
        self.profile = profile.clone();
        if let Some(p) = &mut self.prepared {
            let p = Arc::make_mut(p);
            p.plain.set_profile(profile.clone());
            p.saturated.set_profile(profile);
            p.constants = self.constants.unwrap_or_else(|| calibrate(&p.plain));
        }
    }

    /// Enable cover-plan caching for the ECov/GCov strategies: repeated
    /// queries reuse the previously chosen cover instead of re-running
    /// the search. Sound across data updates (any valid cover answers
    /// correctly, Theorem 3.1); cleared when the database is re-prepared.
    ///
    /// Calling this again on a live cache **resizes** it in place —
    /// entries and hit/miss counters survive (shrinking evicts
    /// oldest-first); it never wipes a warm cache.
    pub fn enable_plan_cache(&mut self, capacity: usize) {
        match &self.plan_cache {
            Some(cache) => lock_cache(cache).resize(capacity),
            None => {
                self.plan_cache =
                    Some(Arc::new(Mutex::new(crate::plan_cache::PlanCache::new(capacity))));
            }
        }
    }

    /// The plan cache's hit/miss counters, if caching is enabled.
    pub fn plan_cache_stats(&self) -> Option<crate::plan_cache::PlanCacheStats> {
        self.plan_cache.as_ref().map(|c| lock_cache(c).stats())
    }

    /// The shared plan-cache handle, for snapshots (the cache outlives
    /// any single epoch: covers stay sound across data updates).
    pub(crate) fn plan_cache_shared(&self) -> Option<Arc<Mutex<crate::plan_cache::PlanCache>>> {
        self.plan_cache.clone()
    }

    /// Swap in a fresh plan cache of the same capacity, leaving the old
    /// handle to whoever still holds it. The serving layer calls this
    /// on a non-incremental rebuild: readers pinned to an earlier epoch
    /// may attach plans lowered from the *old* stores after the rebuild
    /// cleared the cache, and a rebuild can remap term ids (hierarchy
    /// re-encoding) — so sharing one cache across that boundary could
    /// hand a new-epoch reader a stale physical plan. A fresh handle
    /// makes the race unrepresentable; the old epoch keeps caching
    /// against its own doomed instance until it drops.
    pub(crate) fn replace_plan_cache(&mut self) {
        if let Some(cache) = &self.plan_cache {
            let capacity = lock_cache(cache).capacity();
            self.plan_cache =
                Some(Arc::new(Mutex::new(crate::plan_cache::PlanCache::new(capacity))));
        }
    }

    /// Enable the materialized fragment-view catalog with a tuple
    /// budget: cover fragments pinned through
    /// [`RdfDatabase::pin_cover_fragments`] are stored as materialized
    /// relations, the cover search prices them at `c_view` per tuple,
    /// and the planner lowers matching fragments to `ViewScan` leaves.
    /// Calling again on a live catalog replaces it (entries are
    /// re-pinned by their owners).
    pub fn enable_views(&mut self, budget_tuples: usize) {
        let epoch = self.views.as_ref().map(|c| c.epoch()).unwrap_or(0);
        let catalog = ViewCatalog::new(budget_tuples);
        catalog.set_epoch(epoch);
        self.views = Some(Arc::new(catalog));
    }

    /// The view catalog, if one is enabled.
    pub fn views(&self) -> Option<&ViewCatalog> {
        self.views.as_deref()
    }

    /// The shared catalog handle, for serving snapshots.
    pub(crate) fn views_shared(&self) -> Option<Arc<ViewCatalog>> {
        self.views.clone()
    }

    /// The catalog's aggregate statistics, if views are enabled.
    pub fn view_stats(&self) -> Option<ViewCatalogStats> {
        self.views.as_deref().map(|c| c.stats())
    }

    /// Materialize (pin) cover fragments of `q` under `strategy` into
    /// the view catalog: each selected fragment's reformulated union is
    /// evaluated once on the **plain** store — views disabled during
    /// materialization, so a view never feeds its own definition — and
    /// the result is stored under the fragment's canonical signature,
    /// stamped with the catalog's current epoch.
    ///
    /// `fragments` selects fragment indices of the chosen cover (out of
    /// range indices are ignored); `None` pins every fragment. Returns
    /// the number of fragments newly materialized — already-resident
    /// fragments and fragments the tuple budget rejects are skipped.
    /// Saturation plans have no cover fragments, so they pin nothing.
    ///
    /// Pinning invalidates cached *physical* plans (covers survive):
    /// plans lowered before the pin carry no `ViewScan` leaves and
    /// would keep evaluating the fallback unions forever.
    pub fn pin_cover_fragments(
        &mut self,
        q: &BgpQuery,
        strategy: &Strategy,
        fragments: Option<&[usize]>,
    ) -> Result<usize, AnswerError> {
        let Some(catalog) = self.views.clone() else {
            return Ok(0);
        };
        if q.is_empty() {
            return Ok(0);
        }
        self.prepare();
        let (jucq, _, _, saturated, _) = plan_jucq_on(&self.answer_ctx(), q, strategy)?;
        if saturated {
            return Ok(0);
        }
        let p = Arc::clone(self.prepared.as_ref().expect("prepared"));
        let target = &p.plain;
        let mut pinned = 0usize;
        for (i, frag) in jucq.fragments.iter().enumerate() {
            if let Some(sel) = fragments {
                if !sel.contains(&i) {
                    continue;
                }
            }
            let sig = ViewSignature::of(frag);
            if catalog.contains_current(&sig).is_some() {
                continue;
            }
            let single = StoreJucq::new(vec![frag.clone()], frag.head.clone());
            let plan = target.plan_jucq(&single)?;
            let outcome = target.eval_plan(&plan)?;
            let footprint = ViewFootprint::of(frag, p.rdf_type);
            if catalog.insert(sig, ViewSignature::body_of(frag), outcome.relation, footprint) {
                pinned += 1;
            }
        }
        if pinned > 0 {
            if let Some(cache) = &self.plan_cache {
                lock_cache(cache).clear_plans();
            }
        }
        Ok(pinned)
    }

    /// Pin the cost constants instead of calibrating.
    pub fn set_cost_constants(&mut self, constants: CostConstants) {
        self.constants = Some(constants);
        if let Some(p) = &mut self.prepared {
            Arc::make_mut(p).constants = constants;
        }
    }

    fn invalidate(&mut self) {
        self.prepared = None;
        if let Some(cache) = &self.plan_cache {
            lock_cache(cache).clear();
        }
        // A rebuild may remap term ids (hierarchy re-encoding) or change
        // the schema closure the materialized unions were derived from:
        // nothing in the catalog survives. The epoch is left for the
        // owner (the serving layer) to re-align at publish time.
        if let Some(catalog) = &self.views {
            catalog.clear();
        }
    }

    /// Build the closure, the plain store and the saturated store.
    /// Idempotent; [`RdfDatabase::answer`] calls it automatically.
    pub fn prepare(&mut self) {
        if self.prepared.is_some() {
            return;
        }
        self.ensure_encoded();
        jucq_obs::span!("prepare");
        let closure = self.graph.schema_closure();
        let rdf_type = self.graph.rdf_type();
        let schema_ts = schema_triples(&mut self.graph, &closure);

        let mut plain_triples = self.graph.data().to_vec();
        plain_triples.extend_from_slice(&schema_ts);
        plain_triples.sort_unstable();
        plain_triples.dedup();
        let plain = Store::from_triples(&plain_triples, self.profile.clone());

        let mut sat_triples = saturate(&mut self.graph);
        sat_triples.extend_from_slice(&schema_ts);
        sat_triples.sort_unstable();
        sat_triples.dedup();
        let saturated = Store::from_triples(&sat_triples, self.profile.clone());

        let incremental = IncrementalSaturation::new(self.graph.data(), closure.clone(), rdf_type);
        let constants = self.constants.unwrap_or_else(|| calibrate(&plain));
        self.prepared = Some(Arc::new(Prepared {
            closure,
            rdf_type,
            plain,
            saturated,
            constants,
            incremental,
            schema_triples: schema_ts,
        }));
    }

    /// The prepared state as a shared handle (preparing on demand) —
    /// the serving layer's snapshot ingredient. Published snapshots
    /// keep this `Arc` alive; subsequent incremental updates mutate a
    /// private copy ([`Arc::make_mut`]), never the pinned one.
    pub(crate) fn prepared_shared(&mut self) -> Arc<Prepared> {
        self.prepare();
        Arc::clone(self.prepared.as_ref().expect("prepared"))
    }

    /// True when `triple` can be absorbed without rebuilding: data-only
    /// and not introducing a class or property unknown to the closure
    /// (new vocabulary would change the instantiation rules' universe).
    fn update_is_incremental(&self, p: &Prepared, t: &jucq_model::TripleId) -> bool {
        if t.p == p.rdf_type {
            !t.o.is_uri() || p.closure.classes().contains(&t.o)
        } else {
            p.closure.properties().contains(&t.p)
        }
    }

    /// Apply a batch of data insertions and deletions.
    ///
    /// When the database is prepared and the update stays within the
    /// known vocabulary, both stores are maintained **incrementally**:
    /// the plain store by an index merge, the saturated store through
    /// the counting-based [`IncrementalSaturation`] — the maintenance
    /// cost the paper's §5.3 discussion weighs against reformulation.
    /// Schema statements or new vocabulary fall back to invalidating
    /// the preparation (rebuilt lazily on the next answer).
    pub fn apply_data_updates(&mut self, inserts: &[Triple], deletes: &[Triple]) -> UpdateReport {
        use jucq_model::{FxHashSet, TripleId};
        // Schema statements cannot be absorbed incrementally.
        let is_schema =
            |t: &Triple| matches!(&t.p, Term::Uri(p) if jucq_model::vocab::is_schema_property(p));
        if inserts.iter().chain(deletes).any(is_schema) {
            for t in deletes {
                // Schema deletion is not supported at the Graph level;
                // data deletes are handled below after invalidation.
                let _ = t;
            }
            self.extend(inserts);
            let del: Vec<TripleId> =
                deletes.iter().filter(|t| !is_schema(t)).map(|t| self.encode_triple(t)).collect();
            let del_set: FxHashSet<TripleId> = del.into_iter().collect();
            self.graph.remove_data_batch(&del_set);
            self.invalidate();
            return UpdateReport { incremental: false, ..Default::default() };
        }

        let ins_ids: Vec<TripleId> = inserts.iter().map(|t| self.encode_triple(t)).collect();
        let del_ids: Vec<TripleId> = deletes.iter().map(|t| self.encode_triple(t)).collect();

        let absorbable = match &self.prepared {
            Some(p) => ins_ids.iter().all(|t| self.update_is_incremental(p.as_ref(), t)),
            None => false,
        };
        if !absorbable {
            let mut report = UpdateReport::default();
            for &t in &ins_ids {
                if self.graph.insert_data_encoded(t) {
                    report.inserted += 1;
                }
            }
            let del_set: FxHashSet<TripleId> = del_ids.iter().copied().collect();
            report.deleted = self.graph.remove_data_batch(&del_set);
            self.invalidate();
            return report;
        }

        let mut report = UpdateReport { incremental: true, ..Default::default() };
        let mut plain_ins: Vec<TripleId> = Vec::new();
        let mut plain_del: FxHashSet<TripleId> = FxHashSet::default();
        let mut sat_ins: Vec<TripleId> = Vec::new();
        let mut sat_del: FxHashSet<TripleId> = FxHashSet::default();
        {
            // Copy-on-write: a snapshot pinning the old epoch keeps its
            // `Arc`; the writer mutates a private copy and publishes it.
            let p = Arc::make_mut(self.prepared.as_mut().expect("absorbable implies prepared"));
            for &t in &ins_ids {
                if self.graph.insert_data_encoded(t) {
                    report.inserted += 1;
                    plain_ins.push(t);
                    let delta = p.incremental.insert(t);
                    report.entailed_added += delta.added.len().saturating_sub(1);
                    sat_ins.extend(delta.added);
                }
            }
            let present: Vec<TripleId> =
                del_ids.iter().filter(|t| self.graph.contains_data(t)).copied().collect();
            let present_set: FxHashSet<TripleId> = present.iter().copied().collect();
            report.deleted = self.graph.remove_data_batch(&present_set);
            for t in &present {
                plain_del.insert(*t);
                let delta = p.incremental.delete(t);
                report.entailed_removed += delta.removed.len().saturating_sub(1);
                sat_del.extend(delta.removed);
            }
            // Schema triples are immutable here; shield them from
            // accidental deletion by the saturation delta.
            for st in &p.schema_triples {
                sat_del.remove(st);
            }
            p.plain = p.plain.apply_delta(&plain_ins, &plain_del);
            p.saturated = p.saturated.apply_delta(&sat_ins, &sat_del);

            // Advance the view catalog one epoch, dropping exactly the
            // entries whose predicate/class footprint intersects the
            // *plain-store* delta (views are materialized from the plain
            // store, so saturation-only churn cannot affect them).
            // Surviving entries are restamped to the new epoch and keep
            // serving.
            if let Some(catalog) = &self.views {
                let mut touched: Vec<TripleId> = plain_ins.clone();
                touched.extend(plain_del.iter().copied());
                let delta = DeltaFootprint::from_triples(&touched, p.rdf_type);
                let dropped = catalog.advance_epoch(catalog.epoch() + 1, &delta);
                if !dropped.is_empty() {
                    jucq_obs::metrics::counter_add("views.invalidated", dropped.len() as u64);
                }
            }
        }
        // Covers stay sound across data updates (Theorem 3.1), but the
        // physical plans lowered from them baked in join orders and
        // shared-scan choices from the old statistics snapshot.
        if let Some(cache) = &self.plan_cache {
            lock_cache(cache).clear_plans();
        }
        report
    }

    /// The ECov/GCov planning path, shared by the cached and uncached
    /// branches of [`RdfDatabase::answer`].
    #[allow(clippy::type_complexity)]
    fn run_cover_search(
        q: &BgpQuery,
        env: &ReformulationEnv<'_>,
        p: &Prepared,
        cost: &CostSource,
        strategy: &Strategy,
        limit: usize,
        views: Option<&ViewCatalog>,
    ) -> Result<(StoreJucq, Option<Cover>, Option<usize>), AnswerError> {
        let paper_model = PaperCostModel::new(p.plain.table(), p.plain.stats(), p.constants)
            .with_range_pricing(p.plain.profile().range_scans)
            .with_view_pricing(views);
        let engine_model = EngineCostModel::new(&p.plain);
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
        let jucq = jucq_for_cover_bounded(q, &result.cover, env, limit)
            .map_err(|n| AnswerError::from(EngineError::UnionTooLarge { terms: n, limit }))?;
        Ok((jucq, Some(result.cover), Some(result.explored)))
    }

    fn encode_triple(&mut self, t: &Triple) -> jucq_model::TripleId {
        self.ensure_encoded();
        let d = self.graph.dict_mut();
        let s = d.encode(&t.s);
        let p = d.encode(&t.p);
        let o = d.encode(&t.o);
        jucq_model::TripleId::new(s, p, o)
    }

    /// The plain (non-saturated) store, for direct engine access.
    pub fn plain_store(&mut self) -> &Store {
        self.prepare();
        &self.prepared.as_ref().expect("prepared").plain
    }

    /// The saturated store.
    pub fn saturated_store(&mut self) -> &Store {
        self.prepare();
        &self.prepared.as_ref().expect("prepared").saturated
    }

    /// The schema closure.
    pub fn closure(&mut self) -> &SchemaClosure {
        self.prepare();
        &self.prepared.as_ref().expect("prepared").closure
    }

    /// The dictionary id of `rdf:type`.
    pub fn rdf_type(&mut self) -> TermId {
        self.prepare();
        self.prepared.as_ref().expect("prepared").rdf_type
    }

    /// The calibrated (or pinned) cost constants.
    pub fn cost_constants(&mut self) -> CostConstants {
        self.prepare();
        self.prepared.as_ref().expect("prepared").constants
    }

    /// Parse a SPARQL-BGP query against this database's dictionary
    /// (interning constants as needed).
    pub fn parse_query(&mut self, text: &str) -> Result<BgpQuery, crate::parser::ParseError> {
        self.ensure_encoded();
        crate::parser::parse_query(self.graph.dict_mut(), text)
    }

    /// Intern a URI, for building queries programmatically. Interning
    /// does not invalidate prepared stores (ids are append-only).
    pub fn intern_uri(&mut self, uri: &str) -> TermId {
        self.ensure_encoded();
        self.graph.dict_mut().encode_uri(uri)
    }

    /// Intern any term (URI, blank, or literal), for building queries
    /// programmatically. Like [`RdfDatabase::intern_uri`], does not
    /// invalidate prepared stores.
    pub fn intern_term(&mut self, term: &Term) -> TermId {
        self.ensure_encoded();
        self.graph.dict_mut().encode(term)
    }

    /// Decode an answer relation's rows to owned terms
    /// ([`crate::rows::decode_rows`]; [`crate::rows::term_rows`] over
    /// `self.graph().dict()` borrows them instead).
    pub fn decode_rows(&self, rows: &Relation) -> Vec<Vec<Term>> {
        crate::rows::decode_rows(self.graph.dict(), rows)
    }

    /// Plan `q` under `strategy`: choose (or look up) a cover, build the
    /// reformulated JUCQ, and report which store evaluates it (`true` =
    /// the saturated store) plus the plan-cache key used (when caching
    /// applies), so [`RdfDatabase::answer`] can reuse the entry's
    /// physical plan. Shared by [`RdfDatabase::answer`] and
    /// [`RdfDatabase::explain_analyze`].
    #[allow(clippy::type_complexity)]
    fn plan_jucq(
        &mut self,
        q: &BgpQuery,
        strategy: &Strategy,
    ) -> Result<
        (StoreJucq, Option<Cover>, Option<usize>, bool, Option<crate::plan_cache::PlanKey>),
        AnswerError,
    > {
        self.prepare();
        plan_jucq_on(&self.answer_ctx(), q, strategy)
    }

    /// The borrowed pipeline inputs. Callers must [`RdfDatabase::prepare`]
    /// first.
    fn answer_ctx(&self) -> AnswerCtx<'_> {
        let views = if self.profile.view_scans { self.views.as_deref() } else { None };
        AnswerCtx {
            prepared: self.prepared.as_deref().expect("prepared"),
            profile: &self.profile,
            cache: self.plan_cache.as_deref(),
            exec_profile: None,
            views,
            epoch: views.map(|c| c.epoch()).unwrap_or(0),
        }
    }
}

/// Plan `q` under `strategy` over borrowed pipeline inputs: choose (or
/// look up) a cover, build the reformulated JUCQ, and report which
/// store evaluates it (`true` = the saturated store) plus the
/// plan-cache key used (when caching applies). The `&self`-compatible
/// planning stage shared by [`RdfDatabase`] and the serving snapshot
/// path ([`crate::serving::Snapshot`]).
#[allow(clippy::type_complexity)]
pub(crate) fn plan_jucq_on(
    ctx: &AnswerCtx<'_>,
    q: &BgpQuery,
    strategy: &Strategy,
) -> Result<
    (StoreJucq, Option<Cover>, Option<usize>, bool, Option<crate::plan_cache::PlanKey>),
    AnswerError,
> {
    let p = ctx.prepared;
    let env = ReformulationEnv { closure: &p.closure, rdf_type: p.rdf_type };

    // Reformulation is bounded by the engine's union limit: a union
    // the engine would reject is not materialized at all (the paper's
    // engines likewise fail during parsing/planning, not execution).
    let limit = ctx.profile.max_union_terms;
    let bounded = |cover: &Cover| -> Result<StoreJucq, AnswerError> {
        jucq_for_cover_bounded(q, cover, &env, limit)
            .map_err(|n| EngineError::UnionTooLarge { terms: n, limit }.into())
    };

    let mut used_key: Option<crate::plan_cache::PlanKey> = None;
    let (jucq, cover, explored, saturated): (StoreJucq, Option<Cover>, Option<usize>, bool) =
        match strategy {
            Strategy::Saturation => {
                let cq = q.to_store_cq();
                let head = q.head.clone();
                let ucq = jucq_store::StoreUcq::new(vec![cq], head.clone());
                (StoreJucq::new(vec![ucq], head), None, None, true)
            }
            // Range reformulates exactly like UCQ; the union-to-
            // interval collapse happens inside the physical planner
            // (and only when the profile's `range_scans` knob is on,
            // so with it off Range degenerates to plain UCQ).
            Strategy::Ucq | Strategy::Range => {
                let cover = Cover::single_fragment(q)?;
                (bounded(&cover)?, Some(cover), None, false)
            }
            Strategy::Scq => {
                let cover = Cover::singletons(q)?;
                (bounded(&cover)?, Some(cover), None, false)
            }
            Strategy::MinimizedUcq { cap } => {
                let cover = Cover::single_fragment(q)?;
                let mut jucq = bounded(&cover)?;
                if jucq.union_terms() <= *cap {
                    let minimized: Vec<_> = jucq
                        .fragments
                        .into_iter()
                        .map(|f| jucq_reformulation::minimize_ucq(&f))
                        .collect();
                    jucq = StoreJucq::new(minimized, jucq.head);
                }
                (jucq, Some(cover), None, false)
            }
            Strategy::FixedCover(cover) => (bounded(cover)?, Some(cover.clone()), None, false),
            Strategy::ECov { cost, .. } | Strategy::GCov { cost, .. } => {
                // Plan-cache keys are canonical query forms, so
                // isomorphic queries (same shape, different variable
                // names or atom order) share one cached cover; the
                // cover's atom indices are canonical and translated
                // through this query's permutation. The profile's
                // plan-affecting fingerprint (name plus the join,
                // materialization, sharing and planner-pass knobs)
                // keys cost-model- and executor-dependent choices
                // apart, so toggling `JUCQ_ORDER` or `sip_filters`
                // can never serve a plan lowered for the old knobs.
                let canonical = ctx.cache.is_some().then(|| q.canonicalize());
                let cache_key = canonical.as_ref().map(|(cq, _)| {
                    crate::plan_cache::PlanKey::new(
                        cq.clone(),
                        strategy.name(),
                        &ctx.profile.plan_cache_key(),
                    )
                });
                used_key = cache_key.clone();
                if let (Some(cache), Some(key)) = (ctx.cache, &cache_key) {
                    // Hold the lock only for the lookup — a miss
                    // runs the cover search unlocked, so concurrent
                    // requests never serialize behind planning.
                    let cached = lock_cache(cache).get(key);
                    if let Some((canonical_cover, explored)) = cached {
                        let perm = &canonical.as_ref().expect("key implies canonical").1;
                        let fragments: Vec<Vec<usize>> = canonical_cover
                            .fragments()
                            .into_iter()
                            .map(|f| f.into_iter().map(|i| perm[i]).collect())
                            .collect();
                        let cover = Cover::new(q, fragments)
                            .expect("canonical covers translate to valid covers");
                        let jucq = jucq_for_cover_bounded(q, &cover, &env, limit).map_err(|n| {
                            AnswerError::from(EngineError::UnionTooLarge { terms: n, limit })
                        })?;
                        (jucq, Some(cover), explored, false)
                    } else {
                        let (jucq, cover, explored) = RdfDatabase::run_cover_search(
                            q, &env, p, cost, strategy, limit, ctx.views,
                        )?;
                        if let Some(c) = &cover {
                            // Store the cover in canonical indices.
                            let perm = &canonical.as_ref().expect("key implies canonical").1;
                            let inverse: jucq_model::FxHashMap<usize, usize> =
                                perm.iter().enumerate().map(|(ci, &oi)| (oi, ci)).collect();
                            let fragments: Vec<Vec<usize>> = c
                                .fragments()
                                .into_iter()
                                .map(|f| f.into_iter().map(|i| inverse[&i]).collect())
                                .collect();
                            let (cq, _) = canonical.as_ref().expect("canonical");
                            if let Ok(canonical_cover) = Cover::new(cq, fragments) {
                                lock_cache(cache).put(key.clone(), canonical_cover, explored);
                            }
                        }
                        (jucq, cover, explored, false)
                    }
                } else {
                    let (jucq, cover, explored) = RdfDatabase::run_cover_search(
                        q, &env, p, cost, strategy, limit, ctx.views,
                    )?;
                    (jucq, cover, explored, false)
                }
            }
        };
    Ok((jucq, cover, explored, saturated, used_key))
}

/// A zero-atom query's uniform answer: clean and empty for *every*
/// strategy. An empty body has no cover (UCQ's single fragment would be
/// empty, SCQ's cover has no fragments), and letting each strategy
/// improvise its own degenerate behaviour made them disagree. No atoms,
/// no answers — uniformly.
pub(crate) fn empty_answer(
    q: &BgpQuery,
    strategy: &Strategy,
) -> (AnswerReport, Option<jucq_store::ExecProfile>) {
    jucq_obs::metrics::counter_add("queries.answered", 1);
    (
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
        },
        None,
    )
}

/// The shared answering pipeline over borrowed inputs — the `&self`
/// core of [`RdfDatabase::answer`], also driven by the serving
/// snapshot path. Callers emit the `answer` span and short-circuit
/// zero-atom queries through [`empty_answer`] first.
pub(crate) fn answer_on(
    ctx: &AnswerCtx<'_>,
    q: &BgpQuery,
    strategy: &Strategy,
    profiled: bool,
) -> Result<(AnswerReport, Option<jucq_store::ExecProfile>), AnswerError> {
    let planning_start = Instant::now();
    let (jucq, cover, explored, saturated, cache_key) = {
        jucq_obs::span!("planning");
        plan_jucq_on(ctx, q, strategy)?
    };
    let planning_time = planning_start.elapsed();
    let p = ctx.prepared;
    let target = if saturated { &p.saturated } else { &p.plain };

    let union_terms = jucq.union_terms();
    // Reuse the cache entry's lowered physical plan when it was
    // built for exactly this query under this profile; otherwise
    // lower one and attach it for the next repetition.
    let mut exec_profile = None;
    // Views only serve the plain store (they were materialized from
    // it); a saturation plan never carries `ViewScan` leaves.
    let catalog = if saturated { None } else { ctx.views };
    let plan = match (ctx.cache, &cache_key) {
        (Some(cache), Some(key)) => {
            let cached = lock_cache(cache).get_plan(key, q);
            match cached {
                Some(plan) => plan,
                None => {
                    let plan = Arc::new(target.plan_jucq_views(&jucq, catalog)?);
                    lock_cache(cache).attach_plan(key, q.clone(), Arc::clone(&plan));
                    plan
                }
            }
        }
        _ => Arc::new(target.plan_jucq_views(&jucq, catalog)?),
    };
    let (range_eligible, range_scans_planned) = (plan.range_eligible, plan.range_scans);
    // Per-request limits (deadline, memory budget) override only the
    // execution context, never the plan: `plan_cache_key` excludes
    // them by design, so a request with a tight deadline still reuses
    // the shared plan. View resolution is pinned to the *request's*
    // epoch: a cached plan's `ViewScan` leaf serves rows only when the
    // catalog entry was computed at exactly `ctx.epoch`, and falls back
    // to its embedded union otherwise — so a racing plan-cache entry
    // can never surface another epoch's rows.
    let source = catalog.map(|c| ViewSource { catalog: c, epoch: ctx.epoch });
    let mut outcome = if profiled {
        let (outcome, profile) =
            target.eval_plan_views_profiled(&plan, ctx.exec_profile, source.as_ref())?;
        exec_profile = Some(profile);
        outcome
    } else {
        target.eval_plan_views(&plan, ctx.exec_profile, source.as_ref())?
    };
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
    jucq_obs::metrics::counter_add("exec.sorts_elided", c.sorts_elided);
    jucq_obs::metrics::counter_add("exec.gallop_seeks", c.gallop_seeks);
    jucq_obs::metrics::counter_add("exec.scan_rows_borrowed", c.scan_rows_borrowed);
    jucq_obs::metrics::histogram_record("pipeline.planning.ns", planning_time.as_nanos() as u64);
    jucq_obs::metrics::histogram_record("pipeline.execution.ns", outcome.elapsed.as_nanos() as u64);
    if let Some(cache) = ctx.cache {
        let stats = lock_cache(cache).stats();
        let lookups = stats.hits + stats.misses;
        if lookups > 0 {
            jucq_obs::metrics::gauge_set(
                "plan_cache.hit_ratio",
                stats.hits as f64 / lookups as f64,
            );
        }
    }

    Ok((
        AnswerReport {
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
            view_catalog_size: ctx.views.map(|c| c.stats().entries).unwrap_or(0),
        },
        exec_profile,
    ))
}

impl RdfDatabase {
    /// Answer `q` with `strategy`, reporting timings and plan shape.
    ///
    /// When a query-log sink is installed (`--query-log` /
    /// `JUCQ_QUERY_LOG`; see [`jucq_obs::record`]), the run is profiled
    /// per node and a structured [`jucq_obs::QueryRecord`] is submitted
    /// to the sink.
    pub fn answer(
        &mut self,
        q: &BgpQuery,
        strategy: &Strategy,
    ) -> Result<AnswerReport, AnswerError> {
        if !jucq_obs::record::installed() {
            return self.answer_impl(q, strategy, false).map(|(report, _)| report);
        }
        let (result, record) = self.answer_recorded(q, strategy);
        if let Some(rec) = record {
            jucq_obs::record::submit(rec);
        }
        result
    }

    /// Answer `q` and also build — but do not submit — its query-log
    /// record. [`RdfDatabase::answer`] submits the record when a sink
    /// is installed; the replay harness ([`crate::telemetry::replay`])
    /// compares records instead of logging them. The record is `None`
    /// only for the empty-body short-circuit, which has nothing to
    /// profile.
    pub fn answer_recorded(
        &mut self,
        q: &BgpQuery,
        strategy: &Strategy,
    ) -> (Result<AnswerReport, AnswerError>, Option<jucq_obs::QueryRecord>) {
        if q.is_empty() {
            return (self.answer_impl(q, strategy, false).map(|(report, _)| report), None);
        }
        let before = self.plan_cache_stats();
        let result = self.answer_impl(q, strategy, true);
        let after = self.plan_cache_stats();
        let record = crate::telemetry::build_record(
            self.graph.dict(),
            &self.profile,
            q,
            strategy,
            &result,
            before.as_ref(),
            after.as_ref(),
        );
        (result.map(|(report, _)| report), Some(record))
    }

    /// The shared answering pipeline. With `profiled`, evaluation runs
    /// with per-node runtime profiling and the [`ExecProfile`] is
    /// returned alongside the report (the data behind query-log
    /// records); without, evaluation takes the unprofiled fast path.
    fn answer_impl(
        &mut self,
        q: &BgpQuery,
        strategy: &Strategy,
        profiled: bool,
    ) -> Result<(AnswerReport, Option<jucq_store::ExecProfile>), AnswerError> {
        jucq_obs::span!("answer");
        if q.is_empty() {
            return Ok(empty_answer(q, strategy));
        }
        self.prepare();
        answer_on(&self.answer_ctx(), q, strategy, profiled)
    }

    /// `EXPLAIN`: plan `q` exactly as [`RdfDatabase::answer`] would
    /// (cover choice, reformulation, physical lowering) and render the
    /// admission decision plus the physical operator tree — without
    /// executing anything.
    pub fn explain(&mut self, q: &BgpQuery, strategy: &Strategy) -> Result<String, AnswerError> {
        if q.is_empty() {
            return Ok(format!(
                "Strategy: {} (empty query: no atoms, no answers)\n",
                strategy.name()
            ));
        }
        let (jucq, cover, _, saturated, _) = self.plan_jucq(q, strategy)?;
        let p = self.prepared.as_ref().expect("plan_jucq prepares");
        let target = if saturated { &p.saturated } else { &p.plain };
        let mut out = format!(
            "Strategy: {} (target: {} store)\n",
            strategy.name(),
            if saturated { "saturated" } else { "plain" }
        );
        if let Some(c) = &cover {
            out.push_str(&format!("Cover: {:?}\n", c.fragments()));
        }
        // Decode RangeScan interval endpoints through the dictionary so
        // the plan reads `o∈[#u12, #u12+5) (Publication)` instead of a
        // bare id interval.
        let dict = self.graph.dict();
        let names = |raw: u32| -> Option<String> {
            let id = jucq_model::TermId::from_raw(raw);
            dict.contains_id(id).then(|| dict.lexical(id).to_owned())
        };
        out.push_str(&jucq_store::explain::explain_with_names(target, &jucq, Some(&names)));
        Ok(out)
    }

    /// `EXPLAIN ANALYZE`: plan `q` exactly as [`RdfDatabase::answer`]
    /// would (including the plan cache), then evaluate it with per-node
    /// profiling and render each plan node's estimated vs. actual rows
    /// and Q-error.
    pub fn explain_analyze(
        &mut self,
        q: &BgpQuery,
        strategy: &Strategy,
    ) -> Result<String, AnswerError> {
        if q.is_empty() {
            return Ok(format!(
                "Strategy: {} (empty query: no atoms, no answers)\n",
                strategy.name()
            ));
        }
        let (jucq, cover, _, saturated, _) = self.plan_jucq(q, strategy)?;
        let p = self.prepared.as_ref().expect("plan_jucq prepares");
        let target = if saturated { &p.saturated } else { &p.plain };
        let mut out = format!(
            "Strategy: {} (target: {} store)\n",
            strategy.name(),
            if saturated { "saturated" } else { "plain" }
        );
        if let Some(c) = &cover {
            out.push_str(&format!("Cover: {:?}\n", c.fragments()));
        }
        out.push_str(&jucq_store::explain::explain_analyze(target, &jucq)?);
        Ok(out)
    }

    /// Convenience: parse then answer.
    pub fn answer_sparql(
        &mut self,
        text: &str,
        strategy: &Strategy,
    ) -> Result<AnswerReport, Box<dyn std::error::Error>> {
        let q = self.parse_query(text)?;
        Ok(self.answer(&q, strategy)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::vocab;
    use jucq_store::{PatternTerm, StorePattern};

    fn paper_db() -> RdfDatabase {
        let mut db = RdfDatabase::new();
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        db.extend(&[
            t("doi1", vocab::RDF_TYPE, Term::uri("Book")),
            t("doi1", "writtenBy", Term::blank("b1")),
            t("doi1", "hasTitle", Term::literal("Game of Thrones")),
            Triple::new(
                Term::blank("b1"),
                Term::uri("hasName"),
                Term::literal("George R. R. Martin"),
            ),
            t("doi1", "publishedIn", Term::literal("1996")),
            t("Book", vocab::RDFS_SUBCLASS_OF, Term::uri("Publication")),
            t("writtenBy", vocab::RDFS_SUBPROPERTY_OF, Term::uri("hasAuthor")),
            t("writtenBy", vocab::RDFS_DOMAIN, Term::uri("Book")),
            t("writtenBy", vocab::RDFS_RANGE, Term::uri("Person")),
        ]);
        db.set_cost_constants(CostConstants::default());
        db
    }

    /// The paper's Example 3: q(x3):- x1 hasAuthor x2, x2 hasName x3,
    /// x1 x4 "1996".
    fn example3_query(db: &mut RdfDatabase) -> BgpQuery {
        db.prepare();
        let d = db.graph().dict();
        let has_author = d.lookup(&Term::uri("hasAuthor")).unwrap();
        let has_name = d.lookup(&Term::uri("hasName")).unwrap();
        let lit = d.lookup(&Term::literal("1996")).unwrap();
        BgpQuery::new(
            vec![2],
            vec![
                StorePattern::new(
                    PatternTerm::Var(0),
                    PatternTerm::Const(has_author),
                    PatternTerm::Var(1),
                ),
                StorePattern::new(
                    PatternTerm::Var(1),
                    PatternTerm::Const(has_name),
                    PatternTerm::Var(2),
                ),
                StorePattern::new(
                    PatternTerm::Var(0),
                    PatternTerm::Var(3),
                    PatternTerm::Const(lit),
                ),
            ],
        )
    }

    #[test]
    fn example3_all_strategies_agree() {
        let mut db = paper_db();
        let q = example3_query(&mut db);
        let mut answers = Vec::new();
        for s in [
            Strategy::Saturation,
            Strategy::Ucq,
            Strategy::Scq,
            Strategy::ecov_default(),
            Strategy::gcov_default(),
        ] {
            let mut r = db.answer(&q, &s).unwrap();
            r.rows.sort();
            answers.push((s.name(), db.decode_rows(&r.rows)));
        }
        // The paper's expected answer: "George R. R. Martin".
        for (name, rows) in &answers {
            assert_eq!(rows, &vec![vec![Term::literal("George R. R. Martin")]], "strategy {name}");
        }
    }

    #[test]
    fn direct_evaluation_on_plain_store_is_incomplete() {
        // The paper: "evaluating q directly against G leads to the
        // empty answer".
        let mut db = paper_db();
        let q = example3_query(&mut db);
        let store = db.plain_store();
        let out = store.eval_cq(&q.to_store_cq()).unwrap();
        assert!(out.relation.is_empty());
    }

    #[test]
    fn fixed_cover_strategy_matches_ucq() {
        let mut db = paper_db();
        let q = example3_query(&mut db);
        let cover = Cover::new(&q, vec![vec![0, 1], vec![0, 2]]).unwrap();
        let mut a = db.answer(&q, &Strategy::FixedCover(cover)).unwrap();
        let mut b = db.answer(&q, &Strategy::Ucq).unwrap();
        a.rows.sort();
        b.rows.sort();
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn insert_invalidates_preparation() {
        let mut db = paper_db();
        let q = example3_query(&mut db);
        let before = db.answer(&q, &Strategy::Ucq).unwrap().rows.len();
        // A second book in 1996 whose author has a name.
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        db.extend(&[
            t("doi2", "writtenBy", Term::uri("a2")),
            t("a2", "hasName", Term::literal("Second Author")),
            t("doi2", "publishedIn", Term::literal("1996")),
        ]);
        let after = db.answer(&q, &Strategy::Ucq).unwrap().rows.len();
        assert_eq!(before + 1, after, "reformulation adapts to updates without re-saturation");
    }

    #[test]
    fn report_carries_plan_shape() {
        let mut db = paper_db();
        let q = example3_query(&mut db);
        let r = db.answer(&q, &Strategy::Scq).unwrap();
        assert_eq!(r.strategy, "SCQ");
        assert_eq!(r.cover.as_ref().unwrap().len(), 3);
        assert!(r.union_terms >= 3);
        let g = db.answer(&q, &Strategy::gcov_default()).unwrap();
        assert!(g.covers_explored.unwrap() >= 1);
    }

    #[test]
    fn schema_queries_answer_from_materialized_closure() {
        let mut db = paper_db();
        db.prepare();
        let d = db.graph().dict();
        let subclass = d.lookup(&Term::uri(vocab::RDFS_SUBCLASS_OF)).unwrap();
        let q = BgpQuery::new(
            vec![0, 1],
            vec![StorePattern::new(
                PatternTerm::Var(0),
                PatternTerm::Const(subclass),
                PatternTerm::Var(1),
            )],
        );
        let r = db.answer(&q, &Strategy::Ucq).unwrap();
        assert_eq!(r.rows.len(), 1, "Book ⊑ Publication");
        let s = db.answer(&q, &Strategy::Saturation).unwrap();
        assert_eq!(s.rows.len(), 1);
    }

    #[test]
    fn incremental_updates_keep_all_strategies_consistent() {
        let mut db = paper_db();
        let q = example3_query(&mut db);
        db.prepare();
        // A new 1996 book by a named author — within known vocabulary.
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        let batch = vec![
            t("doi2", "writtenBy", Term::uri("a2")),
            t("a2", "hasName", Term::literal("Second Author")),
            t("doi2", "publishedIn", Term::literal("1996")),
        ];
        let report = db.apply_data_updates(&batch, &[]);
        assert!(report.incremental, "stays within known vocabulary");
        assert_eq!(report.inserted, 3);
        assert!(report.entailed_added >= 2, "hasAuthor + types entailed");
        for s in [Strategy::Saturation, Strategy::Ucq, Strategy::gcov_default()] {
            let r = db.answer(&q, &s).unwrap();
            assert_eq!(r.rows.len(), 2, "{}", s.name());
        }
        // Delete the new book again.
        let report = db.apply_data_updates(&[], &batch);
        assert!(report.incremental);
        assert_eq!(report.deleted, 3);
        for s in [Strategy::Saturation, Strategy::Ucq] {
            let r = db.answer(&q, &s).unwrap();
            assert_eq!(r.rows.len(), 1, "{}", s.name());
        }
    }

    #[test]
    fn incremental_update_matches_full_rebuild() {
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        let batch = vec![
            t("doi3", "writtenBy", Term::uri("a3")),
            t("a3", "hasName", Term::literal("Third Author")),
        ];
        // Path A: incremental maintenance.
        let mut inc = paper_db();
        inc.prepare();
        let r = inc.apply_data_updates(&batch, &[]);
        assert!(r.incremental);
        // Path B: full rebuild from scratch.
        let mut full = paper_db();
        full.extend(&batch);
        full.prepare();
        let q_text = "SELECT ?x WHERE { ?x rdf:type <Person> . }";
        let qi = inc.parse_query(q_text).unwrap();
        let qf = full.parse_query(q_text).unwrap();
        for s in [Strategy::Saturation, Strategy::Ucq] {
            let mut a = inc.answer(&qi, &s).unwrap().rows;
            let mut b = full.answer(&qf, &s).unwrap().rows;
            a.sort();
            b.sort();
            assert_eq!(inc.decode_rows(&a), full.decode_rows(&b), "{}", s.name());
        }
        // Saturated store contents agree exactly (decoded: the two
        // databases intern terms in different orders).
        let decode_all = |db: &mut RdfDatabase| -> Vec<String> {
            let triples: Vec<_> = db.saturated_store().table().all().to_vec();
            let mut out: Vec<String> =
                triples.iter().map(|t| db.graph().decode(t).to_string()).collect();
            out.sort();
            out
        };
        assert_eq!(decode_all(&mut inc), decode_all(&mut full));
    }

    #[test]
    fn new_vocabulary_falls_back_to_rebuild() {
        let mut db = paper_db();
        db.prepare();
        let t = Triple::new(Term::uri("x"), Term::uri("brandNewProperty"), Term::uri("y"));
        let report = db.apply_data_updates(&[t], &[]);
        assert!(!report.incremental, "unknown property forces a rebuild");
        assert_eq!(report.inserted, 1);
        // Still answers fine after the lazy rebuild.
        let q = example3_query(&mut db);
        assert!(db.answer(&q, &Strategy::Ucq).is_ok());
    }

    #[test]
    fn schema_updates_fall_back_to_rebuild() {
        let mut db = paper_db();
        db.prepare();
        let t = Triple::new(
            Term::uri("Publication"),
            Term::uri(vocab::RDFS_SUBCLASS_OF),
            Term::uri("Document"),
        );
        let report = db.apply_data_updates(&[t], &[]);
        assert!(!report.incremental);
        // The new superclass is honoured after re-preparation.
        let mut q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Document> . }").unwrap();
        let r = db.answer(&q, &Strategy::Ucq).unwrap();
        assert_eq!(r.rows.len(), 1, "doi1 is now a Document");
        q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Document> . }").unwrap();
        let s = db.answer(&q, &Strategy::Saturation).unwrap();
        assert_eq!(s.rows.len(), 1);
    }

    #[test]
    fn explain_analyze_reports_per_node_q_errors() {
        let mut db = paper_db();
        let q = example3_query(&mut db);
        let text = db.explain_analyze(&q, &Strategy::gcov_default()).unwrap();
        assert!(text.contains("Strategy: GCov"), "{text}");
        assert!(text.contains("Cover:"), "{text}");
        assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
        assert!(text.contains("Q-error"), "{text}");
        assert!(text.contains("union"), "{text}");
        assert!(text.contains("dedup"), "{text}");
        let sat = db.explain_analyze(&q, &Strategy::Saturation).unwrap();
        assert!(sat.contains("saturated store"), "{sat}");
    }

    #[test]
    fn observability_exports_spans_and_plan_cache_metrics() {
        let _serial = crate::obs_test_lock();
        let mut db = paper_db();
        db.enable_plan_cache(8);
        let q = example3_query(&mut db);
        jucq_obs::reset();
        jucq_obs::set_enabled(true);
        db.answer(&q, &Strategy::gcov_default()).unwrap();
        db.answer(&q, &Strategy::gcov_default()).unwrap();
        jucq_obs::set_enabled(false);
        let session = jucq_obs::take_session();
        jucq_obs::global().reset();

        assert!(session.metrics.counter("plan_cache.hits") >= 1);
        assert!(session.metrics.counter("plan_cache.misses") >= 1);
        assert!(session.metrics.counter("queries.answered") >= 2);
        assert!(session.metrics.counter("exec.tuples_scanned") >= 1);
        assert!(session.metrics.gauges.contains_key("plan_cache.hit_ratio"));
        assert!(session.metrics.histograms.contains_key("pipeline.planning.ns"));
        assert!(session.metrics.histograms.contains_key("pipeline.execution.ns"));

        let names: std::collections::HashSet<&str> = session.spans.iter().map(|s| s.name).collect();
        for expected in
            ["answer", "planning", "execution", "reformulation", "cover_search", "cost_estimation"]
        {
            assert!(names.contains(expected), "missing span `{expected}` in {names:?}");
        }

        let json = jucq_obs::export::to_json(&session);
        assert!(json.contains("\"jucq-obs/1\""));
        assert!(json.contains("plan_cache.hits"));
        assert!(json.contains("cover_search"));
    }

    #[test]
    fn plan_cache_reuses_covers() {
        let mut db = paper_db();
        db.enable_plan_cache(8);
        let q = example3_query(&mut db);
        let first = db.answer(&q, &Strategy::gcov_default()).unwrap();
        let second = db.answer(&q, &Strategy::gcov_default()).unwrap();
        assert_eq!(first.cover, second.cover);
        let stats = db.plan_cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        // Cached answers are still correct.
        let mut a = first.rows;
        let mut b = second.rows;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // ECov caches separately.
        db.answer(&q, &Strategy::ecov_default()).unwrap();
        assert_eq!(db.plan_cache_stats().unwrap().misses, 2);
    }

    #[test]
    fn plan_cache_hits_on_isomorphic_queries() {
        let mut db = paper_db();
        db.enable_plan_cache(8);
        // The same query twice, with renamed variables and reordered
        // atoms — must share one cached cover.
        let a = db
            .parse_query(
                "SELECT ?n WHERE { ?b <hasAuthor> ?p . ?p <hasName> ?n . ?b <publishedIn> \"1996\" }",
            )
            .unwrap();
        let b = db
            .parse_query(
                "SELECT ?out WHERE { ?who <hasName> ?out . ?doc <publishedIn> \"1996\" . ?doc <hasAuthor> ?who }",
            )
            .unwrap();
        let ra = db.answer(&a, &Strategy::gcov_default()).unwrap();
        let rb = db.answer(&b, &Strategy::gcov_default()).unwrap();
        let stats = db.plan_cache_stats().unwrap();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1, "isomorphic query hits the canonical key");
        let mut x = ra.rows;
        let mut y = rb.rows;
        x.sort();
        y.sort();
        assert_eq!(x, y, "translated cover answers identically");
    }

    #[test]
    fn plan_cache_survives_incremental_updates() {
        let mut db = paper_db();
        db.enable_plan_cache(8);
        let q = example3_query(&mut db);
        db.answer(&q, &Strategy::gcov_default()).unwrap();
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        let batch = vec![
            t("doi9", "writtenBy", Term::uri("a9")),
            t("a9", "hasName", Term::literal("Nine")),
            t("doi9", "publishedIn", Term::literal("1996")),
        ];
        let report = db.apply_data_updates(&batch, &[]);
        assert!(report.incremental);
        let r = db.answer(&q, &Strategy::gcov_default()).unwrap();
        assert_eq!(db.plan_cache_stats().unwrap().hits, 1, "cover reused");
        assert_eq!(r.rows.len(), 2, "cached cover sees the new data");
        // A full invalidation clears the cache.
        db.insert(&t("x", "brandNew", Term::uri("y")));
        db.answer(&q, &Strategy::gcov_default()).unwrap();
        assert_eq!(db.plan_cache_stats().unwrap().misses, 2);
    }

    #[test]
    fn minimized_ucq_is_smaller_and_equivalent() {
        let mut db = paper_db();
        // q(x, y):- x rdf:type y: the instantiation members (x τ Book)
        // etc. are subsumed by the original and must be dropped.
        let q = db.parse_query("SELECT ?x ?y WHERE { ?x a ?y }").unwrap();
        let full = db.answer(&q, &Strategy::Ucq).unwrap();
        let min = db.answer(&q, &Strategy::minimized_ucq_default()).unwrap();
        assert!(
            min.union_terms < full.union_terms,
            "minimization shrinks the union ({} vs {})",
            min.union_terms,
            full.union_terms
        );
        let mut a = full.rows;
        let mut b = min.rows;
        a.sort();
        b.sort();
        assert_eq!(a, b, "answers unchanged");
    }

    fn all_strategies() -> Vec<Strategy> {
        vec![
            Strategy::Saturation,
            Strategy::Ucq,
            Strategy::Scq,
            Strategy::Range,
            Strategy::minimized_ucq_default(),
            Strategy::ecov_default(),
            Strategy::gcov_default(),
        ]
    }

    /// A four-level class chain with a property hierarchy, loaded under
    /// both encodings.
    fn hierarchy_db(mode: EncodingMode) -> RdfDatabase {
        let mut db = RdfDatabase::new().with_encoding(mode);
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        let mut triples = vec![
            t("Novel", vocab::RDFS_SUBCLASS_OF, Term::uri("Book")),
            t("Book", vocab::RDFS_SUBCLASS_OF, Term::uri("Publication")),
            t("Article", vocab::RDFS_SUBCLASS_OF, Term::uri("Publication")),
            t("Publication", vocab::RDFS_SUBCLASS_OF, Term::uri("Work")),
            t("writtenBy", vocab::RDFS_SUBPROPERTY_OF, Term::uri("hasAuthor")),
        ];
        for (i, class) in
            ["Novel", "Book", "Article", "Publication", "Work"].into_iter().enumerate()
        {
            triples.push(t(&format!("doc{i}"), vocab::RDF_TYPE, Term::uri(class)));
            triples.push(t(&format!("doc{i}"), "writtenBy", Term::uri(format!("a{i}"))));
        }
        db.extend(&triples);
        db.set_cost_constants(CostConstants::default());
        db
    }

    #[test]
    fn range_strategy_agrees_with_ucq_under_both_encodings() {
        let q_text = "SELECT ?x WHERE { ?x rdf:type <Work> . }";
        let mut expected: Option<Vec<Vec<Term>>> = None;
        for mode in [EncodingMode::Plain, EncodingMode::Hierarchical] {
            let mut db = hierarchy_db(mode);
            let q = db.parse_query(q_text).unwrap();
            for s in [Strategy::Ucq, Strategy::Range, Strategy::Saturation] {
                let mut r = db.answer(&q, &s).unwrap();
                r.rows.sort();
                let decoded = db.decode_rows(&r.rows);
                match &expected {
                    None => expected = Some(decoded),
                    Some(e) => assert_eq!(e, &decoded, "{mode:?}/{}", s.name()),
                }
            }
        }
        assert_eq!(expected.map(|e| e.len()), Some(5), "all five docs are Works");
    }

    #[test]
    fn hierarchical_encoding_collapses_class_subtree_queries() {
        let mut db = hierarchy_db(EncodingMode::Hierarchical);
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let r = db.answer(&q, &Strategy::Range).unwrap();
        assert!(
            r.counters.range_scans >= 1,
            "the five-class subtree collapses into a range scan (counters: {:?})",
            r.counters
        );
        let enc = db.hierarchy_encoding().expect("encoding ran");
        let work = db.graph().dict().lookup(&Term::uri("Work")).unwrap();
        let range = enc.descendant_range(work).expect("tree-shaped subtree is exact");
        assert_eq!(range.width(), 5, "Work covers all five classes");
        // Knob off: Range degenerates to plain UCQ (no range scans).
        db.set_profile(EngineProfile::pg_like().with_range_scans(false));
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let off = db.answer(&q, &Strategy::Range).unwrap();
        assert_eq!(off.counters.range_scans, 0);
        let mut a = r.rows;
        let mut b = off.rows;
        a.sort();
        b.sort();
        assert_eq!(a, b, "knob off changes nothing but the plan");
    }

    #[test]
    fn schema_insert_after_answer_refreshes_hierarchy_encoding() {
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        let mut db = hierarchy_db(EncodingMode::Hierarchical);
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let first = db.answer(&q, &Strategy::Range).unwrap();
        assert!(first.counters.range_scans >= 1);
        assert_eq!(first.rows.len(), 5);

        // Grow the schema *after* the first answer: a new class under
        // Publication, plus an instance of it.
        db.extend(&[
            t("Thesis", vocab::RDFS_SUBCLASS_OF, Term::uri("Publication")),
            t("doc9", vocab::RDF_TYPE, Term::uri("Thesis")),
        ]);

        // Re-parse (the re-encoding remaps ids) and compare Range
        // against UCQ differentially.
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let mut range = db.answer(&q, &Strategy::Range).unwrap();
        let mut ucq = db.answer(&q, &Strategy::Ucq).unwrap();
        range.rows.sort();
        ucq.rows.sort();
        assert_eq!(db.decode_rows(&range.rows), db.decode_rows(&ucq.rows));
        assert_eq!(range.rows.len(), 6, "doc9 (a Thesis) is a Work now");
        assert!(
            range.counters.range_scans >= 1,
            "collapse re-engages over the refreshed intervals (counters: {:?})",
            range.counters
        );
        // And the interval metadata tells the truth again: before the
        // fix the encoding never re-ran, so `descendant_range` kept
        // reporting the pre-update width of 5.
        let enc = db.hierarchy_encoding().expect("encoding re-ran");
        let work = db.graph().dict().lookup(&Term::uri("Work")).unwrap();
        let interval = enc.descendant_range(work).expect("still a tree");
        assert_eq!(interval.width(), 6, "Work now covers six classes");
    }

    #[test]
    fn enable_plan_cache_again_preserves_entries_and_stats() {
        let mut db = paper_db();
        db.enable_plan_cache(8);
        let q = example3_query(&mut db);
        let s = Strategy::gcov_default();
        db.answer(&q, &s).unwrap(); // cover miss
        db.answer(&q, &s).unwrap(); // cover hit
        let before = db.plan_cache_stats().unwrap();
        assert_eq!(before.hits, 1);
        assert_eq!(before.misses, 1);
        // Re-enabling (e.g. on a profile reload) resizes in place:
        // entries and counters survive instead of being clobbered.
        db.enable_plan_cache(16);
        let after = db.plan_cache_stats().unwrap();
        assert_eq!(after, before, "re-enable must not drop stats");
        db.answer(&q, &s).unwrap();
        let stats = db.plan_cache_stats().unwrap();
        assert_eq!(stats.hits, 2, "the warm entry still serves after re-enable");
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn explain_renders_range_scans_with_decoded_names() {
        let mut db = hierarchy_db(EncodingMode::Hierarchical);
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let text = db.explain(&q, &Strategy::Range).unwrap();
        assert!(text.contains("RangeScan"), "{text}");
        assert!(text.contains("(Work)"), "decoded subtree-root name:\n{text}");
        assert!(text.contains("+5)"), "interval width of the five-class subtree:\n{text}");
        // Knob off: the same query explains as a plain UCQ of
        // IndexScans — the fallback plan, not a half-collapsed hybrid.
        db.set_profile(EngineProfile::pg_like().with_range_scans(false));
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let text = db.explain(&q, &Strategy::Range).unwrap();
        assert!(!text.contains("RangeScan"), "{text}");
        assert!(text.contains("IndexScan"), "{text}");
    }

    #[test]
    fn answer_report_carries_range_plan_telemetry() {
        let mut db = hierarchy_db(EncodingMode::Hierarchical);
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let r = db.answer(&q, &Strategy::Range).unwrap();
        assert_eq!(r.range_eligible, 1, "the single fragment has a collapsible run");
        assert!(r.range_scans_planned >= 1, "and the collapse was applied");
        // Knob off: the opportunity is still reported, unapplied.
        db.set_profile(EngineProfile::pg_like().with_range_scans(false));
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let off = db.answer(&q, &Strategy::Range).unwrap();
        assert_eq!(off.range_eligible, 1);
        assert_eq!(off.range_scans_planned, 0);
    }

    #[test]
    fn range_records_log_and_replay() {
        let mut db = hierarchy_db(EncodingMode::Hierarchical);
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let (res, rec) = db.answer_recorded(&q, &Strategy::Range);
        res.unwrap();
        let rec = rec.unwrap();
        assert_eq!(rec.strategy, "Range");
        assert_eq!(rec.range_eligible, 1);
        assert!(rec.range_scans_used >= 1, "counters: {:?}", rec.counters);
        assert_eq!(rec.counters.range_scans, rec.range_scans_used);
        // The record round-trips through the JSONL line format and
        // replays cleanly under its recorded Range strategy.
        let parsed = jucq_obs::QueryRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(parsed, rec);
        let report = crate::telemetry::replay(&mut db, &[parsed]);
        assert_eq!(report.mismatches(), 0, "{:?}", report.entries);
    }

    #[test]
    fn empty_database_answers_cleanly() {
        let mut db = RdfDatabase::new();
        db.set_cost_constants(CostConstants::default());
        let p = db.intern_uri("nosuch");
        let q = BgpQuery::new(
            vec![0],
            vec![StorePattern::new(
                PatternTerm::Var(0),
                PatternTerm::Const(p),
                PatternTerm::Var(1),
            )],
        );
        for s in all_strategies() {
            let r = db.answer(&q, &s).unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            assert!(r.rows.is_empty(), "{}", s.name());
        }
    }

    #[test]
    fn absent_vocabulary_answers_empty() {
        // Predicate/class never seen in the data or schema: every
        // strategy must return a clean empty result, not an error.
        let mut db = paper_db();
        let ty = db.rdf_type();
        let ghost_class = db.intern_uri("GhostClass");
        let ghost_prop = db.intern_uri("ghostProp");
        let q = BgpQuery::new(
            vec![0],
            vec![
                StorePattern::new(
                    PatternTerm::Var(0),
                    PatternTerm::Const(ty),
                    PatternTerm::Const(ghost_class),
                ),
                StorePattern::new(
                    PatternTerm::Var(0),
                    PatternTerm::Const(ghost_prop),
                    PatternTerm::Var(1),
                ),
            ],
        );
        for s in all_strategies() {
            let r = db.answer(&q, &s).unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            assert!(r.rows.is_empty(), "{}", s.name());
        }
    }

    #[test]
    fn zero_atom_query_answers_empty_for_every_strategy() {
        let mut db = paper_db();
        let q = BgpQuery::new(vec![], vec![]);
        for s in all_strategies() {
            let r = db.answer(&q, &s).unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            assert!(r.rows.is_empty(), "{}", s.name());
            assert_eq!(r.union_terms, 0, "{}", s.name());
            assert!(r.cover.is_none(), "{}", s.name());
        }
        let text = db.explain_analyze(&q, &Strategy::Ucq).unwrap();
        assert!(text.contains("empty query"), "{text}");
    }

    #[test]
    fn disconnected_query_reports_cover_error_not_panic() {
        // A cartesian-product body has no valid cover (Definition 3.3
        // forbids isolated fragments); saturation still answers, and
        // every cover-based strategy reports a CoverError instead of
        // panicking.
        let mut db = paper_db();
        db.prepare();
        let d = db.graph().dict();
        let has_name = d.lookup(&Term::uri("hasName")).unwrap();
        let published = d.lookup(&Term::uri("publishedIn")).unwrap();
        let q = BgpQuery::new(
            vec![0],
            vec![
                StorePattern::new(
                    PatternTerm::Var(0),
                    PatternTerm::Const(has_name),
                    PatternTerm::Var(1),
                ),
                StorePattern::new(
                    PatternTerm::Var(2),
                    PatternTerm::Const(published),
                    PatternTerm::Var(3),
                ),
            ],
        );
        assert!(db.answer(&q, &Strategy::Saturation).is_ok());
        for s in [Strategy::Ucq, Strategy::Scq, Strategy::ecov_default(), Strategy::gcov_default()]
        {
            let err = db.answer(&q, &s).unwrap_err();
            assert!(matches!(err, AnswerError::Cover(_)), "{}: {err}", s.name());
        }
    }

    #[test]
    fn set_profile_rekeys_the_plan_cache_pg_to_mysql() {
        // Regression: covers (and physical plans) chosen under the
        // pg-like cost model must not be served after switching to
        // mysql-like — and switching back must find the pg entries
        // again instead of re-searching.
        let mut db = paper_db();
        db.enable_plan_cache(8);
        let q = example3_query(&mut db);
        let pg = db.answer(&q, &Strategy::gcov_default()).unwrap();
        assert_eq!(db.plan_cache_stats().unwrap().misses, 1);

        db.set_profile(EngineProfile::mysql_like());
        let my = db.answer(&q, &Strategy::gcov_default()).unwrap();
        let stats = db.plan_cache_stats().unwrap();
        assert_eq!(stats.misses, 2, "mysql-like key misses the pg-like entry");
        assert_eq!(stats.hits, 0);

        db.set_profile(EngineProfile::pg_like());
        db.answer(&q, &Strategy::gcov_default()).unwrap();
        assert_eq!(db.plan_cache_stats().unwrap().hits, 1, "pg-like entry still cached");

        let mut a = pg.rows;
        let mut b = my.rows;
        a.sort();
        b.sort();
        assert_eq!(a, b, "profiles agree on the answer");
    }

    #[test]
    fn toggling_the_sip_knob_rekeys_the_plan_cache() {
        // Same staleness class as the pg↔mysql switch above: a physical
        // plan lowered with SIP filters must not replay after the knob
        // changes, since the staged driver and the lowered `Plan::sip`
        // table differ.
        let mut db = paper_db();
        db.enable_plan_cache(8);
        let q = example3_query(&mut db);
        let base = db.answer(&q, &Strategy::gcov_default()).unwrap();
        assert_eq!(db.plan_cache_stats().unwrap().misses, 1);

        db.set_profile(EngineProfile::pg_like().with_sip_filters(false));
        let no_sip = db.answer(&q, &Strategy::gcov_default()).unwrap();
        assert_eq!(db.plan_cache_stats().unwrap().misses, 2, "sip toggle misses");

        db.set_profile(EngineProfile::pg_like());
        db.answer(&q, &Strategy::gcov_default()).unwrap();
        assert_eq!(db.plan_cache_stats().unwrap().hits, 1, "original entry still cached");

        let mut base = base.rows;
        let mut no_sip = no_sip.rows;
        base.sort();
        no_sip.sort();
        assert_eq!(base, no_sip, "answers agree without SIP");
    }

    #[test]
    fn set_profile_keeps_pinned_constants_and_recalibrates_otherwise() {
        // Pinned constants survive a profile switch untouched.
        let mut db = paper_db();
        db.prepare();
        let pinned = db.cost_constants();
        db.set_profile(EngineProfile::mysql_like());
        assert_eq!(db.cost_constants(), pinned, "pinned constants are kept");
        // Unpinned constants are recalibrated for the new profile (the
        // values are measured, so assert only that answering still
        // works against the refreshed model).
        let mut db = RdfDatabase::new();
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        db.extend(&[
            t("doi1", "writtenBy", Term::uri("a1")),
            t("a1", "hasName", Term::literal("One")),
            t("writtenBy", vocab::RDFS_SUBPROPERTY_OF, Term::uri("hasAuthor")),
        ]);
        db.prepare();
        db.set_profile(EngineProfile::mysql_like());
        let q = db.parse_query("SELECT ?n WHERE { ?b <hasAuthor> ?a . ?a <hasName> ?n }").unwrap();
        let r = db.answer(&q, &Strategy::gcov_default()).unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn physical_plans_are_cached_and_cleared_on_updates() {
        let mut db = paper_db();
        db.enable_plan_cache(8);
        let q = example3_query(&mut db);
        let first = db.answer(&q, &Strategy::gcov_default()).unwrap();
        let second = db.answer(&q, &Strategy::gcov_default()).unwrap();
        let stats = db.plan_cache_stats().unwrap();
        assert_eq!(stats.plan_misses, 1, "first run lowers the plan");
        assert_eq!(stats.plan_hits, 1, "second run reuses it");
        let mut a = first.rows;
        let mut b = second.rows;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // An incremental data update keeps the cover but drops the
        // lowered plan (its join orders reflect the old statistics).
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        let report = db.apply_data_updates(
            &[
                t("doi9", "writtenBy", Term::uri("a9")),
                t("a9", "hasName", Term::literal("Nine")),
                t("doi9", "publishedIn", Term::literal("1996")),
            ],
            &[],
        );
        assert!(report.incremental);
        let r = db.answer(&q, &Strategy::gcov_default()).unwrap();
        let stats = db.plan_cache_stats().unwrap();
        assert_eq!(stats.hits, 2, "cover reused across the update");
        assert_eq!(stats.plan_misses, 2, "plan re-lowered after the update");
        assert_eq!(r.rows.len(), 2, "fresh plan sees the new data");
    }

    #[test]
    fn profile_switch_affects_admission() {
        let mut db = paper_db();
        let q = example3_query(&mut db);
        db.set_profile(EngineProfile::pg_like().with_max_union_terms(1));
        let err = db.answer(&q, &Strategy::Ucq).unwrap_err();
        assert!(matches!(err, AnswerError::Engine(EngineError::UnionTooLarge { .. })));
        // Saturation is unaffected (single CQ).
        assert!(db.answer(&q, &Strategy::Saturation).is_ok());
    }
}
