//! The `RdfDatabase` facade: the single writer.
//!
//! Owns what only a writer needs — the RDF graph (dictionary + schema +
//! data), the pinned settings, and the state that maintains the
//! saturation under updates — and publishes immutable [`Snapshot`]s of
//! it (see [`crate::epoch`]): lazily from scratch on
//! first use and after anything that changes the schema or the
//! vocabulary, from the previous snapshot plus a delta for an
//! in-vocabulary data update. Everything query-facing here
//! ([`RdfDatabase::answer`], [`RdfDatabase::explain`], the store and
//! closure getters, …) is a delegation to the current snapshot, so the
//! classic `&mut self` API and the concurrent [`crate::ServingDb`]
//! answer through the same code.

use std::sync::{Arc, Mutex};

use jucq_model::{Graph, SchemaClosure, Term, TermId, Triple, TripleId};
use jucq_optimizer::{calibrate, CostConstants};
use jucq_reformulation::incremental::IncrementalSaturation;
use jucq_reformulation::saturation::schema_triples;
use jucq_reformulation::BgpQuery;
use jucq_store::{
    DeltaFootprint, EngineProfile, Relation, Store, ViewCatalog, ViewCatalogStats, ViewFootprint,
    ViewSignature,
};

use crate::epoch::{lock_cache, plan_jucq_on, Snapshot};
use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::report::{AnswerError, AnswerReport, UpdateReport};
use crate::strategy::Strategy;

/// True iff `t` is an RDFS schema statement: it changes the schema
/// closure, so an update carrying one cannot be absorbed incrementally.
fn is_schema_triple(t: &Triple) -> bool {
    matches!(&t.p, Term::Uri(p) if jucq_model::vocab::is_schema_property(p))
}

/// The current snapshot plus what the writer needs to derive its
/// successor from a data delta. Built together, dropped together.
struct Published {
    snapshot: Arc<Snapshot>,
    /// The saturation under counting-based maintenance, enabling
    /// incremental data updates (see [`RdfDatabase::apply_data_updates`]).
    incremental: IncrementalSaturation,
    /// The materialized closed-schema triples (held by both stores).
    schema_triples: Vec<TripleId>,
}

impl Published {
    /// Build the closure, the plain store and the saturated store from
    /// scratch and publish them as epoch `epoch`. Each step runs once:
    /// the closure, one counting pass that both saturates the data and
    /// seeds incremental maintenance, the two stores' indexes, and the
    /// calibration.
    fn build(
        graph: &mut Graph,
        profile: &EngineProfile,
        pinned: Option<CostConstants>,
        cache: Option<Arc<Mutex<PlanCache>>>,
        views: Option<Arc<ViewCatalog>>,
        epoch: u64,
    ) -> Published {
        jucq_obs::span!("prepare");
        let (closure, rdf_type, schema_ts) = {
            jucq_obs::span!("prepare.closure");
            let closure = graph.schema_closure();
            let rdf_type = graph.rdf_type();
            let schema_ts = schema_triples(graph, &closure);
            (closure, rdf_type, schema_ts)
        };
        let incremental = {
            jucq_obs::span!("prepare.saturation");
            IncrementalSaturation::new(graph.data(), closure.clone(), rdf_type)
        };

        let store_of = |mut triples: Vec<TripleId>| {
            jucq_obs::span!("prepare.index_build");
            // Stable, so a sorted prefix costs one merge: the saturated
            // store's input is the plain store's sorted triples followed
            // by the derived ones.
            triples.sort();
            triples.dedup();
            Store::from_vec(triples, profile.clone())
        };
        let plain = store_of([graph.data(), &schema_ts].concat());
        // The plain store holds the data and the schema triples, so this
        // is `saturate_with(data) ∪ schema_triples`.
        let saturated =
            store_of(plain.table().all().iter().copied().chain(incremental.derived()).collect());

        let constants = {
            jucq_obs::span!("prepare.calibrate");
            pinned.unwrap_or_else(|| calibrate(&plain))
        };
        let snapshot = Snapshot {
            epoch,
            // Cloned last: `rdf:type` and the schema vocabulary may have
            // been interned above.
            dict: graph.dict().clone(),
            closure: Arc::new(closure),
            rdf_type,
            plain,
            saturated,
            constants,
            cache,
            views,
        };
        Published { snapshot: Arc::new(snapshot), incremental, schema_triples: schema_ts }
    }
}

/// An RDF database answering BGP queries under RDFS constraints.
pub struct RdfDatabase {
    graph: Graph,
    profile: EngineProfile,
    /// Cost constants pinned by [`RdfDatabase::set_cost_constants`]
    /// (`None` = calibrate at preparation).
    constants: Option<CostConstants>,
    plan_cache: Option<Arc<Mutex<PlanCache>>>,
    /// The materialized fragment-view catalog, when enabled
    /// ([`RdfDatabase::enable_views`]). Shared with every snapshot; all
    /// mutation goes through interior locking, and its epoch is kept
    /// equal to `epoch` below.
    views: Option<Arc<ViewCatalog>>,
    /// The epoch of the current snapshot or, with none published, the
    /// one the next preparation will publish: 0 for the first, one more
    /// for every snapshot that holds different data.
    epoch: u64,
    published: Option<Published>,
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
        Self::from_graph(Graph::new(), profile)
    }

    /// Wrap an existing graph.
    pub fn from_graph(graph: Graph, profile: EngineProfile) -> Self {
        RdfDatabase {
            graph,
            profile,
            constants: None,
            plan_cache: None,
            views: None,
            epoch: 0,
            published: None,
        }
    }

    /// Insert one triple (invalidates prepared stores).
    pub fn insert(&mut self, triple: &Triple) -> bool {
        self.invalidate();
        self.graph.insert(triple)
    }

    /// Bulk-insert triples (invalidates prepared stores).
    pub fn extend<'a>(&mut self, triples: impl IntoIterator<Item = &'a Triple>) {
        self.invalidate();
        self.graph.extend(triples);
    }

    /// Load a Turtle-subset document (see [`crate::turtle`]).
    pub fn load_turtle(&mut self, text: &str) -> Result<usize, crate::turtle::TurtleError> {
        self.invalidate();
        crate::turtle::load(&mut self.graph, text)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The engine profile in use.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Switch the engine profile (keeps data and stores; the next
    /// snapshot runs the same triples under the new execution
    /// behaviour).
    ///
    /// The cost constants calibrated under the old profile are stale —
    /// they encode the old join algorithm and materialization policy —
    /// so unless they were pinned with
    /// [`RdfDatabase::set_cost_constants`] they are recalibrated
    /// against the new profile. Cached covers and physical plans are
    /// keyed by the profile's plan-affecting fingerprint
    /// ([`EngineProfile::plan_cache_key`]: name plus the join,
    /// materialization and planner-pass knobs), so entries chosen for
    /// the old settings simply stop matching (and keep serving if the
    /// profile is switched back).
    pub fn set_profile(&mut self, profile: EngineProfile) {
        self.profile = profile.clone();
        let pinned = self.constants;
        self.republish(|s| {
            let mut next = s.share();
            next.plain.set_profile(profile.clone());
            next.saturated.set_profile(profile);
            next.constants = pinned.unwrap_or_else(|| calibrate(&next.plain));
            next
        });
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
                let cache = Some(Arc::new(Mutex::new(PlanCache::new(capacity))));
                self.plan_cache = cache.clone();
                self.republish(|s| Snapshot { cache, ..s.share() });
            }
        }
    }

    /// The plan cache's hit/miss counters, if caching is enabled.
    pub fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.plan_cache.as_ref().map(|c| lock_cache(c).stats())
    }

    /// Swap in a fresh plan cache of the same capacity, leaving the old
    /// handle to whoever still holds it. The serving layer calls this
    /// on a non-incremental rebuild: readers pinned to an earlier epoch
    /// may attach plans lowered from the *old* stores after the rebuild
    /// cleared the cache — so sharing one cache across that boundary
    /// could hand a new-epoch reader a physical plan lowered against
    /// the old closure and statistics. (Term ids are append-only, so
    /// the ids in such a plan still mean the same terms; its unions and
    /// join order do not.) A fresh handle makes the race
    /// unrepresentable; the old epoch keeps caching against its own
    /// doomed instance until it drops.
    pub(crate) fn replace_plan_cache(&mut self) {
        if let Some(cache) = &mut self.plan_cache {
            let capacity = lock_cache(cache).capacity();
            *cache = Arc::new(Mutex::new(PlanCache::new(capacity)));
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
        let catalog = ViewCatalog::new(budget_tuples);
        catalog.set_epoch(self.epoch);
        let views = Some(Arc::new(catalog));
        self.views = views.clone();
        self.republish(|s| Snapshot { views, ..s.share() });
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
        let snapshot = Arc::clone(self.snapshot());
        let planned = plan_jucq_on(&snapshot, q, strategy)?;
        if planned.saturated {
            return Ok(0);
        }
        let target = &snapshot.plain;
        let mut pinned = 0usize;
        for (i, frag) in planned.jucq.fragments.iter().enumerate() {
            if let Some(sel) = fragments {
                if !sel.contains(&i) {
                    continue;
                }
            }
            let sig = ViewSignature::of(frag);
            if catalog.contains_current(&sig).is_some() {
                continue;
            }
            let outcome = target.eval_ucq(frag)?;
            let footprint = ViewFootprint::of(frag, snapshot.rdf_type);
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
        self.republish(|s| Snapshot { constants, ..s.share() });
    }

    /// Replace the current snapshot by `change` of it (same epoch: the
    /// data is the same) — how a setting changed after preparation
    /// reaches the readers. With nothing published the setting simply
    /// waits for the next preparation.
    fn republish(&mut self, change: impl FnOnce(&Snapshot) -> Snapshot) {
        if let Some(p) = &mut self.published {
            p.snapshot = Arc::new(change(&p.snapshot));
        }
    }

    /// Drop the current snapshot: the next one is built from scratch
    /// and, holding different data, under the next epoch.
    fn invalidate(&mut self) {
        if self.published.take().is_some() {
            self.epoch += 1;
        }
        if let Some(cache) = &self.plan_cache {
            lock_cache(cache).clear();
        }
        // A rebuild may change the schema closure the materialized
        // unions were derived from: nothing in the catalog survives.
        if let Some(catalog) = &self.views {
            catalog.clear();
            catalog.set_epoch(self.epoch);
        }
    }

    /// Build the closure, the plain store and the saturated store and
    /// publish the first snapshot over them. Idempotent;
    /// [`RdfDatabase::answer`] calls it automatically.
    pub fn prepare(&mut self) {
        self.snapshot();
    }

    /// The current snapshot, preparing on demand. Holders keep the
    /// `Arc` alive; later updates publish successors, never touch it.
    pub(crate) fn snapshot(&mut self) -> &Arc<Snapshot> {
        let RdfDatabase { graph, profile, constants, plan_cache, views, epoch, published, .. } =
            self;
        let published = published.get_or_insert_with(|| {
            Published::build(graph, profile, *constants, plan_cache.clone(), views.clone(), *epoch)
        });
        &published.snapshot
    }

    /// True when `t` can be absorbed without rebuilding: data-only
    /// and not introducing a class or property unknown to the closure
    /// (new vocabulary would change the instantiation rules' universe).
    fn update_is_incremental(s: &Snapshot, t: &TripleId) -> bool {
        if t.p == s.rdf_type {
            !t.o.is_uri() || s.closure.classes().contains(&t.o)
        } else {
            s.closure.properties().contains(&t.p)
        }
    }

    /// Apply a batch of data insertions and deletions.
    ///
    /// When the database is prepared and the update stays within the
    /// known vocabulary, the next snapshot is derived **incrementally**
    /// from the current one: the plain store by an index merge, the
    /// saturated store through the counting-based
    /// [`IncrementalSaturation`] — the maintenance cost the paper's
    /// §5.3 discussion weighs against reformulation — and everything
    /// else shared. Schema statements or new vocabulary fall back to
    /// invalidating the preparation (rebuilt lazily on the next
    /// answer).
    pub fn apply_data_updates(&mut self, inserts: &[Triple], deletes: &[Triple]) -> UpdateReport {
        use jucq_model::FxHashSet;
        // Schema statements cannot be absorbed incrementally. (Schema
        // deletion is not supported at the Graph level; data deletes
        // of the same batch still apply.)
        if inserts.iter().chain(deletes).any(is_schema_triple) {
            self.extend(inserts);
            let del_set: FxHashSet<TripleId> = deletes
                .iter()
                .filter(|t| !is_schema_triple(t))
                .map(|t| self.encode_triple(t))
                .collect();
            self.graph.remove_data_batch(&del_set);
            self.invalidate();
            return UpdateReport { incremental: false, ..Default::default() };
        }

        let ins_ids: Vec<TripleId> = inserts.iter().map(|t| self.encode_triple(t)).collect();
        let del_ids: Vec<TripleId> = deletes.iter().map(|t| self.encode_triple(t)).collect();

        let Some(p) = self
            .published
            .as_mut()
            .filter(|p| ins_ids.iter().all(|t| Self::update_is_incremental(&p.snapshot, t)))
        else {
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
        };

        let mut report = UpdateReport { incremental: true, ..Default::default() };
        let mut plain_ins: Vec<TripleId> = Vec::new();
        let mut sat_ins: Vec<TripleId> = Vec::new();
        let mut sat_del: FxHashSet<TripleId> = FxHashSet::default();
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
        let plain_del: FxHashSet<TripleId> = present.iter().copied().collect();
        report.deleted = self.graph.remove_data_batch(&plain_del);
        for t in &present {
            let delta = p.incremental.delete(t);
            report.entailed_removed += delta.removed.len().saturating_sub(1);
            sat_del.extend(delta.removed);
        }
        // Schema triples are immutable here; shield them from
        // accidental deletion by the saturation delta.
        for st in &p.schema_triples {
            sat_del.remove(st);
        }

        // The next epoch: both stores merged with their deltas, the
        // dictionary as it is now (its tables are copied only if this
        // batch interned a term while `prev` shared them), the rest
        // shared with the snapshot readers may still be pinned to.
        self.epoch += 1;
        let prev = &p.snapshot;
        let next = Snapshot {
            epoch: self.epoch,
            dict: self.graph.dict().clone(),
            plain: prev.plain.apply_delta(&plain_ins, &plain_del),
            saturated: prev.saturated.apply_delta(&sat_ins, &sat_del),
            ..prev.share()
        };

        // Advance the view catalog in lock-step, dropping exactly the
        // entries whose predicate/class footprint intersects the
        // *plain-store* delta (views are materialized from the plain
        // store, so saturation-only churn cannot affect them).
        // Surviving entries are restamped to the new epoch and keep
        // serving.
        if let Some(catalog) = &self.views {
            let mut touched: Vec<TripleId> = plain_ins;
            touched.extend(plain_del.iter().copied());
            let delta = DeltaFootprint::from_triples(&touched, next.rdf_type);
            let dropped = catalog.advance_epoch(self.epoch, &delta);
            if !dropped.is_empty() {
                jucq_obs::metrics::counter_add("views.invalidated", dropped.len() as u64);
            }
        }
        p.snapshot = Arc::new(next);
        // Covers stay sound across data updates (Theorem 3.1), but the
        // physical plans lowered from them baked in join orders and
        // shared-scan choices from the old statistics snapshot.
        if let Some(cache) = &self.plan_cache {
            lock_cache(cache).clear_plans();
        }
        report
    }

    fn encode_triple(&mut self, t: &Triple) -> TripleId {
        let d = self.graph.dict_mut();
        let s = d.encode(&t.s);
        let p = d.encode(&t.p);
        let o = d.encode(&t.o);
        TripleId::new(s, p, o)
    }

    /// The plain (non-saturated) store, for direct engine access.
    pub fn plain_store(&mut self) -> &Store {
        self.snapshot().plain_store()
    }

    /// The saturated store.
    pub fn saturated_store(&mut self) -> &Store {
        self.snapshot().saturated_store()
    }

    /// The schema closure.
    pub fn closure(&mut self) -> &SchemaClosure {
        self.snapshot().closure()
    }

    /// The dictionary id of `rdf:type`.
    pub fn rdf_type(&mut self) -> TermId {
        self.snapshot().rdf_type()
    }

    /// The calibrated (or pinned) cost constants.
    pub fn cost_constants(&mut self) -> CostConstants {
        self.snapshot().cost_constants()
    }

    /// Parse a SPARQL-BGP query against this database's dictionary
    /// (interning constants as needed).
    pub fn parse_query(&mut self, text: &str) -> Result<BgpQuery, crate::parser::ParseError> {
        crate::parser::parse_query(self.graph.dict_mut(), text)
    }

    /// Intern a URI, for building queries programmatically. Interning
    /// does not invalidate prepared stores (ids are append-only).
    pub fn intern_uri(&mut self, uri: &str) -> TermId {
        self.graph.dict_mut().encode_uri(uri)
    }

    /// Intern any term (URI, blank, or literal), for building queries
    /// programmatically. Like [`RdfDatabase::intern_uri`], does not
    /// invalidate prepared stores.
    pub fn intern_term(&mut self, term: &Term) -> TermId {
        self.graph.dict_mut().encode(term)
    }

    /// Decode an answer relation's rows to owned terms
    /// ([`crate::rows::decode_rows`]; [`crate::rows::term_rows`] over
    /// `self.graph().dict()` borrows them instead). The writer's
    /// dictionary is a superset of every snapshot's of this build.
    pub fn decode_rows(&self, rows: &Relation) -> Vec<Vec<Term>> {
        crate::rows::decode_rows(self.graph.dict(), rows)
    }

    /// [`Snapshot::answer`] on the current snapshot.
    pub fn answer(
        &mut self,
        q: &BgpQuery,
        strategy: &Strategy,
    ) -> Result<AnswerReport, AnswerError> {
        self.snapshot().answer(q, strategy)
    }

    /// [`Snapshot::answer_recorded`] on the current snapshot.
    pub fn answer_recorded(
        &mut self,
        q: &BgpQuery,
        strategy: &Strategy,
    ) -> (Result<AnswerReport, AnswerError>, Option<jucq_obs::QueryRecord>) {
        self.snapshot().answer_recorded(q, strategy, None)
    }

    /// [`Snapshot::explain`] on the current snapshot.
    pub fn explain(&mut self, q: &BgpQuery, strategy: &Strategy) -> Result<String, AnswerError> {
        self.snapshot().explain(q, strategy)
    }

    /// [`Snapshot::explain_analyze`] on the current snapshot.
    pub fn explain_analyze(
        &mut self,
        q: &BgpQuery,
        strategy: &Strategy,
    ) -> Result<String, AnswerError> {
        self.snapshot().explain_analyze(q, strategy)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use jucq_model::vocab;
    use jucq_reformulation::Cover;
    use jucq_store::{EngineError, PatternTerm, StorePattern};

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
    fn traced_prepare_records_each_stage_under_prepare() {
        let _serial = crate::obs_test_lock();
        let mut db = paper_db();
        jucq_obs::reset();
        jucq_obs::set_enabled(true);
        {
            let _test = jucq_obs::span("test.prepare");
            db.prepare();
        }
        jucq_obs::set_enabled(false);
        let session = jucq_obs::take_session();
        jucq_obs::global().reset();

        // Tests running beside this one record spans too while tracing is
        // on: keep the spans of this test's thread.
        let test = session.spans.iter().find(|s| s.name == "test.prepare").expect("marker span");
        let spans: Vec<_> = session.spans.iter().filter(|s| s.thread == test.thread).collect();
        let prepare: Vec<_> = spans.iter().filter(|s| s.name == "prepare").collect();
        assert_eq!(prepare.len(), 1, "{spans:?}");
        let children: Vec<&str> =
            spans.iter().filter(|s| s.parent == Some(prepare[0].id)).map(|s| s.name).collect();
        let count = |name: &str| children.iter().filter(|&&n| n == name).count();
        for stage in ["prepare.closure", "prepare.saturation", "prepare.calibrate"] {
            assert_eq!(count(stage), 1, "{stage} in {children:?}");
        }
        assert_eq!(count("prepare.index_build"), 2, "one per store: {children:?}");
        // The data is saturated once, by the counting pass.
        assert!(spans.iter().all(|s| s.name != "saturation"), "{spans:?}");
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
            Strategy::minimized_ucq_default(),
            Strategy::ecov_default(),
            Strategy::gcov_default(),
        ]
    }

    const WORKS: [&str; 5] = ["Work", "Publication", "Book", "Article", "Novel"];

    /// A four-level class chain (Novel ⊑ Book ⊑ Publication ⊑ Work,
    /// Article ⊑ Publication) with a property hierarchy, in plain
    /// first-seen ids. Each class is first named by its one instance's
    /// type triple, root first, so the five class ids interleave with
    /// document, author and `writtenBy` ids: collapsing the subtree
    /// means bridging those gaps.
    pub(crate) fn hierarchy_db() -> RdfDatabase {
        let mut db = RdfDatabase::new();
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        let mut triples = Vec::new();
        for (i, class) in WORKS.into_iter().enumerate() {
            triples.push(t(&format!("doc{i}"), vocab::RDF_TYPE, Term::uri(class)));
            triples.push(t(&format!("doc{i}"), "writtenBy", Term::uri(format!("a{i}"))));
        }
        triples.extend([
            t("Publication", vocab::RDFS_SUBCLASS_OF, Term::uri("Work")),
            t("Book", vocab::RDFS_SUBCLASS_OF, Term::uri("Publication")),
            t("Article", vocab::RDFS_SUBCLASS_OF, Term::uri("Publication")),
            t("Novel", vocab::RDFS_SUBCLASS_OF, Term::uri("Book")),
            t("writtenBy", vocab::RDFS_SUBPROPERTY_OF, Term::uri("hasAuthor")),
        ]);
        db.extend(&triples);
        db.set_cost_constants(CostConstants::default());
        db
    }

    /// Assert `?x a <Work>` explains under UCQ as one `RangeScan` over
    /// `classes`' members, spanning from the lowest class id to past the
    /// highest — every id between them included.
    fn assert_one_range_scan(db: &mut RdfDatabase, q: &BgpQuery, classes: &[&str]) {
        let raw = |c: &&str| db.graph().dict().lookup_uri(c).expect("class interned").raw();
        let lo = classes.iter().map(raw).min().unwrap();
        let width = classes.iter().map(raw).max().unwrap() + 1 - lo;
        assert!(width as usize > classes.len(), "class ids interleave: [{lo}, {lo}+{width})");
        let text = db.explain(q, &Strategy::Ucq).unwrap();
        assert_eq!(text.matches("RangeScan").count(), 1, "{text}");
        assert!(!text.contains("IndexScan"), "{text}");
        assert!(text.contains(&format!("o∈[#u{lo}, #u{lo}+{width})")), "{text}");
        assert!(text.contains(&format!("— {} members", classes.len())), "{text}");
    }

    #[test]
    fn ucq_collapses_a_class_subtree_across_interleaved_ids() {
        let mut db = hierarchy_db();
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        // The non-class ids inside the interval are no `rdf:type`
        // object, which the planner reads off the index.
        assert_one_range_scan(&mut db, &q, &WORKS);
        let mut ucq = db.answer(&q, &Strategy::Ucq).unwrap();
        let mut sat = db.answer(&q, &Strategy::Saturation).unwrap();
        assert!(ucq.counters.range_scans >= 1, "counters: {:?}", ucq.counters);
        ucq.rows.sort();
        sat.rows.sort();
        assert_eq!(db.decode_rows(&ucq.rows), db.decode_rows(&sat.rows));
        assert_eq!(ucq.rows.len(), 5, "all five docs are Works");
    }

    #[test]
    fn schema_insert_after_answer_still_collapses() {
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        let mut db = hierarchy_db();
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let first = db.answer(&q, &Strategy::Ucq).unwrap();
        assert!(first.counters.range_scans >= 1);
        assert_eq!(first.rows.len(), 5);

        // Grow the schema *after* the first answer: a new class under
        // Publication, plus an instance of it. Both get append ids past
        // every id the first answer saw, so `q` still holds valid ids.
        db.extend(&[
            t("Thesis", vocab::RDFS_SUBCLASS_OF, Term::uri("Publication")),
            t("doc9", vocab::RDF_TYPE, Term::uri("Thesis")),
        ]);
        let mut ucq = db.answer(&q, &Strategy::Ucq).unwrap();
        let mut sat = db.answer(&q, &Strategy::Saturation).unwrap();
        ucq.rows.sort();
        sat.rows.sort();
        assert_eq!(db.decode_rows(&ucq.rows), db.decode_rows(&sat.rows));
        assert_eq!(ucq.rows.len(), 6, "doc9 (a Thesis) is a Work now");
        assert!(ucq.counters.range_scans >= 1, "counters: {:?}", ucq.counters);
        let mut grown = WORKS.to_vec();
        grown.push("Thesis");
        assert_one_range_scan(&mut db, &q, &grown);
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
        let mut db = hierarchy_db();
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let text = db.explain(&q, &Strategy::Ucq).unwrap();
        assert!(text.contains("RangeScan"), "{text}");
        assert!(text.contains("(Work)"), "decoded name of the lowest class id:\n{text}");
        assert!(text.contains("— 5 members"), "the five-class subtree:\n{text}");
        // The plan `explain analyze` ran reads the same way.
        let analyzed = db.explain_analyze(&q, &Strategy::Ucq).unwrap();
        assert!(analyzed.contains("RangeScan"), "{analyzed}");
        assert!(analyzed.contains("(Work)"), "{analyzed}");
        // Knob off: the same query explains as a plain UCQ of
        // IndexScans — the fallback plan, not a half-collapsed hybrid.
        db.set_profile(EngineProfile::pg_like().with_range_scans(false));
        let text = db.explain(&q, &Strategy::Ucq).unwrap();
        assert!(!text.contains("RangeScan"), "{text}");
        assert!(text.contains("IndexScan"), "{text}");
    }

    #[test]
    fn answer_report_carries_range_plan_telemetry() {
        let mut db = hierarchy_db();
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let r = db.answer(&q, &Strategy::Ucq).unwrap();
        assert_eq!(r.range_eligible, 1, "the single fragment has a collapsible run");
        assert!(r.range_scans_planned >= 1, "and the collapse was applied");
        // Knob off: the opportunity is still reported, unapplied.
        db.set_profile(EngineProfile::pg_like().with_range_scans(false));
        let off = db.answer(&q, &Strategy::Ucq).unwrap();
        assert_eq!(off.range_eligible, 1);
        assert_eq!(off.range_scans_planned, 0);
    }

    #[test]
    fn range_records_log_and_replay() {
        let mut db = hierarchy_db();
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let (res, rec) = db.answer_recorded(&q, &Strategy::Ucq);
        res.unwrap();
        let rec = rec.unwrap();
        assert_eq!(rec.strategy, "UCQ");
        assert_eq!(rec.range_eligible, 1);
        assert!(rec.range_scans_used >= 1, "counters: {:?}", rec.counters);
        assert_eq!(rec.counters.range_scans, rec.range_scans_used);
        // The record round-trips through the JSONL line format and
        // replays cleanly under its recorded strategy.
        let parsed = jucq_obs::QueryRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(parsed, rec);
        let report = crate::telemetry::replay(&mut db, &[parsed]);
        assert_eq!(report.mismatches(), 0, "{:?}", report.entries);
    }

    #[test]
    fn a_logged_range_strategy_replays_as_an_error_naming_it() {
        // Logs written while the Range strategy existed name it.
        let mut db = hierarchy_db();
        let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let mut rec = db.answer_recorded(&q, &Strategy::Ucq).1.unwrap();
        rec.strategy = "Range".into();
        let line = rec.to_json_line();
        assert!(line.contains("\"jucq-log/4\""), "{line}");
        let parsed = jucq_obs::QueryRecord::from_json_line(&line).unwrap();
        let report = crate::telemetry::replay(&mut db, &[parsed]);
        assert_eq!(report.replay_errors, 1, "{:?}", report.entries);
        let error = report.entries[0].error.as_deref().unwrap_or_default();
        assert!(error.contains("`Range`"), "the error names the strategy: {error}");
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
    fn toggling_the_range_knob_rekeys_the_plan_cache() {
        // Same staleness class as the pg↔mysql switch above: a physical
        // plan lowered with range-collapsed members must not replay
        // after the knob changes, since the lowered unions differ.
        let mut db = paper_db();
        db.enable_plan_cache(8);
        let q = example3_query(&mut db);
        let base = db.answer(&q, &Strategy::gcov_default()).unwrap();
        assert_eq!(db.plan_cache_stats().unwrap().misses, 1);

        db.set_profile(EngineProfile::pg_like().with_range_scans(false));
        let no_range = db.answer(&q, &Strategy::gcov_default()).unwrap();
        assert_eq!(db.plan_cache_stats().unwrap().misses, 2, "range toggle misses");

        db.set_profile(EngineProfile::pg_like());
        db.answer(&q, &Strategy::gcov_default()).unwrap();
        assert_eq!(db.plan_cache_stats().unwrap().hits, 1, "original entry still cached");

        let mut base = base.rows;
        let mut no_range = no_range.rows;
        base.sort();
        no_range.sort();
        assert_eq!(base, no_range, "answers agree without range collapse");
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
