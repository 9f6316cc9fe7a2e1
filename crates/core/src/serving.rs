//! Snapshot-isolated serving: pinned-epoch reads over `Arc`-swapped
//! preparation state.
//!
//! [`RdfDatabase`] answers on `&mut self`: preparation is lazy, the
//! hierarchy encoding may rewrite the dictionary, and updates mutate
//! the stores in place. That is the right shape for a single-threaded
//! CLI, and the wrong one for a server. The serving layer splits the
//! two roles:
//!
//! * a [`Snapshot`] freezes everything one answer needs — the
//!   dictionary, the prepared stores, the engine profile, and the
//!   shared plan-cache handle — behind an `Arc`. Answering runs on
//!   `&self` ([`crate::database::answer_on`]) and parsing never
//!   interns ([`crate::parser::parse_query_frozen`]), so any number of
//!   reader threads share one snapshot without locks;
//! * a [`ServingDb`] hands out the current snapshot and serializes
//!   writers behind a mutex. An update builds the next preparation
//!   copy-on-write (`Arc::make_mut` leaves the pinned epoch's stores
//!   untouched) and publishes it with one `RwLock`-guarded pointer
//!   swap. Readers pinned to an earlier epoch keep answering against
//!   exactly the state they started with.
//!
//! Schema-changing updates force a rebuild on the writer's side, which
//! re-runs the hierarchy encoding (the interval labels now cover the
//! grown hierarchy) and swaps in a fresh plan cache — remapped term
//! ids make old physical plans unsound, so the new epoch must not be
//! able to see them. Because each snapshot clones the dictionary at
//! publish time, queries parsed against an old epoch hold that epoch's
//! ids and stay correct against that epoch; new requests parse against
//! the new snapshot and see the new ids.

use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::time::Duration;

use jucq_model::{Dictionary, Term, Triple};
use jucq_reformulation::BgpQuery;
use jucq_store::{EngineProfile, Relation, ViewCatalog, ViewCatalogStats};

use crate::database::{
    answer_on, empty_answer, lock_cache, AnswerCtx, AnswerError, AnswerReport, Prepared,
    RdfDatabase, UpdateReport,
};
use crate::parser::ParseError;
use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::strategy::Strategy;

/// One published epoch: an immutable view of the database sufficient
/// to parse and answer queries on `&self`. Cheap to share (`Arc`) and
/// to hold — pinning an old snapshot keeps its stores alive but never
/// blocks the writer.
pub struct Snapshot {
    epoch: u64,
    dict: Dictionary,
    prepared: Arc<Prepared>,
    profile: EngineProfile,
    cache: Option<Arc<Mutex<PlanCache>>>,
    /// The shared view catalog (entries are epoch-stamped; this
    /// snapshot's requests resolve only entries stamped with exactly
    /// `epoch`, so sharing the handle across epochs is safe).
    views: Option<Arc<ViewCatalog>>,
}

impl Snapshot {
    /// The epoch this snapshot was published at (0 = initial load).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine profile requests run under by default.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Parse a SPARQL query against this epoch's dictionary without
    /// interning: constants unknown to the epoch resolve to sentinel
    /// ids beyond the dictionary, matching nothing — exactly the
    /// answer a just-interned constant would produce.
    pub fn parse_query(&self, text: &str) -> Result<BgpQuery, ParseError> {
        crate::parser::parse_query_frozen(&self.dict, text)
    }

    /// Answer `q` under `strategy` with the snapshot's own profile.
    pub fn answer(&self, q: &BgpQuery, strategy: &Strategy) -> Result<AnswerReport, AnswerError> {
        self.answer_with_limits(q, strategy, None)
    }

    /// Answer with a per-request execution override (deadline, memory
    /// budget — see [`Snapshot::request_profile`]). The override never
    /// affects plan identity: [`EngineProfile::plan_cache_key`]
    /// excludes both knobs, so cached plans are shared across requests
    /// with different limits.
    pub fn answer_with_limits(
        &self,
        q: &BgpQuery,
        strategy: &Strategy,
        limits: Option<&EngineProfile>,
    ) -> Result<AnswerReport, AnswerError> {
        jucq_obs::span!("answer");
        if q.is_empty() {
            return Ok(empty_answer(q, strategy).0);
        }
        answer_on(&self.ctx(limits), q, strategy, false).map(|(report, _)| report)
    }

    /// Answer and also build — but do not submit — the query-log
    /// record, profiled. The serving loop submits the record so every
    /// served request lands in the query log. `None` only for the
    /// empty-body short-circuit, which has nothing to profile.
    pub fn answer_recorded(
        &self,
        q: &BgpQuery,
        strategy: &Strategy,
        limits: Option<&EngineProfile>,
    ) -> (Result<AnswerReport, AnswerError>, Option<jucq_obs::QueryRecord>) {
        jucq_obs::span!("answer");
        if q.is_empty() {
            return (Ok(empty_answer(q, strategy).0), None);
        }
        let before = self.plan_cache_stats();
        let result = answer_on(&self.ctx(limits), q, strategy, true);
        let after = self.plan_cache_stats();
        let record = crate::telemetry::build_record(
            &self.dict,
            &self.profile,
            q,
            strategy,
            &result,
            before.as_ref(),
            after.as_ref(),
        );
        (result.map(|(report, _)| report), Some(record))
    }

    /// A per-request profile: the snapshot's own, with the deadline
    /// and/or memory budget tightened. `None` keeps the server default.
    pub fn request_profile(
        &self,
        deadline: Option<Duration>,
        memory_budget_tuples: Option<usize>,
    ) -> EngineProfile {
        let mut p = self.profile.clone();
        if let Some(d) = deadline {
            p = p.with_timeout(d);
        }
        if let Some(m) = memory_budget_tuples {
            p = p.with_memory_budget(m);
        }
        p
    }

    /// This epoch's dictionary: the one its answers' ids decode against.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Decode an answer relation against this epoch's dictionary to
    /// owned terms ([`crate::rows::decode_rows`]).
    pub fn decode_rows(&self, rows: &Relation) -> Vec<Vec<Term>> {
        crate::rows::decode_rows(&self.dict, rows)
    }

    /// The shared plan cache's counters, if caching is enabled.
    pub fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.cache.as_deref().map(|c| lock_cache(c).stats())
    }

    /// The view catalog's counters, if views are enabled.
    pub fn view_stats(&self) -> Option<ViewCatalogStats> {
        self.views.as_deref().map(|c| c.stats())
    }

    fn ctx<'a>(&'a self, limits: Option<&'a EngineProfile>) -> AnswerCtx<'a> {
        let views = if self.profile.view_scans { self.views.as_deref() } else { None };
        AnswerCtx {
            prepared: &self.prepared,
            profile: &self.profile,
            cache: self.cache.as_deref(),
            exec_profile: limits,
            views,
            epoch: self.epoch,
        }
    }
}

/// A database served concurrently: readers answer against the current
/// [`Snapshot`]; one writer at a time applies updates and publishes
/// the next epoch with an atomic pointer swap.
pub struct ServingDb {
    current: RwLock<Arc<Snapshot>>,
    writer: Mutex<RdfDatabase>,
    /// Pinned view definitions, replayed by the writer after every
    /// published update: fragments still resident (restamped by the
    /// incremental maintenance) are skipped; invalidated or
    /// rebuilt-away ones are re-materialized at the new epoch.
    pins: Mutex<Vec<(String, Strategy)>>,
}

/// Failures from [`ServingDb::pin_views`].
#[derive(Debug)]
pub enum PinError {
    /// The pinned query text does not parse.
    Parse(ParseError),
    /// Planning or materializing a fragment failed.
    Answer(AnswerError),
}

impl std::fmt::Display for PinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PinError::Parse(e) => write!(f, "parse: {e}"),
            PinError::Answer(e) => write!(f, "answer: {e}"),
        }
    }
}

impl std::error::Error for PinError {}

impl ServingDb {
    /// Wrap a (loaded, configured) database and publish epoch 0.
    /// Preparation — closure, stores, calibration, optional hierarchy
    /// encoding — happens here, before the first request is admitted.
    pub fn new(mut db: RdfDatabase) -> Self {
        // Re-align the catalog with the serving epoch numbering:
        // entries materialized before serving began (at any catalog
        // epoch) are restamped to epoch 0 so the first snapshot can
        // resolve them; the empty delta invalidates nothing.
        if let Some(catalog) = db.views() {
            catalog.advance_epoch(0, &jucq_store::DeltaFootprint::default());
        }
        let snapshot = Arc::new(Self::build_snapshot(&mut db, 0));
        ServingDb {
            current: RwLock::new(snapshot),
            writer: Mutex::new(db),
            pins: Mutex::new(Vec::new()),
        }
    }

    /// Pin `sparql`'s cover fragments (under `strategy`) as
    /// materialized views, now and after every future update: the
    /// definition is recorded and the writer re-materializes whatever
    /// an update invalidates when it publishes the next epoch. Entries
    /// are stamped with the *current* epoch, so in-flight requests on
    /// the current snapshot can resolve them immediately (their cached
    /// plans are invalidated; covers survive). Returns the number of
    /// fragments newly materialized.
    pub fn pin_views(&self, sparql: &str, strategy: &Strategy) -> Result<usize, PinError> {
        let mut db = self.lock_writer();
        let q = db.parse_query(sparql).map_err(PinError::Parse)?;
        let pinned = db.pin_cover_fragments(&q, strategy, None).map_err(PinError::Answer)?;
        let mut pins = self.lock_pins();
        if !pins.iter().any(|(s, st)| s == sparql && st == strategy) {
            pins.push((sparql.to_owned(), strategy.clone()));
        }
        Ok(pinned)
    }

    /// The view catalog's counters, if views are enabled.
    pub fn view_stats(&self) -> Option<jucq_store::ViewCatalogStats> {
        self.lock_writer().view_stats()
    }

    /// The current snapshot. Requests hold the returned `Arc` for
    /// their whole lifetime — parse, answer, decode — so one request
    /// observes exactly one epoch even while updates publish new ones.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.read_current())
    }

    /// The current epoch (0 = initial load).
    pub fn epoch(&self) -> u64 {
        self.read_current().epoch
    }

    /// Apply a batch of data insertions and deletions and publish the
    /// next epoch. Incremental updates mutate a private copy of the
    /// preparation (`Arc::make_mut`); schema statements or new
    /// vocabulary rebuild it — re-running the hierarchy encoding over
    /// the grown hierarchy and swapping in a fresh plan cache (the
    /// rebuild can remap term ids, so plans attached by readers still
    /// pinned to the old epoch must stay confined to the old cache
    /// instance). Readers are only blocked for the pointer swap.
    pub fn apply_data_updates(&self, inserts: &[Triple], deletes: &[Triple]) -> UpdateReport {
        let mut db = self.lock_writer();
        let report = db.apply_data_updates(inserts, deletes);
        if !report.incremental {
            db.replace_plan_cache();
        }
        let epoch = self.read_current().epoch + 1;
        // Align the catalog with the new epoch. Incremental updates
        // already advanced it in lock-step (survivors restamped,
        // intersecting fragments dropped), making this a no-op; a
        // rebuild cleared the catalog without advancing, so the new
        // epoch starts empty until the pins below refill it.
        if let Some(catalog) = db.views() {
            catalog.set_epoch(epoch);
        }
        // Re-materialize pinned definitions the update invalidated;
        // still-resident fragments are skipped (already stamped with
        // the new epoch).
        let pins = self.lock_pins().clone();
        for (sparql, strategy) in &pins {
            if let Ok(q) = db.parse_query(sparql) {
                let _ = db.pin_cover_fragments(&q, strategy, None);
            }
        }
        let snapshot = Arc::new(Self::build_snapshot(&mut db, epoch));
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = snapshot;
        report
    }

    fn build_snapshot(db: &mut RdfDatabase, epoch: u64) -> Snapshot {
        let prepared = db.prepared_shared();
        Snapshot {
            epoch,
            dict: db.graph().dict().clone(),
            prepared,
            profile: db.profile().clone(),
            cache: db.plan_cache_shared(),
            views: db.views_shared(),
        }
    }

    /// Poison recovery: a reader that panicked while holding the read
    /// lock (or a writer mid-swap — the swap is a single pointer store,
    /// so the value is always a fully built snapshot) must not wedge
    /// the server.
    fn read_current(&self) -> RwLockReadGuard<'_, Arc<Snapshot>> {
        self.current.read().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_writer(&self) -> MutexGuard<'_, RdfDatabase> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_pins(&self) -> MutexGuard<'_, Vec<(String, Strategy)>> {
        self.pins.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::EncodingMode;
    use jucq_model::vocab;
    use jucq_optimizer::CostConstants;

    fn t(s: &str, p: &str, o: Term) -> Triple {
        Triple::new(Term::uri(s), Term::uri(p), o)
    }

    fn hierarchy_db(mode: EncodingMode) -> RdfDatabase {
        let mut db = RdfDatabase::new().with_encoding(mode);
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
    fn pinned_snapshot_is_isolated_from_later_updates() {
        let serving = ServingDb::new(hierarchy_db(EncodingMode::Plain));
        let snap0 = serving.snapshot();
        assert_eq!(snap0.epoch(), 0);

        let q0 = snap0.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let mut r0 = snap0.answer(&q0, &Strategy::Ucq).unwrap();
        r0.rows.sort();
        assert_eq!(r0.rows.len(), 5);

        let report =
            serving.apply_data_updates(&[t("doc9", vocab::RDF_TYPE, Term::uri("Novel"))], &[]);
        assert_eq!(report.inserted, 1);
        assert!(report.incremental, "data-only insert within known vocabulary");
        assert_eq!(serving.epoch(), 1);

        // The pinned epoch still answers against its own stores…
        let mut again = snap0.answer(&q0, &Strategy::Ucq).unwrap();
        again.rows.sort();
        assert_eq!(snap0.decode_rows(&again.rows), snap0.decode_rows(&r0.rows));

        // …while the new epoch sees the insert.
        let snap1 = serving.snapshot();
        assert_eq!(snap1.epoch(), 1);
        let q1 = snap1.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let r1 = snap1.answer(&q1, &Strategy::Ucq).unwrap();
        assert_eq!(r1.rows.len(), 6);

        // A constant the old epoch never saw parses frozen and matches
        // nothing there, but matches on the new epoch.
        let probe = "SELECT ?c WHERE { <doc9> rdf:type ?c . }";
        let old = snap0.answer(&snap0.parse_query(probe).unwrap(), &Strategy::Ucq).unwrap();
        assert_eq!(old.rows.len(), 0);
        let new = snap1.answer(&snap1.parse_query(probe).unwrap(), &Strategy::Ucq).unwrap();
        assert!(!new.rows.is_empty());
    }

    #[test]
    fn schema_update_republishes_with_fresh_encoding_and_cache() {
        let mut db = hierarchy_db(EncodingMode::Hierarchical);
        db.enable_plan_cache(8);
        let serving = ServingDb::new(db);
        let snap0 = serving.snapshot();

        let q_text = "SELECT ?x WHERE { ?x rdf:type <Work> . }";
        let q0 = snap0.parse_query(q_text).unwrap();
        // Twice: miss then hit, warming the epoch-0 cache.
        snap0.answer(&q0, &Strategy::gcov_default()).unwrap();
        let r0 = snap0.answer(&q0, &Strategy::gcov_default()).unwrap();
        assert_eq!(r0.rows.len(), 5);
        let stats0 = snap0.plan_cache_stats().unwrap();
        assert_eq!((stats0.hits, stats0.misses), (1, 1));

        // Grow the class hierarchy: rebuild, re-encode, republish.
        let report = serving.apply_data_updates(
            &[
                t("Thesis", vocab::RDFS_SUBCLASS_OF, Term::uri("Publication")),
                t("doc9", vocab::RDF_TYPE, Term::uri("Thesis")),
            ],
            &[],
        );
        assert!(!report.incremental, "schema statements force a rebuild");

        let snap1 = serving.snapshot();
        assert_eq!(snap1.epoch(), 1);

        // The new epoch's encoding covers the grown hierarchy: Range
        // agrees with UCQ and the interval collapse engages.
        let q1 = snap1.parse_query(q_text).unwrap();
        let mut ucq = snap1.answer(&q1, &Strategy::Ucq).unwrap();
        let mut range = snap1.answer(&q1, &Strategy::Range).unwrap();
        ucq.rows.sort();
        range.rows.sort();
        assert_eq!(snap1.decode_rows(&range.rows), snap1.decode_rows(&ucq.rows));
        assert_eq!(range.rows.len(), 6, "doc9 is a Work through Thesis");
        assert!(range.range_scans_planned >= 1, "collapse re-engaged after re-encoding");

        // The rebuild swapped the cache handle: the new epoch starts
        // cold, and anything readers still pinned to the old epoch
        // cache from here on stays confined to the old instance.
        let stats1 = snap1.plan_cache_stats().unwrap();
        assert_eq!((stats1.hits, stats1.misses), (0, 0));
        snap0.answer(&q0, &Strategy::gcov_default()).unwrap();
        let stats0_after = snap0.plan_cache_stats().unwrap();
        assert!(stats0_after.misses >= 2, "old-epoch traffic hits only the old instance");
        assert_eq!(snap1.plan_cache_stats().unwrap().misses, 0, "…and never the new one");

        // The pinned epoch still answers with its pre-update view.
        let old = snap0.answer(&q0, &Strategy::Ucq).unwrap();
        assert_eq!(old.rows.len(), 5);
    }

    #[test]
    fn request_profile_tightens_only_execution_knobs() {
        let serving = ServingDb::new(hierarchy_db(EncodingMode::Plain));
        let snap = serving.snapshot();
        let limits = snap.request_profile(Some(Duration::from_millis(250)), Some(1_000));
        assert_eq!(limits.timeout, Duration::from_millis(250));
        assert_eq!(limits.memory_budget_tuples, 1_000);
        // Same plan identity: cached plans are shared across limits.
        assert_eq!(limits.plan_cache_key(), snap.profile().plan_cache_key());

        let q = snap.parse_query("SELECT ?x WHERE { ?x rdf:type <Work> . }").unwrap();
        let r = snap.answer_with_limits(&q, &Strategy::Ucq, Some(&limits)).unwrap();
        assert_eq!(r.rows.len(), 5);
    }
}
