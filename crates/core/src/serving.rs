//! Snapshot-isolated serving: the writer's snapshots, handed to
//! concurrent readers.
//!
//! A [`ServingDb`] is a [`RdfDatabase`] behind a mutex — the single
//! writer — plus the snapshot it last published behind an `RwLock`.
//! Readers take the current [`Snapshot`] (see [`crate::epoch`]) and
//! parse, answer and decode against it on `&self`, without locks;
//! an update runs on the writer and publishes the writer's next
//! snapshot with one pointer swap. Readers pinned to an earlier epoch
//! keep answering against exactly the state they started with: the
//! writer derives a successor beside the snapshot it came from, it
//! never mutates one.
//!
//! Every published update and every view pin comes with a new plan
//! cache instance (covers carried unless the update changed the schema
//! closure, plans never): a plan depends on the data it was lowered
//! against, so one lowered by a reader still pinned to an old epoch
//! must stay in that epoch's instance. Term ids are append-only, so a
//! query parsed against an old epoch means the same terms against any
//! later one; each snapshot holds the dictionary as of its publication,
//! so it decodes exactly the ids its own stores hold.

use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};

use jucq_model::Triple;
use jucq_store::ViewCatalogStats;

use crate::database::RdfDatabase;
use crate::epoch::Snapshot;
use crate::parser::ParseError;
use crate::report::{AnswerError, UpdateReport};
use crate::strategy::Strategy;

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
    /// Wrap a (loaded, configured) database and publish its current
    /// snapshot — epoch 0 for a database that has not been updated
    /// since its first preparation. Preparation — closure, stores,
    /// calibration — happens here if it has not yet, before the first
    /// request is admitted.
    pub fn new(mut db: RdfDatabase) -> Self {
        let snapshot = Arc::clone(db.snapshot());
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
    /// are stamped with the *current* epoch, and the current snapshot is
    /// republished with a new plan cache (covers survive), so requests
    /// that start after the pin resolve them immediately. Returns the
    /// number of fragments newly materialized.
    pub fn pin_views(&self, sparql: &str, strategy: &Strategy) -> Result<usize, PinError> {
        let mut db = self.lock_writer();
        let pinned = Self::pin(&mut db, sparql, strategy)?;
        self.publish(&mut db);
        let mut pins = self.lock_pins();
        if !pins.iter().any(|(s, st)| s == sparql && st == strategy) {
            pins.push((sparql.to_owned(), strategy.clone()));
        }
        Ok(pinned)
    }

    fn pin(db: &mut RdfDatabase, sparql: &str, strategy: &Strategy) -> Result<usize, PinError> {
        let q = db.parse_query(sparql).map_err(PinError::Parse)?;
        db.pin_cover_fragments(&q, strategy, None).map_err(PinError::Answer)
    }

    /// The view catalog's counters, if views are enabled. Reads the
    /// published snapshot's handle: a `/metrics` scrape never waits
    /// for the writer.
    pub fn view_stats(&self) -> Option<ViewCatalogStats> {
        self.read_current().view_stats()
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

    /// Switch the engine profile ([`RdfDatabase::set_profile`]) and
    /// publish: same epoch, same data, new execution behaviour.
    pub fn set_profile(&self, profile: jucq_store::EngineProfile) {
        let mut db = self.lock_writer();
        db.set_profile(profile);
        self.publish(&mut db);
    }

    /// Apply a batch of data insertions and deletions
    /// ([`RdfDatabase::apply_data_updates`]) and publish the next
    /// epoch, the previous snapshot plus the delta — the closure
    /// recomputed on schema statements or new vocabulary — with a new
    /// plan cache instance (plans attached by readers still pinned
    /// to the old epoch were lowered against the old stores, so they
    /// stay in the old instance). Readers are only blocked for the
    /// pointer swap.
    pub fn apply_data_updates(&self, inserts: &[Triple], deletes: &[Triple]) -> UpdateReport {
        let mut db = self.lock_writer();
        let report = db.apply_data_updates(inserts, deletes);
        // Re-materialize pinned definitions the update invalidated;
        // still-resident fragments are skipped (already stamped with
        // the new epoch).
        let pins = self.lock_pins().clone();
        for (sparql, strategy) in &pins {
            if let Err(e) = Self::pin(&mut db, sparql, strategy) {
                jucq_obs::metrics::counter_add("views.repin_failed", 1);
                jucq_obs::warn_once(
                    "warn.view_repin_failed",
                    &format!("pinned view `{sparql}` was not re-materialized: {e}"),
                );
            }
        }
        self.publish(&mut db);
        report
    }

    fn publish(&self, db: &mut RdfDatabase) {
        let snapshot = Arc::clone(db.snapshot());
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = snapshot;
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
    use crate::database::tests::hierarchy_db;
    use jucq_model::{vocab, Term};
    use std::time::Duration;

    fn t(s: &str, p: &str, o: Term) -> Triple {
        Triple::new(Term::uri(s), Term::uri(p), o)
    }

    #[test]
    fn schema_update_republishes_with_a_cache_carrying_only_counters() {
        let mut db = hierarchy_db();
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

        // Grow the class hierarchy: recompute the closure, republish.
        let report = serving.apply_data_updates(
            &[
                t("Thesis", vocab::RDFS_SUBCLASS_OF, Term::uri("Publication")),
                t("doc9", vocab::RDF_TYPE, Term::uri("Thesis")),
            ],
            &[],
        );
        assert!(!report.incremental, "schema statements recompute the closure");

        let snap1 = serving.snapshot();
        assert_eq!(snap1.epoch(), 1);

        // The new epoch sees the grown hierarchy: UCQ agrees with
        // saturation and still collapses the subtree, Thesis included.
        let q1 = snap1.parse_query(q_text).unwrap();
        assert_eq!(q1, q0, "append-only ids: the query parses to the same ids");
        let mut ucq = snap1.answer(&q1, &Strategy::Ucq).unwrap();
        let mut sat = snap1.answer(&q1, &Strategy::Saturation).unwrap();
        ucq.rows.sort();
        sat.rows.sort();
        assert_eq!(snap1.decode_rows(&ucq.rows), snap1.decode_rows(&sat.rows));
        assert_eq!(ucq.rows.len(), 6, "doc9 is a Work through Thesis");
        assert!(ucq.range_scans_planned >= 1, "the grown subtree still collapses");

        // The new closure started a new cache instance: it carries the
        // counters but no cover, and what readers still pinned to the
        // old epoch cache from here on stays in the old instance.
        let stats1 = snap1.plan_cache_stats().unwrap();
        assert_eq!((stats1.hits, stats1.misses), (1, 1), "counters carry over");
        snap0.answer(&q0, &Strategy::gcov_default()).unwrap();
        let stats0_after = snap0.plan_cache_stats().unwrap();
        assert_eq!(stats0_after.hits, 2, "the old instance kept its cover");
        assert_eq!(snap1.plan_cache_stats().unwrap(), stats1, "…and the new one saw nothing");
        snap1.answer(&q1, &Strategy::gcov_default()).unwrap();
        assert_eq!(snap1.plan_cache_stats().unwrap().misses, 2, "a new closure carries no cover");

        // The pinned epoch still answers with its pre-update view.
        let old = snap0.answer(&q0, &Strategy::Ucq).unwrap();
        assert_eq!(old.rows.len(), 5);
    }

    /// A plan depends on the data it was lowered against: at epoch 0 the
    /// `headOf` member of `?x worksFor ?y`'s reformulation has an empty
    /// extent, so the plan prunes it. A reader still on epoch 0 after an
    /// incremental `headOf` insert lowers and caches that plan again; a
    /// reader of epoch 1 must never be served it.
    #[test]
    fn a_plan_lowered_at_an_old_epoch_never_answers_the_new_one() {
        const TTL: &str = r#"
            @prefix ex: <http://example.org/> .
            ex:headOf rdfs:subPropertyOf ex:worksFor .
            ex:a ex:worksFor ex:d .
        "#;
        let mut db = RdfDatabase::new();
        db.load_turtle(TTL).expect("schema + data load");
        db.enable_plan_cache(8);
        let serving = ServingDb::new(db);
        let (q_text, gcov) = (
            "SELECT ?x ?y WHERE { ?x <http://example.org/worksFor> ?y . }",
            Strategy::gcov_default(),
        );
        let snap0 = serving.snapshot();
        let q0 = snap0.parse_query(q_text).unwrap();
        assert_eq!(snap0.answer(&q0, &gcov).unwrap().rows.len(), 1);

        let ex = |s: &str| Term::uri(format!("http://example.org/{s}"));
        let head_of = Triple::new(ex("b"), ex("headOf"), ex("d"));
        assert!(serving.apply_data_updates(&[head_of], &[]).incremental);
        // The held epoch-0 snapshot lowers against its own stores again.
        assert_eq!(snap0.answer(&q0, &gcov).unwrap().rows.len(), 1);

        let snap1 = serving.snapshot();
        assert_eq!(snap1.epoch(), 1);
        let q1 = snap1.parse_query(q_text).unwrap();
        let sat = snap1.answer(&q1, &Strategy::Saturation).unwrap();
        assert_eq!(sat.rows.len(), 2, "b headOf d entails b worksFor d");
        let mut got = snap1.answer(&q1, &gcov).unwrap().rows;
        assert_eq!(got.len(), 2, "epoch 1 answers with a plan lowered for epoch 1");
        let mut want = sat.rows;
        got.sort();
        want.sort();
        assert_eq!(snap1.decode_rows(&got), snap1.decode_rows(&want));
    }

    #[test]
    fn request_profile_tightens_only_execution_knobs() {
        let serving = ServingDb::new(hierarchy_db());
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
