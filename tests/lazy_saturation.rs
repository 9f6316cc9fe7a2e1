//! The saturated store is built on first use, per snapshot, and
//! maintained by the writer only once it exists.
//!
//! Preparation builds the plain store alone. The first Saturation
//! request on a snapshot derives the saturated store from the
//! snapshot's plain store under the `prepare.saturated` span; an
//! in-vocabulary update maintains it iff the snapshot it derives from
//! had built it. Either way the store must equal the one a from-scratch
//! database builds over the same graph, index by index.

use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread;

use jucq_core::{RdfDatabase, ServingDb, Strategy};
use jucq_datagen::lubm;
use jucq_model::{Graph, Term, Triple, TripleId};
use jucq_optimizer::CostConstants;
use jucq_store::{EngineProfile, Perm, Store};

/// Spans are collected process-wide: one test at a time.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// How many saturated stores `f` built, on any thread.
fn builds(f: impl FnOnce()) -> usize {
    jucq_obs::reset();
    jucq_obs::set_enabled(true);
    f();
    jucq_obs::set_enabled(false);
    let session = jucq_obs::take_session();
    jucq_obs::global().reset();
    session.spans.iter().filter(|s| s.name == "prepare.saturated").count()
}

fn base() -> Graph {
    lubm::generate(&lubm::LubmConfig { universities: 1, seed: 42 })
}

fn db_of(graph: Graph) -> RdfDatabase {
    let mut db = RdfDatabase::from_graph(graph, EngineProfile::pg_like());
    db.set_cost_constants(CostConstants::default());
    db
}

/// New individuals of the same ontology: an in-vocabulary batch.
fn batch() -> Vec<Triple> {
    let extra = lubm::generate(&lubm::LubmConfig { universities: 1, seed: 7 });
    let decode = |t: &TripleId| {
        let d = extra.dict();
        Triple::new(d.decode(t.s), d.decode(t.p), d.decode(t.o))
    };
    extra.data()[..300].iter().map(decode).collect()
}

/// A database prepared from scratch over `db`'s current data: the
/// same dictionary, so its stores compare id for id.
fn from_scratch(db: &RdfDatabase) -> RdfDatabase {
    let mut full = db_of(db.to_graph());
    full.prepare();
    full
}

/// `store`'s triples in `perm`'s order, read across its layers.
fn merged(store: &Store, perm: Perm) -> Vec<TripleId> {
    store.tables().merged(perm).flatten().copied().collect()
}

/// The merged view of `got` equals `want`'s index by index, its layers
/// hold as many triples as `want`'s, and no triple is in two of them.
fn assert_same_indexes(got: &Store, want: &Store) {
    let sizes = |s: &Store| s.tables().layers().iter().map(|t| t.len()).collect::<Vec<_>>();
    assert_eq!(sizes(got), sizes(want), "layer sizes differ from the from-scratch store");
    for perm in Perm::ALL {
        let triples = merged(got, perm);
        assert!(triples == merged(want, perm), "{perm:?} differs from the from-scratch store");
        if perm == Perm::Spo {
            assert!(triples.windows(2).all(|w| w[0] < w[1]), "a triple is in two layers");
        }
    }
}

fn sat_answers(db: &mut RdfDatabase) -> Vec<Vec<Vec<Term>>> {
    (lubm::workload().iter().take(6))
        .map(|nq| {
            let q = db.parse_query(&nq.sparql).unwrap();
            let r = db.answer(&q, &Strategy::Saturation).unwrap();
            let mut rows = db.decode_rows(&r.rows);
            rows.sort();
            rows
        })
        .collect()
}

#[test]
fn concurrent_first_saturation_requests_build_the_store_once() {
    let _serial = obs_lock();
    let serving = Arc::new(ServingDb::new(db_of(base())));
    let sparql = &lubm::workload()[0].sparql;
    const READERS: usize = 4;
    let gate = Arc::new(Barrier::new(READERS));
    let mut answers = Vec::new();
    let built = builds(|| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let (serving, gate) = (Arc::clone(&serving), Arc::clone(&gate));
                let sparql = sparql.clone();
                thread::spawn(move || {
                    let snapshot = serving.snapshot();
                    let q = snapshot.parse_query(&sparql).unwrap();
                    gate.wait();
                    let mut rows = snapshot.answer(&q, &Strategy::Saturation).unwrap().rows;
                    rows.sort();
                    rows
                })
            })
            .collect();
        answers = readers.into_iter().map(|r| r.join().unwrap()).collect();
    });
    assert_eq!(built, 1, "one build for {READERS} racing readers");
    assert!(answers.windows(2).all(|w| w[0] == w[1]));
    assert!(!answers[0].is_empty());
    // The snapshot keeps the store: later requests build nothing.
    let snapshot = serving.snapshot();
    assert_eq!(
        builds(|| {
            snapshot.saturated_store();
        }),
        0
    );
}

#[test]
fn an_update_before_any_saturation_request_leaves_the_store_lazy() {
    let _serial = obs_lock();
    let mut db = db_of(base());
    db.prepare();
    let report = db.apply_data_updates(&batch(), &[]);
    assert!(report.incremental);
    assert!(!report.saturation_maintained);
    assert_eq!((report.entailed_added, report.entailed_removed), (0, 0));

    let mut full = from_scratch(&db);
    assert_eq!(
        builds(|| {
            db.saturated_store();
        }),
        1,
        "built on first use"
    );
    assert_same_indexes(db.saturated_store(), full.saturated_store());
    assert_eq!(sat_answers(&mut db), sat_answers(&mut full));
}

#[test]
fn a_built_store_is_maintained_by_the_next_update() {
    let _serial = obs_lock();
    let mut db = db_of(base());
    db.saturated_store();
    let batch = batch();
    let (mut report, mut answers) = (None, None);
    let built = builds(|| {
        report = Some(db.apply_data_updates(&batch, &[]));
        answers = Some(sat_answers(&mut db));
    });
    let report = report.unwrap();
    assert!(report.incremental && report.saturation_maintained, "{report:?}");
    assert!(report.entailed_added > 0, "{report:?}");
    assert_eq!(built, 0, "the successor was maintained, not rebuilt");

    let mut full = from_scratch(&db);
    assert_same_indexes(db.saturated_store(), full.saturated_store());
    assert_eq!(answers.unwrap(), sat_answers(&mut full));

    // Deleting the batch again is maintained too.
    let report = db.apply_data_updates(&[], &batch);
    assert!(report.saturation_maintained && report.entailed_removed > 0, "{report:?}");
    let mut full = from_scratch(&db);
    assert_same_indexes(db.saturated_store(), full.saturated_store());
}

#[test]
fn a_schema_update_resets_the_store_to_lazy() {
    let _serial = obs_lock();
    let mut db = db_of(base());
    db.saturated_store();
    let ns = "http://jucq.example.org/univ-bench#";
    let schema = Triple::new(
        Term::uri(format!("{ns}Person")),
        Term::uri(jucq_model::vocab::RDFS_SUBCLASS_OF),
        Term::uri(format!("{ns}Agent")),
    );
    let report = db.apply_data_updates(&[schema], &[]);
    assert!(!report.incremental && !report.saturation_maintained);

    // The rebuilt snapshot has no saturated store, so the next update
    // leaves it unbuilt rather than maintaining it.
    db.prepare();
    let report = db.apply_data_updates(&batch(), &[]);
    assert!(report.incremental && !report.saturation_maintained, "{report:?}");
    let mut full = from_scratch(&db);
    assert_eq!(builds(|| drop(sat_answers(&mut db))), 1);
    assert_same_indexes(db.saturated_store(), full.saturated_store());
    assert_eq!(sat_answers(&mut db), sat_answers(&mut full));
}

#[test]
fn set_profile_carries_a_built_store() {
    let _serial = obs_lock();
    let mut db = db_of(base());
    let before = db.saturated_store().clone();
    db.set_profile(EngineProfile::mysql_like());
    assert_eq!(
        builds(|| {
            db.saturated_store();
        }),
        0,
        "carried over"
    );
    let after = db.saturated_store();
    assert_eq!(after.profile().name, EngineProfile::mysql_like().name, "re-profiled");
    assert_same_indexes(after, &before);
    // Still built, so the next update maintains it.
    assert!(db.apply_data_updates(&batch(), &[]).saturation_maintained);

    // An unbuilt store stays unbuilt across a profile switch.
    let mut lazy = db_of(base());
    lazy.prepare();
    lazy.set_profile(EngineProfile::mysql_like());
    assert_eq!(
        builds(|| {
            lazy.saturated_store();
        }),
        1
    );
    assert_eq!(lazy.saturated_store().profile().name, EngineProfile::mysql_like().name);
    assert_same_indexes(lazy.saturated_store(), &before);
}
