//! The writer keeps one copy of the data.
//!
//! Before the first publication the writer's graph holds the data
//! triples; the first publication moves them into the plain store, which
//! is their only copy from then on. Every later batch — an update, a
//! schema statement, new vocabulary, `insert`, `extend`, `load_turtle` —
//! goes into the store as a delta on the previous snapshot, and nothing
//! moves the data back. Each test keeps its own model of the data as
//! decoded triples and holds the writer to it: the data count, the data
//! a copy of the graph or a snapshot file holds, the `UpdateReport`
//! counts, and stores and answers against a database built from scratch
//! over the model.

use std::collections::HashSet;

use jucq_core::{snapshot, RdfDatabase, ServingDb, Strategy, UpdateReport};
use jucq_datagen::lubm;
use jucq_model::{vocab, Graph, Term, Triple, TripleId};
use jucq_optimizer::CostConstants;
use jucq_store::{EngineProfile, Perm, Store};

fn base() -> Graph {
    lubm::generate(&lubm::LubmConfig { universities: 1, seed: 42 })
}

fn db_of(graph: Graph) -> RdfDatabase {
    let mut db = RdfDatabase::from_graph(graph, EngineProfile::pg_like());
    db.set_cost_constants(CostConstants::default());
    db
}

fn is_schema(t: &Triple) -> bool {
    matches!(&t.p, Term::Uri(p) if vocab::is_schema_property(p))
}

/// `Person ⊑ Agent`: a schema statement new to the LUBM-like ontology.
fn person_is_an_agent() -> Triple {
    let ns = lubm::NS;
    Triple::new(
        Term::uri(format!("{ns}Person")),
        Term::uri(vocab::RDFS_SUBCLASS_OF),
        Term::uri(format!("{ns}Agent")),
    )
}

fn decoded(graph: &Graph) -> HashSet<Triple> {
    graph.data().iter().map(|t| graph.decode(t)).collect()
}

/// The writer and a model of its data, updated side by side.
struct Tracked {
    db: RdfDatabase,
    model: HashSet<Triple>,
}

impl Tracked {
    fn new() -> Tracked {
        let graph = base();
        let model = decoded(&graph);
        Tracked { db: db_of(graph), model }
    }

    /// `n` triples of another LUBM-like graph that the data does not
    /// hold: an in-vocabulary batch.
    fn fresh(&self, n: usize) -> Vec<Triple> {
        let extra = lubm::generate(&lubm::LubmConfig { universities: 1, seed: 7 });
        let new = extra.data().iter().map(|t| extra.decode(t)).filter(|t| !self.model.contains(t));
        let batch: Vec<Triple> = new.take(n).collect();
        assert_eq!(batch.len(), n);
        batch
    }

    /// `n` triples the data holds.
    fn present(&self, n: usize) -> Vec<Triple> {
        let mut held: Vec<Triple> = self.model.iter().cloned().collect();
        held.sort();
        held.truncate(n);
        held
    }

    /// Apply a batch to both; the report's counts must be the model's.
    /// The model holds the data alone: schema statements join the
    /// writer's schema, not its data.
    fn update(&mut self, inserts: &[Triple], deletes: &[Triple]) -> UpdateReport {
        let (inserted, deleted) = self.model_update(inserts, deletes);
        let report = self.db.apply_data_updates(inserts, deletes);
        assert_eq!((report.inserted, report.deleted), (inserted, deleted), "{report:?}");
        assert!(self.db.graph().is_empty(), "the batch went to the store: {report:?}");
        self.check_data();
        report
    }

    /// Apply a batch to the model alone, returning how many triples it
    /// inserted and deleted.
    fn model_update(&mut self, inserts: &[Triple], deletes: &[Triple]) -> (usize, usize) {
        let before = self.model.len();
        let data = |t: &&Triple| !is_schema(t);
        let inserted =
            inserts.iter().filter(data).filter(|t| self.model.insert((*t).clone())).count();
        let deleted = deletes.iter().filter(|t| self.model.remove(t)).count();
        assert_eq!(self.model.len(), before + inserted - deleted);
        (inserted, deleted)
    }

    /// The writer's data, read every way it can be, is the model.
    fn check_data(&self) {
        assert_eq!(self.db.data_len(), self.model.len(), "data_len");
        assert_eq!(decoded(&self.db.to_graph()), self.model, "to_graph");
    }

    /// A database prepared from scratch over the model, under the
    /// writer's dictionary and schema, so its stores compare id for id.
    fn rebuilt(&self) -> RdfDatabase {
        let dict = self.db.graph().dict();
        let encode = |t: &Triple| -> TripleId {
            let id = |term: &Term| dict.lookup(term).expect("the writer interned every term");
            TripleId::new(id(&t.s), id(&t.p), id(&t.o))
        };
        let data = self.model.iter().map(encode).collect();
        let mut full = db_of(Graph::assemble(dict.clone(), self.db.graph().schema().clone(), data));
        full.prepare();
        full
    }
}

/// `store`'s triples in `perm`'s order, read across its layers.
fn merged(store: &Store, perm: Perm) -> Vec<TripleId> {
    store.tables().merged(perm).flatten().copied().collect()
}

/// The merged view of `got` equals `want`'s index by index, its layers
/// hold as many triples as `want`'s, and no triple is in two of them.
fn assert_same_indexes(got: &Store, want: &Store, what: &str) {
    let sizes = |s: &Store| s.tables().layers().iter().map(|t| t.len()).collect::<Vec<_>>();
    assert_eq!(sizes(got), sizes(want), "{what}: layer sizes differ from the from-scratch store");
    for perm in Perm::ALL {
        let triples = merged(got, perm);
        assert!(
            triples == merged(want, perm),
            "{what}: {perm:?} differs from the from-scratch store"
        );
        if perm == Perm::Spo {
            assert!(triples.windows(2).all(|w| w[0] < w[1]), "{what}: a triple is in two layers");
        }
    }
}

/// The decoded answers of the first `n` LUBM-like queries.
fn answers(db: &mut RdfDatabase, strategy: &Strategy, n: usize) -> Vec<Vec<Vec<Term>>> {
    (lubm::workload().iter().take(n))
        .map(|nq| {
            let q = db.parse_query(&nq.sparql).unwrap();
            let r = db.answer(&q, strategy).unwrap_or_else(|e| panic!("{}: {e}", nq.name));
            let mut rows = db.decode_rows(&r.rows);
            rows.sort();
            rows
        })
        .collect()
}

fn strategies() -> [Strategy; 4] {
    [Strategy::Saturation, Strategy::Ucq, Strategy::Scq, Strategy::gcov_default()]
}

#[test]
fn a_prepared_writer_keeps_no_copy_of_the_data() {
    let mut w = Tracked::new();
    let len = w.db.data_len();
    assert_eq!(w.db.graph().len(), len, "unprepared, the graph holds the data");
    w.check_data();
    w.db.prepare();
    // `Graph::take_data`'s unit test pins that the hand-over frees both
    // the triples' `Vec` and their membership set.
    assert!(w.db.graph().is_empty(), "prepared, the plain store holds the data");
    assert!(w.db.graph().data().is_empty());
    assert_eq!(w.db.graph().schema().len(), base().schema().len(), "the schema stays");
    assert_eq!(w.db.data_len(), len, "the same count before and after preparing");
    w.check_data();
}

#[test]
fn data_len_tracks_incremental_updates() {
    let mut w = Tracked::new();
    w.db.prepare();
    let batch = w.fresh(200);
    let report = w.update(&batch, &[]);
    assert!(report.incremental && report.inserted > 0, "{report:?}");
    assert!(w.db.graph().is_empty(), "an incremental update keeps the data in the store");
    let report = w.update(&[], &batch[..120]);
    assert!(report.incremental && report.deleted > 0, "{report:?}");
    // Half old, half new, and a deletion of base data.
    let old = w.present(30);
    let report = w.update(&batch[100..], &old);
    assert!(report.incremental, "{report:?}");
    assert_eq!(report.deleted, 30);
}

#[test]
fn inserting_a_present_triple_reports_nothing_inserted() {
    let mut w = Tracked::new();
    w.db.prepare();
    let report = w.update(&w.present(5), &[]);
    assert!(report.incremental, "{report:?}");
    assert_eq!(report.inserted, 0);
    // Also when the batch repeats a new triple.
    let new = w.fresh(1);
    let report = w.update(&[new[0].clone(), new[0].clone()], &[]);
    assert_eq!(report.inserted, 1);
}

#[test]
fn deleting_an_absent_triple_reports_nothing_deleted() {
    let mut w = Tracked::new();
    w.db.prepare();
    let absent = w.fresh(5);
    let report = w.update(&[], &absent);
    assert!(report.incremental, "{report:?}");
    assert_eq!(report.deleted, 0);
    // Deleting a triple twice in one batch deletes it once.
    let present = w.present(1);
    let report = w.update(&[], &[present[0].clone(), present[0].clone()]);
    assert_eq!(report.deleted, 1);
}

#[test]
fn one_batch_inserting_and_deleting_a_triple_leaves_it_absent() {
    for maintained in [false, true] {
        let mut w = Tracked::new();
        w.db.prepare();
        if maintained {
            w.db.saturated_store();
        }
        let new = w.fresh(3);
        let report = w.update(&new, &new[..1]);
        assert!(report.incremental, "{report:?}");
        assert_eq!(report.saturation_maintained, maintained);
        // Counted as inserted and as deleted, and absent after.
        assert_eq!((report.inserted, report.deleted), (3, 1), "{report:?}");
        assert!(!w.model.contains(&new[0]));
        // A present triple inserted and deleted in one batch is gone too.
        let old = w.present(1);
        let report = w.update(&old, &old);
        assert_eq!((report.inserted, report.deleted), (0, 1), "{report:?}");

        let mut full = w.rebuilt();
        assert_same_indexes(w.db.plain_store(), full.plain_store(), "plain");
        assert_same_indexes(w.db.saturated_store(), full.saturated_store(), "saturated");
    }
}

#[test]
fn a_schema_statement_after_updates_rebuilds_over_every_data_triple() {
    let mut w = Tracked::new();
    w.db.prepare();
    w.db.saturated_store();
    let batch = w.fresh(300);
    w.update(&batch, &[]);
    let old = w.present(40);
    w.update(&batch[..100], &old);

    let schema = person_is_an_agent();
    let report = w.update(std::slice::from_ref(&schema), &[]);
    assert!(!report.incremental, "{report:?}");

    // A fresh database over the same triples, interned in its own order.
    let mut graph = Graph::new();
    lubm::Ontology::declare(&mut graph);
    graph.insert(&schema);
    graph.extend(&w.present(w.model.len()));
    let mut fresh_db = db_of(graph);
    assert_eq!(fresh_db.data_len(), w.db.data_len());
    for s in strategies() {
        assert_eq!(answers(&mut w.db, &s, 14), answers(&mut fresh_db, &s, 14), "{}", s.name());
    }
}

#[test]
fn the_first_maintained_update_counts_from_the_store() {
    let mut w = Tracked::new();
    w.db.prepare();
    // Built before any update: the first update creates the counting
    // state from the plain store's data, the writer's only copy.
    w.db.saturated_store();
    let batch = w.fresh(300);
    let report = w.update(&batch, &[]);
    assert!(report.saturation_maintained && report.entailed_added > 0, "{report:?}");
    let mut full = w.rebuilt();
    assert_same_indexes(w.db.plain_store(), full.plain_store(), "plain");
    assert_same_indexes(w.db.saturated_store(), full.saturated_store(), "saturated");
    // And the deletes after it keep counting from that state.
    let old = w.present(50);
    let report = w.update(&batch[..150], &old);
    assert!(report.saturation_maintained && report.entailed_removed > 0, "{report:?}");
    let mut full = w.rebuilt();
    assert_same_indexes(w.db.plain_store(), full.plain_store(), "plain");
    assert_same_indexes(w.db.saturated_store(), full.saturated_store(), "saturated");
}

#[test]
fn a_snapshot_of_an_updated_writer_round_trips() {
    let mut w = Tracked::new();
    // Unprepared, the save is the graph's, byte for byte.
    assert!(w.db.save_snapshot() == snapshot::save(w.db.graph()));
    w.db.prepare();
    let batch = w.fresh(200);
    let old = w.present(25);
    w.update(&batch, &old);

    let loaded = snapshot::load(&w.db.save_snapshot()).expect("loads");
    assert_eq!(loaded.len(), w.model.len());
    assert_eq!(decoded(&loaded), w.model);
    assert_eq!(loaded.schema(), w.db.graph().schema());
    let mut restored = db_of(loaded);
    for s in strategies() {
        assert_eq!(answers(&mut restored, &s, 14), answers(&mut w.db, &s, 14), "{}", s.name());
    }
}

#[test]
fn a_batch_carrying_a_schema_statement_counts_its_data() {
    // A schema statement, a new data triple and deletes of three present
    // ones, in one batch: it recomputes the closure and counts the data.
    let mut w = Tracked::new();
    w.db.prepare();
    let inserts = [vec![person_is_an_agent()], w.fresh(1)].concat();
    let deletes = w.present(3);
    let report = w.update(&inserts, &deletes);
    assert!(!report.incremental, "{report:?}");
    assert_eq!((report.inserted, report.deleted), (1, 3), "{report:?}");
    let mut full = w.rebuilt();
    assert_same_indexes(w.db.plain_store(), full.plain_store(), "plain");
    for s in strategies() {
        assert_eq!(answers(&mut w.db, &s, 14), answers(&mut full, &s, 14), "{}", s.name());
    }

    // The same batch through the server's writer.
    let serving = ServingDb::new(db_of(base()));
    let report = serving.apply_data_updates(&inserts, &deletes);
    assert!(!report.incremental, "{report:?}");
    assert_eq!((report.inserted, report.deleted), (1, 3), "{report:?}");
}

#[test]
fn every_call_after_the_first_publication_leaves_the_graph_empty() {
    let mut w = Tracked::new();
    w.db.prepare();
    // `insert`: a new triple, then the same one again.
    let new = w.fresh(3);
    w.model_update(&new[..1], &[]);
    assert!(w.db.insert(&new[0]), "new to the data");
    assert!(!w.db.insert(&new[0]), "held by the store");
    assert!(w.db.graph().is_empty());
    w.check_data();
    // `extend`, with a schema statement and a triple of a new property.
    let ns = lubm::NS;
    let novel = Triple::new(
        Term::uri(format!("{ns}Department0")),
        Term::uri(format!("{ns}brandNewProperty")),
        Term::literal("novel"),
    );
    let batch = [new[1..].to_vec(), vec![person_is_an_agent(), novel.clone()]].concat();
    w.model_update(&batch, &[]);
    w.db.extend(&batch);
    assert!(w.db.graph().is_empty());
    w.check_data();
    let property = w.db.graph().dict().lookup(&novel.p).expect("interned");
    assert!(w.db.closure().properties().contains(&property), "the closure learned it");
    // `load_turtle`: a triple of a new class.
    let text = format!("<{ns}Department0> a <{ns}BrandNewClass> .\n");
    let loaded = Triple::new(
        Term::uri(format!("{ns}Department0")),
        Term::uri(vocab::RDF_TYPE),
        Term::uri(format!("{ns}BrandNewClass")),
    );
    w.model_update(&[loaded], &[]);
    assert_eq!(w.db.load_turtle(&text).expect("parses"), 1);
    assert_eq!(w.db.load_turtle(&text).expect("parses"), 0, "held by the store");
    assert!(w.db.graph().is_empty());
    w.check_data();

    let mut full = w.rebuilt();
    assert_same_indexes(w.db.plain_store(), full.plain_store(), "plain");
    assert_same_indexes(w.db.saturated_store(), full.saturated_store(), "saturated");
    for s in strategies() {
        assert_eq!(answers(&mut w.db, &s, 14), answers(&mut full, &s, 14), "{}", s.name());
    }
}
