//! End-to-end property tests of incremental maintenance.
//!
//! A database that absorbed a random interleaving of insert/delete
//! batches answers exactly like a database built fresh from the final
//! state — under saturation *and* reformulation, with the plan cache
//! enabled, and with the saturated store maintained or left lazy. When
//! it is maintained, the writer derives it from the previous saturated
//! store and the new plain store alone, so after every batch its layers
//! (the plain store's table and the entailed layer) must be disjoint and
//! equal a from-scratch build's, the merged view index by index, and
//! the report's entailed
//! counts must equal the two stores' differences. Batches that carry a
//! schema statement or bring a new class or property publish through
//! the same derivation, which recomputes the closure: after each, the
//! plain store, the schema triples and the closure must equal a
//! from-scratch build's. The cases below the properties pin the
//! derivations a one-step check must get right.

use std::collections::HashSet;

use proptest::prelude::*;

use jucq_core::{RdfDatabase, Strategy as Answering, UpdateReport};
use jucq_model::{vocab, FxHashSet, Graph, Schema, SchemaClosure, Term, TermId, Triple, TripleId};
use jucq_optimizer::CostConstants;
use jucq_store::{EngineProfile, Perm, Store};

const ENTITIES: usize = 8;

/// One batch: inserts and deletes over a fixed small vocabulary whose
/// schema is declared up front (so updates stay incremental).
type Batch = (Vec<(usize, usize, usize)>, Vec<(usize, usize, usize)>);

fn batches() -> impl Strategy<Value = Vec<Batch>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0..ENTITIES, 0usize..4, 0..ENTITIES), 0..10),
            proptest::collection::vec((0..ENTITIES, 0usize..4, 0..ENTITIES), 0..10),
        ),
        1..6,
    )
}

fn op_triple(op: &(usize, usize, usize)) -> Triple {
    let (s, p, o) = *op;
    let subject = Term::uri(format!("http://u/e{s}"));
    if p == 3 {
        Triple::new(subject, Term::uri(vocab::RDF_TYPE), Term::uri(format!("http://u/C{}", o % 3)))
    } else {
        Triple::new(
            subject,
            Term::uri(format!("http://u/p{p}")),
            Term::uri(format!("http://u/e{o}")),
        )
    }
}

/// The schema and seed data of a base graph declaring the full
/// vocabulary, so later updates never introduce new classes/properties
/// (staying on the incremental path).
fn base_triples() -> Vec<Triple> {
    let t = |s: &str, p: &str, o: &str| Triple::new(Term::uri(s), Term::uri(p), Term::uri(o));
    let mut out = vec![
        t("http://u/C1", vocab::RDFS_SUBCLASS_OF, "http://u/C0"),
        t("http://u/C2", vocab::RDFS_SUBCLASS_OF, "http://u/C1"),
        t("http://u/p1", vocab::RDFS_SUBPROPERTY_OF, "http://u/p0"),
        t("http://u/p0", vocab::RDFS_DOMAIN, "http://u/C0"),
        t("http://u/p2", vocab::RDFS_RANGE, "http://u/C2"),
    ];
    // Seed data mentioning every property and class once.
    out.extend(
        [(0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 3, 0), (0, 3, 1), (0, 3, 2)].map(|op| op_triple(&op)),
    );
    out
}

fn is_schema(t: &Triple) -> bool {
    matches!(&t.p, Term::Uri(p) if vocab::is_schema_property(p))
}

fn base_graph() -> Graph {
    let mut g = Graph::new();
    g.extend(&base_triples());
    g
}

fn queries(db: &mut RdfDatabase) -> Vec<jucq_reformulation::BgpQuery> {
    [
        "SELECT ?x WHERE { ?x a <http://u/C0> }",
        "SELECT ?x ?y WHERE { ?x <http://u/p0> ?y }",
        "SELECT ?x ?y WHERE { ?x a ?c . ?x <http://u/p1> ?y }",
    ]
    .iter()
    .map(|text| db.parse_query(text).expect("query parses"))
    .collect()
}

fn db_of(graph: Graph) -> RdfDatabase {
    let mut db = RdfDatabase::from_graph(graph, EngineProfile::pg_like());
    db.set_cost_constants(CostConstants::default());
    db
}

/// A database whose saturated store is built, so updates maintain it.
fn maintained(graph: Graph) -> RdfDatabase {
    let mut db = db_of(graph);
    db.saturated_store();
    db
}

/// The saturated store a database prepared from scratch over `db`'s
/// data builds: the same dictionary, so it compares id for id.
fn from_scratch(db: &RdfDatabase) -> Store {
    db_of(db.to_graph()).saturated_store().clone()
}

/// `store`'s triples in `perm`'s order, read across its layers.
fn merged(store: &Store, perm: Perm) -> Vec<TripleId> {
    store.tables().merged(perm).flatten().copied().collect()
}

/// Assert that no triple is in two of `store`'s layers: their merged
/// SPO order never repeats one.
fn assert_disjoint(store: &Store) {
    let spo = merged(store, Perm::Spo);
    assert!(spo.windows(2).all(|w| w[0] < w[1]), "a triple is in two layers");
}

/// The first of `store`'s merged indexes that differs from `want`'s, if
/// any, after checking that `store`'s layers are disjoint.
fn differing_index(store: &Store, want: &Store) -> Option<Perm> {
    assert_disjoint(store);
    Perm::ALL.into_iter().find(|&perm| merged(store, perm) != merged(want, perm))
}

fn data_of(db: &RdfDatabase) -> FxHashSet<TripleId> {
    db.to_graph().data().iter().copied().collect()
}

/// A random small schema over classes C0..C4 and properties p0..p3.
#[derive(Debug, Clone)]
struct SchemaDesc {
    subclass: Vec<(usize, usize)>,
    subprop: Vec<(usize, usize)>,
    domain: Vec<(usize, usize)>,
    range: Vec<(usize, usize)>,
}

/// Subclass and subproperty edges may form cycles; a domain or range
/// may sit on a superproperty.
fn schema_desc() -> impl Strategy<Value = SchemaDesc> {
    (
        proptest::collection::vec((0usize..5, 0usize..5), 0..5),
        proptest::collection::vec((0usize..4, 0usize..4), 0..4),
        proptest::collection::vec((0usize..4, 0usize..5), 0..4),
        proptest::collection::vec((0usize..4, 0usize..5), 0..4),
    )
        .prop_map(|(subclass, subprop, domain, range)| SchemaDesc {
            subclass,
            subprop,
            domain,
            range,
        })
}

/// A data triple over entities e0..e3: property index 4 is an
/// `rdf:type` assertion of class `o % 5`.
type Op = (usize, usize, usize);

fn random_triple(op: &Op) -> Triple {
    let (s, p, o) = *op;
    let subject = Term::uri(format!("e{s}"));
    if p == 4 {
        Triple::new(subject, Term::uri(vocab::RDF_TYPE), Term::uri(format!("C{}", o % 5)))
    } else {
        Triple::new(subject, Term::uri(format!("p{p}")), Term::uri(format!("e{o}")))
    }
}

/// Small batches over a small universe, so deletes often hit.
fn random_batches() -> impl Strategy<Value = Vec<(Vec<Op>, Vec<Op>)>> {
    let op = || (0usize..4, 0usize..5, 0usize..4);
    proptest::collection::vec(
        (proptest::collection::vec(op(), 0..8), proptest::collection::vec(op(), 0..8)),
        1..8,
    )
}

/// The schema, plus one seed triple per property and class so that
/// every batch stays in vocabulary. The seeds' subject `e4` is one no
/// batch names, so no batch deletes a property's or class's last
/// triple (that would shrink the closure's universe and recompute it).
fn random_graph(desc: &SchemaDesc) -> Graph {
    let mut g = Graph::new();
    let t = |s: String, p: &str, o: String| Triple::new(Term::uri(s), Term::uri(p), Term::uri(o));
    for &(a, b) in &desc.subclass {
        g.insert(&t(format!("C{a}"), vocab::RDFS_SUBCLASS_OF, format!("C{b}")));
    }
    for &(a, b) in &desc.subprop {
        g.insert(&t(format!("p{a}"), vocab::RDFS_SUBPROPERTY_OF, format!("p{b}")));
    }
    for &(p, c) in &desc.domain {
        g.insert(&t(format!("p{p}"), vocab::RDFS_DOMAIN, format!("C{c}")));
    }
    for &(p, c) in &desc.range {
        g.insert(&t(format!("p{p}"), vocab::RDFS_RANGE, format!("C{c}")));
    }
    for p in 0..5 {
        g.insert(&random_triple(&(4, p, p)));
    }
    for c in 0..5 {
        g.insert(&random_triple(&(4, 4, c)));
    }
    g
}

/// Apply each batch to a maintained database and call `check` with the
/// report and the saturated store and data before and after it.
fn each_batch(
    desc: &SchemaDesc,
    script: &[(Vec<Op>, Vec<Op>)],
    mut check: impl FnMut(
        &UpdateReport,
        &mut RdfDatabase,
        [&[TripleId]; 2],
        [&FxHashSet<TripleId>; 2],
    ) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let mut db = maintained(random_graph(desc));
    for (ins, del) in script {
        let inserts: Vec<Triple> = ins.iter().map(random_triple).collect();
        let deletes: Vec<Triple> = del.iter().map(random_triple).collect();
        let (sat_before, data_before) = (merged(db.saturated_store(), Perm::Spo), data_of(&db));
        let report = db.apply_data_updates(&inserts, &deletes);
        prop_assert!(report.incremental && report.saturation_maintained, "{:?}", report);
        let (sat_after, data_after) = (merged(db.saturated_store(), Perm::Spo), data_of(&db));
        check(&report, &mut db, [&sat_before, &sat_after], [&data_before, &data_after])?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn incremental_database_equals_fresh_database(script in batches()) {
        // Once with the saturated store left lazy (the Saturation
        // answers below build it), once with it maintained by every
        // batch.
        for maintain in [false, true] {
            // Path A: incremental absorption.
            let mut inc = db_of(base_graph());
            inc.enable_plan_cache(16);
            inc.prepare();
            if maintain {
                inc.saturated_store();
            }
            for (ins, del) in &script {
                let inserts: Vec<Triple> = ins.iter().map(op_triple).collect();
                let deletes: Vec<Triple> = del.iter().map(op_triple).collect();
                let report = inc.apply_data_updates(&inserts, &deletes);
                prop_assert!(report.incremental, "vocabulary is pre-declared");
                prop_assert_eq!(report.saturation_maintained, maintain);
                if maintain {
                    assert_disjoint(inc.saturated_store());
                }
            }

            // Path B: fresh database over the final state, kept as a
            // model of the data beside the batches.
            let (schema, seed): (Vec<Triple>, Vec<Triple>) =
                base_triples().into_iter().partition(is_schema);
            let mut model: HashSet<Triple> = seed.into_iter().collect();
            for (ins, del) in &script {
                model.extend(ins.iter().map(op_triple));
                for op in del {
                    model.remove(&op_triple(op));
                }
            }
            let mut final_graph = Graph::new();
            final_graph.extend(&schema);
            final_graph.extend(&model);
            let mut fresh = db_of(final_graph);

            for (qi, qf) in queries(&mut inc).iter().zip(queries(&mut fresh).iter()) {
                for s in [Answering::Saturation, Answering::Ucq, Answering::gcov_default()] {
                    let a = inc.answer(qi, &s).unwrap().rows;
                    let b = fresh.answer(qf, &s).unwrap().rows;
                    let decode = |db: &RdfDatabase, r: &jucq_store::Relation| {
                        let mut v: Vec<Vec<String>> = db
                            .decode_rows(r)
                            .into_iter()
                            .map(|row| row.iter().map(ToString::to_string).collect())
                            .collect();
                        v.sort();
                        v
                    };
                    prop_assert_eq!(
                        decode(&inc, &a),
                        decode(&fresh, &b),
                        "strategy {} diverged (saturated store maintained: {})",
                        s.name(),
                        maintain
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn maintained_equals_full_resaturation(desc in schema_desc(), script in random_batches()) {
        each_batch(&desc, &script, |_, db, _, _| {
            let want = from_scratch(db);
            let differs = differing_index(db.saturated_store(), &want);
            prop_assert!(differs.is_none(), "{:?} differs from a from-scratch build", differs);
            Ok(())
        })?;
    }

    #[test]
    fn deltas_partition_the_saturation_change(desc in schema_desc(), script in random_batches()) {
        each_batch(&desc, &script, |report, _, [before, after], [data_before, data_after]| {
            // The stores' differences, less the data triples the batch
            // inserted or deleted.
            let added = after
                .iter()
                .filter(|t| before.binary_search(t).is_err() && !data_after.contains(t))
                .count();
            let removed = before
                .iter()
                .filter(|t| after.binary_search(t).is_err() && !data_before.contains(t))
                .count();
            prop_assert_eq!(report.entailed_added, added, "{:?}", report);
            prop_assert_eq!(report.entailed_removed, removed, "{:?}", report);
            let net = |after: usize, before: usize| after as i64 - before as i64;
            prop_assert_eq!(net(report.inserted, report.deleted), net(data_after.len(), data_before.len()));
            Ok(())
        })?;
    }
}

/// One operation of a batch that may leave the vocabulary: `(kind, s,
/// a, b)` is a data triple `(e{s} p{a} e{b})` for kind 0–3, a type
/// triple `(e{s} a C{a})` for kind 4–5, `C{a} ⊑ C{b}` for kind 6, and for
/// kind 7 `p{a} ⊑ p{b}`, `dom(p{a}) = C{b}` or `rng(p{a}) = C{b}` by
/// `s`. Classes C5, C6 and properties p4, p5 are outside
/// [`random_graph`]'s vocabulary.
type VocabOp = (usize, usize, usize, usize);

/// How a batch is applied: through `apply_data_updates` in vocabulary
/// (0), with new classes and properties (1), with schema statements too
/// (2), or its inserts through `extend` (3).
type VocabBatch = (usize, Vec<VocabOp>, Vec<VocabOp>);

fn vocab_batches() -> impl Strategy<Value = Vec<VocabBatch>> {
    let op = || (0usize..8, 0usize..4, 0usize..7, 0usize..7);
    proptest::collection::vec(
        (0usize..4, proptest::collection::vec(op(), 0..6), proptest::collection::vec(op(), 0..6)),
        1..7,
    )
}

fn vocab_triple(mode: usize, &(kind, s, a, b): &VocabOp) -> Triple {
    let t = |s: String, p: &str, o: String| Triple::new(Term::uri(s), Term::uri(p), Term::uri(o));
    // In vocabulary: data triples over p0..p3 and C0..C4 only.
    let (kind, a) = match mode {
        0 => (kind % 6, if kind % 6 < 4 { a % 4 } else { a % 5 }),
        1 => (kind % 6, a),
        _ => (kind, a),
    };
    match kind {
        0..=3 => t(format!("e{s}"), &format!("p{}", a % 6), format!("e{}", b % 4)),
        4 | 5 => t(format!("e{s}"), vocab::RDF_TYPE, format!("C{a}")),
        6 => t(format!("C{a}"), vocab::RDFS_SUBCLASS_OF, format!("C{b}")),
        _ => match s % 3 {
            0 => t(format!("p{}", a % 6), vocab::RDFS_SUBPROPERTY_OF, format!("p{}", b % 6)),
            1 => t(format!("p{}", a % 6), vocab::RDFS_DOMAIN, format!("C{b}")),
            _ => t(format!("p{}", a % 6), vocab::RDFS_RANGE, format!("C{b}")),
        },
    }
}

/// A closure as data: its class and property universe, and the
/// relations of every class and property `schema` declares (no other
/// term has any).
#[derive(Debug, PartialEq)]
struct ClosureView {
    universe: [Vec<TermId>; 2],
    relations: Vec<Vec<TermId>>,
}

fn closure_view(closure: &SchemaClosure, schema: &Schema) -> ClosureView {
    let sorted = |set: FxHashSet<TermId>| {
        let mut v: Vec<TermId> = set.into_iter().collect();
        v.sort();
        v
    };
    let mut relations = Vec::new();
    for c in sorted(schema.declared_classes()) {
        relations.extend([closure.sub_classes(c), closure.super_classes(c)].map(<[_]>::to_vec));
        relations.extend(
            [closure.properties_with_domain(c), closure.properties_with_range(c)]
                .map(<[_]>::to_vec),
        );
    }
    for p in sorted(schema.declared_properties()) {
        relations
            .extend([closure.sub_properties(p), closure.super_properties(p)].map(<[_]>::to_vec));
        relations.extend([closure.domains(p), closure.ranges(p)].map(<[_]>::to_vec));
    }
    ClosureView { universe: [closure.classes().to_vec(), closure.properties().to_vec()], relations }
}

/// The decoded, sorted answers of `queries` under the four strategies.
fn all_answers(db: &mut RdfDatabase, queries: &[&str]) -> Vec<Vec<Vec<Term>>> {
    let mut out = Vec::new();
    for text in queries {
        let q = db.parse_query(text).expect("query parses");
        for s in [Answering::Saturation, Answering::Ucq, Answering::Scq, Answering::gcov_default()]
        {
            let r = db.answer(&q, &s).unwrap_or_else(|e| panic!("{} {text}: {e}", s.name()));
            let mut rows = db.decode_rows(&r.rows);
            rows.sort();
            out.push(rows);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn every_batch_publishes_what_a_from_scratch_build_would(
        desc in schema_desc(),
        script in vocab_batches(),
        maintain in any::<bool>(),
    ) {
        let graph = random_graph(&desc);
        let mut model: HashSet<Triple> = graph.data().iter().map(|t| graph.decode(t)).collect();
        let mut db = db_of(graph);
        db.enable_plan_cache(16);
        db.prepare();
        if maintain {
            db.saturated_store();
        }
        let queries = [
            "SELECT ?x WHERE { ?x a <C0> }",
            "SELECT ?x ?y WHERE { ?x <p0> ?y }",
            "SELECT ?x ?c WHERE { ?x a ?c . ?x <p1> ?y }",
            "SELECT ?x ?p WHERE { ?x ?p <e1> }",
        ];
        for (mode, ins, del) in &script {
            let inserts: Vec<Triple> = ins.iter().map(|op| vocab_triple(*mode, op)).collect();
            // `extend` only inserts.
            let deletes: Vec<Triple> =
                del.iter().filter(|_| *mode != 3).map(|op| vocab_triple(*mode, op)).collect();
            let schema = db.graph().schema().clone();
            let before = closure_view(db.closure(), &schema);
            // The model: schema statements aside, the inserts, then the
            // deletes of the data after them.
            let inserted = inserts.iter().filter(|t| !is_schema(t) && model.insert((*t).clone())).count();
            let deleted = deletes.iter().filter(|t| model.remove(t)).count();
            let report = if *mode == 3 {
                db.extend(&inserts);
                None
            } else {
                Some(db.apply_data_updates(&inserts, &deletes))
            };
            prop_assert!(db.graph().is_empty(), "the data went back to the graph");
            let data: HashSet<Triple> = db.to_graph().data().iter().map(|t| db.graph().decode(t)).collect();
            prop_assert_eq!(&data, &model);

            let mut fresh = db_of(db.to_graph());
            let differs = differing_index(db.plain_store(), fresh.plain_store());
            prop_assert!(differs.is_none(), "plain: {:?} differs from a from-scratch build", differs);
            prop_assert_eq!(db.data_len(), fresh.data_len(), "the same schema triples beside the data");
            let schema = db.graph().schema().clone();
            let after = closure_view(db.closure(), &schema);
            let want = closure_view(fresh.closure(), &schema);
            prop_assert_eq!(&after.relations, &want.relations);
            let changed = after != before;
            if let Some(report) = &report {
                prop_assert_eq!((report.inserted, report.deleted), (inserted, deleted), "{:?}", report);
                let carries_schema = inserts.iter().chain(&deletes).any(is_schema);
                prop_assert_eq!(!report.incremental, changed || carries_schema, "{:?}", report);
            }
            // Carried or recomputed, the closure observes the data as a
            // fresh one does: a batch that empties an undeclared class or
            // property recomputes it.
            prop_assert_eq!(&after.universe, &want.universe);
            if maintain {
                let differs = differing_index(db.saturated_store(), fresh.saturated_store());
                prop_assert!(differs.is_none(), "saturated: {:?} differs from a from-scratch build", differs);
            }
            prop_assert_eq!(all_answers(&mut db, &queries), all_answers(&mut fresh, &queries));
        }
    }
}

/// The paper's running example: `Book ⊑ Publication`, `writtenBy ⊑
/// hasAuthor`, `dom(writtenBy) = Book`, `rng(writtenBy) = Person`, with
/// `data` as its data triples.
fn paper_db(data: &[(&str, &str, &str)]) -> RdfDatabase {
    let mut g = Graph::new();
    let t = |s: &str, p: &str, o: &str| Triple::new(Term::uri(s), Term::uri(p), Term::uri(o));
    g.extend(&[
        t("Book", vocab::RDFS_SUBCLASS_OF, "Publication"),
        t("writtenBy", vocab::RDFS_SUBPROPERTY_OF, "hasAuthor"),
        t("writtenBy", vocab::RDFS_DOMAIN, "Book"),
        t("writtenBy", vocab::RDFS_RANGE, "Person"),
    ]);
    g.extend(&triples(data));
    maintained(g)
}

fn triples(list: &[(&str, &str, &str)]) -> Vec<Triple> {
    let property = |p| if p == "type" { vocab::RDF_TYPE } else { p };
    list.iter()
        .map(|&(s, p, o)| Triple::new(Term::uri(s), Term::uri(property(p)), Term::uri(o)))
        .collect()
}

/// Apply a batch to a maintained database, check the store against a
/// from-scratch build, and return the report.
fn update(
    db: &mut RdfDatabase,
    ins: &[(&str, &str, &str)],
    del: &[(&str, &str, &str)],
) -> UpdateReport {
    let report = db.apply_data_updates(&triples(ins), &triples(del));
    assert!(report.incremental && report.saturation_maintained, "{report:?}");
    let want = from_scratch(db);
    let differs = differing_index(db.saturated_store(), &want);
    assert!(differs.is_none(), "{differs:?} differs from a from-scratch build");
    report
}

/// True iff the saturated store holds the triple.
fn holds(db: &mut RdfDatabase, triple: (&str, &str, &str)) -> bool {
    let t = &triples(&[triple])[0];
    let d = db.graph().dict();
    let (Some(s), Some(p), Some(o)) = (d.lookup(&t.s), d.lookup(&t.p), d.lookup(&t.o)) else {
        return false;
    };
    db.saturated_store().tables().count(&[Some(s), Some(p), Some(o)]) == 1
}

fn counts(r: &UpdateReport) -> [usize; 4] {
    [r.inserted, r.deleted, r.entailed_added, r.entailed_removed]
}

#[test]
fn a_shared_derivation_survives_a_partial_delete() {
    // Both writtenBy triples derive (doi type Book): deleting one keeps it.
    let mut db = paper_db(&[("doi", "writtenBy", "a1"), ("doi", "writtenBy", "a2")]);
    let report = update(&mut db, &[], &[("doi", "writtenBy", "a1")]);
    assert!(holds(&mut db, ("doi", "type", "Book")), "the second derivation still stands");
    assert!(!holds(&mut db, ("a1", "type", "Person")));
    // (doi hasAuthor a1) and (a1 type Person) went.
    assert_eq!(counts(&report), [0, 1, 0, 2]);
    let report = update(&mut db, &[], &[("doi", "writtenBy", "a2")]);
    assert!(!holds(&mut db, ("doi", "type", "Book")), "the last derivation is gone");
    assert!(!holds(&mut db, ("doi", "type", "Publication")));
    assert_eq!(counts(&report), [0, 1, 0, 4]);
}

#[test]
fn an_explicit_triple_survives_losing_its_derivations() {
    let mut db = paper_db(&[("doi", "writtenBy", "a1"), ("doi", "type", "Book")]);
    let report = update(&mut db, &[], &[("doi", "writtenBy", "a1")]);
    assert!(holds(&mut db, ("doi", "type", "Book")), "still asserted");
    assert!(holds(&mut db, ("doi", "type", "Publication")), "derived from the asserted type");
    assert_eq!(counts(&report), [0, 1, 0, 2]);
}

#[test]
fn a_self_loop_with_equal_domain_and_range_derives_its_type_once() {
    // (s p s) with dom(p) = rng(p) = C derives (s type C) twice; one
    // delete removes it.
    let mut g = Graph::new();
    let t = |s: &str, p: &str, o: &str| Triple::new(Term::uri(s), Term::uri(p), Term::uri(o));
    g.extend(&[t("p", vocab::RDFS_DOMAIN, "C"), t("p", vocab::RDFS_RANGE, "C"), t("s", "p", "s")]);
    let mut db = maintained(g);
    assert!(holds(&mut db, ("s", "type", "C")));
    let report = update(&mut db, &[], &[("s", "p", "s")]);
    assert!(!holds(&mut db, ("s", "type", "C")));
    assert_eq!(counts(&report), [0, 1, 0, 1]);
    assert_eq!(db.data_len(), 0);
    assert_eq!(db.saturated_store().tables().len(), db.plain_store().tables().len(), "schema only");
}

#[test]
fn emptying_an_undeclared_class_or_property_recomputes_the_closure() {
    // Novel and publishedIn are in the closure's universe through their
    // data alone; writtenBy is declared by the schema.
    let mut db = paper_db(&[
        ("doi", "writtenBy", "a1"),
        ("doi", "publishedIn", "y1996"),
        ("doi", "type", "Novel"),
        ("doi2", "type", "Novel"),
    ]);
    let [novel, published_in, written_by] =
        ["Novel", "publishedIn", "writtenBy"].map(|u| db.intern_uri(u));
    assert!(db.closure().classes().contains(&novel));
    assert!(db.closure().properties().contains(&published_in));
    // One of two Novel triples: the class keeps data, the closure carries.
    update(&mut db, &[], &[("doi2", "type", "Novel")]);
    assert!(db.closure().classes().contains(&novel));
    // The last one, then the last publishedIn triple: each recomputes.
    for (last, gone) in
        [(("doi", "type", "Novel"), novel), (("doi", "publishedIn", "y1996"), published_in)]
    {
        let report = db.apply_data_updates(&[], &triples(&[last]));
        assert!(!report.incremental && report.deleted == 1, "{report:?}");
        let closure = db.closure();
        assert!(!closure.classes().contains(&gone) && !closure.properties().contains(&gone));
        db.saturated_store();
    }
    // The last writtenBy triple: declared, so carried and kept.
    update(&mut db, &[], &[("doi", "writtenBy", "a1")]);
    assert!(db.closure().properties().contains(&written_by));
}

#[test]
fn duplicate_inserts_and_phantom_deletes_change_nothing() {
    let mut db = paper_db(&[("doi", "writtenBy", "a1")]);
    let before = db.saturated_store().clone();
    // An insert of a present triple, a delete of an absent one, and a
    // delete of a triple that is only entailed.
    let report = update(
        &mut db,
        &[("doi", "writtenBy", "a1")],
        &[("x", "writtenBy", "y"), ("doi", "type", "Publication")],
    );
    assert_eq!(counts(&report), [0, 0, 0, 0]);
    assert_eq!(differing_index(db.saturated_store(), &before), None);
}

#[test]
fn an_empty_schema_entails_nothing() {
    let mut g = Graph::new();
    g.insert(&Triple::new(Term::uri("a"), Term::uri("p"), Term::uri("b")));
    let mut db = maintained(g);
    let report = update(&mut db, &[("c", "p", "d")], &[("a", "p", "b")]);
    assert_eq!(counts(&report), [1, 1, 0, 0]);
    let plain = db.plain_store().clone();
    assert_eq!(differing_index(db.saturated_store(), &plain), None, "saturated = plain");
}

#[test]
fn an_insert_of_the_same_batch_keeps_a_derivation_alive() {
    // The delete is checked against the plain store after the batch,
    // where (doi writtenBy a2) derives (doi type Book).
    let mut db = paper_db(&[("doi", "writtenBy", "a1")]);
    let report = update(&mut db, &[("doi", "writtenBy", "a2")], &[("doi", "writtenBy", "a1")]);
    assert!(holds(&mut db, ("doi", "type", "Book")));
    assert!(holds(&mut db, ("doi", "type", "Publication")));
    assert!(holds(&mut db, ("a2", "type", "Person")) && !holds(&mut db, ("a1", "type", "Person")));
    // (doi hasAuthor a2) and (a2 type Person) came; the same for a1 went.
    assert_eq!(counts(&report), [1, 1, 2, 2]);
}

#[test]
fn a_triple_inserted_and_deleted_in_one_batch_leaves_no_trace() {
    let mut db = paper_db(&[("doi", "writtenBy", "a1")]);
    let before = db.saturated_store().clone();
    let t = [("doi2", "writtenBy", "a2")];
    let report = update(&mut db, &t, &t);
    // Counted as inserted and deleted; the saturation did not move.
    assert_eq!(counts(&report), [1, 1, 0, 0]);
    assert_eq!(differing_index(db.saturated_store(), &before), None);
}

#[test]
fn schema_triples_neither_keep_nor_lose_entailments() {
    // `onto ⊑ rdfs:subClassOf` and `dom(rdfs:subClassOf) = Class`: the
    // data triple (A onto B) derives the schema triple (A subClassOf B)
    // and (A type Class). Deleting it keeps the schema triple, and the
    // schema triple, though it matches (A subClassOf *), does not keep
    // (A type Class): the saturation derives from the data alone.
    let mut g = Graph::new();
    let t = |s: &str, p: &str, o: &str| Triple::new(Term::uri(s), Term::uri(p), Term::uri(o));
    g.extend(&[
        t("A", vocab::RDFS_SUBCLASS_OF, "B"),
        t("onto", vocab::RDFS_SUBPROPERTY_OF, vocab::RDFS_SUBCLASS_OF),
        t(vocab::RDFS_SUBCLASS_OF, vocab::RDFS_DOMAIN, "Class"),
        t("A", "onto", "B"),
    ]);
    let mut db = maintained(g);
    assert!(holds(&mut db, ("A", "type", "Class")));
    let report = update(&mut db, &[], &[("A", "onto", "B")]);
    assert!(holds(&mut db, ("A", vocab::RDFS_SUBCLASS_OF, "B")));
    assert!(!holds(&mut db, ("A", "type", "Class")));
    assert_eq!(counts(&report), [0, 1, 0, 1]);
}
