//! Property-based tests of the paper's core equations, over random
//! schemas, random graphs and random BGP queries:
//!
//! * `q_ref(db) = q(saturate(db))` — reformulation answers equal
//!   saturation answers (soundness + completeness, §2.3);
//! * `q_JUCQ(db) = q(saturate(db))` for every valid cover
//!   (Theorem 3.1), including the SCQ and GCov covers;
//! * saturation is idempotent and monotone.

use proptest::prelude::*;

use jucq_core::{RdfDatabase, Strategy as Answering};
use jucq_model::{vocab, Graph, Term, Triple};
use jucq_reformulation::{BgpQuery, Cover};
use jucq_store::{EngineProfile, PatternTerm, StorePattern, VarId};

const CLASSES: usize = 5;
const PROPS: usize = 4;
const ENTITIES: usize = 8;

fn class_uri(i: usize) -> String {
    format!("http://t/C{i}")
}

fn prop_uri(i: usize) -> String {
    format!("http://t/p{i}")
}

fn entity_uri(i: usize) -> String {
    format!("http://t/e{i}")
}

/// A randomly generated database description.
#[derive(Debug, Clone)]
struct RandomDb {
    subclass: Vec<(usize, usize)>,
    subprop: Vec<(usize, usize)>,
    domain: Vec<(usize, usize)>,
    range: Vec<(usize, usize)>,
    /// (subject entity, property, object entity).
    edges: Vec<(usize, usize, usize)>,
    /// (entity, class) type assertions.
    types: Vec<(usize, usize)>,
}

fn random_db() -> impl Strategy<Value = RandomDb> {
    let subclass = prop::collection::vec((0..CLASSES, 0..CLASSES), 0..5);
    let subprop = prop::collection::vec((0..PROPS, 0..PROPS), 0..4);
    let domain = prop::collection::vec((0..PROPS, 0..CLASSES), 0..4);
    let range = prop::collection::vec((0..PROPS, 0..CLASSES), 0..4);
    let edges = prop::collection::vec((0..ENTITIES, 0..PROPS, 0..ENTITIES), 5..40);
    let types = prop::collection::vec((0..ENTITIES, 0..CLASSES), 0..12);
    (subclass, subprop, domain, range, edges, types).prop_map(
        |(subclass, subprop, domain, range, edges, types)| RandomDb {
            subclass,
            subprop,
            domain,
            range,
            edges,
            types,
        },
    )
}

/// One random atom: positions choose among variables and constants.
#[derive(Debug, Clone)]
enum Pos {
    Var(VarId),
    Entity(usize),
    Class(usize),
}

#[derive(Debug, Clone)]
enum PropPos {
    Var(VarId),
    Prop(usize),
    RdfType,
}

fn random_pos() -> impl Strategy<Value = Pos> {
    prop_oneof![
        (0..4u16).prop_map(Pos::Var),
        (0..ENTITIES).prop_map(Pos::Entity),
        (0..CLASSES).prop_map(Pos::Class),
    ]
}

fn random_prop_pos() -> impl Strategy<Value = PropPos> {
    prop_oneof![
        2 => (0..PROPS).prop_map(PropPos::Prop),
        2 => Just(PropPos::RdfType),
        1 => (0..4u16).prop_map(|v| PropPos::Var(v + 4)),
    ]
}

fn random_query() -> impl Strategy<Value = Vec<(Pos, PropPos, Pos)>> {
    prop::collection::vec((random_pos(), random_prop_pos(), random_pos()), 1..4)
}

fn build_db(desc: &RandomDb) -> RdfDatabase {
    let mut g = Graph::new();
    let t = |s: String, p: String, o: String| Triple::new(Term::uri(s), Term::uri(p), Term::uri(o));
    for &(a, b) in &desc.subclass {
        g.insert(&t(class_uri(a), vocab::RDFS_SUBCLASS_OF.into(), class_uri(b)));
    }
    for &(a, b) in &desc.subprop {
        g.insert(&t(prop_uri(a), vocab::RDFS_SUBPROPERTY_OF.into(), prop_uri(b)));
    }
    for &(p, c) in &desc.domain {
        g.insert(&t(prop_uri(p), vocab::RDFS_DOMAIN.into(), class_uri(c)));
    }
    for &(p, c) in &desc.range {
        g.insert(&t(prop_uri(p), vocab::RDFS_RANGE.into(), class_uri(c)));
    }
    for &(s, p, o) in &desc.edges {
        g.insert(&t(entity_uri(s), prop_uri(p), entity_uri(o)));
    }
    for &(e, c) in &desc.types {
        g.insert(&t(entity_uri(e), vocab::RDF_TYPE.into(), class_uri(c)));
    }
    let profile =
        EngineProfile::pg_like().with_max_union_terms(1_000_000).with_memory_budget(50_000_000);
    let mut db = RdfDatabase::from_graph(g, profile);
    db.set_cost_constants(Default::default());
    db
}

fn build_query(db: &mut RdfDatabase, atoms_desc: &[(Pos, PropPos, Pos)]) -> BgpQuery {
    // Intern constants like the parser would (ids are append-only, so
    // interning after prepare() is fine).
    let mut atoms = Vec::new();
    for (s, p, o) in atoms_desc {
        let s = match s {
            Pos::Var(v) => PatternTerm::Var(*v),
            Pos::Entity(i) => PatternTerm::Const(db.intern_uri(&entity_uri(*i))),
            Pos::Class(i) => PatternTerm::Const(db.intern_uri(&class_uri(*i))),
        };
        let p = match p {
            PropPos::Var(v) => PatternTerm::Var(*v),
            PropPos::Prop(i) => PatternTerm::Const(db.intern_uri(&prop_uri(*i))),
            PropPos::RdfType => PatternTerm::Const(db.intern_uri(vocab::RDF_TYPE)),
        };
        let o = match o {
            Pos::Var(v) => PatternTerm::Var(*v),
            Pos::Entity(i) => PatternTerm::Const(db.intern_uri(&entity_uri(*i))),
            Pos::Class(i) => PatternTerm::Const(db.intern_uri(&class_uri(*i))),
        };
        atoms.push(StorePattern::new(s, p, o));
    }
    // Head: every variable (maximal head keeps the comparison strict).
    let mut head: Vec<VarId> = Vec::new();
    for a in &atoms {
        for v in a.variables() {
            if !head.contains(&v) {
                head.push(v);
            }
        }
    }
    BgpQuery::new(head, atoms)
}

fn sorted(mut r: jucq_store::Relation) -> Vec<Vec<jucq_model::TermId>> {
    r.sort();
    r.to_rows()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn reformulation_equals_saturation(desc in random_db(), qdesc in random_query()) {
        let mut db = build_db(&desc);
        let q = build_query(&mut db, &qdesc);
        // The UCQ cover requires a connected body (no cartesian
        // products inside a fragment); skip disconnected random bodies.
        prop_assume!(Cover::single_fragment(&q).is_ok());
        let sat = sorted(db.answer(&q, &Answering::Saturation).unwrap().rows);
        // The planner runs the UCQ minus the members a sibling contains
        // and with every member cut to its core, so this also holds
        // containment to saturation.
        let ucq = sorted(db.answer(&q, &Answering::Ucq).unwrap().rows);
        prop_assert_eq!(&sat, &ucq, "UCQ differs from saturation for {:?}", q);
    }

    #[test]
    fn every_valid_cover_is_equivalent(desc in random_db(), qdesc in random_query()) {
        let mut db = build_db(&desc);
        let q = build_query(&mut db, &qdesc);
        let sat = sorted(db.answer(&q, &Answering::Saturation).unwrap().rows);
        // SCQ (when the singletons cover is valid).
        if Cover::singletons(&q).is_ok() {
            let scq = sorted(db.answer(&q, &Answering::Scq).unwrap().rows);
            prop_assert_eq!(&sat, &scq, "SCQ differs for {:?}", q);
            let gcov = sorted(db.answer(&q, &Answering::gcov_default()).unwrap().rows);
            prop_assert_eq!(&sat, &gcov, "GCov differs for {:?}", q);
        }
        // All two-fragment covers of 2–3 atom queries, including the
        // OVERLAPPING ones (every pair of incomparable subsets covering
        // all atoms).
        if (2..=3).contains(&q.len()) {
            let n = q.len();
            for a_mask in 1u8..(1 << n) {
                for b_mask in 1u8..(1 << n) {
                    if a_mask | b_mask != (1 << n) - 1 {
                        continue;
                    }
                    if a_mask & b_mask == a_mask || a_mask & b_mask == b_mask {
                        continue; // inclusion: not a valid cover pair
                    }
                    let frag = |m: u8| -> Vec<usize> {
                        (0..n).filter(|i| m & (1 << i) != 0).collect()
                    };
                    if let Ok(cover) = Cover::new(&q, vec![frag(a_mask), frag(b_mask)]) {
                        let rows =
                            sorted(db.answer(&q, &Answering::FixedCover(cover)).unwrap().rows);
                        prop_assert_eq!(
                            &sat,
                            &rows,
                            "cover {:#b}|{:#b} differs for {:?}",
                            a_mask,
                            b_mask,
                            q
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn saturation_is_idempotent_and_monotone(desc in random_db()) {
        let mut g = Graph::new();
        let t = |s: String, p: String, o: String| {
            Triple::new(Term::uri(s), Term::uri(p), Term::uri(o))
        };
        for &(a, b) in &desc.subclass {
            g.insert(&t(class_uri(a), vocab::RDFS_SUBCLASS_OF.into(), class_uri(b)));
        }
        for &(a, b) in &desc.subprop {
            g.insert(&t(prop_uri(a), vocab::RDFS_SUBPROPERTY_OF.into(), prop_uri(b)));
        }
        for &(p, c) in &desc.domain {
            g.insert(&t(prop_uri(p), vocab::RDFS_DOMAIN.into(), class_uri(c)));
        }
        for &(s, p, o) in &desc.edges {
            g.insert(&t(entity_uri(s), prop_uri(p), entity_uri(o)));
        }
        let sat1 = jucq_reformulation::saturate(&mut g);
        // Monotone: contains all explicit data.
        for t in g.data() {
            prop_assert!(sat1.binary_search(t).is_ok());
        }
        // Idempotent.
        let closure = g.schema_closure();
        let rdf_type = g.rdf_type();
        let sat2 = jucq_reformulation::saturation::saturate_with(&sat1, &closure, rdf_type);
        prop_assert_eq!(sat1, sat2);
    }
}
