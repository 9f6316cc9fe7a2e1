//! The saturated store is two layers — the plain store's own table and
//! an entailed layer of what saturation adds to it — and must read as
//! the one table a from-scratch build over the whole saturation would
//! be: the same scans (as sets), counts, value-range scans, cursor seeks
//! and statistics, for every bound mask and value range, on random data
//! over random schemas (deep and diamond hierarchies, domains and ranges
//! on superproperties). Its layers must be disjoint, and its bottom
//! layer must be the plain store's table itself, not a copy.

use std::sync::Arc;

use proptest::prelude::*;

use jucq_core::RdfDatabase;
use jucq_model::{vocab, Graph, Term, TermId, Triple, TripleId};
use jucq_optimizer::CostConstants;
use jucq_reformulation::saturation::{saturate_with, schema_triples};
use jucq_store::{EngineProfile, Perm, RangePos, Runs, Store};

const CLASSES: usize = 6;
const PROPERTIES: usize = 5;
const ENTITIES: usize = 8;

/// A `rdfs:subClassOf` or `rdfs:subPropertyOf` edge, sub first.
type Edge = (usize, usize);

/// A schema: a fixed hierarchy shape plus random edges over classes
/// C0..C5 and properties p0..p4; domains and ranges may sit on any
/// property, superproperties included.
#[derive(Debug, Clone)]
struct SchemaDesc {
    shape: usize,
    subclass: Vec<(usize, usize)>,
    subprop: Vec<(usize, usize)>,
    domain: Vec<(usize, usize)>,
    range: Vec<(usize, usize)>,
}

impl SchemaDesc {
    /// The shape's own edges: none, a deep chain (C5 ⊑ … ⊑ C0 and
    /// p4 ⊑ … ⊑ p0), or diamonds (C3 under C1 and C2 under C0; p2 under
    /// p0 and p1).
    fn shape_edges(&self) -> (Vec<Edge>, Vec<Edge>) {
        match self.shape {
            1 => (
                (1..CLASSES).map(|c| (c, c - 1)).collect(),
                (1..PROPERTIES).map(|p| (p, p - 1)).collect(),
            ),
            2 => {
                (vec![(3, 1), (3, 2), (1, 0), (2, 0), (5, 3), (4, 3)], vec![(2, 0), (2, 1), (3, 2)])
            }
            _ => (Vec::new(), Vec::new()),
        }
    }
}

fn schema_desc() -> impl Strategy<Value = SchemaDesc> {
    let pair = |a: usize, b: usize| proptest::collection::vec((0..a, 0..b), 0..4);
    (
        0usize..3,
        pair(CLASSES, CLASSES),
        pair(PROPERTIES, PROPERTIES),
        pair(PROPERTIES, CLASSES),
        pair(PROPERTIES, CLASSES),
    )
        .prop_map(|(shape, subclass, subprop, domain, range)| SchemaDesc {
            shape,
            subclass,
            subprop,
            domain,
            range,
        })
}

/// A data triple: property index `PROPERTIES` types the subject with
/// class `o`; otherwise the object is an entity, or a literal one time
/// in five (`kind` 0).
type Op = (usize, usize, usize, u8);

fn data() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0..ENTITIES, 0..=PROPERTIES, 0..ENTITIES, 0u8..5), 0..40)
}

fn graph(desc: &SchemaDesc, ops: &[Op]) -> Graph {
    let mut g = Graph::new();
    let t = |s: String, p: &str, o: String| Triple::new(Term::uri(s), Term::uri(p), Term::uri(o));
    let (chain_c, chain_p) = desc.shape_edges();
    for &(a, b) in chain_c.iter().chain(&desc.subclass) {
        g.insert(&t(format!("C{a}"), vocab::RDFS_SUBCLASS_OF, format!("C{b}")));
    }
    for &(a, b) in chain_p.iter().chain(&desc.subprop) {
        g.insert(&t(format!("p{a}"), vocab::RDFS_SUBPROPERTY_OF, format!("p{b}")));
    }
    for &(p, c) in &desc.domain {
        g.insert(&t(format!("p{p}"), vocab::RDFS_DOMAIN, format!("C{c}")));
    }
    for &(p, c) in &desc.range {
        g.insert(&t(format!("p{p}"), vocab::RDFS_RANGE, format!("C{c}")));
    }
    for &(s, p, o, kind) in ops {
        let subject = Term::uri(format!("e{s}"));
        let triple = if p == PROPERTIES {
            Triple::new(subject, Term::uri(vocab::RDF_TYPE), Term::uri(format!("C{}", o % CLASSES)))
        } else if kind == 0 {
            Triple::new(subject, Term::uri(format!("p{p}")), Term::literal(format!("l{o}")))
        } else {
            Triple::new(subject, Term::uri(format!("p{p}")), Term::uri(format!("e{o}")))
        };
        g.insert(&triple);
    }
    g
}

/// The prepared database's saturated store, and a one-table store built
/// from scratch over `saturate_with(data) ∪ schema_triples`.
fn stores(g: Graph) -> (Store, Store, Store) {
    let mut db = RdfDatabase::from_graph(g, EngineProfile::pg_like());
    db.set_cost_constants(CostConstants::default());
    db.prepare();
    let (closure, rdf_type) = (db.closure().clone(), db.rdf_type());
    let mut graph = db.to_graph();
    let schema = schema_triples(&mut graph, &closure);
    let mut all = saturate_with(graph.data(), &closure, rdf_type);
    all.extend_from_slice(&schema);
    all.sort_unstable();
    all.dedup();
    let single = Store::from_triples(&all, EngineProfile::pg_like());
    (db.saturated_store().clone(), db.plain_store().clone(), single)
}

fn sorted(runs: Runs<'_>) -> Vec<TripleId> {
    let mut v: Vec<TripleId> = runs.iter().copied().collect();
    v.sort_unstable();
    v
}

fn sorted_slice(triples: &[TripleId]) -> Vec<TripleId> {
    let mut v = triples.to_vec();
    v.sort_unstable();
    v
}

/// Every term of `store` plus one id it does not hold, in ascending
/// raw order: the values lookups bind and ranges end at.
fn probe_values(store: &Store) -> Vec<TermId> {
    let mut ids: Vec<TermId> = store.table().all().iter().flat_map(|t| [t.s, t.p, t.o]).collect();
    ids.sort_unstable_by_key(|id| id.raw());
    ids.dedup();
    if let Some(last) = ids.last() {
        ids.push(TermId::from_raw(last.raw() + 1));
    }
    ids
}

fn check(layered: &Store, plain: &Store, single: &Store) -> Result<(), TestCaseError> {
    let layers = layered.tables().layers();
    prop_assert_eq!(layers.len(), 2);
    prop_assert!(
        Arc::ptr_eq(&layers[0], &plain.tables().layers()[0]),
        "the plain store's table is shared"
    );
    let merged_spo: Vec<TripleId> = layered.tables().merged(Perm::Spo).flatten().copied().collect();
    prop_assert!(merged_spo.windows(2).all(|w| w[0] < w[1]), "a triple is in two layers");
    for perm in Perm::ALL {
        let merged: Vec<TripleId> = layered.tables().merged(perm).flatten().copied().collect();
        prop_assert!(merged == single.table().sorted_by(perm), "merged {:?} differs", perm);
    }
    prop_assert_eq!(layered.tables().len(), single.table().len());
    prop_assert_eq!(layered.stats(), single.stats());

    let (tables, table) = (layered.tables(), single.table());
    let values = probe_values(single);
    for mask in 0u8..8 {
        let shape: [bool; 3] = std::array::from_fn(|i| mask & (1 << i) != 0);
        // Every other lookup binds the positions of a stored triple, in
        // SPO order, so that it matches; the rest rotate through the
        // values at a different pace per position, so multi-column keys
        // ascend, repeat and fall back.
        let stored = table.all();
        let bound_at = |k: usize| -> [Option<TermId>; 3] {
            let t = stored.get(k / 2).filter(|_| k.is_multiple_of(2));
            std::array::from_fn(|i| {
                let rotated = values[(k * (i + 1) + i) % values.len()];
                shape[i].then(|| t.map_or(rotated, |t| [t.s, t.p, t.o][i]))
            })
        };
        let mut cursor = tables.probe_cursor(shape, None);
        for k in 0..2 * values.len().max(stored.len()) {
            let bound = bound_at(k);
            let want = table.scan(&bound);
            prop_assert_eq!(tables.count(&bound), want.len(), "count {:?}", bound);
            prop_assert_eq!(sorted(tables.scan(&bound)), sorted_slice(want), "scan {:?}", bound);
            prop_assert_eq!(sorted(cursor.seek(&bound)), sorted_slice(want), "seek {:?}", bound);
        }
        for ranged in [RangePos::Predicate, RangePos::Object] {
            if shape[if ranged == RangePos::Predicate { 1 } else { 2 }] {
                continue;
            }
            let mut cursor = tables.probe_cursor(shape, Some(ranged));
            for k in 0..2 * values.len().max(stored.len()) {
                let bound = bound_at(k);
                let lo = values[k % values.len()].raw();
                for hi in [lo, lo + 1, lo + 3, values[(k * 7) % values.len()].raw(), u32::MAX] {
                    let want = table.scan_value_range(&bound, ranged, lo, hi);
                    let what = (bound, ranged, lo, hi);
                    prop_assert_eq!(
                        tables.count_value_range(&bound, ranged, lo, hi),
                        want.len(),
                        "{:?}",
                        what
                    );
                    let got = tables.scan_value_range(&bound, ranged, lo, hi);
                    prop_assert_eq!(sorted(got), sorted_slice(want), "range scan {:?}", what);
                    let sought = cursor.seek_range(&bound, lo, hi);
                    prop_assert_eq!(sorted(sought), sorted_slice(want), "range seek {:?}", what);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn the_layered_saturated_store_reads_as_one_table(desc in schema_desc(), ops in data()) {
        let (layered, plain, single) = stores(graph(&desc, &ops));
        check(&layered, &plain, &single)?;
    }
}

#[test]
fn a_schema_without_consequences_leaves_the_entailed_layer_empty() {
    let mut g = Graph::new();
    g.insert(&Triple::new(Term::uri("a"), Term::uri("p"), Term::uri("b")));
    let (layered, plain, single) = stores(g);
    assert!(layered.tables().layers()[1].is_empty());
    check(&layered, &plain, &single).unwrap();
}
