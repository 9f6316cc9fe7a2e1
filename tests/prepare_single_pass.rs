//! Preparation builds the plain store, and the snapshot builds the
//! saturated store on first use from it (`saturated_store()` forces
//! that build here). However it is built, the saturated store must hold
//! exactly `saturate_with(data) ∪ schema_triples`, and the plain store
//! exactly `data ∪ schema_triples` — index by index, on the two
//! benchmark generators and on fifty generated fuzz schemas.

use jucq_core::RdfDatabase;
use jucq_datagen::{dblp, lubm};
use jucq_model::{Graph, TripleId};
use jucq_optimizer::CostConstants;
use jucq_reformulation::saturation::{saturate_with, schema_triples};
use jucq_store::{EngineProfile, Perm, Store};

/// Every index of `store`, merged across its layers, against `want`,
/// sorted under each permutation. A triple in two layers would show
/// twice in the merge.
fn assert_indexes(store: &Store, mut want: Vec<TripleId>, what: &str) {
    want.sort_unstable();
    want.dedup();
    for perm in Perm::ALL {
        let mut sorted = want.clone();
        sorted.sort_unstable_by_key(|t| perm.key(t));
        let got: Vec<TripleId> = store.tables().merged(perm).flatten().copied().collect();
        assert_eq!(got.len(), sorted.len(), "{what}: {perm:?} holds another number of triples");
        assert!(got == sorted, "{what}: {perm:?} differs from the reference");
    }
}

fn check(graph: Graph, what: &str) {
    let mut data = graph.data().to_vec();
    let mut db = RdfDatabase::from_graph(graph, EngineProfile::pg_like());
    db.set_cost_constants(CostConstants::default());
    db.prepare();
    let closure = db.closure().clone();
    let rdf_type = db.rdf_type();
    // Preparation interned the schema vocabulary, so a copy of the
    // graph gives the same ids; it holds the data the writer started
    // with.
    let mut graph = db.to_graph();
    data.sort_unstable();
    assert_eq!(graph.data(), &data[..], "{what}: the prepared writer's data");
    let schema = schema_triples(&mut graph, &closure);

    let mut saturated = saturate_with(graph.data(), &closure, rdf_type);
    saturated.extend_from_slice(&schema);
    assert_indexes(db.saturated_store(), saturated, &format!("{what} saturated"));
    let mut plain = graph.data().to_vec();
    plain.extend_from_slice(&schema);
    assert_indexes(db.plain_store(), plain, &format!("{what} plain"));
}

#[test]
fn lubm_like_1() {
    check(lubm::generate(&lubm::LubmConfig::new(1)), "LUBM-like 1");
}

#[test]
fn dblp_like_2000() {
    check(dblp::generate(&dblp::DblpConfig::new(2000)), "DBLP-like 2000");
}

#[test]
fn fifty_generated_schemas() {
    for seed in 0..50 {
        let mut graph = Graph::new();
        graph.extend(&jucq_qa::gen_case(seed).triples);
        check(graph, &format!("generated case {seed}"));
    }
}
