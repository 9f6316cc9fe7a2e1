//! Shared set-up of the cold-path identity tests: the workload
//! databases, the fragments of their queries, and the reference kernels.

#![allow(dead_code)]

pub mod reference;

use jucq_core::RdfDatabase;
use jucq_datagen::{dblp, lubm, NamedQuery};
use jucq_model::{Graph, SchemaClosure, TermId};
use jucq_reformulation::{AtomMask, BgpQuery, VarMask};
use jucq_store::EngineProfile;

/// The reformulation cap of a cover search under `pg_like`: one past its
/// union-term limit (a fragment past it costs `+∞`).
pub const REFORMULATION_LIMIT: usize = 100_001;

/// One workload: its database and its parsed queries.
pub struct Workload {
    pub name: &'static str,
    pub db: RdfDatabase,
    pub closure: SchemaClosure,
    pub rdf_type: TermId,
    pub queries: Vec<(String, BgpQuery)>,
}

fn workload(name: &'static str, graph: Graph, queries: Vec<NamedQuery>) -> Workload {
    let mut db = RdfDatabase::from_graph(graph, EngineProfile::pg_like());
    let queries = (queries.into_iter())
        .map(|nq| {
            let q = db.parse_query(&nq.sparql).expect("workload queries parse");
            (nq.name, q)
        })
        .collect();
    let closure = db.closure().clone();
    let rdf_type = db.rdf_type();
    Workload { name, db, closure, rdf_type, queries }
}

/// The LUBM-like (1 university) and DBLP-like (200 authors) workloads.
pub fn workloads() -> Vec<Workload> {
    vec![
        workload("lubm1", lubm::generate(&lubm::LubmConfig::new(1)), lubm::workload()),
        workload("dblp200", dblp::generate(&dblp::DblpConfig::new(200)), dblp::workload()),
    ]
}

/// Every fragment of `q` a cover can hold — every connected atom set —
/// with its two heads: the complement head a cover search scores it
/// under first, and the head of all its variables.
pub fn fragments(q: &BgpQuery) -> Vec<(AtomMask, [VarMask; 2])> {
    let masks = q.atom_masks().expect("workload queries fit the mask width");
    (1..=masks.full())
        .filter(|&f| masks.connected(f))
        .map(|f| (f, [masks.complement_head(f), masks.vars_of(f)]))
        .collect()
}
