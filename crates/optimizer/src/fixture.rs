//! Unit-test scaffolding: a small dataset and the chain of borrows a
//! [`CoverSearch`] is built over.

use jucq_model::{Graph, Term, TermId, Triple};
use jucq_reformulation::reformulate::ReformulationEnv;
use jucq_reformulation::BgpQuery;
use jucq_store::{EngineProfile, PatternTerm, Store, StorePattern, VarId};

use crate::cost::{CostConstants, PaperCostModel};
use crate::search::CoverSearch;

pub(crate) struct Fixture {
    graph: Graph,
    rdf_type: TermId,
    pub store: Store,
}

/// The triple `(s, p, o)` over URIs.
pub(crate) fn triple(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::uri(s), Term::uri(p), Term::uri(o))
}

pub(crate) fn var(v: VarId) -> PatternTerm {
    PatternTerm::Var(v)
}

impl Fixture {
    pub fn new(triples: &[Triple]) -> Self {
        let mut graph = Graph::new();
        graph.extend(triples);
        let rdf_type = graph.rdf_type();
        let store = Store::from_triples(graph.data(), EngineProfile::pg_like());
        Fixture { graph, rdf_type, store }
    }

    /// The atom `(s, p, o)`, `p` a URI of the dataset (or `"a"` for
    /// `rdf:type`).
    pub fn atom(&self, s: PatternTerm, p: &str, o: PatternTerm) -> StorePattern {
        let p = if p == "a" { PatternTerm::Const(self.rdf_type) } else { self.uri(p) };
        StorePattern::new(s, p, o)
    }

    pub fn uri(&self, name: &str) -> PatternTerm {
        PatternTerm::Const(self.graph.dict().lookup(&Term::uri(name)).expect("a dataset URI"))
    }

    pub fn with_env<R>(&self, test: impl FnOnce(ReformulationEnv<'_>) -> R) -> R {
        let closure = self.graph.schema_closure();
        test(ReformulationEnv { closure: &closure, rdf_type: self.rdf_type })
    }

    /// Run `test` on a fresh search over `q` under the paper's model
    /// with default constants.
    pub fn with_search<R>(
        &self,
        q: &BgpQuery,
        test: impl FnOnce(CoverSearch<'_>, &PaperCostModel<'_>) -> R,
    ) -> R {
        let model =
            PaperCostModel::new(self.store.table(), self.store.stats(), CostConstants::default());
        self.with_env(|env| test(CoverSearch::new(q, env, &model), &model))
    }
}
