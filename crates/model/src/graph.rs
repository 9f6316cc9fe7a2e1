//! RDF graphs: a dictionary, a set of data triples and an RDFS schema.
//!
//! Following the DB fragment of RDF (paper Section 2.3), a graph — the
//! paper calls it an *RDF database* — splits into:
//!
//! * **schema triples**: those whose property is one of the four RDFS
//!   constraint properties (kept small and in memory), and
//! * **data triples**: everything else, including `rdf:type` assertions,
//!   destined for the `Triples(s,p,o)` table of the storage layer.

use crate::dict::Dictionary;
use crate::hash::FxHashSet;
use crate::schema::{Schema, SchemaClosure};
use crate::term::Term;
use crate::triple::{TermId, Triple, TripleId};
use crate::vocab;

/// An in-memory RDF graph (the paper's "RDF database `db`").
#[derive(Debug, Default, Clone)]
pub struct Graph {
    dict: Dictionary,
    schema: Schema,
    data: Vec<TripleId>,
    data_set: FxHashSet<TripleId>,
    rdf_type: Option<TermId>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassemble a graph from its parts (used by snapshot loaders).
    /// `data` is deduplicated in place, first occurrences kept, and moved
    /// in; ids must come from `dict`.
    pub fn assemble(dict: Dictionary, schema: Schema, mut data: Vec<TripleId>) -> Self {
        let mut data_set = FxHashSet::with_capacity_and_hasher(data.len(), Default::default());
        data.retain(|&t| data_set.insert(t));
        let rdf_type = dict.lookup_uri(vocab::RDF_TYPE);
        Graph { dict, schema, data, data_set, rdf_type }
    }

    /// Insert a decoded triple, routing it to the schema or the data
    /// part. Returns `true` if the triple was new.
    pub fn insert(&mut self, triple: &Triple) -> bool {
        if let Term::Uri(p) = &triple.p {
            if vocab::is_schema_property(p) {
                let su = self.dict.encode(&triple.s);
                let ob = self.dict.encode(&triple.o);
                return self.insert_schema_constraint(p, su, ob);
            }
        }
        let s = self.dict.encode(&triple.s);
        let p = self.dict.encode(&triple.p);
        let o = self.dict.encode(&triple.o);
        self.insert_data_encoded(TripleId::new(s, p, o))
    }

    fn insert_schema_constraint(&mut self, p: &str, s: TermId, o: TermId) -> bool {
        let list = match p {
            vocab::RDFS_SUBCLASS_OF => &mut self.schema.subclass,
            vocab::RDFS_SUBPROPERTY_OF => &mut self.schema.subproperty,
            vocab::RDFS_DOMAIN => &mut self.schema.domain,
            vocab::RDFS_RANGE => &mut self.schema.range,
            other => unreachable!("not a schema property: {other}"),
        };
        if list.contains(&(s, o)) {
            false
        } else {
            list.push((s, o));
            true
        }
    }

    /// Insert an already-encoded data triple. Returns `true` if new.
    pub fn insert_data_encoded(&mut self, t: TripleId) -> bool {
        if self.data_set.insert(t) {
            self.data.push(t);
            true
        } else {
            false
        }
    }

    /// Hand the data triples over, in insertion order, and free their
    /// membership set: the graph keeps its dictionary and schema.
    pub fn take_data(&mut self) -> Vec<TripleId> {
        self.data_set = FxHashSet::default();
        std::mem::take(&mut self.data)
    }

    /// Bulk-load decoded triples.
    pub fn extend<'a>(&mut self, triples: impl IntoIterator<Item = &'a Triple>) {
        for t in triples {
            self.insert(t);
        }
    }

    /// The dictionary (read access).
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The dictionary (write access; used by loaders and saturation).
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// The declared RDFS constraints.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The data triples, in insertion order.
    pub fn data(&self) -> &[TripleId] {
        &self.data
    }

    /// Number of data triples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the graph holds no data triples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True iff the graph contains the encoded data triple.
    pub fn contains_data(&self, t: &TripleId) -> bool {
        self.data_set.contains(t)
    }

    /// The id of `rdf:type`, interning it on first use.
    pub fn rdf_type(&mut self) -> TermId {
        match self.rdf_type {
            Some(id) => id,
            None => {
                let id = self.dict.encode_uri(vocab::RDF_TYPE);
                self.rdf_type = Some(id);
                id
            }
        }
    }

    /// The id of `rdf:type` if it is already interned.
    pub fn rdf_type_id(&self) -> Option<TermId> {
        self.rdf_type.or_else(|| self.dict.lookup_uri(vocab::RDF_TYPE))
    }

    /// Compute the schema closure, extending the class universe with the
    /// objects of `rdf:type` assertions and the property universe with
    /// the data predicates (needed by the variable-instantiation
    /// reformulation rules; paper Example 4).
    pub fn schema_closure(&self) -> SchemaClosure {
        let rdf_type = self.rdf_type_id();
        let mut classes: FxHashSet<TermId> = FxHashSet::default();
        let mut properties: FxHashSet<TermId> = FxHashSet::default();
        for t in &self.data {
            if Some(t.p) == rdf_type {
                if t.o.is_uri() {
                    classes.insert(t.o);
                }
            } else {
                properties.insert(t.p);
            }
        }
        SchemaClosure::new(&self.schema, classes, properties)
    }

    /// Decode an encoded data triple for display/debugging.
    pub fn decode(&self, t: &TripleId) -> Triple {
        Triple::new(self.dict.decode(t.s), self.dict.decode(t.p), self.dict.decode(t.o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str, p: &str, o: Term) -> Triple {
        Triple::new(Term::uri(s), Term::uri(p), o)
    }

    /// The paper's Example 1 + Example 2 graph.
    fn paper_graph() -> Graph {
        let mut g = Graph::new();
        g.extend(&[
            t("doi1", vocab::RDF_TYPE, Term::uri("Book")),
            t("doi1", "writtenBy", Term::blank("b1")),
            t("doi1", "hasTitle", Term::literal("Game of Thrones")),
            Triple::new(
                Term::blank("b1"),
                Term::uri("hasName"),
                Term::literal("George R. R. Martin"),
            ),
            t("doi1", "publishedIn", Term::literal("1996")),
            t("Book", vocab::RDFS_SUBCLASS_OF, Term::uri("Publication")),
            t("writtenBy", vocab::RDFS_SUBPROPERTY_OF, Term::uri("hasAuthor")),
            t("writtenBy", vocab::RDFS_DOMAIN, Term::uri("Book")),
            t("writtenBy", vocab::RDFS_RANGE, Term::uri("Person")),
        ]);
        g
    }

    #[test]
    fn schema_and_data_are_separated() {
        let g = paper_graph();
        assert_eq!(g.len(), 5, "five data triples");
        assert_eq!(g.schema().len(), 4, "four constraints");
    }

    #[test]
    fn duplicate_inserts_are_ignored() {
        let mut g = paper_graph();
        assert!(!g.insert(&t("doi1", "publishedIn", Term::literal("1996"))));
        assert!(!g.insert(&t("Book", vocab::RDFS_SUBCLASS_OF, Term::uri("Publication"))));
        assert_eq!(g.len(), 5);
        assert_eq!(g.schema().len(), 4);
    }

    #[test]
    fn closure_includes_data_observed_universe() {
        let g = paper_graph();
        let cl = g.schema_closure();
        let book = g.dict().lookup_uri("Book").unwrap();
        let publication = g.dict().lookup_uri("Publication").unwrap();
        let person = g.dict().lookup_uri("Person").unwrap();
        for c in [book, publication, person] {
            assert!(cl.classes().contains(&c));
        }
        let published_in = g.dict().lookup_uri("publishedIn").unwrap();
        assert!(cl.properties().contains(&published_in), "data-only property in universe");
    }

    #[test]
    fn rdf_type_id_is_stable() {
        let mut g = Graph::new();
        let a = g.rdf_type();
        let b = g.rdf_type();
        assert_eq!(a, b);
        assert_eq!(g.rdf_type_id(), Some(a));
    }

    #[test]
    fn contains_and_decode_round_trip() {
        let g = paper_graph();
        let first = g.data()[0];
        assert!(g.contains_data(&first));
        let decoded = g.decode(&first);
        assert_eq!(decoded.s, Term::uri("doi1"));
    }

    #[test]
    fn take_data_hands_the_triples_over() {
        let mut g = paper_graph();
        let data = g.data().to_vec();
        assert_eq!(g.take_data(), data);
        assert!(g.is_empty());
        assert_eq!((g.data.capacity(), g.data_set.capacity()), (0, 0), "nothing is kept");
        assert_eq!(g.schema().len(), 4, "the schema stays");
        assert!(!g.contains_data(&data[0]));
        assert!(g.insert(&g.decode(&data[0])), "the graph loads again from empty");
    }

    #[test]
    fn literal_class_objects_are_not_classes() {
        let mut g = Graph::new();
        // A malformed-ish type assertion with a literal object must not
        // enter the class universe.
        g.insert(&t("x", vocab::RDF_TYPE, Term::literal("notAClass")));
        let cl = g.schema_closure();
        assert!(cl.classes().is_empty());
    }
}
