//! Incremental saturation maintenance.
//!
//! The paper's case for reformulation is that "if the RDF graph is
//! updated, the cost of maintaining the saturation may be very high"
//! (§5.3, citing \[4\]). This module makes that trade-off measurable: it
//! maintains the saturation **incrementally** under data insertions and
//! deletions, the multi-set/counting technique of \[4\].
//!
//! Correctness rests on a property of the DB fragment with a *closed*
//! schema: every entailed triple is derived **directly** from a single
//! explicit triple (see [`crate::saturation`]) — derivations never
//! chain through other derived triples. Each derived triple can
//! therefore carry an exact count of its derivations from explicit
//! triples:
//!
//! * insert `t`: add `t` as explicit, `+1` each of its consequences;
//! * delete `t`: remove `t`, `-1` each of its consequences; a derived
//!   triple disappears when its count reaches zero (and it is not
//!   itself explicit).
//!
//! Schema (constraint) updates change the closure itself and require a
//! rebuild; [`IncrementalSaturation::new`] performs it.

use jucq_model::{FxHashMap, FxHashSet, SchemaClosure, TermId, TripleId};

use crate::saturation::consequences;

/// A saturation maintained under data insertions/deletions.
#[derive(Debug, Clone)]
pub struct IncrementalSaturation {
    closure: SchemaClosure,
    rdf_type: TermId,
    explicit: FxHashSet<TripleId>,
    /// Derivation counts of entailed triples (0-count entries removed).
    derived: FxHashMap<TripleId, u32>,
}

/// The net effect of one update on the saturated triple set.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SaturationDelta {
    /// Triples that newly entered the saturation.
    pub added: Vec<TripleId>,
    /// Triples that left the saturation.
    pub removed: Vec<TripleId>,
}

impl IncrementalSaturation {
    /// Build from an initial set of explicit data triples and a closed
    /// schema: one counting pass over `data`, with the explicit set
    /// sized to it up front.
    pub fn new(
        data: &[TripleId],
        closure: SchemaClosure,
        rdf_type: TermId,
    ) -> IncrementalSaturation {
        let mut explicit = FxHashSet::default();
        explicit.reserve(data.len());
        let mut derived = FxHashMap::default();
        for &t in data {
            if explicit.insert(t) {
                consequences(&closure, rdf_type, &t, |c| *derived.entry(c).or_insert(0) += 1);
            }
        }
        IncrementalSaturation { closure, rdf_type, explicit, derived }
    }

    /// True iff `t` is in the saturation (explicit or derived).
    pub fn contains(&self, t: &TripleId) -> bool {
        self.explicit.contains(t) || self.derived.contains_key(t)
    }

    /// Number of triples in the saturation.
    pub fn len(&self) -> usize {
        // Derived triples that are also explicit must not double-count.
        self.explicit.len() + self.derived.keys().filter(|t| !self.explicit.contains(t)).count()
    }

    /// True iff the saturation is empty.
    pub fn is_empty(&self) -> bool {
        self.explicit.is_empty() && self.derived.is_empty()
    }

    /// Insert an explicit triple; returns the saturation delta.
    pub fn insert(&mut self, t: TripleId) -> SaturationDelta {
        let mut delta = SaturationDelta::default();
        if !self.explicit.insert(t) {
            return delta;
        }
        if !self.derived.contains_key(&t) {
            delta.added.push(t);
        }
        let IncrementalSaturation { closure, rdf_type, explicit, derived } = self;
        consequences(closure, *rdf_type, &t, |c| {
            let count = derived.entry(c).or_insert(0);
            *count += 1;
            if *count == 1 && !explicit.contains(&c) && c != t {
                delta.added.push(c);
            }
        });
        delta
    }

    /// Delete an explicit triple; returns the saturation delta.
    pub fn delete(&mut self, t: &TripleId) -> SaturationDelta {
        let mut delta = SaturationDelta::default();
        if !self.explicit.remove(t) {
            return delta;
        }
        let IncrementalSaturation { closure, rdf_type, explicit, derived } = self;
        consequences(closure, *rdf_type, t, |c| {
            let count = derived.get_mut(&c).expect("counts are maintained symmetrically");
            *count -= 1;
            if *count == 0 {
                derived.remove(&c);
                if !explicit.contains(&c) {
                    delta.removed.push(c);
                }
            }
        });
        if !self.derived.contains_key(t) && !delta.removed.contains(t) {
            delta.removed.push(*t);
        }
        delta
    }

    /// Every triple with at least one derivation, in no particular
    /// order; some may also be explicit.
    pub fn derived(&self) -> impl ExactSizeIterator<Item = TripleId> + '_ {
        self.derived.keys().copied()
    }

    /// The full saturated triple set, sorted.
    pub fn triples(&self) -> Vec<TripleId> {
        let mut out: Vec<TripleId> = self.explicit.iter().copied().collect();
        out.extend(self.derived.keys().filter(|t| !self.explicit.contains(t)));
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saturation::saturate_with;
    use jucq_model::{vocab, Graph, Schema, Term, Triple};

    struct Fixture {
        closure: SchemaClosure,
        rdf_type: TermId,
        graph: Graph,
    }

    fn fixture() -> Fixture {
        let mut graph = Graph::new();
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        graph.extend(&[
            t("Book", vocab::RDFS_SUBCLASS_OF, Term::uri("Publication")),
            t("writtenBy", vocab::RDFS_SUBPROPERTY_OF, Term::uri("hasAuthor")),
            t("writtenBy", vocab::RDFS_DOMAIN, Term::uri("Book")),
            t("writtenBy", vocab::RDFS_RANGE, Term::uri("Person")),
        ]);
        let closure = graph.schema_closure();
        let rdf_type = graph.rdf_type();
        Fixture { closure, rdf_type, graph }
    }

    fn tid(f: &mut Fixture, s: &str, p: &str, o: &str) -> TripleId {
        let d = f.graph.dict_mut();
        TripleId::new(d.encode_uri(s), d.encode_uri(p), d.encode_uri(o))
    }

    #[test]
    fn matches_full_saturation_after_inserts() {
        let mut f = fixture();
        let t1 = tid(&mut f, "doi1", "writtenBy", "a1");
        let ty = f.rdf_type;
        let book = f.graph.dict_mut().encode_uri("Book");
        let t2 = TripleId::new(t1.s, ty, book);
        let data = vec![t1, t2];
        let mut sat = IncrementalSaturation::new(&[], f.closure.clone(), f.rdf_type);
        for &t in &data {
            sat.insert(t);
        }
        let full = saturate_with(&data, &f.closure, f.rdf_type);
        assert_eq!(sat.triples(), full);
        assert_eq!(sat.len(), full.len());
    }

    #[test]
    fn delete_reverts_insert_exactly() {
        let mut f = fixture();
        let base = tid(&mut f, "doi0", "hasAuthor", "a0");
        let t1 = tid(&mut f, "doi1", "writtenBy", "a1");
        let mut sat = IncrementalSaturation::new(&[base], f.closure.clone(), f.rdf_type);
        let before = sat.triples();
        let added = sat.insert(t1);
        assert!(!added.added.is_empty());
        let removed = sat.delete(&t1);
        assert_eq!(sat.triples(), before, "delete must undo insert");
        let mut a = added.added;
        let mut r = removed.removed;
        a.sort_unstable();
        r.sort_unstable();
        assert_eq!(a, r, "delta symmetry");
    }

    #[test]
    fn shared_derivations_survive_partial_deletion() {
        // Two writtenBy triples with the same subject both derive
        // (doi, τ, Book); deleting one must keep the type.
        let mut f = fixture();
        let t1 = tid(&mut f, "doi", "writtenBy", "a1");
        let t2 = tid(&mut f, "doi", "writtenBy", "a2");
        let ty = f.rdf_type;
        let book = f.graph.dict_mut().encode_uri("Book");
        let typed = TripleId::new(t1.s, ty, book);
        let mut sat = IncrementalSaturation::new(&[t1, t2], f.closure.clone(), f.rdf_type);
        assert!(sat.contains(&typed));
        let delta = sat.delete(&t1);
        assert!(sat.contains(&typed), "second derivation still stands");
        assert!(!delta.removed.contains(&typed));
        sat.delete(&t2);
        assert!(!sat.contains(&typed), "last derivation gone");
    }

    #[test]
    fn explicit_triples_survive_losing_their_derivations() {
        // (doi τ Book) both explicit and derived: deleting the deriving
        // triple must keep it (it is still asserted).
        let mut f = fixture();
        let t1 = tid(&mut f, "doi", "writtenBy", "a1");
        let ty = f.rdf_type;
        let book = f.graph.dict_mut().encode_uri("Book");
        let typed = TripleId::new(t1.s, ty, book);
        let mut sat = IncrementalSaturation::new(&[t1, typed], f.closure.clone(), f.rdf_type);
        sat.delete(&t1);
        assert!(sat.contains(&typed));
        // And its superclass consequence too.
        let publication = f.graph.dict_mut().encode_uri("Publication");
        assert!(sat.contains(&TripleId::new(t1.s, ty, publication)));
    }

    #[test]
    fn duplicate_inserts_and_phantom_deletes_are_noops() {
        let mut f = fixture();
        let t1 = tid(&mut f, "doi", "writtenBy", "a1");
        let mut sat = IncrementalSaturation::new(&[t1], f.closure.clone(), f.rdf_type);
        let before = sat.triples();
        assert_eq!(sat.insert(t1), SaturationDelta::default());
        let other = tid(&mut f, "x", "writtenBy", "y");
        assert_eq!(sat.delete(&other), SaturationDelta::default());
        assert_eq!(sat.triples(), before);
    }

    #[test]
    fn empty_schema_is_identity() {
        let closure = SchemaClosure::new(&Schema::new(), [], []);
        let mut g = Graph::new();
        let rdf_type = g.rdf_type();
        let t = TripleId::new(
            g.dict_mut().encode_uri("a"),
            g.dict_mut().encode_uri("p"),
            g.dict_mut().encode_uri("b"),
        );
        let mut sat = IncrementalSaturation::new(&[], closure, rdf_type);
        let delta = sat.insert(t);
        assert_eq!(delta.added, vec![t]);
        assert_eq!(sat.len(), 1);
    }

    #[test]
    fn self_loop_double_derivation_counts_correctly() {
        // (s p s) with dom(p) = rng(p) = C derives (s τ C) twice; one
        // delete must remove both counts.
        let mut g = Graph::new();
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::uri(s), Term::uri(p), Term::uri(o));
        g.extend(&[t("p", vocab::RDFS_DOMAIN, "C"), t("p", vocab::RDFS_RANGE, "C")]);
        let closure = g.schema_closure();
        let rdf_type = g.rdf_type();
        let s = g.dict_mut().encode_uri("s");
        let p = g.dict_mut().encode_uri("p");
        let loop_t = TripleId::new(s, p, s);
        let mut sat = IncrementalSaturation::new(&[loop_t], closure, rdf_type);
        let c = g.dict_mut().encode_uri("C");
        let typed = TripleId::new(s, rdf_type, c);
        assert!(sat.contains(&typed));
        sat.delete(&loop_t);
        assert!(!sat.contains(&typed));
        assert!(sat.is_empty());
    }
}
