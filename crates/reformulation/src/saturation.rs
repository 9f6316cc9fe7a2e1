//! Graph saturation (forward chaining).
//!
//! Computes the paper's `G∞`: the fixed point of the DB-fragment RDFS
//! entailment rules (rdfs2/3/7/9 over data, plus the constraint-level
//! rules precomputed by [`jucq_model::SchemaClosure`]). Because the
//! schema is closed first, a **single pass** over the data suffices:
//!
//! * `s p o` with `p ⊑ₚ⁺ p′`        ⟹ `s p′ o`           (rdfs7)
//! * `s p o` with `C ∈ dom⁺(p)`     ⟹ `s rdf:type C`      (rdfs2)
//! * `s p o` with `C ∈ rng⁺(p)`     ⟹ `o rdf:type C`      (rdfs3)
//! * `s rdf:type C` with `C ⊑꜀⁺ C′` ⟹ `s rdf:type C′`     (rdfs9)
//!
//! Every consequence of a derived triple is already produced directly
//! from the originating explicit triple, because the closed relations
//! are transitive and upward-closed.
//!
//! **Generalized triples.** When a range constraint applies to a
//! literal-valued property, rdfs3 types the literal (`"1996" rdf:type
//! C`). Standard RDF forbids literal subjects in *asserted* triples, but
//! we keep these generalized consequences so that saturation-based and
//! reformulation-based answering agree exactly (the reformulated atom
//! `(z, p, x)` likewise binds `x` to literals). DESIGN.md documents the
//! convention; the benchmark ontologies never declare class ranges on
//! literal-valued properties, so the case never arises there.

use jucq_model::{vocab, FxHashSet, Graph, SchemaClosure, TermId, TripleId};

/// Saturate the data triples of `graph` (the graph is mutated only to
/// intern `rdf:type` if absent). The result contains the explicit data
/// triples plus all entailed ones, sorted for determinism. Schema
/// triples are *not* included — see [`schema_triples`].
pub fn saturate(graph: &mut Graph) -> Vec<TripleId> {
    let closure = graph.schema_closure();
    let rdf_type = graph.rdf_type();
    saturate_with(graph.data(), &closure, rdf_type)
}

/// Saturation core, reusable when the closure is already at hand.
pub fn saturate_with(
    data: &[TripleId],
    closure: &SchemaClosure,
    rdf_type: TermId,
) -> Vec<TripleId> {
    jucq_obs::span!("saturation");
    let mut out: FxHashSet<TripleId> = data.iter().copied().collect();
    for t in data {
        consequences(closure, rdf_type, t, |c| {
            out.insert(c);
        });
    }
    let mut v: Vec<TripleId> = out.into_iter().collect();
    v.sort_unstable();
    v
}

/// Visit the one-pass consequences of one explicit data triple
/// (rdfs7/2/3/9 over the closed schema; see the module doc), possibly
/// including `t` itself or duplicates. [`antecedents`] is its inverse.
pub fn consequences(
    closure: &SchemaClosure,
    rdf_type: TermId,
    t: &TripleId,
    mut visit: impl FnMut(TripleId),
) {
    if t.p == rdf_type {
        if t.o.is_uri() {
            for &sup in closure.super_classes(t.o) {
                visit(TripleId::new(t.s, rdf_type, sup));
            }
        }
    } else {
        for &sup in closure.super_properties(t.p) {
            visit(TripleId::new(t.s, sup, t.o));
        }
        for &c in closure.domains(t.p) {
            visit(TripleId::new(t.s, rdf_type, c));
        }
        for &c in closure.ranges(t.p) {
            visit(TripleId::new(t.o, rdf_type, c));
        }
    }
}

/// Visit every pattern, as `[s, p, o]` with `None` for a free
/// position, that an explicit data triple must match to have `c` among
/// its [`consequences`] or to be `c` itself: `c`; `(s, p′, o)` for each
/// subproperty `p′` of `c`'s property; and, for `c = (s rdf:type C)`,
/// `(s rdf:type C′)` for each subclass `C′` of `C`, `(s, p, *)` for each
/// property `p` with `C` in its domain and `(*, p, s)` for each with `C`
/// in its range. It skips what [`consequences`] never derives from: a
/// triple whose property is `rdf:type` derives only through its class,
/// and one whose class is not a URI derives nothing. So `c` is entailed
/// by a set of data triples iff one of them matches a visited pattern,
/// and the patterns are bounded by the schema, not by the data.
pub fn antecedents(
    closure: &SchemaClosure,
    rdf_type: TermId,
    c: &TripleId,
    mut visit: impl FnMut([Option<TermId>; 3]),
) {
    visit([Some(c.s), Some(c.p), Some(c.o)]);
    for &sub in closure.sub_properties(c.p) {
        if sub != rdf_type {
            visit([Some(c.s), Some(sub), Some(c.o)]);
        }
    }
    if c.p == rdf_type {
        for &sub in closure.sub_classes(c.o) {
            if sub.is_uri() {
                visit([Some(c.s), Some(rdf_type), Some(sub)]);
            }
        }
        for &p in closure.properties_with_domain(c.o) {
            if p != rdf_type {
                visit([Some(c.s), Some(p), None]);
            }
        }
        for &p in closure.properties_with_range(c.o) {
            if p != rdf_type {
                visit([None, Some(p), Some(c.s)]);
            }
        }
    }
}

/// Materialize the *closed* schema as triples (all entailed
/// `rdfs:subClassOf` / `rdfs:subPropertyOf` / `rdfs:domain` /
/// `rdfs:range` statements). Both the reformulation store and the
/// saturation store load these, so schema-level query atoms answer
/// identically under either technique.
pub fn schema_triples(graph: &mut Graph, closure: &SchemaClosure) -> Vec<TripleId> {
    let subclass = graph.dict_mut().encode_uri(vocab::RDFS_SUBCLASS_OF);
    let subprop = graph.dict_mut().encode_uri(vocab::RDFS_SUBPROPERTY_OF);
    let domain = graph.dict_mut().encode_uri(vocab::RDFS_DOMAIN);
    let range = graph.dict_mut().encode_uri(vocab::RDFS_RANGE);
    let mut out: Vec<TripleId> = Vec::new();
    for &c in closure.classes() {
        for &sup in closure.super_classes(c) {
            out.push(TripleId::new(c, subclass, sup));
        }
    }
    for &p in closure.properties() {
        for &sup in closure.super_properties(p) {
            out.push(TripleId::new(p, subprop, sup));
        }
        for &c in closure.domains(p) {
            out.push(TripleId::new(p, domain, c));
        }
        for &c in closure.ranges(p) {
            out.push(TripleId::new(p, range, c));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::{Term, Triple};

    fn t(s: &str, p: &str, o: Term) -> Triple {
        Triple::new(Term::uri(s), Term::uri(p), o)
    }

    /// The paper's Figure 3 graph.
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

    fn contains(g: &Graph, sat: &[TripleId], s: &str, p: &str, o: Term) -> bool {
        let d = g.dict();
        let (Some(s), Some(p), Some(o)) =
            (d.lookup(&Term::uri(s)), d.lookup(&Term::uri(p)), d.lookup(&o))
        else {
            return false;
        };
        sat.binary_search(&TripleId::new(s, p, o)).is_ok()
    }

    #[test]
    fn figure3_dashed_edges_are_derived() {
        let mut g = paper_graph();
        let sat = saturate(&mut g);
        // doi1 hasAuthor _:b1 (subproperty).
        assert!(contains(&g, &sat, "doi1", "hasAuthor", Term::blank("b1")));
        // doi1 rdf:type Publication (subclass of its type + domain).
        assert!(contains(&g, &sat, "doi1", vocab::RDF_TYPE, Term::uri("Publication")));
        // _:b1 rdf:type Person (range).
        let d = g.dict();
        let b1 = d.lookup(&Term::blank("b1")).unwrap();
        let ty = d.lookup(&Term::uri(vocab::RDF_TYPE)).unwrap();
        let person = d.lookup(&Term::uri("Person")).unwrap();
        assert!(sat.binary_search(&TripleId::new(b1, ty, person)).is_ok());
    }

    #[test]
    fn explicit_triples_are_kept() {
        let mut g = paper_graph();
        let n_data = g.len();
        let sat = saturate(&mut g);
        assert!(sat.len() > n_data);
        for t in g.data() {
            assert!(sat.binary_search(t).is_ok());
        }
    }

    #[test]
    fn saturation_is_idempotent() {
        let mut g = paper_graph();
        let sat1 = saturate(&mut g);
        let closure = g.schema_closure();
        let rdf_type = g.rdf_type();
        let sat2 = saturate_with(&sat1, &closure, rdf_type);
        assert_eq!(sat1, sat2);
    }

    #[test]
    fn empty_schema_means_no_new_triples() {
        let mut g = Graph::new();
        g.insert(&t("a", "p", Term::uri("b")));
        let sat = saturate(&mut g);
        assert_eq!(sat.len(), 1);
    }

    #[test]
    fn domain_of_superproperty_types_subproperty_subjects() {
        // p ⊑ q, dom(q) = C, (a p b) ⟹ a type C.
        let mut g = Graph::new();
        g.extend(&[
            t("p", vocab::RDFS_SUBPROPERTY_OF, Term::uri("q")),
            t("q", vocab::RDFS_DOMAIN, Term::uri("C")),
            t("a", "p", Term::uri("b")),
        ]);
        let sat = saturate(&mut g);
        assert!(contains(&g, &sat, "a", vocab::RDF_TYPE, Term::uri("C")));
        assert!(contains(&g, &sat, "a", "q", Term::uri("b")));
    }

    #[test]
    fn schema_triples_materialize_the_closure() {
        let mut g = paper_graph();
        let closure = g.schema_closure();
        let st = schema_triples(&mut g, &closure);
        let d = g.dict();
        let book = d.lookup(&Term::uri("Book")).unwrap();
        let publication = d.lookup(&Term::uri("Publication")).unwrap();
        let subclass = d.lookup(&Term::uri(vocab::RDFS_SUBCLASS_OF)).unwrap();
        assert!(st.binary_search(&TripleId::new(book, subclass, publication)).is_ok());
        // Widened domain: writtenBy rdfs:domain Publication is entailed.
        let written_by = d.lookup(&Term::uri("writtenBy")).unwrap();
        let domain = d.lookup(&Term::uri(vocab::RDFS_DOMAIN)).unwrap();
        assert!(st.binary_search(&TripleId::new(written_by, domain, publication)).is_ok());
    }

    /// Class `i` of the mirror test: `C0`–`C4`, and a literal for 5.
    fn class(i: usize) -> Term {
        if i == 5 {
            Term::literal("C5")
        } else {
            Term::uri(format!("C{i}"))
        }
    }

    /// Property `i` of the mirror test: `p0`–`p3`, and `rdf:type` for 4.
    fn property(i: usize) -> Term {
        if i == 4 {
            Term::uri(vocab::RDF_TYPE)
        } else {
            Term::uri(format!("p{i}"))
        }
    }

    type Pairs = Vec<(usize, usize)>;

    // `antecedents` is the exact inverse of `consequences`: a triple
    // matches one of its patterns in the data iff it is a data triple or
    // a consequence of one. The schemas may have cycles, domains on
    // superproperties, a literal class and `rdf:type` inside the
    // property hierarchy.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 128,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn antecedents_invert_consequences(
            subclass in proptest::collection::vec((0usize..6, 0usize..6), 0..5),
            subprop in proptest::collection::vec((0usize..5, 0usize..5), 0..4),
            domain in proptest::collection::vec((0usize..5, 0usize..6), 0..4),
            range in proptest::collection::vec((0usize..5, 0usize..6), 0..4),
            data in proptest::collection::vec((0usize..4, 0usize..5, 0usize..6), 0..12),
        ) {
            let mut g = Graph::new();
            let declare = |g: &mut Graph, pairs: &Pairs, p: &str, a: fn(usize) -> Term, b: fn(usize) -> Term| {
                for &(x, y) in pairs {
                    g.insert(&Triple::new(a(x), Term::uri(p), b(y)));
                }
            };
            declare(&mut g, &subclass, vocab::RDFS_SUBCLASS_OF, class, class);
            declare(&mut g, &subprop, vocab::RDFS_SUBPROPERTY_OF, property, property);
            declare(&mut g, &domain, vocab::RDFS_DOMAIN, property, class);
            declare(&mut g, &range, vocab::RDFS_RANGE, property, class);
            let entity = |i: usize| if i == 5 { Term::literal("v") } else { Term::uri(format!("e{}", i % 4)) };
            for &(s, p, o) in &data {
                let object = if p == 4 { class(o) } else { entity(o) };
                g.insert(&Triple::new(entity(s), property(p), object));
            }
            let closure = g.schema_closure();
            let rdf_type = g.rdf_type();
            let data = g.data().to_vec();
            let derived = saturate_with(&data, &closure, rdf_type);

            let terms: Vec<TermId> = (0..6)
                .map(entity)
                .chain((0..6).map(class))
                .map(|t| g.dict_mut().encode(&t))
                .collect();
            let properties: Vec<TermId> = (0..5).map(|i| g.dict_mut().encode(&property(i))).collect();
            for &s in &terms {
                for &p in &properties {
                    for &o in &terms {
                        let c = TripleId::new(s, p, o);
                        let mut matched = false;
                        antecedents(&closure, rdf_type, &c, |bound| {
                            matched |= data.iter().any(|t| {
                                bound.iter().zip([t.s, t.p, t.o]).all(|(b, x)| b.is_none_or(|b| b == x))
                            });
                        });
                        proptest::prop_assert_eq!(
                            matched,
                            derived.binary_search(&c).is_ok(),
                            "{:?}",
                            g.decode(&c)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chained_subclasses_fully_expand() {
        let mut g = Graph::new();
        g.extend(&[
            t("A", vocab::RDFS_SUBCLASS_OF, Term::uri("B")),
            t("B", vocab::RDFS_SUBCLASS_OF, Term::uri("C")),
            t("x", vocab::RDF_TYPE, Term::uri("A")),
        ]);
        let sat = saturate(&mut g);
        assert!(contains(&g, &sat, "x", vocab::RDF_TYPE, Term::uri("B")));
        assert!(contains(&g, &sat, "x", vocab::RDF_TYPE, Term::uri("C")));
        assert_eq!(sat.len(), 3);
    }
}
