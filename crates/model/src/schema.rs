//! RDFS schemas and their closure.
//!
//! A [`Schema`] holds the four constraint kinds of the paper's Figure 2
//! (bottom): subclass, subproperty, domain and range statements. The
//! [`SchemaClosure`] saturates the constraints *among themselves* — the
//! "RDFS constraints are kept in memory" part of the paper's setting —
//! so that both saturation and reformulation can use single-step rule
//! application over closed relations:
//!
//! 1. `C₁ ⊑꜀ C₂ ∧ C₂ ⊑꜀ C₃ ⟹ C₁ ⊑꜀ C₃`  (subclass transitivity)
//! 2. `p₁ ⊑ₚ p₂ ∧ p₂ ⊑ₚ p₃ ⟹ p₁ ⊑ₚ p₃`  (subproperty transitivity)
//! 3. `p ⊑ₚ p′ ∧ dom(p′)=C ⟹ dom(p)=C`  (domain inheritance)
//! 4. `p ⊑ₚ p′ ∧ rng(p′)=C ⟹ rng(p)=C`  (range inheritance)
//! 5. `dom(p)=C ∧ C ⊑꜀ C′ ⟹ dom(p)=C′`  (domain widening)
//! 6. `rng(p)=C ∧ C ⊑꜀ C′ ⟹ rng(p)=C′`  (range widening)

use crate::hash::{FxHashMap, FxHashSet};
use crate::triple::TermId;

/// The declared (direct) RDFS constraints of an RDF database.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Schema {
    /// `(C, C')` for each declared `C rdfs:subClassOf C'`.
    pub subclass: Vec<(TermId, TermId)>,
    /// `(p, p')` for each declared `p rdfs:subPropertyOf p'`.
    pub subproperty: Vec<(TermId, TermId)>,
    /// `(p, C)` for each declared `p rdfs:domain C`.
    pub domain: Vec<(TermId, TermId)>,
    /// `(p, C)` for each declared `p rdfs:range C`.
    pub range: Vec<(TermId, TermId)>,
}

impl Schema {
    /// An empty schema (no constraints: reformulation degenerates to the
    /// identity and saturation to a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of declared constraints.
    pub fn len(&self) -> usize {
        self.subclass.len() + self.subproperty.len() + self.domain.len() + self.range.len()
    }

    /// True iff the schema declares no constraints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All classes mentioned by the constraints (subclass endpoints,
    /// domains, ranges).
    pub fn declared_classes(&self) -> FxHashSet<TermId> {
        let mut out = FxHashSet::default();
        for &(a, b) in &self.subclass {
            out.insert(a);
            out.insert(b);
        }
        for &(_, c) in self.domain.iter().chain(&self.range) {
            out.insert(c);
        }
        out
    }

    /// All properties mentioned by the constraints (subproperty
    /// endpoints, domain/range subjects).
    pub fn declared_properties(&self) -> FxHashSet<TermId> {
        let mut out = FxHashSet::default();
        for &(a, b) in &self.subproperty {
            out.insert(a);
            out.insert(b);
        }
        for &(p, _) in self.domain.iter().chain(&self.range) {
            out.insert(p);
        }
        out
    }
}

/// A binary relation over term ids with forward and backward adjacency.
#[derive(Debug, Default, Clone)]
struct Relation {
    fwd: FxHashMap<TermId, Vec<TermId>>,
    bwd: FxHashMap<TermId, Vec<TermId>>,
}

impl Relation {
    fn insert(&mut self, a: TermId, b: TermId) {
        self.fwd.entry(a).or_default().push(b);
        self.bwd.entry(b).or_default().push(a);
    }

    fn forward(&self, a: TermId) -> &[TermId] {
        self.fwd.get(&a).map_or(&[], Vec::as_slice)
    }

    fn backward(&self, b: TermId) -> &[TermId] {
        self.bwd.get(&b).map_or(&[], Vec::as_slice)
    }

    fn contains(&self, a: TermId, b: TermId) -> bool {
        self.forward(a).contains(&b)
    }

    fn from_closed_pairs(pairs: FxHashSet<(TermId, TermId)>) -> Self {
        let mut rel = Relation::default();
        let mut sorted: Vec<_> = pairs.into_iter().collect();
        sorted.sort();
        for (a, b) in sorted {
            rel.insert(a, b);
        }
        rel
    }
}

/// Strict transitive closure of a list of direct edges (the reflexive
/// pairs are *not* added; a node related to itself only appears if it
/// lies on a cycle).
fn transitive_closure(direct: &[(TermId, TermId)]) -> FxHashSet<(TermId, TermId)> {
    let mut succ: FxHashMap<TermId, Vec<TermId>> = FxHashMap::default();
    for &(a, b) in direct {
        succ.entry(a).or_default().push(b);
    }
    let mut closed = FxHashSet::default();
    for &start in succ.keys() {
        // BFS from each source; schemas are small (tens to hundreds of
        // constraints), so quadratic closure is fine.
        let mut stack: Vec<TermId> = succ[&start].clone();
        let mut seen: FxHashSet<TermId> = FxHashSet::default();
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            closed.insert((start, n));
            if let Some(next) = succ.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
    }
    closed
}

/// The saturated form of a [`Schema`]: all six constraint-level
/// entailment rules applied to fixpoint, exposed as indexed relations.
#[derive(Debug, Clone)]
pub struct SchemaClosure {
    subclass: Relation,
    subproperty: Relation,
    domain: Relation,
    range: Relation,
    classes: Vec<TermId>,
    properties: Vec<TermId>,
}

impl SchemaClosure {
    /// Saturate `schema`. `extra_classes` / `extra_properties` extend the
    /// universe of known classes/properties with ones only observed in
    /// the data (objects of `rdf:type` triples, data predicates): the
    /// reformulation rules instantiating class/property variables range
    /// over this universe ("instantiating the variable y with classes
    /// from db" — paper Example 4).
    pub fn new(
        schema: &Schema,
        extra_classes: impl IntoIterator<Item = TermId>,
        extra_properties: impl IntoIterator<Item = TermId>,
    ) -> Self {
        let subclass_pairs = transitive_closure(&schema.subclass);
        let subprop_pairs = transitive_closure(&schema.subproperty);

        // dom⁺(p): declared domains of p and of all its (closed) super
        // properties, widened upward through the (closed) subclass order.
        let mut domain_pairs: FxHashSet<(TermId, TermId)> = FxHashSet::default();
        let mut range_pairs: FxHashSet<(TermId, TermId)> = FxHashSet::default();
        let mut super_props: FxHashMap<TermId, Vec<TermId>> = FxHashMap::default();
        for &(a, b) in &subprop_pairs {
            super_props.entry(a).or_default().push(b);
        }
        let mut super_classes: FxHashMap<TermId, Vec<TermId>> = FxHashMap::default();
        for &(a, b) in &subclass_pairs {
            super_classes.entry(a).or_default().push(b);
        }
        let widen = |pairs: &mut FxHashSet<(TermId, TermId)>,
                     declared: &[(TermId, TermId)],
                     super_props: &FxHashMap<TermId, Vec<TermId>>,
                     super_classes: &FxHashMap<TermId, Vec<TermId>>| {
            // Collect all properties (declared + those inheriting).
            let mut decl_by_prop: FxHashMap<TermId, Vec<TermId>> = FxHashMap::default();
            for &(p, c) in declared {
                decl_by_prop.entry(p).or_default().push(c);
            }
            let mut all_props: FxHashSet<TermId> = decl_by_prop.keys().copied().collect();
            all_props.extend(super_props.keys().copied());
            for &p in &all_props {
                let mut classes: FxHashSet<TermId> = FxHashSet::default();
                if let Some(own) = decl_by_prop.get(&p) {
                    classes.extend(own.iter().copied());
                }
                if let Some(sups) = super_props.get(&p) {
                    for sp in sups {
                        if let Some(inherited) = decl_by_prop.get(sp) {
                            classes.extend(inherited.iter().copied());
                        }
                    }
                }
                let base: Vec<TermId> = classes.iter().copied().collect();
                for c in base {
                    if let Some(ups) = super_classes.get(&c) {
                        classes.extend(ups.iter().copied());
                    }
                }
                for c in classes {
                    pairs.insert((p, c));
                }
            }
        };
        widen(&mut domain_pairs, &schema.domain, &super_props, &super_classes);
        widen(&mut range_pairs, &schema.range, &super_props, &super_classes);

        let mut classes: FxHashSet<TermId> = schema.declared_classes();
        classes.extend(extra_classes);
        let mut properties: FxHashSet<TermId> = schema.declared_properties();
        properties.extend(extra_properties);

        let mut classes: Vec<TermId> = classes.into_iter().collect();
        classes.sort();
        let mut properties: Vec<TermId> = properties.into_iter().collect();
        properties.sort();

        SchemaClosure {
            subclass: Relation::from_closed_pairs(subclass_pairs),
            subproperty: Relation::from_closed_pairs(subprop_pairs),
            domain: Relation::from_closed_pairs(domain_pairs),
            range: Relation::from_closed_pairs(range_pairs),
            classes,
            properties,
        }
    }

    /// Strict subclasses of `c` in the closure (`C' ⊑꜀⁺ c`, `C' ≠ c`
    /// unless `c` lies on a cycle).
    pub fn sub_classes(&self, c: TermId) -> &[TermId] {
        self.subclass.backward(c)
    }

    /// Strict superclasses of `c` in the closure.
    pub fn super_classes(&self, c: TermId) -> &[TermId] {
        self.subclass.forward(c)
    }

    /// Strict subproperties of `p` in the closure.
    pub fn sub_properties(&self, p: TermId) -> &[TermId] {
        self.subproperty.backward(p)
    }

    /// Strict superproperties of `p` in the closure.
    pub fn super_properties(&self, p: TermId) -> &[TermId] {
        self.subproperty.forward(p)
    }

    /// All classes `C` with `dom⁺(p) ∋ C` (closed domains of `p`).
    pub fn domains(&self, p: TermId) -> &[TermId] {
        self.domain.forward(p)
    }

    /// All classes `C` with `rng⁺(p) ∋ C` (closed ranges of `p`).
    pub fn ranges(&self, p: TermId) -> &[TermId] {
        self.range.forward(p)
    }

    /// All properties whose closed domain contains class `c`.
    pub fn properties_with_domain(&self, c: TermId) -> &[TermId] {
        self.domain.backward(c)
    }

    /// All properties whose closed range contains class `c`.
    pub fn properties_with_range(&self, c: TermId) -> &[TermId] {
        self.range.backward(c)
    }

    /// True iff `sub ⊑꜀⁺ sup` in the closure.
    pub fn is_subclass(&self, sub: TermId, sup: TermId) -> bool {
        self.subclass.contains(sub, sup)
    }

    /// True iff `sub ⊑ₚ⁺ sup` in the closure.
    pub fn is_subproperty(&self, sub: TermId, sup: TermId) -> bool {
        self.subproperty.contains(sub, sup)
    }

    /// The known class universe (declared ∪ observed-in-data).
    pub fn classes(&self) -> &[TermId] {
        &self.classes
    }

    /// The known property universe (declared ∪ observed-in-data).
    pub fn properties(&self) -> &[TermId] {
        &self.properties
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::TermKind;

    fn id(i: u32) -> TermId {
        TermId::new(TermKind::Uri, i)
    }

    /// The running example of the paper (Example 2 / Figure 3):
    /// Book ⊑ Publication; writtenBy ⊑ hasAuthor;
    /// dom(writtenBy)=Book; rng(writtenBy)=Person.
    fn paper_schema() -> (Schema, [TermId; 6]) {
        let [book, publication, person, written_by, has_author, _] =
            [id(0), id(1), id(2), id(3), id(4), id(5)];
        let schema = Schema {
            subclass: vec![(book, publication)],
            subproperty: vec![(written_by, has_author)],
            domain: vec![(written_by, book)],
            range: vec![(written_by, person)],
        };
        (schema, [book, publication, person, written_by, has_author, id(5)])
    }

    #[test]
    fn subclass_transitivity() {
        let (a, b, c) = (id(0), id(1), id(2));
        let schema = Schema { subclass: vec![(a, b), (b, c)], ..Default::default() };
        let cl = SchemaClosure::new(&schema, [], []);
        assert!(cl.is_subclass(a, b));
        assert!(cl.is_subclass(a, c));
        assert!(!cl.is_subclass(c, a));
        assert_eq!(cl.sub_classes(c).len(), 2);
    }

    #[test]
    fn subproperty_transitivity() {
        let (p, q, r) = (id(0), id(1), id(2));
        let schema = Schema { subproperty: vec![(p, q), (q, r)], ..Default::default() };
        let cl = SchemaClosure::new(&schema, [], []);
        assert!(cl.is_subproperty(p, r));
        assert_eq!(cl.super_properties(p), &[q, r] as &[_]);
    }

    #[test]
    fn domain_inherited_through_subproperty() {
        let (schema, [book, publication, _, written_by, has_author, _]) = paper_schema();
        let cl = SchemaClosure::new(&schema, [], []);
        // writtenBy has declared domain Book, widened to Publication.
        assert!(cl.domains(written_by).contains(&book));
        assert!(cl.domains(written_by).contains(&publication));
        // hasAuthor declares no domain and inherits none downward.
        assert!(cl.domains(has_author).is_empty());
        // Backward index: Book's domain-properties include writtenBy.
        assert!(cl.properties_with_domain(book).contains(&written_by));
        assert!(cl.properties_with_domain(publication).contains(&written_by));
    }

    #[test]
    fn subproperty_inherits_superproperty_domain() {
        let (p, sup, c) = (id(0), id(1), id(2));
        let schema =
            Schema { subproperty: vec![(p, sup)], domain: vec![(sup, c)], ..Default::default() };
        let cl = SchemaClosure::new(&schema, [], []);
        assert!(cl.domains(p).contains(&c), "dom inherited from superproperty");
        assert!(cl.domains(sup).contains(&c));
    }

    #[test]
    fn range_widening() {
        let (schema, [_, _, person, written_by, _, _]) = paper_schema();
        let agent = id(7);
        let mut schema = schema;
        schema.subclass.push((person, agent));
        let cl = SchemaClosure::new(&schema, [], []);
        assert!(cl.ranges(written_by).contains(&person));
        assert!(cl.ranges(written_by).contains(&agent));
        assert!(cl.properties_with_range(agent).contains(&written_by));
    }

    #[test]
    fn diamond_hierarchies_close_once() {
        // B ⊑ A, C ⊑ A, D ⊑ B, D ⊑ C: D's ancestors are {B, C, A},
        // each exactly once.
        let (a, b, c, d) = (id(0), id(1), id(2), id(3));
        let schema =
            Schema { subclass: vec![(b, a), (c, a), (d, b), (d, c)], ..Default::default() };
        let cl = SchemaClosure::new(&schema, [], []);
        let mut sups: Vec<TermId> = cl.super_classes(d).to_vec();
        sups.sort();
        sups.dedup();
        assert_eq!(sups.len(), cl.super_classes(d).len(), "no duplicate edges");
        assert_eq!(sups, vec![a, b, c]);
        assert_eq!(cl.sub_classes(a).len(), 3);
    }

    #[test]
    fn cycles_do_not_loop_forever() {
        let (a, b) = (id(0), id(1));
        let schema = Schema { subclass: vec![(a, b), (b, a)], ..Default::default() };
        let cl = SchemaClosure::new(&schema, [], []);
        assert!(cl.is_subclass(a, b));
        assert!(cl.is_subclass(b, a));
        assert!(cl.is_subclass(a, a), "cycle makes a ⊑⁺ a");
    }

    #[test]
    fn universe_includes_extras() {
        let (schema, [book, publication, person, written_by, has_author, extra]) = paper_schema();
        let cl = SchemaClosure::new(&schema, [extra], [extra]);
        for c in [book, publication, person, extra] {
            assert!(cl.classes().contains(&c), "{c:?} in class universe");
        }
        for p in [written_by, has_author, extra] {
            assert!(cl.properties().contains(&p), "{p:?} in property universe");
        }
    }

    #[test]
    fn empty_schema_closure_is_empty() {
        let cl = SchemaClosure::new(&Schema::new(), [], []);
        assert!(cl.classes().is_empty());
        assert!(cl.sub_classes(id(0)).is_empty());
        assert!(cl.domains(id(0)).is_empty());
    }

    #[test]
    fn schema_len_and_declared_sets() {
        let (schema, [book, publication, person, written_by, has_author, _]) = paper_schema();
        assert_eq!(schema.len(), 4);
        assert!(!schema.is_empty());
        let classes = schema.declared_classes();
        assert_eq!(classes.len(), 3);
        assert!(
            classes.contains(&book) && classes.contains(&publication) && classes.contains(&person)
        );
        let props = schema.declared_properties();
        assert_eq!(props.len(), 2);
        assert!(props.contains(&written_by) && props.contains(&has_author));
    }
}
