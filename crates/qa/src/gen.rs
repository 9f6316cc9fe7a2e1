//! Seeded random generation of RDFS schemas, instance data, and BGP
//! queries.
//!
//! Everything is driven by a single `u64` seed through the workspace's
//! deterministic `rand` shim, so a failing case is reproduced exactly
//! by its seed — across machines and across runs.
//!
//! The generated universe is deliberately tiny (a dozen classes, five
//! properties, a dozen individuals, four literals): small vocabularies
//! force heavy constant reuse, which maximizes join collisions,
//! reformulation fan-out, and cover-choice diversity per case. Ghost
//! constants (absent from both schema and data) appear with low
//! probability to exercise the empty-reformulation paths.
//!
//! Every case's class hierarchy contains a deterministic backbone —
//! a subclass chain of depth ≥ 4, a fan-out of ≥ 4 siblings under one
//! root, and a multi-parent diamond — with random extra edges layered
//! on top. The backbone guarantees each case exercises the shapes the
//! planner's range collapse cares about (deep subtrees, wide sibling
//! runs, residual unions at diamond joins) instead of leaving them to
//! the luck of the random DAG. Both hierarchies are stated parent
//! before children (`parent_first`), so the dictionary's first-seen
//! ids lay most subtrees out as consecutive runs.

use jucq_model::{vocab, Term, Triple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A term position of a query atom: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QTerm {
    /// A query variable (`?vN`).
    Var(u16),
    /// A constant RDF term.
    Term(Term),
}

/// One triple pattern of a generated query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomSpec {
    /// Subject position.
    pub s: QTerm,
    /// Predicate position.
    pub p: QTerm,
    /// Object position.
    pub o: QTerm,
}

/// A generated BGP query, independent of any dictionary encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// Distinguished (answer) variables; always a subset of the body
    /// variables.
    pub head: Vec<u16>,
    /// The body triple patterns.
    pub atoms: Vec<AtomSpec>,
}

impl QuerySpec {
    /// All distinct variables of the body, in first-occurrence order.
    pub fn variables(&self) -> Vec<u16> {
        let mut out = Vec::new();
        let mut push = |t: &QTerm| {
            if let QTerm::Var(v) = t {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
        };
        for a in &self.atoms {
            push(&a.s);
            push(&a.p);
            push(&a.o);
        }
        out
    }
}

/// One generated differential-test case: a graph plus a query over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenCase {
    /// Schema and instance triples.
    pub triples: Vec<Triple>,
    /// The query, as constants and variable ids (encoded per database
    /// by the oracle).
    pub query: QuerySpec,
}

const N_CLASSES: usize = 12;
const N_PROPS: usize = 5;
const N_INDIVIDUALS: usize = 12;
const N_LITERALS: usize = 4;

fn class(i: usize) -> Term {
    Term::uri(format!("C{i}"))
}

fn prop(i: usize) -> Term {
    Term::uri(format!("p{i}"))
}

fn individual(i: usize) -> Term {
    Term::uri(format!("i{i}"))
}

fn literal(i: usize) -> Term {
    Term::literal(format!("v{i}"))
}

/// A class constant; 5% of draws are a ghost class absent from the
/// schema and the data.
fn any_class(rng: &mut StdRng) -> Term {
    if rng.gen_bool(0.05) {
        Term::uri("GhostClass")
    } else {
        class(rng.gen_range(0..N_CLASSES))
    }
}

fn any_prop(rng: &mut StdRng) -> Term {
    if rng.gen_bool(0.05) {
        Term::uri("ghostProp")
    } else {
        prop(rng.gen_range(0..N_PROPS))
    }
}

fn any_individual(rng: &mut StdRng) -> Term {
    if rng.gen_bool(0.05) {
        Term::uri("ghostInd")
    } else {
        individual(rng.gen_range(0..N_INDIVIDUALS))
    }
}

/// Generate the case for `seed` — the same seed always yields the same
/// case.
pub fn gen_case(seed: u64) -> GenCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let triples = gen_triples(&mut rng);
    let query = gen_query(&mut rng);
    GenCase { triples, query }
}

/// The `(child, parent)` edges of a DAG over `0..n`, in the order a
/// pre-order walk from every root (ascending) meets them: each node's
/// edges to its children are stated right after the edge that first
/// reached the node itself, and before any of its descendants' edges.
/// A statement `child ⊑ parent` interns the child first, so loading
/// them in this order hands every single-parent subtree below a root
/// one consecutive id run (a root is interned right after its first
/// child, inside that child's run).
fn parent_first(n: usize, edges: &[(usize, usize)]) -> Vec<(usize, usize)> {
    fn walk(
        node: usize,
        children: &[Vec<usize>],
        seen: &mut [bool],
        out: &mut Vec<(usize, usize)>,
    ) {
        seen[node] = true;
        for &child in &children[node] {
            out.push((child, node));
            if !seen[child] {
                walk(child, children, seen, out);
            }
        }
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut has_parent = vec![false; n];
    for &(child, parent) in edges {
        children[parent].push(child);
        has_parent[child] = true;
    }
    let mut seen = vec![false; n];
    let mut out = Vec::with_capacity(edges.len());
    for root in (0..n).filter(|&i| !has_parent[i]) {
        walk(root, &children, &mut seen, &mut out);
    }
    out
}

/// Random RDFS schema (subClassOf / subPropertyOf DAGs plus domain and
/// range assignments) and instance triples.
fn gen_triples(rng: &mut StdRng) -> Vec<Triple> {
    let t = |s: Term, p: &str, o: Term| Triple::new(s, Term::uri(p), o);
    let mut out = Vec::new();

    // Class hierarchy backbone, present in every case:
    //   chain   C4 ⊑ C3 ⊑ C2 ⊑ C1 ⊑ C0           (depth ≥ 4)
    //   fan-out C5, C6, C7, C8 ⊑ C0               (≥ 4 siblings)
    //   diamond C9 ⊑ C5 and C9 ⊑ C6 (both ⊑ C0)   (multi-parent)
    let mut subclass: Vec<(usize, usize)> = (1..=4).map(|i| (i, i - 1)).collect();
    subclass.extend((5..=8).map(|i| (i, 0)));
    subclass.extend([(9, 5), (9, 6)]);
    // Random extra DAG edges on top: edges only point to lower indexes,
    // so the graph stays acyclic by construction; additional multiple
    // parents are allowed (more diamonds, deeper residual unions).
    for i in 1..N_CLASSES {
        if rng.gen_bool(0.3) {
            subclass.push((i, rng.gen_range(0..i)));
        }
        if i >= 2 && rng.gen_bool(0.2) {
            subclass.push((i, rng.gen_range(0..i)));
        }
    }
    for (c, p) in parent_first(N_CLASSES, &subclass) {
        out.push(t(class(c), vocab::RDFS_SUBCLASS_OF, class(p)));
    }
    // Property DAG, same shape.
    let mut subproperty = Vec::new();
    for i in 1..N_PROPS {
        if rng.gen_bool(0.5) {
            subproperty.push((i, rng.gen_range(0..i)));
        }
    }
    for (c, p) in parent_first(N_PROPS, &subproperty) {
        out.push(t(prop(c), vocab::RDFS_SUBPROPERTY_OF, prop(p)));
    }
    // Domain / range constraints.
    for i in 0..N_PROPS {
        if rng.gen_bool(0.5) {
            out.push(t(prop(i), vocab::RDFS_DOMAIN, class(rng.gen_range(0..N_CLASSES))));
        }
        if rng.gen_bool(0.4) {
            out.push(t(prop(i), vocab::RDFS_RANGE, class(rng.gen_range(0..N_CLASSES))));
        }
    }

    // Instance triples.
    let n = rng.gen_range(0..=28usize);
    for _ in 0..n {
        if rng.gen_bool(0.35) {
            out.push(t(
                individual(rng.gen_range(0..N_INDIVIDUALS)),
                vocab::RDF_TYPE,
                class(rng.gen_range(0..N_CLASSES)),
            ));
        } else {
            let o = if rng.gen_bool(0.35) {
                literal(rng.gen_range(0..N_LITERALS))
            } else {
                individual(rng.gen_range(0..N_INDIVIDUALS))
            };
            out.push(Triple::new(
                individual(rng.gen_range(0..N_INDIVIDUALS)),
                prop(rng.gen_range(0..N_PROPS)),
                o,
            ));
        }
    }
    out
}

/// Random BGP query: 0–4 atoms; mostly connected (each atom after the
/// first reuses an earlier variable), occasionally disconnected on
/// purpose (the oracle then demands a consistent `CoverError` from
/// every cover strategy), rarely zero-atom.
fn gen_query(rng: &mut StdRng) -> QuerySpec {
    let roll = rng.gen_range(0..100u32);
    let n_atoms = match roll {
        0..=2 => 0,
        3..=29 => 1,
        30..=59 => 2,
        60..=84 => 3,
        _ => 4,
    };
    if n_atoms == 0 {
        return QuerySpec { head: Vec::new(), atoms: Vec::new() };
    }
    let disconnected = n_atoms >= 2 && rng.gen_bool(0.08);
    gen_body(rng, n_atoms, disconnected)
}

/// The query [`gen_case`] would draw, but with exactly `n_atoms ≥ 1`
/// atoms — for tests of query-structure code (covers) that need bodies
/// larger than the differential oracle can afford to evaluate.
pub fn gen_query_sized(seed: u64, n_atoms: usize, disconnected: bool) -> QuerySpec {
    assert!(n_atoms >= 1, "a sized query has atoms");
    gen_body(&mut StdRng::seed_from_u64(seed), n_atoms, disconnected)
}

/// `n_atoms ≥ 1` random atoms and a random non-empty head over them;
/// `disconnected` starts every atom in its own join component.
fn gen_body(rng: &mut StdRng, n_atoms: usize, disconnected: bool) -> QuerySpec {
    let mut next_var: u16 = 0;
    let mut vars: Vec<u16> = Vec::new();
    let fresh = |vars: &mut Vec<u16>, next_var: &mut u16| -> u16 {
        let v = *next_var;
        *next_var += 1;
        vars.push(v);
        v
    };

    let mut atoms = Vec::with_capacity(n_atoms);
    for k in 0..n_atoms {
        // The join variable tying this atom to the earlier ones. The
        // first atom, and every atom of a deliberately disconnected
        // query, starts its own component.
        let link: Option<u16> = if k == 0 || disconnected || vars.is_empty() {
            None
        } else {
            Some(vars[rng.gen_range(0..vars.len())])
        };

        if rng.gen_bool(0.35) {
            // Class atom: ?s rdf:type C.
            let s = link.unwrap_or_else(|| fresh(&mut vars, &mut next_var));
            atoms.push(AtomSpec {
                s: QTerm::Var(s),
                p: QTerm::Term(Term::uri(vocab::RDF_TYPE)),
                o: QTerm::Term(any_class(rng)),
            });
        } else {
            // Property atom: s p o with the link on a random end. The
            // object's shape is decided first so that a link aimed at a
            // constant object slot falls back to the subject instead of
            // stranding a fresh variable.
            let link_on_subject = rng.gen_bool(0.7);
            let o_roll = rng.gen_range(0..10u32);
            let o_is_var = o_roll <= 4;
            let s = if link_on_subject || !o_is_var {
                link.unwrap_or_else(|| fresh(&mut vars, &mut next_var))
            } else {
                fresh(&mut vars, &mut next_var)
            };
            let p = if rng.gen_bool(0.05) {
                QTerm::Var(fresh(&mut vars, &mut next_var))
            } else {
                QTerm::Term(any_prop(rng))
            };
            let o = if o_is_var {
                let v = if !link_on_subject {
                    link.unwrap_or_else(|| fresh(&mut vars, &mut next_var))
                } else {
                    fresh(&mut vars, &mut next_var)
                };
                QTerm::Var(v)
            } else if o_roll <= 7 {
                QTerm::Term(any_individual(rng))
            } else {
                QTerm::Term(literal(rng.gen_range(0..N_LITERALS)))
            };
            atoms.push(AtomSpec { s: QTerm::Var(s), p, o });
        }
    }

    let spec = QuerySpec { head: Vec::new(), atoms };
    let body_vars = spec.variables();
    // Non-empty random subset of the body variables as the head.
    let mut head: Vec<u16> = body_vars.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
    if head.is_empty() {
        head.push(body_vars[rng.gen_range(0..body_vars.len())]);
    }
    QuerySpec { head, atoms: spec.atoms }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_case() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            assert_eq!(gen_case(seed), gen_case(seed));
        }
    }

    #[test]
    fn head_is_subset_of_body_vars() {
        for seed in 0..500u64 {
            let case = gen_case(seed);
            let vars = case.query.variables();
            for h in &case.query.head {
                assert!(vars.contains(h), "seed {seed}: head var ?v{h} not in body");
            }
            if !case.query.atoms.is_empty() {
                assert!(!case.query.head.is_empty(), "seed {seed}: empty head");
            }
        }
    }

    #[test]
    fn every_case_has_the_hierarchy_backbone() {
        for seed in [0u64, 7, 42, 9999] {
            let case = gen_case(seed);
            let sub = |child: usize, parent: usize| {
                case.triples.iter().any(|t| {
                    t.s == class(child)
                        && t.p == Term::uri(vocab::RDFS_SUBCLASS_OF)
                        && t.o == class(parent)
                })
            };
            // Depth-4 chain, 4-wide fan-out, and the C9 diamond.
            for i in 1..=4 {
                assert!(sub(i, i - 1), "seed {seed}: chain edge C{i} ⊑ C{}", i - 1);
            }
            for i in 5..=8 {
                assert!(sub(i, 0), "seed {seed}: fan-out edge C{i} ⊑ C0");
            }
            assert!(sub(9, 5) && sub(9, 6), "seed {seed}: diamond C9 ⊑ C5, C6");
        }
    }

    #[test]
    fn hierarchies_are_stated_parent_before_children() {
        for seed in [0u64, 7, 42, 9999] {
            let case = gen_case(seed);
            for p in [vocab::RDFS_SUBCLASS_OF, vocab::RDFS_SUBPROPERTY_OF] {
                let edges: Vec<&Triple> =
                    case.triples.iter().filter(|t| t.p == Term::uri(p)).collect();
                for (k, edge) in edges.iter().enumerate() {
                    // A parent that is itself a child was reached earlier.
                    let parent_is_child = edges.iter().any(|e| e.s == edge.o);
                    assert!(
                        !parent_is_child || edges[..k].iter().any(|e| e.s == edge.o),
                        "seed {seed}: `{}` stated before its parent `{}` was reached",
                        edge.s,
                        edge.o
                    );
                }
            }
        }
        // The walk: C1's subtree before C0's next child, the diamond's
        // second edge where its second parent is visited.
        let edges = [(1, 0), (2, 1), (3, 0), (4, 2), (4, 3)];
        assert_eq!(parent_first(5, &edges), vec![(1, 0), (2, 1), (4, 2), (3, 0), (4, 3)]);
    }

    #[test]
    fn generates_every_shape() {
        let (mut zero, mut one, mut four) = (false, false, false);
        for seed in 0..500u64 {
            match gen_case(seed).query.atoms.len() {
                0 => zero = true,
                1 => one = true,
                4 => four = true,
                _ => {}
            }
        }
        assert!(zero && one && four, "generator covers 0/1/4-atom queries");
    }
}
