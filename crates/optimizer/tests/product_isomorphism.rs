//! The product path and the fixpoint agree modulo isomorphism.
//!
//! Reformulation dispatches a fragment whose atoms are independent (no
//! atom's instantiable variable occurs in another atom) to the product
//! of its atoms' rewritings, and every other one to the breadth-first
//! fixpoint. Both canonicalize members by sorting atoms and renaming
//! existential variables by first occurrence, which is not a canonical
//! form modulo isomorphism: existential variables whose atoms tie under
//! the sort are numbered in input order. So the two paths may keep
//! different members of the same isomorphism class, and each may keep
//! two members of one class. This test holds them to the same union up
//! to isomorphism, over every independent fragment of the LUBM-like
//! (1 university) and DBLP-like (200 authors) workload queries under
//! both heads (those of at most 20 000 members), by canonicalizing every member over all permutations of
//! its existential variables; it prints how many members each path
//! keeps that are isomorphic to an earlier one.
//!
//! Run: `cargo test --release -p jucq-optimizer --test product_isomorphism -- --nocapture`

mod common;

use common::{fragments, reference, workloads};
use jucq_model::FxHashSet;
use jucq_reformulation::reformulate::{reformulate_fixpoint, reformulate_with_limit};
use jucq_reformulation::ReformulationEnv;
use jucq_store::{PatternTerm, StoreCq, StorePattern, StoreUcq, VarId};

/// A member up to the names of its existential variables: its head and
/// the least sorted body over the bijections of those variables onto
/// `FIRST..FIRST + k` that respect their views (below).
type IsoClass = (Vec<PatternTerm>, Vec<StorePattern>);

/// The widest union compared: the fixpoint expands every member by
/// every rewriting of each of its atoms, so the fragments of tens of
/// thousands of members would take minutes.
const ISOMORPHISM_LIMIT: usize = 20_000;

/// Renamed existential variables start here, above every query variable.
const FIRST: VarId = 60_000;

/// Brute force: the least renamed body over every allowed bijection.
/// An existential variable's *view* — the sorted atoms it occurs in,
/// itself marked and every other existential anonymous — does not
/// depend on the names, so variables are ordered by view and only
/// those with equal views are permuted among themselves: the set of
/// bodies tried, and so its least element, is the same for every
/// member of the isomorphism class.
fn iso_class(cq: &StoreCq) -> IsoClass {
    let existential = |v: VarId| !cq.head.contains(&PatternTerm::Var(v));
    let view = |v: VarId| -> Vec<StorePattern> {
        let mark = |t: PatternTerm| match t {
            PatternTerm::Var(w) if w == v => PatternTerm::Var(VarId::MAX),
            PatternTerm::Var(w) if existential(w) => PatternTerm::Var(VarId::MAX - 1),
            t => t,
        };
        let mut atoms: Vec<StorePattern> = (cq.patterns.iter())
            .filter(|p| p.variables().contains(&v))
            .map(|p| StorePattern::new(mark(p.s), mark(p.p), mark(p.o)))
            .collect();
        atoms.sort_unstable();
        atoms
    };
    let mut keyed: Vec<(Vec<StorePattern>, VarId)> =
        cq.body_var_iter().filter(|&v| existential(v)).map(|v| (view(v), v)).collect();
    keyed.sort_unstable();
    keyed.dedup();
    // Blocks of equal views, each in ascending variable order: the first
    // permutation of each.
    let mut blocks: Vec<std::ops::Range<usize>> = Vec::new();
    for i in 0..keyed.len() {
        match blocks.last_mut() {
            Some(b) if keyed[b.start].0 == keyed[i].0 => b.end = i + 1,
            _ => blocks.push(i..i + 1),
        }
    }
    let mut order: Vec<VarId> = keyed.iter().map(|&(_, v)| v).collect();
    let tries: usize = blocks.iter().map(|b| (1..=b.len()).product::<usize>()).product();
    assert!(tries <= 40_320, "brute force over {tries} bijections");
    let mut best: Option<Vec<StorePattern>> = None;
    loop {
        let rename = |t: PatternTerm| match t {
            PatternTerm::Var(v) => match order.iter().position(|&e| e == v) {
                Some(i) => PatternTerm::Var(FIRST + i as VarId),
                None => t,
            },
            PatternTerm::Const(_) => t,
        };
        let mut body: Vec<StorePattern> = (cq.patterns.iter())
            .map(|p| StorePattern::new(rename(p.s), rename(p.p), rename(p.o)))
            .collect();
        body.sort_unstable();
        body.dedup();
        if best.as_ref().is_none_or(|b| body < *b) {
            best = Some(body);
        }
        // The next bijection: the last block that has a next permutation
        // takes it, every block after it restarts from its first.
        let Some(advanced) = blocks.iter().rposition(|b| next_permutation(&mut order[b.clone()]))
        else {
            break;
        };
        for b in &blocks[advanced + 1..] {
            order[b.clone()].sort_unstable();
        }
    }
    (cq.head.clone(), best.expect("at least the identity bijection"))
}

/// Step `perm` to the next permutation in lexicographic order; false,
/// leaving it as it is, after the last one.
fn next_permutation(perm: &mut [VarId]) -> bool {
    let Some(i) = (1..perm.len()).rev().find(|&i| perm[i - 1] < perm[i]) else {
        return false;
    };
    let j = (i..perm.len()).rev().find(|&j| perm[j] > perm[i - 1]).expect("perm[i] qualifies");
    perm.swap(i - 1, j);
    perm[i..].reverse();
    true
}

/// A union's isomorphism classes, and how many of its members repeat
/// a class an earlier member has.
fn classes(ucq: &StoreUcq) -> (FxHashSet<IsoClass>, usize) {
    let mut set = FxHashSet::default();
    let repeats = ucq.cqs.iter().filter(|cq| !set.insert(iso_class(cq))).count();
    (set, repeats)
}

#[test]
fn product_and_fixpoint_agree_up_to_isomorphism() {
    let (mut checked, mut differ, mut repeats, mut over_limit) = (0usize, 0usize, 0usize, 0usize);
    for w in workloads() {
        let env = ReformulationEnv { closure: &w.closure, rdf_type: w.rdf_type };
        for (name, q) in &w.queries {
            let masks = q.atom_masks().expect("workload queries fit the mask width");
            for (fragment, heads) in fragments(q) {
                for head in heads {
                    let cq = masks.cover_query(q, fragment, head);
                    if cq.len() < 2 || !reference::atoms_independent(&cq, w.rdf_type) {
                        continue;
                    }
                    let at = format!("{} {name} fragment {fragment:#b} head {head:#b}", w.name);
                    let Ok(product) = reformulate_with_limit(&cq, &env, ISOMORPHISM_LIMIT) else {
                        over_limit += 1;
                        continue;
                    };
                    let fixpoint = reformulate_fixpoint(&cq, &env, usize::MAX).expect("no limit");
                    checked += 1;
                    let members = |u: &StoreUcq| u.cqs.iter().cloned().collect::<FxHashSet<_>>();
                    differ += usize::from(members(&product) != members(&fixpoint));
                    let (p, p_repeats) = classes(&product);
                    let (f, f_repeats) = classes(&fixpoint);
                    assert!(p == f, "{at}: the two paths' unions are not isomorphic");
                    if p_repeats + f_repeats > 0 {
                        println!(
                            "{at}: {} vs {} members, {p_repeats} + {f_repeats} isomorphic repeats",
                            product.len(),
                            fixpoint.len()
                        );
                    }
                    repeats += p_repeats + f_repeats;
                }
            }
        }
    }
    println!(
        "{checked} independent fragment reformulations: {differ} differ as member sets, \
         all agree up to isomorphism; {repeats} isomorphic repeats over both paths; \
         {over_limit} over {ISOMORPHISM_LIMIT} members, not compared"
    );
    assert!(checked > 1_000, "the workloads have independent multi-atom fragments");
}
