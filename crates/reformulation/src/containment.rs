//! Conjunctive-query containment and union minimization.
//!
//! The classical tool behind "minimal" reformulations in the paper's
//! related work \[14, 15\]: member `q₂` of a union is redundant when it is
//! **contained** in another member `q₁` (`q₂ ⊑ q₁`), i.e. there is a
//! homomorphism from `q₁`'s body to `q₂`'s body mapping `q₁`'s head to
//! `q₂`'s head (Chandra–Merlin). Exhaustive reformulation algorithms —
//! including the paper's reference algorithm, see its Example 4 where
//! items (1), (4) and (8) are instantiations subsumed by item (0) —
//! produce such members; [`minimize_ucq`] drops them without changing
//! the union's answers.
//!
//! Containment is NP-complete in general; the queries here are tiny
//! (≤ 10 atoms), so plain backtracking is fine. Minimizing a union is
//! quadratic in its member count, so it is an *opt-in* optimization:
//! only `Strategy::MinimizedUcq` and the differential fuzzer's oracle
//! run it.

use jucq_model::FxHashMap;
use jucq_store::{PatternTerm, StoreCq, StoreUcq, VarId};

/// A (partial) variable assignment for the candidate homomorphism.
type Assignment = FxHashMap<VarId, PatternTerm>;

/// Apply the assignment to one term (variables unmapped so far stay).
fn image(t: PatternTerm, a: &Assignment) -> PatternTerm {
    match t {
        PatternTerm::Var(v) => a.get(&v).copied().unwrap_or(t),
        c => c,
    }
}

/// Try to unify term `from` (of the container query) with term `to`
/// (of the contained query) under `a`; extends `a` on success.
///
/// A variable already mapped — whether to a constant or to a variable
/// of the contained query — must map to exactly `to` again; matching
/// on the *image* here instead would drop into the variable arm when
/// the image is a variable and silently rebind it under the contained
/// query's id, accepting homomorphisms that break join variables
/// (found by the differential fuzzer: minimization then drops
/// non-redundant union members).
fn unify(from: PatternTerm, to: PatternTerm, a: &mut Assignment) -> bool {
    match from {
        PatternTerm::Const(_) => to == from,
        PatternTerm::Var(v) => match a.get(&v) {
            Some(&mapped) => mapped == to,
            None => {
                a.insert(v, to);
                true
            }
        },
    }
}

/// Backtracking search for a homomorphism mapping every atom of
/// `container` into some atom of `contained`.
fn embed(container: &StoreCq, contained: &StoreCq, atom_index: usize, a: &mut Assignment) -> bool {
    let Some(atom) = container.patterns.get(atom_index) else {
        // All atoms mapped; the head must map exactly.
        return container.head.iter().zip(&contained.head).all(|(&from, &to)| image(from, a) == to);
    };
    for target in &contained.patterns {
        let snapshot = a.clone();
        if unify(atom.s, target.s, a)
            && unify(atom.p, target.p, a)
            && unify(atom.o, target.o, a)
            && embed(container, contained, atom_index + 1, a)
        {
            return true;
        }
        *a = snapshot;
    }
    false
}

/// True iff `sub ⊑ sup`: every answer of `sub` is an answer of `sup`
/// on every database (plain CQ containment; both heads must have the
/// same arity).
pub fn is_contained(sub: &StoreCq, sup: &StoreCq) -> bool {
    if sub.head.len() != sup.head.len() {
        return false;
    }
    let mut a = Assignment::default();
    embed(sup, sub, 0, &mut a)
}

/// Drop union members contained in another member. The result answers
/// identically on every database (verified by property tests) but can
/// be substantially smaller: exhaustive reformulation keeps, for
/// example, every pure class-instantiation of a class-variable atom,
/// all of which the original member subsumes.
pub fn minimize_ucq(ucq: &StoreUcq) -> StoreUcq {
    let n = ucq.cqs.len();
    let mut keep = vec![true; n];
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        if !keep[i] {
            continue;
        }
        for j in 0..n {
            if i == j || !keep[j] {
                continue;
            }
            // Drop j if it is contained in i. Ties (mutually contained,
            // i.e. equivalent members) keep the earlier one.
            if is_contained(&ucq.cqs[j], &ucq.cqs[i]) {
                if is_contained(&ucq.cqs[i], &ucq.cqs[j]) && j < i {
                    continue;
                }
                keep[j] = false;
            }
        }
    }
    let cqs: Vec<StoreCq> =
        ucq.cqs.iter().zip(&keep).filter(|(_, &k)| k).map(|(cq, _)| cq.clone()).collect();
    StoreUcq::new(cqs, ucq.head.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::term::TermKind;
    use jucq_model::TermId;
    use jucq_store::StorePattern;

    fn c(i: u32) -> PatternTerm {
        PatternTerm::Const(TermId::new(TermKind::Uri, i))
    }

    fn v(i: VarId) -> PatternTerm {
        PatternTerm::Var(i)
    }

    fn cq(patterns: Vec<StorePattern>, head: Vec<PatternTerm>) -> StoreCq {
        StoreCq::new(patterns, head)
    }

    #[test]
    fn instantiation_is_contained_in_the_variable_atom() {
        // q_sub(x, Book):- x τ Book  ⊑  q_sup(x, y):- x τ y.
        let sup = cq(vec![StorePattern::new(v(0), c(9), v(1))], vec![v(0), v(1)]);
        let sub = cq(vec![StorePattern::new(v(0), c(9), c(5))], vec![v(0), c(5)]);
        assert!(is_contained(&sub, &sup));
        assert!(!is_contained(&sup, &sub), "the variable atom is strictly larger");
    }

    #[test]
    fn subproperty_member_is_not_contained() {
        // q_sub(x):- x writtenBy y is NOT contained in q_sup(x):- x hasAuthor y
        // (different constants), and vice versa.
        let by = cq(vec![StorePattern::new(v(0), c(1), v(1))], vec![v(0)]);
        let author = cq(vec![StorePattern::new(v(0), c(2), v(1))], vec![v(0)]);
        assert!(!is_contained(&by, &author));
        assert!(!is_contained(&author, &by));
    }

    #[test]
    fn extra_atoms_restrict() {
        // q_sub(x):- (x p y)(x q z)  ⊑  q_sup(x):- (x p y).
        let sup = cq(vec![StorePattern::new(v(0), c(1), v(1))], vec![v(0)]);
        let sub = cq(
            vec![StorePattern::new(v(0), c(1), v(1)), StorePattern::new(v(0), c(2), v(2))],
            vec![v(0)],
        );
        assert!(is_contained(&sub, &sup));
        assert!(!is_contained(&sup, &sub));
    }

    #[test]
    fn head_mismatch_blocks_containment() {
        // Same bodies, different head columns.
        let a = cq(vec![StorePattern::new(v(0), c(1), v(1))], vec![v(0)]);
        let b = cq(vec![StorePattern::new(v(0), c(1), v(1))], vec![v(1)]);
        assert!(!is_contained(&a, &b));
        assert!(!is_contained(&b, &a));
    }

    #[test]
    fn repeated_variables_matter() {
        // q_sub(x):- x p x  ⊑  q_sup(x):- x p y, not conversely.
        let sup = cq(vec![StorePattern::new(v(0), c(1), v(1))], vec![v(0)]);
        let sub = cq(vec![StorePattern::new(v(0), c(1), v(0))], vec![v(0)]);
        assert!(is_contained(&sub, &sup));
        assert!(!is_contained(&sup, &sub));
    }

    #[test]
    fn equivalent_members_collapse_to_one() {
        // Two alpha-equivalent members; minimization keeps exactly one.
        let m1 = cq(vec![StorePattern::new(v(0), c(1), v(5))], vec![v(0)]);
        let m2 = cq(vec![StorePattern::new(v(0), c(1), v(7))], vec![v(0)]);
        let ucq = StoreUcq::new(vec![m1, m2], vec![0]);
        let min = minimize_ucq(&ucq);
        assert_eq!(min.len(), 1);
    }

    #[test]
    fn minimization_drops_subsumed_instantiations() {
        // Union: (x τ y) + the instantiations (x τ C5) and (x τ C6);
        // both instantiations are redundant.
        let general = cq(vec![StorePattern::new(v(0), c(9), v(1))], vec![v(0), v(1)]);
        let inst5 = cq(vec![StorePattern::new(v(0), c(9), c(5))], vec![v(0), c(5)]);
        let inst6 = cq(vec![StorePattern::new(v(0), c(9), c(6))], vec![v(0), c(6)]);
        // And a genuinely new member via a different property.
        let derived = cq(vec![StorePattern::new(v(0), c(3), v(2))], vec![v(0), c(5)]);
        let ucq = StoreUcq::new(vec![general.clone(), inst5, inst6, derived.clone()], vec![0, 1]);
        let min = minimize_ucq(&ucq);
        assert_eq!(min.len(), 2);
        assert_eq!(min.cqs[0], general);
        assert_eq!(min.cqs[1], derived);
    }

    #[test]
    fn join_variable_cannot_be_rebound() {
        // sup(x):- (x p y)(y q z) joins its atoms on y; sub(x):-
        // (x p y)(z q w) does not, so sub ⋢ sup — any homomorphism
        // must map y to both y and z at once. The converse embedding
        // exists (y ↦ y for the p-atom, z ↦ y for the q-atom's
        // subject), so sup ⊑ sub.
        let sup = cq(
            vec![StorePattern::new(v(0), c(1), v(1)), StorePattern::new(v(1), c(2), v(2))],
            vec![v(0)],
        );
        let sub = cq(
            vec![StorePattern::new(v(0), c(1), v(1)), StorePattern::new(v(2), c(2), v(3))],
            vec![v(0)],
        );
        assert!(!is_contained(&sub, &sup), "join on y must block the embedding");
        assert!(is_contained(&sup, &sub));
    }

    #[test]
    fn minimizing_a_singleton_is_identity() {
        let m = cq(vec![StorePattern::new(v(0), c(1), v(1))], vec![v(0)]);
        let ucq = StoreUcq::new(vec![m.clone()], vec![0]);
        assert_eq!(minimize_ucq(&ucq).cqs, vec![m]);
    }
}
