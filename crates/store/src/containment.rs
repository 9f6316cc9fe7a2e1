//! Conjunctive-query containment, the planner's one test for redundant
//! atoms and union members. `q₂ ⊑ q₁` iff a homomorphism maps `q₁`'s
//! body into `q₂`'s and `q₁`'s head onto `q₂`'s position by position
//! (Chandra–Merlin). Reformulation produces contained members routinely
//! (the paper's Example 4: items (1), (4) and (8) are instantiations of
//! item (0)) and atoms another atom implies; [`minimize_union`], the
//! planner's member-dedup pass, removes both without changing a union's
//! answers under set semantics. Members have a handful of atoms, so a
//! backtracking search is enough. It stays cheap on the cold path: a
//! 64-bit signature of each member's constants rejects most pairs
//! before any search (a container's constants all occur in what it
//! contains), and the assignment is a `VarId`-indexed array undone
//! through a trail.

use jucq_model::FxHashSet;

use crate::ir::{PatternTerm, StoreCq, StorePattern, VarId};

/// Sibling subsumption is pairwise, so it is skipped beyond this union
/// width (cores and exact-duplicate elimination are linear and run).
pub const SUBSUMPTION_MEMBER_LIMIT: usize = 2_000;

/// A union member as [`minimize_union`] sees it: a CQ whose atoms can be
/// removed (the planner's draft member also drops the atom's extent).
pub trait UnionMember {
    /// The member's query.
    fn cq(&self) -> &StoreCq;
    /// Remove body atom `atom`.
    fn remove_atom(&mut self, atom: usize);
}

/// A partial homomorphism: the image of each container variable, undone
/// through a trail of the variables bound since a mark.
struct Homomorphism {
    image: Vec<Option<PatternTerm>>,
    trail: Vec<VarId>,
}

impl Homomorphism {
    /// An empty assignment able to bind every variable of `cqs`.
    fn for_queries<'a>(cqs: impl IntoIterator<Item = &'a StoreCq>) -> Self {
        let vars = cqs
            .into_iter()
            .flat_map(|cq| cq.head.iter().filter_map(|t| t.as_var()).chain(cq.body_var_iter()))
            .max()
            .map_or(0, |v| v as usize + 1);
        Homomorphism { image: vec![None; vars], trail: Vec::new() }
    }

    fn undo(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.image[v as usize] = None;
        }
    }

    /// Map `from` (a container term) onto `to`: a constant only onto
    /// itself, a bound variable only onto its image.
    fn unify(&mut self, from: PatternTerm, to: PatternTerm) -> bool {
        match from {
            PatternTerm::Const(_) => from == to,
            PatternTerm::Var(v) => match self.image[v as usize] {
                Some(mapped) => mapped == to,
                None => {
                    self.image[v as usize] = Some(to);
                    self.trail.push(v);
                    true
                }
            },
        }
    }

    /// Is there a homomorphism from `from` into `to`'s body without atom
    /// `skip`, mapping `from`'s head onto `to`'s position by position?
    /// Leaves the assignment empty.
    fn maps(&mut self, from: &StoreCq, to: &StoreCq, skip: Option<usize>) -> bool {
        let found = from.head.len() == to.head.len()
            && from.head.iter().zip(&to.head).all(|(&f, &t)| self.unify(f, t))
            && self.embed(&from.patterns, &to.patterns, skip, 0);
        self.undo(0);
        found
    }

    /// Map `from`'s atoms from the `i`-th on, trying each target atom in
    /// turn. With `skip` set, the skipped atom is mapped first: it is the
    /// one with no image of its own, so its candidates fail fastest.
    fn embed(
        &mut self,
        from: &[StorePattern],
        to: &[StorePattern],
        skip: Option<usize>,
        i: usize,
    ) -> bool {
        if i == from.len() {
            return true;
        }
        let atom = match skip {
            Some(a) if i == 0 => from[a],
            Some(a) if i <= a => from[i - 1],
            _ => from[i],
        };
        let mark = self.trail.len();
        for (j, target) in to.iter().enumerate() {
            if skip == Some(j) {
                continue;
            }
            if self.unify(atom.s, target.s)
                && self.unify(atom.p, target.p)
                && self.unify(atom.o, target.o)
                && self.embed(from, to, skip, i + 1)
            {
                return true;
            }
            self.undo(mark);
        }
        false
    }

    /// The last atom of `cq` whose removal leaves an equivalent query.
    fn redundant_atom(&mut self, cq: &StoreCq) -> Option<usize> {
        (0..cq.patterns.len()).rev().find(|&a| self.maps(cq, cq, Some(a)))
    }
}

/// True iff `sub ⊑ sup`: every answer of `sub` is an answer of `sup` on
/// every database (plain CQ containment; the heads must have the same
/// arity).
pub fn is_contained(sub: &StoreCq, sup: &StoreCq) -> bool {
    Homomorphism::for_queries([sup]).maps(sup, sub, None)
}

/// An atom of `cq` whose removal leaves an equivalent query — `cq` maps
/// into its body without the atom, head fixed — if any; the last such
/// atom. Removing atoms until there is none leaves the core of `cq`.
/// The shape reformulation produces is a rule meeting the query's own
/// atom: `(?x takesCourse ?1) ⋈ (?x takesCourse ?2)` with head `[?x]`
/// probes every row for matches the head then projects away.
pub fn redundant_atom(cq: &StoreCq) -> Option<usize> {
    Homomorphism::for_queries([cq]).redundant_atom(cq)
}

/// The constants of `cq`, body and head, hashed into 64 bits: a
/// container's signature is a subset of what it contains.
fn signature(cq: &StoreCq) -> u64 {
    let body = cq.patterns.iter().flat_map(|p| p.positions());
    body.chain(cq.head.iter().copied())
        .filter_map(PatternTerm::as_const)
        .fold(0, |sig, c| sig | 1 << (c.raw().wrapping_mul(0x9E37_79B9) >> 26))
}

/// Drop what a union does not need, in place: every member becomes its
/// core, then exact duplicates go, then (up to
/// [`SUBSUMPTION_MEMBER_LIMIT`] members) every member contained in a
/// sibling goes, the earlier of two equivalent members staying. The
/// union answers the same on every database. Survivors keep their
/// order.
pub fn minimize_union<M: UnionMember>(members: &mut Vec<M>) {
    let mut h = Homomorphism::for_queries(members.iter().map(M::cq));
    for m in members.iter_mut() {
        while let Some(atom) = h.redundant_atom(m.cq()) {
            m.remove_atom(atom);
        }
    }
    let fresh: Vec<bool> = {
        let mut seen = FxHashSet::default();
        members.iter().map(|m| seen.insert(m.cq())).collect()
    };
    let mut flags = fresh.iter();
    members.retain(|_| *flags.next().expect("one flag per member"));

    let n = members.len();
    if !(2..=SUBSUMPTION_MEMBER_LIMIT).contains(&n) {
        return;
    }
    let sig: Vec<u64> = members.iter().map(|m| signature(m.cq())).collect();
    let mut dropped = vec![false; n];
    for j in 0..n {
        // A member dropped earlier is no witness; one that contains it
        // and is never dropped is, so no subsumption is missed.
        dropped[j] = (0..n).any(|i| {
            i != j
                && !dropped[i]
                && sig[i] & !sig[j] == 0
                && h.maps(members[i].cq(), members[j].cq(), None)
                && (i < j
                    || sig[j] & !sig[i] != 0
                    || !h.maps(members[j].cq(), members[i].cq(), None))
        });
    }
    let mut flags = dropped.iter();
    members.retain(|_| !*flags.next().expect("one flag per member"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::term::TermKind;
    use jucq_model::TermId;

    fn c(i: u32) -> PatternTerm {
        PatternTerm::Const(TermId::new(TermKind::Uri, i))
    }

    fn v(i: VarId) -> PatternTerm {
        PatternTerm::Var(i)
    }

    fn cq(patterns: Vec<StorePattern>, head: Vec<PatternTerm>) -> StoreCq {
        StoreCq::new(patterns, head)
    }

    impl UnionMember for StoreCq {
        fn cq(&self) -> &StoreCq {
            self
        }

        fn remove_atom(&mut self, atom: usize) {
            self.patterns.remove(atom);
        }
    }

    fn minimized(members: Vec<StoreCq>) -> Vec<StoreCq> {
        let mut members = members;
        minimize_union(&mut members);
        members
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
        // Two alpha-equivalent members; minimization keeps the first.
        let m1 = cq(vec![StorePattern::new(v(0), c(1), v(5))], vec![v(0)]);
        let m2 = cq(vec![StorePattern::new(v(0), c(1), v(7))], vec![v(0)]);
        assert_eq!(minimized(vec![m1.clone(), m2]), vec![m1]);
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
        let min = minimized(vec![inst5, general.clone(), inst6, derived.clone()]);
        assert_eq!(min, vec![general, derived]);
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
        assert_eq!(minimized(vec![m.clone()]), vec![m]);
    }

    #[test]
    fn a_class_atom_beside_an_existential_class_atom_is_its_core() {
        // q(x):- (x τ C)(x τ ?c): the existential atom maps onto the
        // constant one, so the core keeps only (x τ C) — which no
        // syntactic "other atom agrees" test drops, the two atoms
        // disagreeing on a constant.
        let body = vec![StorePattern::new(v(0), c(9), c(5)), StorePattern::new(v(0), c(9), v(1))];
        assert_eq!(redundant_atom(&cq(body.clone(), vec![v(0)])), Some(1));
        let core = minimized(vec![cq(body, vec![v(0)])]);
        assert_eq!(core, vec![cq(vec![StorePattern::new(v(0), c(9), c(5))], vec![v(0)])]);
        // With ?c in the head the atom is an output: nothing to drop.
        let out = vec![StorePattern::new(v(0), c(9), c(5)), StorePattern::new(v(0), c(9), v(1))];
        assert_eq!(redundant_atom(&cq(out, vec![v(0), v(1)])), None);
    }

    #[test]
    fn a_head_constant_is_contained_under_a_head_variable() {
        // q₁(x, y):- (x p y) contains q₂(x, C):- (x p C)(x q z): the
        // head variable y maps onto the constant C.
        let general = cq(vec![StorePattern::new(v(0), c(1), v(1))], vec![v(0), v(1)]);
        let constant = cq(
            vec![StorePattern::new(v(0), c(1), c(7)), StorePattern::new(v(0), c(2), v(2))],
            vec![v(0), c(7)],
        );
        assert!(is_contained(&constant, &general));
        assert_eq!(minimized(vec![constant, general.clone()]), vec![general]);
    }

    #[test]
    fn a_two_atom_path_folds_onto_one_loop() {
        // q(x):- (x p y)(y p x)(x p x): y ↦ x folds both path atoms
        // onto the loop, so the core is the loop alone. No atom agrees
        // with another wherever it does not hold a private variable —
        // y is shared — so only the homomorphism sees it.
        let body = vec![
            StorePattern::new(v(0), c(1), v(1)),
            StorePattern::new(v(1), c(1), v(0)),
            StorePattern::new(v(0), c(1), v(0)),
        ];
        let core = minimized(vec![cq(body, vec![v(0)])]);
        assert_eq!(core, vec![cq(vec![StorePattern::new(v(0), c(1), v(0))], vec![v(0)])]);
        // A sibling member that is the path alone contains the loop.
        let path = cq(
            vec![StorePattern::new(v(0), c(1), v(1)), StorePattern::new(v(1), c(1), v(0))],
            vec![v(0)],
        );
        let min = minimized(vec![core[0].clone(), path.clone()]);
        assert_eq!(min, vec![path]);
    }
}
