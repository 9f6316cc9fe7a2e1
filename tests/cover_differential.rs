//! The bitmask [`Cover`] against the set-of-sets implementation it
//! replaced.
//!
//! The oracle below is the previous `BTreeSet<BTreeSet<usize>>` cover
//! code, kept verbatim in behaviour (validation order, the GCov move,
//! cost-ordered redundancy pruning, Definition 3.4 heads, rendering,
//! ordering). The mask implementation must agree with it on every
//! family of fragments of small generated queries, on every cover of
//! queries up to six atoms, and along random move sequences on queries
//! up to twelve atoms — including bodies with repeated variables,
//! variable predicates, variable-free atoms and disconnected
//! components.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};

use jucq_model::term::TermKind;
use jucq_model::TermId;
use jucq_qa::gen::gen_query_sized;
use jucq_qa::{QTerm, QuerySpec};
use jucq_reformulation::{bits, AtomMask, BgpQuery, Cover, CoverError};
use jucq_store::{PatternTerm, StorePattern, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The set-of-sets cover implementation, as it stood before covers
/// became bitmasks.
mod oracle {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct SetCover {
        fragments: BTreeSet<BTreeSet<usize>>,
    }

    fn atoms_join(q: &BgpQuery, i: usize, j: usize) -> bool {
        let vi = q.atoms[i].variables();
        q.atoms[j].variables().iter().any(|v| vi.contains(v))
    }

    pub fn atoms_connected(q: &BgpQuery, set: &[usize]) -> bool {
        if set.len() <= 1 {
            return true;
        }
        let mut seen = vec![false; set.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(i) = stack.pop() {
            for j in 0..set.len() {
                if !seen[j] && atoms_join(q, set[i], set[j]) {
                    seen[j] = true;
                    count += 1;
                    stack.push(j);
                }
            }
        }
        count == set.len()
    }

    fn distinct_vars(q: &BgpQuery, atoms: &[usize]) -> Vec<VarId> {
        let mut out = Vec::new();
        for &i in atoms {
            for v in q.atoms[i].variables() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    fn cover_query_in(q: &BgpQuery, fragment: &[usize], other_atoms: &[usize]) -> BgpQuery {
        let other_vars = distinct_vars(q, other_atoms);
        let head = distinct_vars(q, fragment)
            .into_iter()
            .filter(|v| q.head.contains(v) || other_vars.contains(v))
            .collect();
        BgpQuery { head, atoms: fragment.iter().map(|&i| q.atoms[i]).collect(), limit: None }
    }

    impl SetCover {
        pub fn new(q: &BgpQuery, fragments: Vec<Vec<usize>>) -> Result<Self, CoverError> {
            let n = q.len();
            let mut sets: BTreeSet<BTreeSet<usize>> = BTreeSet::new();
            for f in fragments {
                if f.is_empty() {
                    return Err(CoverError::EmptyFragment);
                }
                if let Some(&bad) = f.iter().find(|&&i| i >= n) {
                    return Err(CoverError::AtomOutOfRange { index: bad });
                }
                sets.insert(f.into_iter().collect());
            }
            let cover = SetCover { fragments: sets };
            cover.validate(q)?;
            Ok(cover)
        }

        fn validate(&self, q: &BgpQuery) -> Result<(), CoverError> {
            for i in 0..q.len() {
                if !self.fragments.iter().any(|f| f.contains(&i)) {
                    return Err(CoverError::MissingAtom { index: i });
                }
            }
            for a in &self.fragments {
                for b in &self.fragments {
                    if a != b && a.is_subset(b) {
                        return Err(CoverError::IncludedFragment);
                    }
                }
            }
            for f in &self.fragments {
                let idx: Vec<usize> = f.iter().copied().collect();
                if !atoms_connected(q, &idx) {
                    return Err(CoverError::DisconnectedFragment);
                }
            }
            if self.fragments.len() > 1 {
                for f in &self.fragments {
                    let f_vars: BTreeSet<_> =
                        f.iter().flat_map(|&i| q.atoms[i].variables()).collect();
                    let joins_other = self.fragments.iter().any(|g| {
                        g != f
                            && g.iter()
                                .flat_map(|&i| q.atoms[i].variables())
                                .any(|v| f_vars.contains(&v))
                    });
                    if !joins_other {
                        return Err(CoverError::IsolatedFragment);
                    }
                }
            }
            Ok(())
        }

        pub fn fragments(&self) -> Vec<Vec<usize>> {
            self.fragments.iter().map(|f| f.iter().copied().collect()).collect()
        }

        pub fn cover_queries(&self, q: &BgpQuery) -> Vec<BgpQuery> {
            let frags = self.fragments();
            frags
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let mut others: Vec<usize> = frags
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .flat_map(|(_, g)| g.iter().copied())
                        .collect();
                    others.sort_unstable();
                    others.dedup();
                    cover_query_in(q, f, &others)
                })
                .collect()
        }

        pub fn add_atom(&self, q: &BgpQuery, frag_index: usize, atom: usize) -> Option<SetCover> {
            let mut frags = self.fragments();
            let target = frags.get_mut(frag_index)?;
            if target.contains(&atom) {
                return None;
            }
            target.push(atom);
            target.sort_unstable();
            let mut kept: Vec<Vec<usize>> = Vec::with_capacity(frags.len());
            for (i, f) in frags.iter().enumerate() {
                let fset: BTreeSet<usize> = f.iter().copied().collect();
                let redundant = frags.iter().enumerate().any(|(j, g)| {
                    if i == j {
                        return false;
                    }
                    let gset: BTreeSet<usize> = g.iter().copied().collect();
                    fset.is_subset(&gset) && (fset != gset || i > j)
                });
                if !redundant {
                    kept.push(f.clone());
                }
            }
            let candidate = SetCover::new(q, kept).ok()?;
            (candidate != *self).then_some(candidate)
        }

        pub fn prune_redundant_by(
            &self,
            q: &BgpQuery,
            mut cost: impl FnMut(&[usize]) -> f64,
        ) -> SetCover {
            let mut frags = self.fragments();
            loop {
                if frags.len() <= 1 {
                    break;
                }
                let mut order: Vec<usize> = (0..frags.len()).collect();
                order.sort_by(|&a, &b| {
                    cost(&frags[b])
                        .partial_cmp(&cost(&frags[a]))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut removed = false;
                for idx in order {
                    let rest: Vec<Vec<usize>> = frags
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != idx)
                        .map(|(_, f)| f.clone())
                        .collect();
                    if SetCover::new(q, rest).is_ok() {
                        frags.remove(idx);
                        removed = true;
                        break;
                    }
                }
                if !removed {
                    break;
                }
            }
            SetCover::new(q, frags).expect("pruning preserves validity")
        }
    }

    impl std::fmt::Display for SetCover {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let parts: Vec<String> = self
                .fragments
                .iter()
                .map(|frag| {
                    let ts: Vec<String> = frag.iter().map(|i| format!("t{}", i + 1)).collect();
                    format!("{{{}}}", ts.join(","))
                })
                .collect();
            write!(f, "{{{}}}", parts.join(", "))
        }
    }
}

use oracle::SetCover;

/// Encode a generated query against a throwaway dictionary: covers see
/// only which positions hold which variables.
fn encode(spec: &QuerySpec) -> BgpQuery {
    let mut ids: HashMap<String, u32> = HashMap::new();
    let mut term = |t: &QTerm| match t {
        QTerm::Var(v) => PatternTerm::Var(*v),
        QTerm::Term(t) => {
            let next = ids.len() as u32;
            let id = *ids.entry(format!("{t:?}")).or_insert(next);
            PatternTerm::Const(TermId::new(TermKind::Uri, id))
        }
    };
    let atoms =
        spec.atoms.iter().map(|a| StorePattern::new(term(&a.s), term(&a.p), term(&a.o))).collect();
    BgpQuery::new(spec.head.clone(), atoms)
}

fn c(i: u32) -> PatternTerm {
    PatternTerm::Const(TermId::new(TermKind::Uri, i))
}

fn v(i: VarId) -> PatternTerm {
    PatternTerm::Var(i)
}

/// Shapes the generator never draws: a variable repeated inside an
/// atom, atoms without variables, a variable in all three positions.
fn handcrafted() -> Vec<BgpQuery> {
    vec![
        // (x p x)(x q y)(y r y)
        BgpQuery::new(
            vec![0],
            vec![
                StorePattern::new(v(0), c(1), v(0)),
                StorePattern::new(v(0), c(2), v(1)),
                StorePattern::new(v(1), c(3), v(1)),
            ],
        ),
        // A ground atom next to a joined pair: it joins nothing, not
        // even a fragment that shares it.
        BgpQuery::new(
            vec![0],
            vec![
                StorePattern::new(c(7), c(1), c(8)),
                StorePattern::new(v(0), c(2), v(1)),
                StorePattern::new(v(1), c(3), v(2)),
            ],
        ),
        // A single ground atom.
        BgpQuery::new(vec![], vec![StorePattern::new(c(7), c(1), c(8))]),
        // (x y z)(z y w)(w p x): the predicate variable is a join
        // variable too.
        BgpQuery::new(
            vec![1, 3],
            vec![
                StorePattern::new(v(0), v(1), v(2)),
                StorePattern::new(v(2), v(1), v(3)),
                StorePattern::new(v(3), c(1), v(0)),
            ],
        ),
        // The same atom twice.
        BgpQuery::new(
            vec![0],
            vec![
                StorePattern::new(v(0), c(1), v(1)),
                StorePattern::new(v(0), c(1), v(1)),
                StorePattern::new(v(1), c(2), v(2)),
            ],
        ),
    ]
}

/// Generated queries of `atoms` atoms, one in eight disconnected, plus
/// the handcrafted shapes of that size.
fn queries(atoms: usize, count: u64) -> Vec<BgpQuery> {
    let mut out: Vec<BgpQuery> = (0..count)
        .map(|seed| encode(&gen_query_sized(seed * 31 + atoms as u64, atoms, seed % 8 == 7)))
        .collect();
    out.extend(handcrafted().into_iter().filter(|q| q.len() == atoms));
    out
}

fn indices(mask: AtomMask) -> Vec<usize> {
    bits(mask).collect()
}

/// A cost with plenty of ties, so the pruning order's tiebreak (canonical
/// fragment order) is exercised as much as the order itself.
fn tied_cost(fragment: &[usize]) -> f64 {
    let mask = fragment.iter().fold(0u64, |m, i| m | 1 << i);
    (mask.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61) as f64
}

fn hash_of(cover: &Cover) -> u64 {
    let mut h = DefaultHasher::new();
    cover.hash(&mut h);
    h.finish()
}

/// Everything observable about one cover, and every move from it.
fn assert_same_cover(q: &BgpQuery, ours: &Cover, theirs: &SetCover) {
    assert_eq!(ours.fragments(), theirs.fragments());
    assert_eq!(ours.len(), theirs.fragments().len());
    assert_eq!(ours.to_string(), theirs.to_string());
    assert_eq!(ours.cover_queries(q), theirs.cover_queries(q), "cover queries of {ours}");
    let masks = q.atom_masks().unwrap();
    for fi in 0..=ours.len() {
        for atom in 0..q.len() {
            let moved = ours.add_atom(&masks, fi, atom);
            let expected = theirs.add_atom(q, fi, atom);
            assert_eq!(
                moved.as_ref().map(Cover::fragments),
                expected.as_ref().map(SetCover::fragments),
                "{ours} + (f{fi} ← t{})",
                atom + 1
            );
        }
    }
    let mut asked = 0usize;
    let pruned = ours.prune_redundant_by(&masks, |f| {
        asked += 1;
        tied_cost(&indices(f))
    });
    assert!(asked <= ours.len(), "each fragment's cost is fetched at most once");
    assert_eq!(
        pruned.fragments(),
        theirs.prune_redundant_by(q, tied_cost).fragments(),
        "pruning {ours}"
    );
    // The plan cache translates a cover through a canonical atom
    // permutation by rebuilding it from its fragment lists.
    assert_eq!(Cover::new(q, ours.fragments()).as_ref(), Ok(ours));
}

/// Every valid cover of `q` whose fragments are connected, by the
/// cover-the-lowest-uncovered-atom enumeration ECov uses — over index
/// lists, so the enumeration itself owes nothing to the masks.
fn enumerate_covers(q: &BgpQuery) -> Vec<Vec<Vec<usize>>> {
    let n = q.len();
    let subsets: Vec<Vec<usize>> = (1u32..1 << n)
        .map(|m| (0..n).filter(|i| m & (1 << i) != 0).collect::<Vec<usize>>())
        .filter(|s| oracle::atoms_connected(q, s))
        .collect();
    let included = |a: &[usize], b: &[usize]| a.iter().all(|i| b.contains(i));
    let mut out = BTreeSet::new();
    let mut stack: Vec<Vec<Vec<usize>>> = vec![Vec::new()];
    while let Some(chosen) = stack.pop() {
        let Some(target) = (0..n).find(|i| !chosen.iter().any(|f| f.contains(i))) else {
            let mut family = chosen;
            family.sort();
            out.insert(family);
            continue;
        };
        for s in subsets.iter().filter(|s| s.contains(&target)) {
            if !chosen.iter().any(|f| included(f, s) || included(s, f)) {
                let mut next = chosen.clone();
                next.push(s.clone());
                stack.push(next);
            }
        }
    }
    out.into_iter().collect()
}

#[test]
fn every_family_of_fragments_validates_alike() {
    // ≤ 3 atoms: all 2⁷ families of non-empty subsets, valid or not.
    for atoms in 1..=3 {
        for q in queries(atoms, 40) {
            let subsets: Vec<Vec<usize>> =
                (1u32..1 << atoms).map(|m| indices(u64::from(m))).collect();
            for family_mask in 0u32..1 << subsets.len() {
                let family: Vec<Vec<usize>> = (0..subsets.len())
                    .filter(|j| family_mask & (1 << j) != 0)
                    .map(|j| subsets[j].clone())
                    .collect();
                let ours = Cover::new(&q, family.clone());
                let theirs = SetCover::new(&q, family.clone());
                match (&ours, &theirs) {
                    (Ok(a), Ok(b)) => assert_same_cover(&q, a, b),
                    (Err(a), Err(b)) => assert_eq!(a, b, "family {family:?} of {q:?}"),
                    _ => panic!("family {family:?} of {q:?}: {ours:?} vs {theirs:?}"),
                }
            }
        }
    }
}

#[test]
fn malformed_fragments_are_rejected_alike() {
    for q in queries(3, 10) {
        for family in [
            vec![vec![], vec![0, 1, 2]],
            vec![vec![0, 1, 2, 7]],
            vec![vec![5], vec![]],
            vec![vec![0, 1, 2], vec![64]],
            vec![vec![0, 1], vec![0, 1], vec![2, 1]],
            vec![],
        ] {
            assert_eq!(
                Cover::new(&q, family.clone()).map(|c| c.fragments()),
                SetCover::new(&q, family.clone()).map(|c| c.fragments()),
                "family {family:?}"
            );
        }
    }
}

#[test]
fn every_cover_of_queries_up_to_six_atoms_agrees() {
    let mut covers = 0usize;
    for (atoms, count) in [(4, 24), (5, 12), (6, 6)] {
        for q in queries(atoms, count) {
            // The two extreme covers, valid or (disconnected body) not.
            assert_eq!(
                Cover::singletons(&q).map(|c| c.fragments()),
                SetCover::new(&q, (0..atoms).map(|i| vec![i]).collect()).map(|c| c.fragments())
            );
            assert_eq!(
                Cover::single_fragment(&q).map(|c| c.fragments()),
                SetCover::new(&q, vec![(0..atoms).collect()]).map(|c| c.fragments())
            );
            for family in enumerate_covers(&q) {
                let ours = Cover::new(&q, family.clone());
                let theirs = SetCover::new(&q, family.clone());
                match (&ours, &theirs) {
                    (Ok(a), Ok(b)) => {
                        assert_same_cover(&q, a, b);
                        covers += 1;
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "family {family:?}"),
                    _ => panic!("family {family:?} of {q:?}: {ours:?} vs {theirs:?}"),
                }
            }
        }
    }
    assert!(covers > 5_000, "only {covers} covers enumerated");
}

#[test]
fn random_move_sequences_agree_up_to_twelve_atoms() {
    let mut applied = 0usize;
    for atoms in 7..=12 {
        for (k, q) in queries(atoms, 8).into_iter().enumerate() {
            let start: Vec<Vec<usize>> = (0..atoms).map(|i| vec![i]).collect();
            let (Ok(scq), Ok(set_scq)) = (Cover::new(&q, start.clone()), SetCover::new(&q, start))
            else {
                assert_eq!(
                    Cover::singletons(&q).unwrap_err(),
                    SetCover::new(&q, (0..atoms).map(|i| vec![i]).collect()).unwrap_err()
                );
                continue;
            };
            let (mut ours, mut theirs) = (scq.clone(), set_scq.clone());
            let masks = q.atom_masks().unwrap();
            let mut rng = StdRng::seed_from_u64((atoms * 100 + k) as u64);
            for _ in 0..400 {
                if ours.len() == 1 {
                    // Nothing moves from the single-fragment cover.
                    (ours, theirs) = (scq.clone(), set_scq.clone());
                }
                let fi = rng.gen_range(0..ours.len());
                let atom = rng.gen_range(0..atoms);
                let moved = ours.add_atom(&masks, fi, atom);
                let expected = theirs.add_atom(&q, fi, atom);
                assert_eq!(
                    moved.as_ref().map(Cover::fragments),
                    expected.as_ref().map(SetCover::fragments)
                );
                let (Some(moved), Some(expected)) = (moved, expected) else { continue };
                // GCov prunes after every move; follow the pruned cover
                // half of the time so both pruned and overlapping
                // covers are moved from.
                let pruned = moved.prune_redundant_by(&masks, |f| tied_cost(&indices(f)));
                let expected_pruned = expected.prune_redundant_by(&q, tied_cost);
                assert_eq!(pruned.fragments(), expected_pruned.fragments());
                assert_eq!(pruned.cover_queries(&q), expected_pruned.cover_queries(&q));
                assert_eq!(moved.cover_queries(&q), expected.cover_queries(&q));
                assert_eq!(moved.to_string(), expected.to_string());
                (ours, theirs) =
                    if rng.gen_bool(0.5) { (pruned, expected_pruned) } else { (moved, expected) };
                applied += 1;
            }
        }
    }
    assert!(applied > 1_000, "only {applied} moves applied");
}

#[test]
fn ordering_equality_and_hashing_follow_the_set_of_sets() {
    for q in queries(5, 4) {
        let families = enumerate_covers(&q);
        let ours: Vec<Cover> =
            families.iter().filter_map(|f| Cover::new(&q, f.clone()).ok()).collect();
        let theirs: Vec<SetCover> =
            families.iter().filter_map(|f| SetCover::new(&q, f.clone()).ok()).collect();
        assert_eq!(ours.len(), theirs.len());
        for (i, a) in ours.iter().enumerate().step_by(7) {
            for (j, b) in ours.iter().enumerate() {
                assert_eq!(a.cmp(b), theirs[i].cmp(&theirs[j]), "{a} vs {b}");
                assert_eq!(a == b, theirs[i] == theirs[j]);
                assert_eq!(a == b, i == j, "enumerated covers are distinct");
            }
        }
        // Sorting lands on the set-of-sets order.
        let mut sorted = ours.clone();
        sorted.sort();
        let mut expected = theirs.clone();
        expected.sort();
        assert_eq!(
            sorted.iter().map(Cover::fragments).collect::<Vec<_>>(),
            expected.iter().map(SetCover::fragments).collect::<Vec<_>>()
        );
        // A cover is one value however its fragments were listed: the
        // searches' `analysed` sets and the plan cache rely on it.
        let distinct: HashSet<&Cover> = ours.iter().collect();
        assert_eq!(distinct.len(), ours.len());
        for (cover, family) in ours.iter().zip(&families).filter(|(c, f)| c.len() == f.len()) {
            let mut shuffled = family.clone();
            shuffled.reverse();
            shuffled.iter_mut().for_each(|f| f.reverse());
            shuffled.push(family[0].clone());
            let again = Cover::new(&q, shuffled).unwrap();
            assert_eq!(&again, cover);
            assert_eq!(hash_of(&again), hash_of(cover));
            assert!(distinct.contains(&again));
        }
    }
}

#[test]
fn sixty_four_atoms_fit_and_sixty_five_do_not() {
    let chain = |n: u16| {
        BgpQuery::new(vec![0], (0..n).map(|i| StorePattern::new(v(i), c(1), v(i + 1))).collect())
    };
    let q = chain(64);
    let scq = Cover::singletons(&q).unwrap();
    assert_eq!(scq.len(), 64);
    assert!(scq.to_string().ends_with("{t64}}"));
    let ucq = Cover::single_fragment(&q).unwrap();
    assert_eq!(ucq.fragments(), vec![(0..64).collect::<Vec<usize>>()]);
    assert_eq!(ucq.cover_queries(&q)[0].head, vec![0]);
    let halves = Cover::new(&q, vec![(0..40).collect(), (30..64).collect()]).unwrap();
    assert_eq!(
        halves.cover_queries(&q),
        SetCover::new(&q, halves.fragments()).unwrap().cover_queries(&q)
    );
    let masks = q.atom_masks().unwrap();
    let grown = scq.add_atom(&masks, 63, 62).unwrap();
    assert_eq!(grown.len(), 63, "{{t63}} is now included in {{t63,t64}}");

    let q = chain(65);
    let too_many = CoverError::TooManyAtoms { atoms: 65 };
    assert_eq!(Cover::singletons(&q), Err(too_many.clone()));
    assert_eq!(Cover::single_fragment(&q), Err(too_many.clone()));
    assert_eq!(Cover::new(&q, vec![(0..65).collect()]), Err(too_many.clone()));
    assert!(too_many.to_string().contains("65 atoms"));
}
