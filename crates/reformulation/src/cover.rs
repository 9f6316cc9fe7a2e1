//! BGP query covers (Definition 3.3).
//!
//! A cover of `q(x̄):- t₁,…,tₙ` is a set of fragments (non-empty,
//! possibly overlapping subsets of the atoms) such that:
//!
//! 1. the fragments' union is all of `{t₁,…,tₙ}`;
//! 2. no fragment is included in another;
//! 3. with more than one fragment, every fragment joins (shares a
//!    variable) with at least one other.
//!
//! Following §3 ("In practice, however, we require each fragment to
//! share a variable with another (if any), so that cover queries, hence
//! cover-based reformulations do not feature cartesian products"), we
//! additionally require each fragment's own join graph to be connected.

use std::cmp::Ordering;
use std::fmt;

use crate::bgp::{bits, AtomMask, AtomMasks, BgpQuery, VarMask};

/// A cover: a set of fragments, each an [`AtomMask`], kept sorted (by
/// their atom-index sequences, lexicographically) and distinct — the
/// canonical form covers are compared, hashed and iterated in.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cover {
    fragments: Vec<AtomMask>,
}

/// Why a candidate cover is invalid for a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverError {
    /// The query has more atoms than a fragment mask has bits.
    TooManyAtoms {
        /// The query's atom count.
        atoms: usize,
    },
    /// The query has more variables than a head mask has bits.
    TooManyVariables {
        /// The query's variable count.
        variables: usize,
    },
    /// A fragment is empty.
    EmptyFragment,
    /// A fragment references an atom index outside the query.
    AtomOutOfRange {
        /// The offending index.
        index: usize,
    },
    /// The fragments' union misses some atom.
    MissingAtom {
        /// An uncovered atom index.
        index: usize,
    },
    /// One fragment is a subset of another.
    IncludedFragment,
    /// A fragment's internal join graph is disconnected (cartesian
    /// product inside a cover query).
    DisconnectedFragment,
    /// A fragment shares no variable with any other fragment.
    IsolatedFragment,
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverError::TooManyAtoms { atoms } => {
                write!(f, "{atoms} atoms; covers index at most {}", AtomMask::BITS)
            }
            CoverError::TooManyVariables { variables } => {
                write!(f, "{variables} variables; covers index at most {}", u128::BITS)
            }
            CoverError::EmptyFragment => write!(f, "empty fragment"),
            CoverError::AtomOutOfRange { index } => write!(f, "atom index {index} out of range"),
            CoverError::MissingAtom { index } => write!(f, "atom {index} not covered"),
            CoverError::IncludedFragment => write!(f, "fragment included in another"),
            CoverError::DisconnectedFragment => write!(f, "fragment join graph disconnected"),
            CoverError::IsolatedFragment => write!(f, "fragment joins no other fragment"),
        }
    }
}

impl std::error::Error for CoverError {}

/// The mask of a fragment given as atom indices below `n`.
fn index_mask(fragment: &[usize], n: usize) -> Result<AtomMask, CoverError> {
    if fragment.is_empty() {
        return Err(CoverError::EmptyFragment);
    }
    if let Some(&index) = fragment.iter().find(|&&i| i >= n) {
        return Err(CoverError::AtomOutOfRange { index });
    }
    Ok(fragment.iter().fold(0, |m, i| m | 1 << i))
}

/// Fragments compare as their ascending atom-index sequences do: at the
/// lowest atom where they differ, the one holding it comes first —
/// unless the other has no higher atom at all, being then a proper
/// prefix.
fn fragment_order(a: &AtomMask, b: &AtomMask) -> Ordering {
    let diff = a ^ b;
    if diff == 0 {
        return Ordering::Equal;
    }
    let lowest = diff & diff.wrapping_neg();
    let (holder_first, other) =
        if a & lowest != 0 { (Ordering::Less, b) } else { (Ordering::Greater, a) };
    let above = !(lowest | (lowest - 1));
    if other & above != 0 {
        holder_first
    } else {
        holder_first.reverse()
    }
}

fn canonical(mut fragments: Vec<AtomMask>) -> Vec<AtomMask> {
    fragments.sort_unstable_by(fragment_order);
    fragments.dedup();
    fragments
}

/// The union of every fragment but `fragments[skip]`.
fn others(fragments: &[AtomMask], skip: usize) -> AtomMask {
    fragments.iter().enumerate().filter(|&(j, _)| j != skip).fold(0, |m, (_, f)| m | f)
}

/// Definition 3.3 plus fragment connectivity, over distinct fragments;
/// `without` leaves one of them out (the redundancy-pruning probe).
fn validate(
    m: &AtomMasks,
    fragments: &[AtomMask],
    without: Option<usize>,
) -> Result<(), CoverError> {
    let kept =
        || fragments.iter().enumerate().filter(|&(i, _)| Some(i) != without).map(|(_, &f)| f);
    let missing = m.full() & !kept().fold(0, |u, f| u | f);
    if missing != 0 {
        return Err(CoverError::MissingAtom { index: missing.trailing_zeros() as usize });
    }
    if kept().any(|a| kept().any(|b| a != b && a & b == a)) {
        return Err(CoverError::IncludedFragment);
    }
    if !kept().all(|f| m.connected(f)) {
        return Err(CoverError::DisconnectedFragment);
    }
    // Every fragment must share a variable with another one.
    if kept().count() > 1 {
        for f in kept() {
            let rest = kept().filter(|&g| g != f).fold(0, |u, g| u | g);
            if m.neighbours_of(f) & rest == 0 {
                return Err(CoverError::IsolatedFragment);
            }
        }
    }
    Ok(())
}

impl Cover {
    /// Build a cover from fragments, validating Definition 3.3 against
    /// `q` (plus internal fragment connectivity).
    pub fn new(q: &BgpQuery, fragments: Vec<Vec<usize>>) -> Result<Self, CoverError> {
        let masks = q.atom_masks()?;
        let fragments: Result<Vec<AtomMask>, _> =
            fragments.iter().map(|f| index_mask(f, q.len())).collect();
        Cover::from_masks(&masks, fragments?)
    }

    /// [`Cover::new`] over fragments already given as masks of the
    /// query `masks` was built from.
    pub fn from_masks(masks: &AtomMasks, fragments: Vec<AtomMask>) -> Result<Self, CoverError> {
        if fragments.contains(&0) {
            return Err(CoverError::EmptyFragment);
        }
        if let Some(f) = fragments.iter().find(|&&f| f & !masks.full() != 0) {
            let index = (f & !masks.full()).trailing_zeros() as usize;
            return Err(CoverError::AtomOutOfRange { index });
        }
        let fragments = canonical(fragments);
        validate(masks, &fragments, None)?;
        Ok(Cover { fragments })
    }

    /// The canonical single-fragment cover (the classical UCQ
    /// reformulation shape) — requires a connected query body.
    pub fn single_fragment(q: &BgpQuery) -> Result<Self, CoverError> {
        let masks = q.atom_masks()?;
        Cover::from_masks(&masks, vec![masks.full()])
    }

    /// The all-singletons cover (the SCQ reformulation of \[13\]).
    pub fn singletons(q: &BgpQuery) -> Result<Self, CoverError> {
        let masks = q.atom_masks()?;
        Cover::from_masks(&masks, (0..q.len()).map(|i| 1 << i).collect())
    }

    /// The fragments, as sorted index vectors.
    pub fn fragments(&self) -> Vec<Vec<usize>> {
        self.fragments.iter().map(|&f| bits(f).collect()).collect()
    }

    /// The fragments as atom masks, in the same (canonical) order.
    pub fn masks(&self) -> &[AtomMask] {
        &self.fragments
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// True iff there are no fragments (only for the empty query).
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// Each fragment with the head of its cover query (Definition 3.4),
    /// in fragment order. A fragment's head exposes the variables
    /// shared with the atoms of the *other fragments* — including
    /// overlap atoms, which belong to both sides (the subtlety that
    /// makes overlapping covers sound).
    pub fn heads<'c>(
        &'c self,
        masks: &'c AtomMasks,
    ) -> impl Iterator<Item = (AtomMask, VarMask)> + 'c {
        self.fragments
            .iter()
            .enumerate()
            .map(move |(i, &f)| (f, masks.head_of(f, others(&self.fragments, i))))
    }

    /// The cover queries (Definition 3.4), in fragment order.
    ///
    /// # Panics
    /// Panics if `q` is not the query the cover was built for.
    pub fn cover_queries(&self, q: &BgpQuery) -> Vec<BgpQuery> {
        let masks = q.atom_masks().expect("a cover's query fits the masks");
        self.heads(&masks).map(|(f, head)| masks.cover_query(q, f, head)).collect()
    }

    /// The GCov move: add atom `atom` to fragment `frag_index`, dropping
    /// fragments that became *included* in another (restoring
    /// Definition 3.3). Returns `None` if the move is a no-op or yields
    /// an invalid cover. Coverage-redundancy pruning (the paper's
    /// cost-ordered removal) is a separate step:
    /// [`Cover::prune_redundant_by`].
    pub fn add_atom(&self, masks: &AtomMasks, frag_index: usize, atom: usize) -> Option<Cover> {
        if atom >= masks.len() {
            return None;
        }
        let grown = self.fragments.get(frag_index)? | 1 << atom;
        if grown == self.fragments[frag_index] {
            return None;
        }
        // Only the grown fragment can newly include another (or equal
        // one, which `canonical` merges).
        let fragments = self
            .fragments
            .iter()
            .enumerate()
            .filter(|&(i, &f)| i != frag_index && f & grown != f)
            .map(|(_, &f)| f)
            .chain([grown])
            .collect();
        let candidate = Cover::from_masks(masks, fragments).ok()?;
        (candidate != *self).then_some(candidate)
    }

    /// The paper's redundancy pruning (§4.3): "all the fragments of a
    /// cover are kept sorted in the decreasing order of their cost ...
    /// when a fragment is found redundant (with respect to the other
    /// fragments in the cover), the fragment is removed". A fragment is
    /// coverage-redundant when the remaining fragments still form a
    /// valid cover of the query; `cost` (asked once per fragment)
    /// orders which redundant fragment to drop first: costliest first,
    /// canonical order among equals.
    pub fn prune_redundant_by(
        &self,
        masks: &AtomMasks,
        mut cost: impl FnMut(AtomMask) -> f64,
    ) -> Cover {
        let mut kept = self.fragments.clone();
        if kept.len() > 1 {
            let mut inspect: Vec<(f64, AtomMask)> = kept.iter().map(|&f| (cost(f), f)).collect();
            inspect.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal));
            // After each removal the inspection restarts from the
            // costliest survivor.
            while kept.len() > 1 {
                let redundant = inspect.iter().position(|&(_, f)| {
                    let at = kept.iter().position(|&g| g == f);
                    validate(masks, &kept, at).is_ok()
                });
                let Some(i) = redundant else { break };
                let (_, f) = inspect.remove(i);
                kept.retain(|&g| g != f);
            }
        }
        Cover { fragments: kept }
    }
}

impl PartialOrd for Cover {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cover {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.fragments.iter().zip(&other.fragments))
            .map(|(a, b)| fragment_order(a, b))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| self.fragments.len().cmp(&other.fragments.len()))
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, &frag) in self.fragments.iter().enumerate() {
            write!(f, "{}{{", if k == 0 { "" } else { ", " })?;
            for (j, i) in bits(frag).enumerate() {
                write!(f, "{}t{}", if j == 0 { "" } else { "," }, i + 1)?;
            }
            write!(f, "}}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::term::TermKind;
    use jucq_model::TermId;
    use jucq_store::{PatternTerm, StorePattern, VarId};

    fn c(i: u32) -> PatternTerm {
        PatternTerm::Const(TermId::new(TermKind::Uri, i))
    }

    fn v(i: VarId) -> PatternTerm {
        PatternTerm::Var(i)
    }

    /// q1 shape: three atoms all sharing x.
    fn q1() -> BgpQuery {
        BgpQuery::new(
            vec![0, 1],
            vec![
                StorePattern::new(v(0), c(100), v(1)),
                StorePattern::new(v(0), c(101), c(200)),
                StorePattern::new(v(0), c(102), c(201)),
            ],
        )
    }

    #[test]
    fn paper_example_cover_is_valid() {
        // {{t1,t2},{t2,t3}} — the paper's example cover of q1.
        let cover = Cover::new(&q1(), vec![vec![0, 1], vec![1, 2]]).unwrap();
        assert_eq!(cover.len(), 2);
        assert_eq!(cover.to_string(), "{{t1,t2}, {t2,t3}}");
    }

    #[test]
    fn single_and_singleton_covers() {
        let q = q1();
        assert_eq!(Cover::single_fragment(&q).unwrap().len(), 1);
        assert_eq!(Cover::singletons(&q).unwrap().len(), 3);
    }

    #[test]
    fn malformed_families_rejected() {
        for (family, error) in [
            (vec![vec![0], vec![1]], CoverError::MissingAtom { index: 2 }),
            (vec![vec![0, 1, 2], vec![1]], CoverError::IncludedFragment),
            (vec![vec![0, 1, 2, 7]], CoverError::AtomOutOfRange { index: 7 }),
            (vec![vec![], vec![0, 1, 2]], CoverError::EmptyFragment),
        ] {
            assert_eq!(Cover::new(&q1(), family), Err(error));
        }
    }

    #[test]
    fn disconnected_fragment_rejected() {
        // (x p y)(z p w)(x p z): atoms 0 and 1 share nothing.
        let q = BgpQuery::new(
            vec![0],
            vec![
                StorePattern::new(v(0), c(1), v(1)),
                StorePattern::new(v(2), c(1), v(3)),
                StorePattern::new(v(0), c(1), v(2)),
            ],
        );
        assert_eq!(
            Cover::new(&q, vec![vec![0, 1], vec![2]]),
            Err(CoverError::DisconnectedFragment)
        );
        assert!(Cover::new(&q, vec![vec![0, 2], vec![1, 2]]).is_ok());
    }

    #[test]
    fn isolated_fragment_rejected() {
        // Two disconnected components: {t0}, {t1} cannot form a
        // multi-fragment cover.
        let q = BgpQuery::new(
            vec![0],
            vec![StorePattern::new(v(0), c(1), v(1)), StorePattern::new(v(2), c(1), v(3))],
        );
        assert_eq!(Cover::new(&q, vec![vec![0], vec![1]]), Err(CoverError::IsolatedFragment));
    }

    #[test]
    fn cover_queries_follow_definition() {
        let q = q1();
        let cover = Cover::new(&q, vec![vec![0], vec![1, 2]]).unwrap();
        let cqs = cover.cover_queries(&q);
        assert_eq!(cqs.len(), 2);
        // Fragment {t1}: head (x, y); fragment {t2,t3}: head (x).
        assert_eq!(cqs[0].head, vec![0, 1]);
        assert_eq!(cqs[1].head, vec![0]);
    }

    #[test]
    fn gcov_move_adds_and_prunes() {
        // Paper §4.3's example: {{t1,t2},{t1,t3},{t3,t4}} + (f0 ← t4)
        // ⇒ after coverage pruning: {{t1,t2,t4},{t1,t3}} (in a 4-atom
        // star query where all atoms share a variable).
        let q = BgpQuery::new(
            vec![0],
            vec![
                StorePattern::new(v(0), c(1), v(1)),
                StorePattern::new(v(0), c(2), v(2)),
                StorePattern::new(v(0), c(3), v(3)),
                StorePattern::new(v(0), c(4), v(4)),
            ],
        );
        let m = q.atom_masks().unwrap();
        let cover = Cover::new(&q, vec![vec![0, 1], vec![0, 2], vec![2, 3]]).unwrap();
        let pos = cover.masks().iter().position(|&f| f == 0b0011).unwrap();
        let moved = cover.add_atom(&m, pos, 3).unwrap();
        assert_eq!(
            moved.fragments(),
            vec![vec![0, 1, 3], vec![0, 2], vec![2, 3]],
            "inclusion pruning alone keeps {{t3,t4}}"
        );
        // {t3,t4} is the costliest fragment here; coverage pruning
        // removes it.
        let pruned = moved.prune_redundant_by(&m, |f| if f == 0b1100 { 10.0 } else { 1.0 });
        assert_eq!(pruned.fragments(), vec![vec![0, 1, 3], vec![0, 2]]);
    }

    #[test]
    fn prune_keeps_necessary_fragments() {
        let q = q1();
        let cover = Cover::new(&q, vec![vec![0, 1], vec![1, 2]]).unwrap();
        // Neither fragment is coverage-redundant: removing either loses
        // an atom.
        let pruned = cover.prune_redundant_by(&q.atom_masks().unwrap(), |_| 1.0);
        assert_eq!(pruned, cover);
    }

    #[test]
    fn gcov_move_noop_returns_none() {
        let q = q1();
        let cover = Cover::single_fragment(&q).unwrap();
        let m = q.atom_masks().unwrap();
        assert!(cover.add_atom(&m, 0, 0).is_none(), "atom already present");
        assert!(cover.add_atom(&m, 0, 64).is_none(), "no such atom");
        assert!(cover.add_atom(&m, 1, 0).is_none(), "no such fragment");
    }
}
