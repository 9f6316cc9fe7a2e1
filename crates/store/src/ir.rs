//! The relational intermediate representation handed to the engine.
//!
//! Reformulated queries reach the engine in one of three shapes (§3 of
//! the paper): a UCQ (one fragment), an SCQ (one single-pattern fragment
//! per triple) or a general JUCQ (a join of cover-fragment UCQs). All
//! three compile to a [`StoreJucq`]; a plain CQ is a one-CQ UCQ inside a
//! one-fragment JUCQ.
//!
//! Variables are identified by dense [`VarId`]s scoped to the whole
//! JUCQ, so fragments join simply on shared ids.

use std::fmt;

use jucq_model::TermId;

/// A query variable, dense within one [`StoreJucq`].
pub type VarId = u16;

/// The distinct variables of one triple pattern, held inline.
///
/// A pattern has at most three variable positions, so the planner's hot
/// loops (join ordering, scan factoring, connectivity checks) never need
/// a heap allocation to look at them. Derefs to `&[VarId]` and iterates
/// by value, so it drops into most places a `Vec<VarId>` used to go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternVars {
    vars: [VarId; 3],
    len: u8,
}

impl PatternVars {
    /// An empty variable list.
    pub const EMPTY: PatternVars = PatternVars { vars: [0; 3], len: 0 };

    /// Append a variable if it is not already present.
    fn push_dedup(&mut self, v: VarId) {
        if !self.as_slice().contains(&v) {
            self.vars[self.len as usize] = v;
            self.len += 1;
        }
    }

    /// The variables as a slice, in first-occurrence position order.
    pub fn as_slice(&self) -> &[VarId] {
        &self.vars[..self.len as usize]
    }

    /// Copy into an owned `Vec` (for APIs that store the list).
    pub fn to_vec(&self) -> Vec<VarId> {
        self.as_slice().to_vec()
    }
}

impl std::ops::Deref for PatternVars {
    type Target = [VarId];

    fn deref(&self) -> &[VarId] {
        self.as_slice()
    }
}

impl IntoIterator for PatternVars {
    type Item = VarId;
    type IntoIter = std::iter::Take<std::array::IntoIter<VarId, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.vars.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a PatternVars {
    type Item = VarId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, VarId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

/// One position of a triple pattern: a constant or a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PatternTerm {
    /// A dictionary-encoded constant.
    Const(TermId),
    /// A variable.
    Var(VarId),
}

impl PatternTerm {
    /// The constant, if this position is bound.
    pub fn as_const(self) -> Option<TermId> {
        match self {
            PatternTerm::Const(id) => Some(id),
            PatternTerm::Var(_) => None,
        }
    }

    /// The variable, if this position is free.
    pub fn as_var(self) -> Option<VarId> {
        match self {
            PatternTerm::Var(v) => Some(v),
            PatternTerm::Const(_) => None,
        }
    }
}

impl fmt::Display for PatternTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternTerm::Const(id) => write!(f, "{id:?}"),
            PatternTerm::Var(v) => write!(f, "?{v}"),
        }
    }
}

/// A triple pattern over the `Triples(s,p,o)` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StorePattern {
    /// Subject position.
    pub s: PatternTerm,
    /// Property position.
    pub p: PatternTerm,
    /// Object position.
    pub o: PatternTerm,
}

impl StorePattern {
    /// Build a pattern from its three positions.
    pub fn new(s: PatternTerm, p: PatternTerm, o: PatternTerm) -> Self {
        StorePattern { s, p, o }
    }

    /// The three positions in `(s, p, o)` order.
    pub fn positions(&self) -> [PatternTerm; 3] {
        [self.s, self.p, self.o]
    }

    /// The distinct variables of the pattern, in position order. Stack
    /// allocated: calling this in a planning loop costs nothing.
    pub fn variables(&self) -> PatternVars {
        let mut out = PatternVars::EMPTY;
        for pos in self.positions() {
            if let PatternTerm::Var(v) = pos {
                out.push_dedup(v);
            }
        }
        out
    }

    /// The constants of the pattern as an index-lookup key
    /// `[s?, p?, o?]`.
    pub fn bound(&self) -> [Option<TermId>; 3] {
        [self.s.as_const(), self.p.as_const(), self.o.as_const()]
    }

    /// True iff some variable occurs twice (e.g. `?x p ?x`), requiring a
    /// post-scan equality filter.
    pub fn has_repeated_var(&self) -> bool {
        let free = self.positions().iter().filter(|p| p.as_var().is_some()).count();
        free > self.variables().len()
    }
}

impl fmt::Display for StorePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} {} {})", self.s, self.p, self.o)
    }
}

/// A conjunctive query: a join of triple patterns projected onto `head`.
///
/// Head positions may be **constants**: the variable-instantiation
/// reformulation rules substitute a head variable by a class/property
/// (paper Example 4 item (1): `q(x, Book):- x rdf:type Book`), so a
/// member of a reformulated union can output a constant column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreCq {
    /// The body patterns (joined on shared variables).
    pub patterns: Vec<StorePattern>,
    /// The output terms, positionally aligned with the enclosing UCQ's
    /// head variables.
    pub head: Vec<PatternTerm>,
}

impl StoreCq {
    /// Build a CQ with an arbitrary head.
    pub fn new(patterns: Vec<StorePattern>, head: Vec<PatternTerm>) -> Self {
        StoreCq { patterns, head }
    }

    /// Build a CQ whose head is all variables (the common case).
    pub fn with_var_head(patterns: Vec<StorePattern>, head: Vec<VarId>) -> Self {
        StoreCq { patterns, head: head.into_iter().map(PatternTerm::Var).collect() }
    }

    /// The head variables (skipping constant positions).
    pub fn head_vars(&self) -> Vec<VarId> {
        self.head.iter().filter_map(|t| t.as_var()).collect()
    }

    /// All distinct variables occurring in the body, in first-occurrence
    /// order.
    ///
    /// The outer collection is unbounded (bodies can be arbitrarily
    /// long) so it stays a `Vec`, but the inner per-pattern walk goes
    /// through the allocation-free [`StorePattern::variables`]. Callers
    /// that only need to *visit* the variables should prefer
    /// [`StoreCq::body_var_iter`].
    pub fn body_variables(&self) -> Vec<VarId> {
        let mut out = Vec::with_capacity(self.patterns.len() + 1);
        for v in self.body_var_iter() {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// Every variable occurrence in the body, in position order and
    /// **without** cross-pattern deduplication — zero allocation.
    pub fn body_var_iter(&self) -> impl Iterator<Item = VarId> + '_ {
        self.patterns.iter().flat_map(|p| p.variables())
    }
}

/// A union of conjunctive queries; all members share the same head.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreUcq {
    /// The union members.
    pub cqs: Vec<StoreCq>,
    /// The common head (column order of the result).
    pub head: Vec<VarId>,
}

impl StoreUcq {
    /// Build a UCQ; every member's head must align positionally with
    /// `head` (same arity; members may bind positions to constants).
    ///
    /// # Panics
    /// Panics (debug) if a member's head arity differs.
    pub fn new(cqs: Vec<StoreCq>, head: Vec<VarId>) -> Self {
        debug_assert!(
            cqs.iter().all(|cq| cq.head.len() == head.len()),
            "UCQ members must share the head arity"
        );
        StoreUcq { cqs, head }
    }

    /// Number of union terms (the paper's `|q_ref|`).
    pub fn len(&self) -> usize {
        self.cqs.len()
    }

    /// True iff the union has no members (empty result).
    pub fn is_empty(&self) -> bool {
        self.cqs.is_empty()
    }
}

/// A join of UCQ fragments projected onto `head` — the engine-level form
/// of a JUCQ reformulation (Definition 3.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreJucq {
    /// The fragments, joined pairwise on shared head variables.
    pub fragments: Vec<StoreUcq>,
    /// The final output variables.
    pub head: Vec<VarId>,
}

impl StoreJucq {
    /// Build a JUCQ.
    pub fn new(fragments: Vec<StoreUcq>, head: Vec<VarId>) -> Self {
        StoreJucq { fragments, head }
    }

    /// Wrap a single UCQ (the classical reformulation shape).
    pub fn from_ucq(ucq: StoreUcq) -> Self {
        let head = ucq.head.clone();
        StoreJucq { fragments: vec![ucq], head }
    }

    /// Total number of union terms across fragments.
    pub fn union_terms(&self) -> usize {
        self.fragments.iter().map(StoreUcq::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::term::TermKind;

    fn c(i: u32) -> PatternTerm {
        PatternTerm::Const(TermId::new(TermKind::Uri, i))
    }

    fn v(i: VarId) -> PatternTerm {
        PatternTerm::Var(i)
    }

    #[test]
    fn pattern_variables_are_deduped_in_order() {
        let p = StorePattern::new(v(2), c(0), v(1));
        assert_eq!(p.variables().as_slice(), &[2, 1]);
        let q = StorePattern::new(v(3), v(3), v(3));
        assert_eq!(q.variables().as_slice(), &[3]);
        assert_eq!(q.variables().into_iter().collect::<Vec<_>>(), vec![3]);
        assert!(StorePattern::new(c(0), c(1), c(2)).variables().is_empty());
    }

    #[test]
    fn repeated_var_detection() {
        assert!(StorePattern::new(v(0), c(1), v(0)).has_repeated_var());
        assert!(StorePattern::new(v(0), v(0), c(1)).has_repeated_var());
        assert!(!StorePattern::new(v(0), c(1), v(1)).has_repeated_var());
        assert!(!StorePattern::new(c(0), c(1), c(2)).has_repeated_var());
    }

    #[test]
    fn bound_key_extraction() {
        let p = StorePattern::new(v(0), c(5), v(1));
        let [s, pp, o] = p.bound();
        assert!(s.is_none() && o.is_none());
        assert_eq!(pp, Some(TermId::new(TermKind::Uri, 5)));
    }

    #[test]
    fn cq_body_variables() {
        let cq = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(1), v(1)), StorePattern::new(v(1), c(2), v(2))],
            vec![0, 2],
        );
        assert_eq!(cq.body_variables(), vec![0, 1, 2]);
    }

    #[test]
    fn jucq_union_terms() {
        let cq = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(1), v(1))], vec![0, 1]);
        let ucq = StoreUcq::new(vec![cq.clone(), cq.clone()], vec![0, 1]);
        let jucq = StoreJucq::new(vec![ucq.clone(), ucq], vec![0, 1]);
        assert_eq!(jucq.union_terms(), 4);
    }

    #[test]
    fn from_ucq_preserves_head() {
        let cq = StoreCq::with_var_head(vec![StorePattern::new(v(4), c(1), v(7))], vec![7, 4]);
        let jucq = StoreJucq::from_ucq(StoreUcq::new(vec![cq], vec![7, 4]));
        assert_eq!(jucq.head, vec![7, 4]);
        assert_eq!(jucq.fragments.len(), 1);
    }

    #[test]
    fn display_forms() {
        let p = StorePattern::new(v(0), c(1), v(1));
        assert_eq!(p.to_string(), "(?0 #u1 ?1)");
    }
}
