//! BGP (SPARQL conjunctive) queries.
//!
//! A BGP query `q(x̄):- t₁, …, tₙ` (paper §2.2) is a set of triple
//! patterns plus distinguished (head) variables. We reuse the store IR's
//! [`StorePattern`] for atoms — a pattern over dictionary-encoded
//! constants and dense variables — so queries flow to reformulation and
//! evaluation without re-encoding. Per the paper, blank nodes in queries
//! behave exactly like non-distinguished variables and are assumed
//! replaced by them upstream.

use jucq_store::{PatternTerm, StoreCq, StorePattern, VarId};

use crate::cover::CoverError;

/// A BGP query: distinguished variables + triple-pattern body, with an
/// optional answer limit (SPARQL `LIMIT`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BgpQuery {
    /// The distinguished (answer) variables `x̄`.
    pub head: Vec<VarId>,
    /// The body triple patterns `t₁, …, tₙ`.
    pub atoms: Vec<StorePattern>,
    /// Keep at most this many answers (applied after deduplication).
    pub limit: Option<usize>,
}

impl BgpQuery {
    /// Build a query.
    ///
    /// # Panics
    /// Panics if a head variable does not occur in the body.
    pub fn new(head: Vec<VarId>, atoms: Vec<StorePattern>) -> Self {
        let q = BgpQuery { head, atoms, limit: None };
        for v in &q.head {
            assert!(
                q.variables().contains(v),
                "distinguished variable ?{v} must occur in the body"
            );
        }
        q
    }

    /// Attach an answer limit.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// All distinct variables of the body, in first-occurrence order.
    pub fn variables(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        for a in &self.atoms {
            for v in a.variables() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// The largest variable id used (fresh variables allocate above it).
    pub fn max_var(&self) -> Option<VarId> {
        self.variables().into_iter().max()
    }

    /// Number of body atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True iff the body is empty.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The query's atom and variable sets as bitmasks, for cover
    /// arithmetic. Fails for a body too large to index by one machine
    /// word.
    pub fn atom_masks(&self) -> Result<AtomMasks, CoverError> {
        AtomMasks::new(self)
    }

    /// View the query as a store CQ (all-variable head).
    pub fn to_store_cq(&self) -> StoreCq {
        StoreCq::new(self.atoms.clone(), self.head.iter().map(|&v| PatternTerm::Var(v)).collect())
    }

    /// A canonical form for caching and workload deduplication:
    /// variables renamed (head variables to `0..k` in head order, body
    /// variables by first occurrence) and atoms sorted; two isomorphic
    /// queries — equal up to variable names and atom order — share one
    /// canonical form. Returns the canonical query together with the
    /// permutation `perm` such that canonical atom `i` is the original
    /// atom `perm[i]` (so cached atom-index structures like covers can
    /// be translated back).
    pub fn canonicalize(&self) -> (BgpQuery, Vec<usize>) {
        use jucq_model::FxHashMap;
        // Head variables first, in head order.
        let mut rename: FxHashMap<VarId, VarId> = FxHashMap::default();
        for &v in &self.head {
            let next = rename.len() as VarId;
            rename.entry(v).or_insert(next);
        }
        let head_count = rename.len() as VarId;

        // Phase 1: sort atoms by a key blind to body-variable identity.
        let key1 = |t: &PatternTerm, rename: &FxHashMap<VarId, VarId>| -> (u8, u32) {
            match t {
                PatternTerm::Const(c) => (0, c.raw()),
                PatternTerm::Var(v) => match rename.get(v) {
                    Some(&r) if r < head_count => (1, u32::from(r)),
                    _ => (2, 0),
                },
            }
        };
        let mut order: Vec<usize> = (0..self.atoms.len()).collect();
        order.sort_by_key(|&i| {
            let a = &self.atoms[i];
            [key1(&a.s, &rename), key1(&a.p, &rename), key1(&a.o, &rename)]
        });

        // Phase 2: rename body variables by first occurrence in that
        // order, then apply.
        let mut next = head_count;
        for &i in &order {
            for v in self.atoms[i].variables() {
                rename.entry(v).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                });
            }
        }
        let map_term = |t: PatternTerm| -> PatternTerm {
            match t {
                PatternTerm::Var(v) => PatternTerm::Var(rename[&v]),
                c => c,
            }
        };
        let mut renamed: Vec<(StorePattern, usize)> = order
            .iter()
            .map(|&i| {
                let a = &self.atoms[i];
                (StorePattern::new(map_term(a.s), map_term(a.p), map_term(a.o)), i)
            })
            .collect();
        // Phase 3: final total order on the renamed atoms.
        renamed.sort_by_key(|(a, _)| *a);

        let head: Vec<VarId> = self.head.iter().map(|v| rename[v]).collect();
        let atoms: Vec<StorePattern> = renamed.iter().map(|(a, _)| *a).collect();
        let perm: Vec<usize> = renamed.iter().map(|(_, i)| *i).collect();
        let canonical = BgpQuery { head, atoms, limit: self.limit };
        (canonical, perm)
    }
}

/// A set of atoms of one query: bit `i` is atom `tᵢ₊₁`.
pub type AtomMask = u64;

/// A set of variables of one query: bit `k` is the `k`-th variable in
/// first-occurrence order ([`BgpQuery::variables`]).
pub type VarMask = u128;

/// A query's join structure as bitmasks, computed once per query so
/// that fragment inclusion, connectivity, the fragments-must-join rule
/// and Definition 3.4 heads are a few word operations each.
#[derive(Debug, Clone)]
pub struct AtomMasks {
    /// Bit `k` of a [`VarMask`] stands for `vars[k]`.
    vars: Vec<VarId>,
    /// Atom → the variables occurring in it.
    atom_vars: Vec<VarMask>,
    /// Atom → the atoms sharing a variable with it, itself included
    /// when it has a variable at all (an atom shared by two fragments
    /// makes them join only through its variables).
    neighbours: Vec<AtomMask>,
    /// The distinguished variables.
    head: VarMask,
}

impl AtomMasks {
    fn new(q: &BgpQuery) -> Result<Self, CoverError> {
        if q.len() > AtomMask::BITS as usize {
            return Err(CoverError::TooManyAtoms { atoms: q.len() });
        }
        let vars = q.variables();
        if vars.len() > VarMask::BITS as usize {
            return Err(CoverError::TooManyVariables { variables: vars.len() });
        }
        let mask_of = |vs: &[VarId]| -> VarMask {
            vs.iter().filter_map(|v| vars.iter().position(|x| x == v)).fold(0, |m, k| m | 1 << k)
        };
        let atom_vars: Vec<VarMask> = q.atoms.iter().map(|a| mask_of(&a.variables())).collect();
        let neighbours = atom_vars
            .iter()
            .map(|&vi| {
                atom_vars
                    .iter()
                    .enumerate()
                    .filter(|&(_, &vj)| vi & vj != 0)
                    .fold(0, |m, (j, _)| m | 1 << j)
            })
            .collect();
        let head = mask_of(&q.head);
        Ok(AtomMasks { vars, atom_vars, neighbours, head })
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atom_vars.len()
    }

    /// True iff the query has no atoms.
    pub fn is_empty(&self) -> bool {
        self.atom_vars.is_empty()
    }

    /// All atoms.
    pub fn full(&self) -> AtomMask {
        match self.len() as u32 {
            AtomMask::BITS => AtomMask::MAX,
            n => (1 << n) - 1,
        }
    }

    /// The variables occurring in `atoms`.
    pub fn vars_of(&self, atoms: AtomMask) -> VarMask {
        bits(atoms).fold(0, |m, i| m | self.atom_vars[i])
    }

    /// The atoms sharing a variable with some atom of `atoms`.
    pub fn neighbours_of(&self, atoms: AtomMask) -> AtomMask {
        bits(atoms).fold(0, |m, i| m | self.neighbours[i])
    }

    /// True iff `atoms` forms a connected join graph (no cartesian
    /// product inside a fragment). Singletons and the empty set are
    /// connected.
    pub fn connected(&self, atoms: AtomMask) -> bool {
        let mut reached = atoms & atoms.wrapping_neg();
        let mut frontier = reached;
        while frontier != 0 {
            let grown = self.neighbours_of(frontier) & atoms & !reached;
            reached |= grown;
            frontier = grown;
        }
        reached == atoms
    }

    /// The head of the cover query of `fragment` (Definition 3.4) given
    /// the atoms of the *other fragments*: the fragment's variables that
    /// are distinguished or occur in `others`. With overlapping covers
    /// a shared atom belongs to another fragment too, so its variables
    /// join — which is why the context is the other fragments' atom
    /// set, not merely the complement of `fragment`.
    pub fn head_of(&self, fragment: AtomMask, others: AtomMask) -> VarMask {
        self.vars_of(fragment) & (self.head | self.vars_of(others))
    }

    /// [`AtomMasks::head_of`] with the other fragments defaulting to
    /// the fragment's complement — exact for non-overlapping covers.
    pub fn complement_head(&self, fragment: AtomMask) -> VarMask {
        self.head_of(fragment, self.full() & !fragment)
    }

    /// The subquery of `q` (the query these masks were built from)
    /// restricted to `fragment`, exposing the variables of `head` in
    /// their order of first occurrence in the fragment. Cover queries
    /// never carry the limit: fragments must produce complete
    /// intermediate results for Theorem 3.1 to hold.
    pub fn cover_query(&self, q: &BgpQuery, fragment: AtomMask, head: VarMask) -> BgpQuery {
        let atoms: Vec<StorePattern> = bits(fragment).map(|i| q.atoms[i]).collect();
        let mut exposed = Vec::with_capacity(head.count_ones() as usize);
        for v in atoms.iter().flat_map(StorePattern::variables) {
            let k = self.vars.iter().position(|&x| x == v).expect("a body variable");
            if head & (1 << k) != 0 && !exposed.contains(&v) {
                exposed.push(v);
            }
        }
        BgpQuery { head: exposed, atoms, limit: None }
    }
}

/// The indices of the set bits of `mask`, ascending.
pub fn bits(mut mask: AtomMask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
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

    /// The paper's q1 shape: (x type y)(x degreeFrom U)(x memberOf D).
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
    fn variables_in_order() {
        assert_eq!(q1().variables(), vec![0, 1]);
        assert_eq!(q1().max_var(), Some(1));
    }

    #[test]
    #[should_panic(expected = "must occur in the body")]
    fn unsafe_head_rejected() {
        BgpQuery::new(vec![9], vec![StorePattern::new(v(0), c(1), v(1))]);
    }

    #[test]
    fn atom_join_graph() {
        let m = q1().atom_masks().unwrap();
        assert_eq!(m.neighbours_of(0b001), 0b111);
        assert_eq!(m.neighbours_of(0b100), 0b111);
        assert!(m.connected(0b111));
        assert!(m.connected(0b001));
        assert!(m.connected(0));
        assert_eq!(m.full(), 0b111);
    }

    #[test]
    fn disconnected_sets_detected() {
        // (x p y)(z p w): no shared variables.
        let q = BgpQuery::new(
            vec![0],
            vec![StorePattern::new(v(0), c(1), v(1)), StorePattern::new(v(2), c(1), v(3))],
        );
        assert!(!q.atom_masks().unwrap().connected(0b11));
    }

    #[test]
    fn oversized_bodies_are_rejected() {
        let chain = |n: u16| {
            BgpQuery::new(
                vec![0],
                (0..n).map(|i| StorePattern::new(v(i), c(1), v(i + 1))).collect(),
            )
        };
        let m = chain(64).atom_masks().unwrap();
        assert_eq!(m.full(), u64::MAX);
        assert!(m.connected(u64::MAX));
        assert_eq!(chain(65).atom_masks().unwrap_err(), CoverError::TooManyAtoms { atoms: 65 });
        // 64 atoms with three fresh variables each: 192 variables.
        let wide = BgpQuery::new(
            vec![0],
            (0..64).map(|i| StorePattern::new(v(3 * i), v(3 * i + 1), v(3 * i + 2))).collect(),
        );
        assert_eq!(wide.atom_masks().unwrap_err(), CoverError::TooManyVariables { variables: 192 });
    }

    #[test]
    fn cover_query_head_follows_definition_3_4() {
        // The paper's example: cover {{t1},{t2,t3}} of q1 gives
        // q_f1(x, y) and q_f2(x).
        let q = q1();
        let m = q.atom_masks().unwrap();
        let f1 = m.cover_query(&q, 0b001, m.complement_head(0b001));
        assert_eq!(f1.head, vec![0, 1], "distinguished x, y plus join var x");
        let f2 = m.cover_query(&q, 0b110, m.complement_head(0b110));
        assert_eq!(f2.head, vec![0], "x distinguished and shared; no other var");
        assert_eq!(f2.atoms.len(), 2);
    }

    #[test]
    fn cover_query_includes_pure_join_variables() {
        // q(x):- (x p y)(y p z): cover {{0},{1}} must expose y on both
        // sides even though y is not distinguished.
        let q = BgpQuery::new(
            vec![0],
            vec![StorePattern::new(v(0), c(1), v(1)), StorePattern::new(v(1), c(1), v(2))],
        );
        let m = q.atom_masks().unwrap();
        let f1 = m.cover_query(&q, 0b01, m.complement_head(0b01));
        assert_eq!(f1.head, vec![0, 1]);
        let f2 = m.cover_query(&q, 0b10, m.complement_head(0b10));
        assert_eq!(f2.head, vec![1], "join var y only; z stays existential");
        // An overlapping cover exposes the shared atom's variables on
        // both sides: {t1,t2} next to {t2} joins on y *and* z.
        let both = m.cover_query(&q, 0b11, m.head_of(0b11, 0b10));
        assert_eq!(both.head, vec![0, 1, 2]);
    }

    #[test]
    fn canonical_forms_of_isomorphic_queries_agree() {
        // Same query with different variable ids and atom order.
        let a = BgpQuery::new(
            vec![3],
            vec![StorePattern::new(v(3), c(1), v(9)), StorePattern::new(v(9), c(2), v(4))],
        );
        let b = BgpQuery::new(
            vec![0],
            vec![StorePattern::new(v(7), c(2), v(2)), StorePattern::new(v(0), c(1), v(7))],
        );
        let (ca, perm_a) = a.canonicalize();
        let (cb, perm_b) = b.canonicalize();
        assert_eq!(ca, cb);
        // Permutations map canonical atoms back to the originals.
        assert_eq!(perm_a.len(), 2);
        for (i, &orig) in perm_a.iter().enumerate() {
            assert_eq!(ca.atoms[i].p, a.atoms[orig].p);
        }
        for (i, &orig) in perm_b.iter().enumerate() {
            assert_eq!(cb.atoms[i].p, b.atoms[orig].p);
        }
    }

    #[test]
    fn canonical_form_distinguishes_structure() {
        // (x p y)(y p z) vs (x p y)(x p z): different join shapes.
        let chain = BgpQuery::new(
            vec![0],
            vec![StorePattern::new(v(0), c(1), v(1)), StorePattern::new(v(1), c(1), v(2))],
        );
        let star = BgpQuery::new(
            vec![0],
            vec![StorePattern::new(v(0), c(1), v(1)), StorePattern::new(v(0), c(1), v(2))],
        );
        assert_ne!(chain.canonicalize().0, star.canonicalize().0);
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let q = q1();
        let (c1, _) = q.canonicalize();
        let (c2, _) = c1.canonicalize();
        assert_eq!(c1, c2);
    }

    #[test]
    fn canonical_head_order_is_preserved() {
        // Head (b, a): canonical head must stay two distinct columns in
        // the same semantic order.
        let q = BgpQuery::new(vec![5, 2], vec![StorePattern::new(v(2), c(1), v(5))]);
        let (c, _) = q.canonicalize();
        assert_eq!(c.head, vec![0, 1]);
        // Var 5 (first in head) is the object of the atom.
        assert_eq!(c.atoms[0].o, PatternTerm::Var(0));
        assert_eq!(c.atoms[0].s, PatternTerm::Var(1));
    }

    #[test]
    fn to_store_cq_round_trip() {
        let q = q1();
        let cq = q.to_store_cq();
        assert_eq!(cq.patterns, q.atoms);
        assert_eq!(cq.head_vars(), q.head);
    }
}
