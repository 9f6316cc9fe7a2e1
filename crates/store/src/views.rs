//! Materialized cover-fragment views: the cross-query answer cache.
//!
//! The cover-based strategies (ECov/GCov/fixed covers) join the results
//! of a few fragment UCQs. A serving workload repeats the same hot
//! fragments across thousands of queries, and the store already
//! materializes each fragment's union transiently during execution —
//! the [`ViewCatalog`] makes that materialization durable and shared:
//!
//! * a fragment's reformulated UCQ is keyed by a canonical
//!   [`ViewSignature`] (variable numbering and member order are
//!   normalized, so isomorphic fragments share one entry);
//! * entries live under a configurable **tuple budget** and are stamped
//!   with the **epoch** they were computed at. Execution resolves a
//!   view-served fragment ([`FragmentPlan::view`](crate::plan::FragmentPlan::view))
//!   through the catalog with the *request's* epoch and evaluates the
//!   fragment's members on any mismatch — a stale row can never be
//!   served, no matter how plans, snapshots and invalidations interleave;
//! * each entry carries a [`ViewFootprint`] — the predicates and
//!   classes its reformulated members read. An incremental update
//!   computes the delta's [`DeltaFootprint`] and
//!   [`ViewCatalog::advance_epoch`] drops exactly the intersecting
//!   entries, restamping the untouched rest (their extents provably did
//!   not change).

use std::sync::{Arc, Mutex, MutexGuard};

use jucq_model::{FxHashMap, FxHashSet, TermId, TripleId};

use crate::ir::{PatternTerm, StoreUcq, VarId};
use crate::relation::Relation;

/// A canonical fragment identity: a 128-bit hash of the reformulated
/// fragment UCQ with variables renumbered (head variables first, in
/// head order; existential variables per member by first occurrence)
/// and member encodings sorted, so the same logical fragment hashes
/// identically regardless of source variable ids or member order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewSignature {
    hi: u64,
    lo: u64,
}

impl std::fmt::Display for ViewSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const SPLITMIX_SEED: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, token: u64) -> u64 {
    for byte in token.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer — the second lane's mixing function. Its
/// structure (shift-xor-multiply) shares nothing with FNV-1a's
/// byte-wise xor-multiply, so the two lanes evolve as independent
/// 64-bit streams and the combined signature keeps its intended
/// ~128-bit collision bound (a signature collision would silently
/// serve another fragment's rows).
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Encode one term against a variable-renumbering map, assigning the
/// next fresh number to unseen variables.
fn encode_term(t: &PatternTerm, map: &mut FxHashMap<VarId, u64>, next: &mut u64) -> [u64; 2] {
    match t {
        PatternTerm::Const(id) => [1, id.raw() as u64],
        PatternTerm::Var(v) => {
            let n = *map.entry(*v).or_insert_with(|| {
                let n = *next;
                *next += 1;
                n
            });
            [0, n]
        }
    }
}

/// Canonical token stream of one UCQ: head arity, then the sorted
/// member encodings. `with_head` numbers head variables first (the full
/// signature); without, each member numbers its variables independently
/// by first occurrence (the head-agnostic *body* signature the cost
/// model matches on).
fn canonical_tokens(ucq: &StoreUcq, with_head: bool) -> Vec<u64> {
    let mut members: Vec<Vec<u64>> = ucq
        .cqs
        .iter()
        .map(|cq| {
            let mut map: FxHashMap<VarId, u64> = FxHashMap::default();
            let mut next = 0u64;
            if with_head {
                for &v in &ucq.head {
                    let n = next;
                    map.entry(v).or_insert(n);
                    next += 1;
                }
                next = ucq.head.len() as u64;
            }
            let mut tokens = Vec::with_capacity(cq.patterns.len() * 6);
            for p in &cq.patterns {
                for term in [&p.s, &p.p, &p.o] {
                    tokens.extend(encode_term(term, &mut map, &mut next));
                }
            }
            tokens
        })
        .collect();
    members.sort_unstable();
    let mut out = Vec::with_capacity(2 + members.iter().map(Vec::len).sum::<usize>());
    out.push(if with_head { ucq.head.len() as u64 } else { u64::MAX });
    out.push(members.len() as u64);
    for m in members {
        out.push(0xF1A6); // member separator
        out.extend(m);
    }
    out
}

impl ViewSignature {
    /// The full (head-aware) signature of a reformulated fragment UCQ —
    /// the catalog key the planner matches fragments against
    /// ([`FragmentPlan::view`](crate::plan::FragmentPlan::view)).
    pub fn of(ucq: &StoreUcq) -> ViewSignature {
        Self::hash_tokens(&canonical_tokens(ucq, true))
    }

    /// The head-agnostic *body* signature: the approximate key the cost
    /// model uses to price a fragment as view-backed during cover
    /// search, where candidate fragment heads are not yet final.
    pub fn body_of(ucq: &StoreUcq) -> ViewSignature {
        Self::hash_tokens(&canonical_tokens(ucq, false))
    }

    fn hash_tokens(tokens: &[u64]) -> ViewSignature {
        let mut hi = FNV_OFFSET_A;
        let mut lo = SPLITMIX_SEED;
        for &t in tokens {
            hi = fnv(hi, t);
            lo = splitmix(lo ^ t);
        }
        ViewSignature { hi, lo }
    }
}

/// The data a materialized fragment *reads*: the predicates of its
/// non-`rdf:type` atoms and the classes of its constant-class type
/// atoms, over every reformulated member (reformulation enumerates all
/// sub-properties and sub-classes, so the footprint is closed downward).
/// Variable predicates or classes widen to wildcards.
#[derive(Debug, Clone, Default)]
pub struct ViewFootprint {
    /// Constant predicates read by non-type atoms.
    pub preds: FxHashSet<TermId>,
    /// Constant classes read by `rdf:type` atoms.
    pub classes: FxHashSet<TermId>,
    /// Some atom has a variable predicate: any triple can match.
    pub any_pred: bool,
    /// Some `rdf:type` atom has a variable class: any type triple
    /// can match.
    pub any_class: bool,
}

impl ViewFootprint {
    /// The footprint of a reformulated fragment UCQ. `rdf_type` is the
    /// dictionary id of `rdf:type` (the store itself is
    /// vocabulary-agnostic).
    pub fn of(ucq: &StoreUcq, rdf_type: TermId) -> ViewFootprint {
        let mut fp = ViewFootprint::default();
        for cq in &ucq.cqs {
            for p in &cq.patterns {
                match p.p {
                    PatternTerm::Const(pred) if pred == rdf_type => match p.o {
                        PatternTerm::Const(class) => {
                            fp.classes.insert(class);
                        }
                        PatternTerm::Var(_) => fp.any_class = true,
                    },
                    PatternTerm::Const(pred) => {
                        fp.preds.insert(pred);
                    }
                    PatternTerm::Var(_) => {
                        fp.any_pred = true;
                        fp.any_class = true;
                    }
                }
            }
        }
        fp
    }

    /// True iff a delta with this footprint can change the view's
    /// extent — the invalidation test of
    /// [`ViewCatalog::advance_epoch`].
    pub fn intersects(&self, delta: &DeltaFootprint) -> bool {
        if self.any_pred && !(delta.preds.is_empty() && delta.classes.is_empty()) {
            return true;
        }
        if self.any_class && !delta.classes.is_empty() {
            return true;
        }
        delta.preds.iter().any(|p| self.preds.contains(p))
            || delta.classes.iter().any(|c| self.classes.contains(c))
    }
}

/// What one update batch *writes*: the predicates of its non-type
/// triples and the classes of its type triples.
#[derive(Debug, Clone, Default)]
pub struct DeltaFootprint {
    /// Predicates of inserted/deleted non-type triples.
    pub preds: FxHashSet<TermId>,
    /// Classes of inserted/deleted `rdf:type` triples.
    pub classes: FxHashSet<TermId>,
}

impl DeltaFootprint {
    /// The footprint of a batch of (encoded) inserted and deleted
    /// triples.
    pub fn from_triples<'a>(
        triples: impl IntoIterator<Item = &'a TripleId>,
        rdf_type: TermId,
    ) -> DeltaFootprint {
        let mut fp = DeltaFootprint::default();
        for t in triples {
            if t.p == rdf_type {
                fp.classes.insert(t.o);
            } else {
                fp.preds.insert(t.p);
            }
        }
        fp
    }

    /// True iff the batch touched nothing.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty() && self.classes.is_empty()
    }
}

struct ViewEntry {
    rows: Arc<Relation>,
    footprint: ViewFootprint,
    body: ViewSignature,
    epoch: u64,
    tuples: usize,
}

#[derive(Default)]
struct Inner {
    entries: FxHashMap<ViewSignature, ViewEntry>,
    /// Secondary index: body signature → full signatures of resident
    /// entries with that body (several heads can share one body), so
    /// [`ViewCatalog::body_tuples`] — called once per candidate
    /// fragment during cover search — is O(1) instead of a linear scan
    /// of the catalog under the mutex.
    bodies: FxHashMap<ViewSignature, Vec<ViewSignature>>,
    total_tuples: usize,
    epoch: u64,
    hits: u64,
    misses: u64,
    invalidated: u64,
}

impl Inner {
    fn index_body(&mut self, body: ViewSignature, sig: ViewSignature) {
        let sigs = self.bodies.entry(body).or_default();
        if !sigs.contains(&sig) {
            sigs.push(sig);
        }
    }

    fn unindex_body(&mut self, body: &ViewSignature, sig: &ViewSignature) {
        if let Some(sigs) = self.bodies.get_mut(body) {
            sigs.retain(|s| s != sig);
            if sigs.is_empty() {
                self.bodies.remove(body);
            }
        }
    }
}

/// Aggregate catalog statistics (for `/metrics`, the query log and the
/// bench's exact-invalidation check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewCatalogStats {
    /// Materialized entries currently resident.
    pub entries: usize,
    /// Tuples held across all entries.
    pub total_tuples: usize,
    /// The configured tuple budget.
    pub budget_tuples: usize,
    /// The catalog's current epoch.
    pub epoch: u64,
    /// Epoch-exact resolution successes since creation.
    pub hits: u64,
    /// Resolution attempts that missed (absent or wrong epoch).
    pub misses: u64,
    /// Entries dropped by footprint invalidation since creation.
    pub invalidated: u64,
}

/// The materialized-view catalog: fragment results keyed by canonical
/// signature, stamped with the epoch they were computed at, bounded by
/// a tuple budget. Interior-mutable (`Mutex`) so one catalog is shared
/// by concurrent readers and the single writer; every operation is a
/// short critical section over the map (row payloads are `Arc`-shared,
/// never copied under the lock).
pub struct ViewCatalog {
    budget_tuples: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ViewCatalog {
    /// Summarized (entry payloads can be millions of rows; dumping them
    /// into a debug log would be worse than useless).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ViewCatalog")
            .field("entries", &s.entries)
            .field("total_tuples", &s.total_tuples)
            .field("budget_tuples", &s.budget_tuples)
            .field("epoch", &s.epoch)
            .finish_non_exhaustive()
    }
}

impl ViewCatalog {
    /// An empty catalog holding at most `budget_tuples` tuples.
    pub fn new(budget_tuples: usize) -> ViewCatalog {
        ViewCatalog { budget_tuples, inner: Mutex::new(Inner::default()) }
    }

    /// The configured tuple budget.
    pub fn budget_tuples(&self) -> usize {
        self.budget_tuples
    }

    /// Force the epoch (the database keeps the catalog at the epoch of
    /// the snapshot it publishes). Entries keep their stamps: an
    /// entry stamped with a different epoch simply stops resolving
    /// until re-materialized.
    pub fn set_epoch(&self, epoch: u64) {
        self.lock().epoch = epoch;
    }

    /// Insert (or refresh) a materialized fragment, stamped with the
    /// catalog's current epoch. Returns `false` without inserting when
    /// the rows would exceed the tuple budget (replacing an existing
    /// entry only charges the difference).
    pub fn insert(
        &self,
        sig: ViewSignature,
        body: ViewSignature,
        rows: Relation,
        footprint: ViewFootprint,
    ) -> bool {
        let tuples = rows.len();
        let mut inner = self.lock();
        let replaced = inner.entries.get(&sig).map(|e| e.tuples).unwrap_or(0);
        if inner.total_tuples - replaced + tuples > self.budget_tuples {
            return false;
        }
        let epoch = inner.epoch;
        inner.total_tuples = inner.total_tuples - replaced + tuples;
        if let Some(old) = inner
            .entries
            .insert(sig, ViewEntry { rows: Arc::new(rows), footprint, body, epoch, tuples })
        {
            if old.body != body {
                inner.unindex_body(&old.body, &sig);
            }
        }
        inner.index_body(body, sig);
        true
    }

    /// The tuple count of a current-epoch entry, if present — the
    /// planner's matching probe (execution re-checks the epoch).
    pub fn contains_current(&self, sig: &ViewSignature) -> Option<usize> {
        let inner = self.lock();
        inner.entries.get(sig).filter(|e| e.epoch == inner.epoch).map(|e| e.tuples)
    }

    /// The tuple count of a current-epoch entry by *body* signature —
    /// the cost model's approximate probe (a false positive only skews
    /// an estimate, never an answer).
    pub fn body_tuples(&self, body: &ViewSignature) -> Option<usize> {
        let inner = self.lock();
        inner.bodies.get(body)?.iter().find_map(|sig| {
            inner.entries.get(sig).filter(|e| e.epoch == inner.epoch).map(|e| e.tuples)
        })
    }

    /// Resolve a view for a request pinned to `epoch`: the rows are
    /// returned only when the entry's stamp matches exactly. Any
    /// mismatch — entry absent, computed at another epoch — is a miss
    /// and the caller evaluates the fallback union.
    pub fn resolve(&self, sig: &ViewSignature, epoch: u64) -> Option<Arc<Relation>> {
        let mut inner = self.lock();
        match inner.entries.get(sig) {
            Some(e) if e.epoch == epoch => {
                let rows = Arc::clone(&e.rows);
                inner.hits += 1;
                Some(rows)
            }
            _ => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Advance to `new_epoch` after an incremental update: entries whose
    /// footprint intersects `delta` are dropped (their extents may have
    /// changed); the rest are restamped to `new_epoch` (their inputs
    /// provably did not change, so their rows are exact at the new
    /// epoch too). Returns the signatures dropped, for re-pinning.
    pub fn advance_epoch(&self, new_epoch: u64, delta: &DeltaFootprint) -> Vec<ViewSignature> {
        let mut inner = self.lock();
        let stale_epoch = inner.epoch;
        let mut dropped = Vec::new();
        let mut dropped_bodies = Vec::new();
        inner.entries.retain(|sig, e| {
            // An entry already off-epoch can't be revalidated by
            // restamping — it was computed against some other state.
            if e.epoch != stale_epoch || e.footprint.intersects(delta) {
                dropped.push(*sig);
                dropped_bodies.push(e.body);
                false
            } else {
                e.epoch = new_epoch;
                true
            }
        });
        for (sig, body) in dropped.iter().zip(&dropped_bodies) {
            inner.unindex_body(body, sig);
        }
        let freed: usize = dropped.len();
        inner.total_tuples = inner.entries.values().map(|e| e.tuples).sum();
        inner.invalidated += freed as u64;
        inner.epoch = new_epoch;
        dropped
    }

    /// Drop every entry (non-incremental rebuilds: the schema closure a
    /// view's union was reformulated under may have changed, so nothing
    /// survives). The epoch is unchanged —
    /// the owner sets the rebuilt state's.
    pub fn clear(&self) {
        let mut inner = self.lock();
        let n = inner.entries.len() as u64;
        inner.entries.clear();
        inner.bodies.clear();
        inner.total_tuples = 0;
        inner.invalidated += n;
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ViewCatalogStats {
        let inner = self.lock();
        ViewCatalogStats {
            entries: inner.entries.len(),
            total_tuples: inner.total_tuples,
            budget_tuples: self.budget_tuples,
            epoch: inner.epoch,
            hits: inner.hits,
            misses: inner.misses,
            invalidated: inner.invalidated,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The execution-time view of the catalog: the catalog plus the
/// *request's* pinned epoch. Resolution through a `ViewSource` is
/// epoch-exact, which is the whole correctness story — a plan (cached
/// or fresh) names a view only by signature, and the rows come from
/// here or not at all.
#[derive(Clone, Copy)]
pub struct ViewSource<'a> {
    /// The shared catalog.
    pub catalog: &'a ViewCatalog,
    /// The epoch the request is pinned to.
    pub epoch: u64,
}

impl<'a> ViewSource<'a> {
    /// Epoch-exact resolution (see [`ViewCatalog::resolve`]).
    pub fn resolve(&self, sig: &ViewSignature) -> Option<Arc<Relation>> {
        self.catalog.resolve(sig, self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{StoreCq, StorePattern};
    use jucq_model::TermKind;

    fn id(i: u32) -> TermId {
        TermId::new(TermKind::Uri, i)
    }

    fn c(i: u32) -> PatternTerm {
        PatternTerm::Const(id(i))
    }

    fn v(n: VarId) -> PatternTerm {
        PatternTerm::Var(n)
    }

    fn ucq(members: Vec<Vec<StorePattern>>, head: Vec<VarId>) -> StoreUcq {
        let cqs = members
            .into_iter()
            .map(|patterns| {
                let head_terms: Vec<PatternTerm> =
                    head.iter().map(|&h| PatternTerm::Var(h)).collect();
                StoreCq::new(patterns, head_terms)
            })
            .collect();
        StoreUcq::new(cqs, head)
    }

    #[test]
    fn signature_is_invariant_under_renaming_and_member_order() {
        let a = ucq(
            vec![
                vec![StorePattern::new(v(0), c(10), v(1))],
                vec![StorePattern::new(v(0), c(11), v(1))],
            ],
            vec![0, 1],
        );
        // Same shape, different variable ids and member order.
        let b = ucq(
            vec![
                vec![StorePattern::new(v(7), c(11), v(3))],
                vec![StorePattern::new(v(7), c(10), v(3))],
            ],
            vec![7, 3],
        );
        assert_eq!(ViewSignature::of(&a), ViewSignature::of(&b));
        assert_eq!(ViewSignature::body_of(&a), ViewSignature::body_of(&b));
    }

    #[test]
    fn signature_distinguishes_heads_and_constants() {
        let a = ucq(vec![vec![StorePattern::new(v(0), c(10), v(1))]], vec![0, 1]);
        let different_const = ucq(vec![vec![StorePattern::new(v(0), c(12), v(1))]], vec![0, 1]);
        let different_head = ucq(vec![vec![StorePattern::new(v(0), c(10), v(1))]], vec![1, 0]);
        assert_ne!(ViewSignature::of(&a), ViewSignature::of(&different_const));
        assert_ne!(ViewSignature::of(&a), ViewSignature::of(&different_head));
        // The body signature deliberately ignores the head.
        assert_eq!(ViewSignature::body_of(&a), ViewSignature::body_of(&different_head));
    }

    #[test]
    fn footprint_intersection_is_exact_per_predicate_and_class() {
        let rdf_type = id(1);
        let frag = ucq(
            vec![
                vec![StorePattern::new(v(0), c(10), v(1))],
                vec![StorePattern::new(v(0), PatternTerm::Const(rdf_type), c(20))],
            ],
            vec![0],
        );
        let fp = ViewFootprint::of(&frag, rdf_type);
        assert!(fp.preds.contains(&id(10)));
        assert!(fp.classes.contains(&id(20)));
        assert!(!fp.any_pred && !fp.any_class);

        let hit_pred = DeltaFootprint::from_triples(
            &[jucq_model::TripleId::new(id(5), id(10), id(6))],
            rdf_type,
        );
        let hit_class = DeltaFootprint::from_triples(
            &[jucq_model::TripleId::new(id(5), rdf_type, id(20))],
            rdf_type,
        );
        let miss = DeltaFootprint::from_triples(
            &[jucq_model::TripleId::new(id(5), id(99), id(6))],
            rdf_type,
        );
        let miss_class = DeltaFootprint::from_triples(
            &[jucq_model::TripleId::new(id(5), rdf_type, id(99))],
            rdf_type,
        );
        assert!(fp.intersects(&hit_pred));
        assert!(fp.intersects(&hit_class));
        assert!(!fp.intersects(&miss));
        assert!(!fp.intersects(&miss_class));
    }

    #[test]
    fn catalog_budget_epoch_and_invalidation() {
        let rdf_type = id(1);
        let frag_a = ucq(vec![vec![StorePattern::new(v(0), c(10), v(1))]], vec![0, 1]);
        let frag_b = ucq(vec![vec![StorePattern::new(v(0), c(11), v(1))]], vec![0, 1]);
        let sig_a = ViewSignature::of(&frag_a);
        let sig_b = ViewSignature::of(&frag_b);

        let mut rows = Relation::empty(vec![0, 1]);
        rows.push_row(&[id(2), id(3)]);
        rows.push_row(&[id(4), id(5)]);

        let catalog = ViewCatalog::new(3);
        assert!(catalog.insert(
            sig_a,
            ViewSignature::body_of(&frag_a),
            rows.clone(),
            ViewFootprint::of(&frag_a, rdf_type),
        ));
        // Over budget: 2 held + 2 > 3.
        assert!(!catalog.insert(
            sig_b,
            ViewSignature::body_of(&frag_b),
            rows.clone(),
            ViewFootprint::of(&frag_b, rdf_type),
        ));
        // Replacing the same signature charges only the difference.
        assert!(catalog.insert(
            sig_a,
            ViewSignature::body_of(&frag_a),
            rows.clone(),
            ViewFootprint::of(&frag_a, rdf_type),
        ));
        assert_eq!(catalog.contains_current(&sig_a), Some(2));
        assert!(catalog.resolve(&sig_a, 0).is_some());
        assert!(catalog.resolve(&sig_a, 1).is_none(), "wrong epoch never resolves");
        assert_eq!(catalog.body_tuples(&ViewSignature::body_of(&frag_a)), Some(2));
        assert_eq!(catalog.body_tuples(&ViewSignature::body_of(&frag_b)), None);

        // A delta on predicate 10 invalidates exactly frag_a.
        let delta = DeltaFootprint::from_triples(
            &[jucq_model::TripleId::new(id(7), id(10), id(8))],
            rdf_type,
        );
        let dropped = catalog.advance_epoch(1, &delta);
        assert_eq!(dropped, vec![sig_a]);
        assert!(catalog.resolve(&sig_a, 1).is_none());
        assert_eq!(catalog.stats().entries, 0);
        assert_eq!(catalog.stats().invalidated, 1);
        assert_eq!(
            catalog.body_tuples(&ViewSignature::body_of(&frag_a)),
            None,
            "the body index drops with the entry"
        );

        // A surviving entry is restamped and resolves at the new epoch.
        assert!(catalog.insert(
            sig_b,
            ViewSignature::body_of(&frag_b),
            rows,
            ViewFootprint::of(&frag_b, rdf_type),
        ));
        let dropped = catalog.advance_epoch(2, &delta);
        assert!(dropped.is_empty(), "predicate 11 does not intersect a predicate-10 delta");
        assert!(catalog.resolve(&sig_b, 2).is_some());
        assert!(catalog.resolve(&sig_b, 1).is_none());
        assert_eq!(
            catalog.body_tuples(&ViewSignature::body_of(&frag_b)),
            Some(2),
            "a restamped survivor still probes by body"
        );
        catalog.clear();
        assert_eq!(catalog.body_tuples(&ViewSignature::body_of(&frag_b)), None);
    }
}
