//! Shared cover-search machinery: one fragment table + pluggable cost.
//!
//! Both ECov and GCov repeatedly estimate "the cost of the cover-based
//! reformulation" of candidate covers, and candidate covers repeat the
//! same few fragments constantly. A [`CoverSearch`] therefore keeps one
//! table per search, keyed by fragment (an atom mask): under each
//! fragment its reformulated cover queries, one per Definition 3.4 head
//! it was met with, and the cost ingredients derived from them. Scoring
//! a cover is then a handful of integer-keyed lookups plus the §4.1
//! arithmetic of a [`JucqCostEstimator`]: either the paper's analytic
//! model ([`crate::cost::PaperCostModel`]) or the engine's internal
//! estimator ([`EngineCostModel`], the Figure 9 alternative).
//!
//! Scoring is sequential: a fragment's ingredients are computed once
//! and every later cover reads them, so a batch of candidates costs
//! less than handing it to worker threads would.

use std::cell::{Cell, RefCell};
use std::time::Duration;

use jucq_model::FxHashMap;
use jucq_reformulation::reformulate::{reformulate_memoized, AtomMemo, ReformulationEnv};
use jucq_reformulation::{bits, AtomMask, AtomMasks, BgpQuery, Cover, CoverError, VarMask};
use jucq_store::{internal_cost, Store, StoreJucq, StorePattern, StoreUcq};

use crate::cost::{FragComponents, MemberSums, PaperCostModel};

/// Estimates the evaluation cost of a JUCQ (lower is better).
pub trait JucqCostEstimator {
    /// The estimated cost, in arbitrary but consistent units.
    fn estimate(&self, jucq: &StoreJucq) -> f64;

    /// The §4.1 model behind this estimator, if it is one: its cost
    /// decomposes into per-fragment ingredients, which the cover search
    /// computes once per fragment instead of once per cover.
    fn as_paper_model(&self) -> Option<&PaperCostModel<'_>> {
        None
    }
}

impl JucqCostEstimator for PaperCostModel<'_> {
    fn estimate(&self, jucq: &StoreJucq) -> f64 {
        self.cost(jucq)
    }

    fn as_paper_model(&self) -> Option<&PaperCostModel<'_>> {
        Some(self)
    }
}

/// The engine's internal cost estimator (the paper's "RDBMS cost
/// estimation" alternative of Figure 9).
pub struct EngineCostModel<'a> {
    store: &'a Store,
}

impl<'a> EngineCostModel<'a> {
    /// Bind to a store (profile + statistics).
    pub fn new(store: &'a Store) -> Self {
        EngineCostModel { store }
    }
}

impl JucqCostEstimator for EngineCostModel<'_> {
    fn estimate(&self, jucq: &StoreJucq) -> f64 {
        internal_cost::estimate(self.store, jucq)
    }
}

/// One reformulated cover query of a fragment.
struct Union {
    /// Its head (Definition 3.4 heads vary with the cover for
    /// overlapping covers, so the fragment alone would alias distinct
    /// queries).
    head: VarMask,
    /// The UCQ, or `None` when it blew the materialization limit
    /// (treated as infinitely expensive).
    ucq: Option<StoreUcq>,
    /// The member pass over `ucq`, once an estimate needed it.
    sums: Option<MemberSums>,
}

/// What the search knows about one fragment.
#[derive(Default)]
struct Fragment {
    unions: Vec<Union>,
    /// Cover-cost ingredients under the paper's model.
    comps: Option<FragComponents>,
    /// Cost of the fragment evaluated alone (the GCov redundancy-pruning
    /// order re-asks the same fragments constantly).
    standalone: Option<f64>,
    /// Of a single-atom fragment: the scan volume of its reformulation,
    /// the atom's *unioned* extent (inner `None`: over the limit).
    extent: Option<Option<f64>>,
}

type FragmentTable = FxHashMap<AtomMask, Fragment>;

/// The entry of a cover query [`CoverSearch::union`] already resolved.
fn resolved(table: &mut FragmentTable, fragment: AtomMask, head: VarMask) -> &mut Union {
    let unions = &mut table.get_mut(&fragment).expect("resolved before").unions;
    unions.iter_mut().find(|u| u.head == head).expect("resolved before")
}

/// Lookup tallies, flushed to the metrics registry once per search: a
/// search makes tens of thousands of lookups, the registry is behind a
/// process-wide mutex.
#[derive(Default)]
struct Tally {
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl Tally {
    fn count(&self, hit: bool) {
        let cell = if hit { &self.hits } else { &self.misses };
        cell.set(cell.get() + 1);
    }
}

/// The search context shared by ECov and GCov.
pub struct CoverSearch<'a> {
    query: &'a BgpQuery,
    masks: Result<AtomMasks, CoverError>,
    env: ReformulationEnv<'a>,
    estimator: &'a dyn JucqCostEstimator,
    /// Cap on the number of member CQs materialized per fragment; a
    /// fragment beyond it costs `+∞` (no engine accepts it anyway).
    reformulation_limit: usize,
    /// The engine's union-term limit: covers whose fragments sum past
    /// it are infeasible (the engine would reject the JUCQ at
    /// admission), so they cost `+∞` and the search routes around them.
    union_limit: usize,
    table: RefCell<FragmentTable>,
    /// The single-atom reformulations the fragments' product paths
    /// multiply, computed once per atom for the whole search.
    atom_memo: RefCell<AtomMemo>,
    /// Covers whose cost was estimated so far (the "number of query
    /// covers explored" of Figures 7–8).
    explored: Cell<usize>,
    reformulation_lookups: Tally,
    fragment_cost_lookups: Tally,
}

/// The outcome of a cover search.
#[derive(Debug, Clone)]
pub struct CoverSearchResult {
    /// The best cover found.
    pub cover: Cover,
    /// Its estimated cost.
    pub estimated_cost: f64,
    /// Number of covers whose cost was estimated.
    pub explored: usize,
    /// Search wall-clock time.
    pub elapsed: Duration,
    /// True iff the search gave up (timeout / space cap) before
    /// finishing; the result is still the best cover seen (ECov and
    /// GCov are anytime).
    pub truncated: bool,
}

impl<'a> CoverSearch<'a> {
    /// Create a search context.
    pub fn new(
        query: &'a BgpQuery,
        env: ReformulationEnv<'a>,
        estimator: &'a dyn JucqCostEstimator,
    ) -> Self {
        CoverSearch {
            query,
            masks: query.atom_masks(),
            env,
            estimator,
            reformulation_limit: 400_000,
            union_limit: usize::MAX,
            table: RefCell::default(),
            atom_memo: RefCell::default(),
            explored: Cell::new(0),
            reformulation_lookups: Tally::default(),
            fragment_cost_lookups: Tally::default(),
        }
    }

    /// Override the per-fragment reformulation cap.
    pub fn with_reformulation_limit(mut self, limit: usize) -> Self {
        self.reformulation_limit = limit;
        self
    }

    /// Declare the target engine's union-term limit (admission control);
    /// infeasible covers then cost `+∞`. Also caps per-fragment
    /// reformulation at `limit + 1` members: a fragment alone exceeding
    /// the engine limit need never be materialized further.
    pub fn with_union_limit(mut self, limit: usize) -> Self {
        self.union_limit = limit;
        self.reformulation_limit = self.reformulation_limit.min(limit.saturating_add(1));
        self
    }

    /// Scoring is sequential (see the module docs); this remains so
    /// that callers written against the worker-pool API keep building.
    #[doc(hidden)]
    pub fn with_parallelism(self, _threads: usize) -> Self {
        self
    }

    /// The query's atom masks, or why it has no covers at all.
    pub fn masks(&self) -> Result<&AtomMasks, CoverError> {
        self.masks.as_ref().map_err(CoverError::clone)
    }

    /// Number of covers costed so far.
    pub fn explored(&self) -> usize {
        self.explored.get()
    }

    /// The masks, for callers holding a fragment or a cover — which
    /// only exist for a query that has them.
    fn fragment_masks(&self) -> &AtomMasks {
        self.masks.as_ref().expect("fragments exist only for a query within the mask width")
    }

    /// The (memoized) reformulation of `fragment`'s cover query under
    /// `head`.
    fn union<'t>(
        &self,
        table: &'t mut FragmentTable,
        fragment: AtomMask,
        head: VarMask,
    ) -> &'t mut Union {
        let unions = &mut table.entry(fragment).or_default().unions;
        let known = unions.iter().position(|u| u.head == head);
        self.reformulation_lookups.count(known.is_some());
        let at = known.unwrap_or_else(|| {
            let cq = self.fragment_masks().cover_query(self.query, fragment, head);
            let memo = &mut *self.atom_memo.borrow_mut();
            let ucq = reformulate_memoized(&cq, &self.env, self.reformulation_limit, memo).ok();
            unions.push(Union { head, ucq, sums: None });
            unions.len() - 1
        });
        &mut unions[at]
    }

    /// Atom `i`'s unioned extent: the scan volume of its singleton
    /// reformulation (under the all-variables head; extent sums are
    /// head-insensitive). `None` when that reformulation is over the
    /// limit.
    fn atom_extent(&self, table: &mut FragmentTable, i: usize) -> Option<f64> {
        if let Some(known) = table.get(&(1 << i)).and_then(|f| f.extent) {
            return known;
        }
        let head = self.fragment_masks().vars_of(1 << i);
        let model = self.estimator.as_paper_model();
        let extent = (self.union(table, 1 << i, head).ucq.as_ref())
            .map(|ucq| model.map_or(0.0, |m| m.ucq_scan_volume(ucq)));
        table.get_mut(&(1 << i)).expect("entered above").extent = Some(extent);
        extent
    }

    /// Estimated cost of a cover's JUCQ (`+∞` when un-materializable).
    /// Each call counts as one explored cover.
    pub fn cover_cost(&self, cover: &Cover) -> f64 {
        jucq_obs::span!("cost_estimation");
        self.explored.set(self.explored.get() + 1);
        let table = &mut *self.table.borrow_mut();
        let heads: Vec<(AtomMask, VarMask)> = cover.heads(self.fragment_masks()).collect();
        // Resolve every fragment's union and per-atom extents first;
        // any over-limit one makes the cover infeasible.
        let mut total_terms = 0usize;
        for &(fragment, head) in &heads {
            let Some(ucq) = &self.union(table, fragment, head).ucq else {
                return f64::INFINITY;
            };
            total_terms += ucq.len();
            if total_terms > self.union_limit {
                // The engine would reject this JUCQ at admission.
                return f64::INFINITY;
            }
            if bits(fragment).any(|i| self.atom_extent(table, i).is_none()) {
                return f64::INFINITY;
            }
        }
        let Some(model) = self.estimator.as_paper_model() else {
            let fragments = (heads.iter())
                .map(|&(f, head)| resolved(table, f, head).ucq.clone().expect("resolved above"))
                .collect();
            return self.estimator.estimate(&StoreJucq::new(fragments, self.query.head.clone()));
        };
        for &(fragment, head) in &heads {
            if table[&fragment].comps.is_none() {
                let comps = self.components(table, model, fragment, head);
                table.get_mut(&fragment).expect("resolved above").comps = Some(comps);
            }
        }
        let comps: Vec<&FragComponents> = (heads.iter())
            .map(|(fragment, _)| table[fragment].comps.as_ref().expect("filled above"))
            .collect();
        model.combine(&comps)
    }

    /// A resolved fragment's cost ingredients under the paper's model,
    /// from its union under `head` and its atoms' unioned extents.
    fn components(
        &self,
        table: &mut FragmentTable,
        model: &PaperCostModel<'_>,
        fragment: AtomMask,
        head: VarMask,
    ) -> FragComponents {
        let atoms: Vec<StorePattern> = bits(fragment).map(|i| self.query.atoms[i]).collect();
        let extents: Vec<f64> = bits(fragment)
            .map(|i| table[&(1 << i)].extent.flatten().expect("resolved with the fragment"))
            .collect();
        let Union { ucq, sums, .. } = resolved(table, fragment, head);
        let ucq = ucq.as_ref().expect("resolved with the fragment");
        let sums = *sums.get_or_insert_with(|| model.member_sums(ucq));
        model.template_components(sums, ucq, &atoms, &extents)
    }

    /// Cost of a single fragment's reformulated UCQ alone (used by the
    /// redundancy pruning order in GCov). Uses the complement-context
    /// head — adequate for ordering. Memoized: candidate covers repeat
    /// the same fragments constantly, so each is costed once.
    pub fn fragment_cost(&self, fragment: AtomMask) -> f64 {
        let table = &mut *self.table.borrow_mut();
        let known = table.get(&fragment).and_then(|f| f.standalone);
        self.fragment_cost_lookups.count(known.is_some());
        if let Some(cost) = known {
            return cost;
        }
        let head = self.fragment_masks().complement_head(fragment);
        let Union { ucq, sums, .. } = self.union(table, fragment, head);
        let cost = match (ucq.as_ref(), self.estimator.as_paper_model()) {
            (None, _) => f64::INFINITY,
            (Some(ucq), Some(model)) => {
                let sums = *sums.get_or_insert_with(|| model.member_sums(ucq));
                model.standalone_cost(sums, ucq)
            }
            (Some(ucq), None) => {
                self.estimator.estimate(&StoreJucq::new(vec![ucq.clone()], ucq.head.clone()))
            }
        };
        table.get_mut(&fragment).expect("entered above").standalone = Some(cost);
        cost
    }
}

impl Drop for CoverSearch<'_> {
    fn drop(&mut self) {
        let (atom_hits, atom_misses) = self.atom_memo.get_mut().lookups();
        for (name, count) in [
            ("cover_search.reformulation_cache.hits", self.reformulation_lookups.hits.get()),
            ("cover_search.reformulation_cache.misses", self.reformulation_lookups.misses.get()),
            ("cover_search.fragment_cost_cache.hits", self.fragment_cost_lookups.hits.get()),
            ("cover_search.fragment_cost_cache.misses", self.fragment_cost_lookups.misses.get()),
            ("cover_search.atom_cache.hits", atom_hits),
            ("cover_search.atom_cache.misses", atom_misses),
        ] {
            if count > 0 {
                jucq_obs::metrics::counter_add(name, count);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{triple, var, Fixture};

    fn fixture() -> Fixture {
        Fixture::new(&[
            triple("b1", jucq_model::vocab::RDF_TYPE, "Book"),
            triple("b1", "writtenBy", "a1"),
            triple("b2", "writtenBy", "a1"),
            triple("b2", "writtenBy", "a2"),
            triple("Book", jucq_model::vocab::RDFS_SUBCLASS_OF, "Publication"),
            triple("writtenBy", jucq_model::vocab::RDFS_DOMAIN, "Book"),
        ])
    }

    /// `q(x, y):- (x τ Book), (x writtenBy y)`.
    fn query(f: &Fixture) -> BgpQuery {
        BgpQuery::new(
            vec![0, 1],
            vec![f.atom(var(0), "a", f.uri("Book")), f.atom(var(0), "writtenBy", var(1))],
        )
    }

    #[test]
    fn fragment_unions_are_reformulated_once() {
        let f = fixture();
        let q = query(&f);
        f.with_search(&q, |search, _| {
            let scq = Cover::singletons(&q).unwrap();
            let a = search.cover_cost(&scq);
            let misses = search.reformulation_lookups.misses.get();
            let b = search.cover_cost(&scq);
            assert_eq!(a.to_bits(), b.to_bits(), "the table returns the identical cost");
            assert_eq!(search.reformulation_lookups.misses.get(), misses, "only hits now");
            assert_eq!(search.table.borrow().len(), 2);
        });
    }

    #[test]
    fn fragment_cost_is_memoized() {
        let f = fixture();
        let q = query(&f);
        f.with_search(&q, |search, model| {
            let a = search.fragment_cost(0b01);
            let b = search.fragment_cost(0b01);
            assert_eq!(a.to_bits(), b.to_bits(), "memo returns the identical cost");
            let lookups = &search.fragment_cost_lookups;
            assert_eq!((lookups.hits.get(), lookups.misses.get()), (1, 1));
            // The standalone cost is the model's price of the lone fragment.
            let lone = BgpQuery::new(vec![0], vec![q.atoms[0]]);
            let lone = StoreJucq::from_ucq(jucq_reformulation::reformulate(&lone, &search.env));
            assert_eq!(a.to_bits(), model.cost(&lone).to_bits());
        });
    }

    #[test]
    fn a_cover_costs_the_same_whatever_was_scored_before() {
        // {t1,t2} exposes only x next to {t3}, but x and y next to
        // {t1,t3} (the shared atom t1 joins on both its variables): its
        // ingredients, computed for the first cover, must serve the
        // second one too.
        let f = fixture();
        let mut q = query(&f);
        q.atoms.insert(0, f.atom(var(0), "writtenBy", var(2)));
        let narrow = Cover::new(&q, vec![vec![0, 1], vec![2]]).unwrap();
        let wide = Cover::new(&q, vec![vec![0, 1], vec![0, 2]]).unwrap();
        let alone = f.with_search(&q, |search, _| search.cover_cost(&wide));
        let after = f.with_search(&q, |search, _| {
            search.cover_cost(&narrow);
            search.cover_cost(&wide)
        });
        assert_eq!(alone.to_bits(), after.to_bits());
    }

    #[test]
    fn lookup_tallies_reach_the_registry_when_the_search_ends() {
        let counter = |name: &str| {
            jucq_obs::metrics::global().snapshot().counters.get(name).copied().unwrap_or(0)
        };
        let f = fixture();
        jucq_obs::set_enabled(true);
        f.with_search(&query(&f), |search, _| {
            search.fragment_cost(0b10);
            search.fragment_cost(0b10);
            search.fragment_cost(0b10);
            // Counters only grow, and tests sharing the process may add
            // to them meanwhile: the two hits must be on top of whatever
            // was there before the search ended.
            let before = counter("cover_search.fragment_cost_cache.hits");
            drop(search);
            assert!(counter("cover_search.fragment_cost_cache.hits") >= before + 2);
        });
    }

    #[test]
    fn atom_memo_tallies_reach_the_registry_when_the_search_ends() {
        let counter = |name: &str| {
            jucq_obs::metrics::global().snapshot().counters.get(name).copied().unwrap_or(0)
        };
        // `q(x, y):- (x τ Book), (x writtenBy y), (y τ Book)`: no atom
        // can be instantiated, so both two-atom fragments take the
        // product path and share the rewritings of atom 1.
        let f = fixture();
        let mut q = query(&f);
        q.atoms.push(f.atom(var(1), "a", f.uri("Book")));
        jucq_obs::set_enabled(true);
        f.with_search(&q, |search, _| {
            search.fragment_cost(0b011);
            search.fragment_cost(0b110);
            assert_eq!(search.atom_memo.borrow().lookups(), (1, 3), "atom 1 is reformulated once");
            let before = [
                counter("cover_search.atom_cache.hits"),
                counter("cover_search.atom_cache.misses"),
            ];
            drop(search);
            assert!(counter("cover_search.atom_cache.hits") > before[0]);
            assert!(counter("cover_search.atom_cache.misses") >= before[1] + 3);
        });
    }

    #[test]
    fn cover_cost_counts_explorations() {
        let f = fixture();
        let q = query(&f);
        f.with_search(&q, |search, _| {
            let cost1 = search.cover_cost(&Cover::single_fragment(&q).unwrap());
            let cost2 = search.cover_cost(&Cover::singletons(&q).unwrap());
            assert!(cost1.is_finite() && cost2.is_finite());
            assert_eq!(search.explored(), 2);
        });
    }

    #[test]
    fn limit_makes_cover_infinite() {
        let f = fixture();
        let q = query(&f);
        f.with_search(&q, |search, _| {
            let search = search.with_reformulation_limit(1);
            assert!(search.cover_cost(&Cover::single_fragment(&q).unwrap()).is_infinite());
        });
    }

    #[test]
    fn engine_estimator_works_too() {
        let f = fixture();
        let q = query(&f);
        let model = EngineCostModel::new(&f.store);
        let cost = f.with_env(|env| {
            CoverSearch::new(&q, env, &model).cover_cost(&Cover::singletons(&q).unwrap())
        });
        assert!(cost.is_finite() && cost > 0.0);
    }
}
