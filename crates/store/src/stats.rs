//! Statistics and cardinality estimation.
//!
//! The cost model of §4.1 "relies on estimated cardinalities of various
//! subqueries of the JUCQ"; GCov spends part of its running time to
//! "obtain the statistics necessary for estimating the number of results
//! of various fragments" (§5.2). This module supplies both:
//!
//! * **exact** triple-pattern cardinalities, read off the permutation
//!   indexes in O(log n);
//! * System-R-style **estimates** for CQs (independence + containment of
//!   value sets), UCQs (sum) and JUCQs (join of fragment estimates).
//!
//! It is the only code that turns per-atom extents into row estimates
//! and per-variable domains. [`Statistics::est_with_extents`] holds the
//! CQ formula, [`Statistics::pipeline_volume`] sums it over a member's
//! greedy pipeline prefixes, and a [`FragmentSummary`] carries a
//! fragment's rows and domains to whoever joins it: the planner's
//! fragment join order, the internal cost model, `explain`, and the
//! optimizer's §4.1 model all read the same summaries.

use jucq_model::{FxHashMap, FxHashSet, TermId};

use crate::ir::{StoreCq, StorePattern, StoreUcq, VarId};
use crate::table::{Perm, TripleTable};

/// Per-predicate statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredicateStats {
    /// Number of triples with this predicate.
    pub count: usize,
    /// Distinct subjects among them.
    pub distinct_subjects: usize,
    /// Distinct objects among them.
    pub distinct_objects: usize,
}

/// Dataset-level statistics backing cardinality estimation.
#[derive(Debug, Clone)]
pub struct Statistics {
    total: usize,
    predicates: FxHashMap<TermId, PredicateStats>,
    distinct_subjects: usize,
    distinct_objects: usize,
    distinct_predicates: usize,
}

/// Number of maximal equal runs in a pre-sorted stream (= distinct
/// count when the stream is globally sorted on that component).
fn count_runs(values: impl Iterator<Item = TermId>) -> usize {
    let mut n = 0usize;
    let mut last: Option<TermId> = None;
    for v in values {
        if last != Some(v) {
            n += 1;
            last = Some(v);
        }
    }
    n
}

impl Statistics {
    /// Gather statistics from a built table by counting runs, one
    /// linear walk over each of four indexes. A predicate's triples are
    /// one run of the PSO index, its subjects sorted inside, and one run
    /// of the POS index, its objects sorted inside; the SPO and OSP
    /// indexes give the global distinct subject and object counts.
    /// Nothing is copied or re-sorted (this is also what keeps
    /// incremental store maintenance cheap).
    pub fn build(table: &TripleTable) -> Self {
        let by_predicate = |perm| table.sorted_by(perm).chunk_by(|a, b| a.p == b.p);
        let predicates: FxHashMap<TermId, PredicateStats> = by_predicate(Perm::Pso)
            .zip(by_predicate(Perm::Pos))
            .map(|(pso, pos)| {
                let stats = PredicateStats {
                    count: pso.len(),
                    distinct_subjects: count_runs(pso.iter().map(|t| t.s)),
                    distinct_objects: count_runs(pos.iter().map(|t| t.o)),
                };
                (pso[0].p, stats)
            })
            .collect();
        Statistics {
            total: table.len(),
            distinct_predicates: predicates.len(),
            predicates,
            distinct_subjects: count_runs(table.sorted_by(Perm::Spo).iter().map(|t| t.s)),
            distinct_objects: count_runs(table.sorted_by(Perm::Osp).iter().map(|t| t.o)),
        }
    }

    /// Total triples.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of distinct subjects.
    pub fn distinct_subjects(&self) -> usize {
        self.distinct_subjects
    }

    /// Number of distinct objects.
    pub fn distinct_objects(&self) -> usize {
        self.distinct_objects
    }

    /// Statistics for one predicate, if it occurs.
    pub fn predicate(&self, p: TermId) -> Option<&PredicateStats> {
        self.predicates.get(&p)
    }

    /// Number of distinct predicates.
    pub fn distinct_predicates(&self) -> usize {
        self.distinct_predicates
    }

    /// Exact cardinality of a triple pattern (index lookup).
    pub fn pattern_card(&self, table: &TripleTable, p: &StorePattern) -> usize {
        table.count(&p.bound())
    }

    /// Estimated distinct values a variable can take in one pattern of
    /// extent `card`, used as the domain size for join selectivities.
    pub fn var_domain(&self, pattern: &StorePattern, var: VarId, card: f64) -> f64 {
        let positions = pattern.positions();
        let pred = pattern.p.as_const();
        let mut best = f64::MAX;
        for (i, pos) in positions.iter().enumerate() {
            if pos.as_var() != Some(var) {
                continue;
            }
            let d = match (i, pred) {
                (0, Some(p)) => self.predicates.get(&p).map_or(1, |st| st.distinct_subjects),
                (2, Some(p)) => self.predicates.get(&p).map_or(1, |st| st.distinct_objects),
                (0, None) => self.distinct_subjects.max(1),
                (2, None) => self.distinct_objects.max(1),
                (1, _) => self.distinct_predicates.max(1),
                _ => unreachable!("position in 0..3"),
            };
            best = best.min(d as f64);
        }
        // A variable's domain cannot exceed the pattern's extent.
        best.min(card.max(1.0)).max(1.0)
    }

    /// Estimated result cardinality of a CQ body (before projection) from
    /// its atoms' extents: the product of the extents, divided per
    /// variable by every per-atom domain but the smallest (containment of
    /// value sets). The extents are supplied, not looked up: exact index
    /// counts for a member, a range-collapsed atom's whole interval in
    /// the planner, or the *unioned* reformulation extents of a cover
    /// query, whose join the optimizer uses as its overlap-aware fragment
    /// estimate (the per-member sum wildly overcounts the overlap between
    /// union members). Allocates nothing once `scratch` is warm.
    pub fn est_with_extents(
        &self,
        atoms: &[StorePattern],
        extents: &[f64],
        scratch: &mut EstScratch,
    ) -> f64 {
        debug_assert_eq!(atoms.len(), extents.len());
        self.est_atoms(atoms, extents, 0..atoms.len(), &mut scratch.domains)
    }

    /// The evaluated input volume of a CQ run as an index-nested-loop
    /// pipeline: atoms joined cheapest extent first (stable on ties),
    /// each step reading the estimated result of the prefix joined so
    /// far — Σ over the prefixes of [`Statistics::est_with_extents`]. The
    /// first prefix is the smallest extent itself.
    pub fn pipeline_volume(
        &self,
        atoms: &[StorePattern],
        extents: &[f64],
        scratch: &mut EstScratch,
    ) -> f64 {
        debug_assert_eq!(atoms.len(), extents.len());
        let EstScratch { domains, order } = scratch;
        order.clear();
        order.extend(0..atoms.len());
        order.sort_by(|&a, &b| extents[a].partial_cmp(&extents[b]).expect("finite extents"));
        (1..=order.len())
            .map(|len| self.est_atoms(atoms, extents, order[..len].iter().copied(), domains))
            .sum()
    }

    /// The one body of the CQ formula, over the atoms `picked` (in
    /// product order). The `(variable, domain)` pairs are sorted and
    /// divided in that order, so the result is a function of the picked
    /// atoms alone.
    fn est_atoms(
        &self,
        atoms: &[StorePattern],
        extents: &[f64],
        picked: impl Iterator<Item = usize> + Clone,
        domains: &mut Vec<(VarId, f64)>,
    ) -> f64 {
        if picked.clone().any(|i| extents[i] == 0.0) {
            return 0.0;
        }
        let mut est: f64 = picked.clone().map(|i| extents[i]).product();
        domains.clear();
        for i in picked {
            let (p, extent) = (&atoms[i], extents[i]);
            domains.extend(p.variables().into_iter().map(|v| (v, self.var_domain(p, v, extent))));
        }
        domains.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite domains"));
        for pair in domains.windows(2) {
            if pair[0].0 == pair[1].0 {
                est /= pair[1].1.max(1.0);
            }
        }
        est.max(0.0)
    }

    /// Summarize one fragment for join estimation from its members, each
    /// given with its per-atom extents (in pattern order). The planner
    /// passes the exact counts it already holds — a range-collapsed atom
    /// counts its whole interval there — so a summary costs no index
    /// lookup; [`Statistics::summarize_ucq`] looks the extents up, and the
    /// optimizer passes a cover query's unioned extents as one member.
    ///
    /// Rows are the sum of the members' [`Statistics::est_with_extents`].
    /// The domain of a head variable is the largest per-atom domain over
    /// the members' atoms where it occurs. Variables that the
    /// reformulation's instantiation rules turned into *constants* in
    /// the member heads (class/property variables, paper Example 4) no
    /// longer occur in any pattern — their domain is the number of
    /// distinct constants across the members. Every domain is capped by
    /// the fragment's rows.
    pub fn summarize<'m, E>(
        &self,
        head: &[VarId],
        members: impl IntoIterator<Item = (&'m StoreCq, E)>,
    ) -> FragmentSummary
    where
        E: IntoIterator<Item = f64>,
    {
        fn raise(domains: &mut Vec<(VarId, f64)>, v: VarId, d: f64) {
            match domains.iter_mut().find(|e| e.0 == v) {
                Some(e) => e.1 = e.1.max(d),
                None => domains.push((v, d)),
            }
        }
        let mut rows = 0.0;
        let mut domains: Vec<(VarId, f64)> = Vec::with_capacity(head.len());
        let mut head_consts: Vec<FxHashSet<TermId>> = vec![FxHashSet::default(); head.len()];
        let mut cards: Vec<f64> = Vec::new();
        let mut scratch = EstScratch::default();
        for (cq, extents) in members {
            cards.clear();
            cards.extend(extents);
            rows += self.est_with_extents(&cq.patterns, &cards, &mut scratch);
            for (p, &card) in cq.patterns.iter().zip(&cards) {
                for v in p.variables() {
                    if head.contains(&v) {
                        raise(&mut domains, v, self.var_domain(p, v, card));
                    }
                }
            }
            for (consts, term) in head_consts.iter_mut().zip(&cq.head) {
                if let Some(c) = term.as_const() {
                    consts.insert(c);
                }
            }
        }
        for (&v, consts) in head.iter().zip(&head_consts) {
            if !consts.is_empty() {
                raise(&mut domains, v, consts.len() as f64);
            }
        }
        let mut summary = FragmentSummary { rows, domains };
        summary.set_rows(rows);
        summary
    }

    /// [`Statistics::summarize`] over a logical fragment, reading each
    /// atom's exact extent off the index.
    pub fn summarize_ucq(&self, table: &TripleTable, ucq: &StoreUcq) -> FragmentSummary {
        self.summarize(
            &ucq.head,
            ucq.cqs
                .iter()
                .map(|cq| (cq, cq.patterns.iter().map(|p| self.pattern_card(table, p) as f64))),
        )
    }
}

/// The estimator's reusable buffers. A caller that estimates in a loop
/// keeps one and passes it to every call, so that estimating allocates
/// nothing once the buffers have grown.
#[derive(Debug, Default)]
pub struct EstScratch {
    /// `(variable, domain)` per variable occurrence of the atoms
    /// estimated.
    domains: Vec<(VarId, f64)>,
    /// Atom indexes, cheapest extent first.
    order: Vec<usize>,
}

/// What join estimation needs to know about one fragment — or about a
/// join of fragments, which is summarized the same way: estimated rows
/// and, per variable, the domain that join selectivities divide by.
/// Folding [`FragmentSummary::join`] over fragments estimates their
/// JUCQ: each shared variable divides by every domain but its smallest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FragmentSummary {
    /// Estimated result rows.
    pub rows: f64,
    /// Per-variable domain sizes. For a fragment: its head variables'
    /// domains, capped by its rows. For a join: each variable's smallest
    /// domain among the joined fragments.
    pub domains: Vec<(VarId, f64)>,
}

impl FragmentSummary {
    /// Set the fragment's rows (e.g. to a view-backed fragment's stored
    /// tuple count), keeping every domain capped by them.
    pub fn set_rows(&mut self, rows: f64) {
        self.rows = rows;
        for d in &mut self.domains {
            d.1 = d.1.min(rows.max(1.0));
        }
    }

    /// Estimated rows of `self ⋈ next`: the product of both sides' rows,
    /// divided — for every variable they share — by the larger of the
    /// two domains (containment of value sets). Folding this over
    /// fragments divides by every domain of a variable but its smallest,
    /// whatever the order. Arithmetic only: no index access.
    pub fn join_rows(&self, next: &FragmentSummary) -> f64 {
        if self.rows == 0.0 || next.rows == 0.0 {
            return 0.0;
        }
        let mut est = self.rows * next.rows;
        for &(v, d) in &next.domains {
            if let Some(&(_, mine)) = self.domains.iter().find(|e| e.0 == v) {
                est /= d.max(mine).max(1.0);
            }
        }
        est.max(0.0)
    }

    /// Turn `self` into the summary of `self ⋈ next`.
    pub fn join(&mut self, next: &FragmentSummary) {
        self.rows = self.join_rows(next);
        for &(v, d) in &next.domains {
            match self.domains.iter_mut().find(|e| e.0 == v) {
                Some(e) => e.1 = e.1.min(d),
                None => self.domains.push((v, d)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::PatternTerm;
    use jucq_model::term::TermKind;
    use jucq_model::TripleId;

    fn id(i: u32) -> TermId {
        TermId::new(TermKind::Uri, i)
    }

    fn t(s: u32, p: u32, o: u32) -> TripleId {
        TripleId::new(id(s), id(p), id(o))
    }

    fn c(i: u32) -> PatternTerm {
        PatternTerm::Const(id(i))
    }

    fn v(i: VarId) -> PatternTerm {
        PatternTerm::Var(i)
    }

    fn setup() -> (TripleTable, Statistics) {
        let table = TripleTable::build(&[
            t(1, 10, 2),
            t(1, 10, 3),
            t(2, 10, 3),
            t(1, 11, 5),
            t(2, 11, 5),
            t(3, 11, 5),
            t(4, 12, 6),
        ]);
        let stats = Statistics::build(&table);
        (table, stats)
    }

    #[test]
    fn predicate_stats_are_exact() {
        let (_, stats) = setup();
        let p10 = stats.predicate(id(10)).unwrap();
        assert_eq!(p10.count, 3);
        assert_eq!(p10.distinct_subjects, 2);
        assert_eq!(p10.distinct_objects, 2);
        let p11 = stats.predicate(id(11)).unwrap();
        assert_eq!(p11.distinct_objects, 1);
        assert!(stats.predicate(id(99)).is_none());
        assert_eq!(stats.total(), 7);
        assert_eq!(stats.distinct_predicates(), 3);
    }

    fn one(patterns: Vec<StorePattern>, head: Vec<VarId>) -> StoreUcq {
        StoreUcq::new(vec![StoreCq::with_var_head(patterns, head.clone())], head)
    }

    #[test]
    fn single_pattern_estimate_is_exact() {
        let (table, stats) = setup();
        let f = one(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]);
        let summary = stats.summarize_ucq(&table, &f);
        assert_eq!(summary.rows, 3.0);
        // ?0 takes 2 subjects, ?1 2 objects.
        assert_eq!(summary.domains, vec![(0, 2.0), (1, 2.0)]);
    }

    #[test]
    fn zero_extent_pattern_estimates_zero() {
        let (table, stats) = setup();
        let f = one(
            vec![StorePattern::new(v(0), c(99), v(1)), StorePattern::new(v(0), c(10), v(2))],
            vec![0],
        );
        assert_eq!(stats.summarize_ucq(&table, &f).rows, 0.0);
        let atoms = &f.cqs[0].patterns;
        let mut scratch = EstScratch::default();
        assert_eq!(stats.pipeline_volume(atoms, &[0.0, 3.0], &mut scratch), 0.0);
    }

    #[test]
    fn join_estimate_is_reduced_by_selectivity() {
        let (table, stats) = setup();
        // ?x 10 ?y ⋈ ?x 11 ?z: 3 × 3 = 9 before selectivity; shared var
        // x has domains {2, 3} ⇒ divide by 3 ⇒ 3.
        let atoms = [StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(0), c(11), v(2))];
        let mut scratch = EstScratch::default();
        assert_eq!(stats.est_with_extents(&atoms, &[3.0, 3.0], &mut scratch), 3.0);
        // The pipeline reads the first extent, then the two-atom prefix.
        assert_eq!(stats.pipeline_volume(&atoms, &[3.0, 3.0], &mut scratch), 6.0);
        let f = one(atoms.to_vec(), vec![0, 1, 2]);
        assert_eq!(stats.summarize_ucq(&table, &f).rows, 3.0);
    }

    #[test]
    fn ucq_estimate_sums_members() {
        let (table, stats) = setup();
        let a = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]);
        let b = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(11), v(1))], vec![0, 1]);
        let ucq = StoreUcq::new(vec![a, b], vec![0, 1]);
        let summary = stats.summarize_ucq(&table, &ucq);
        assert_eq!(summary.rows, 6.0);
        // Each domain is the largest over the members: 3 subjects of 11,
        // 2 objects of 10.
        assert_eq!(summary.domains, vec![(0, 3.0), (1, 2.0)]);
    }

    #[test]
    fn jucq_estimate_applies_fragment_join_selectivity() {
        let (table, stats) = setup();
        let f1 = stats
            .summarize_ucq(&table, &one(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]));
        let f2 = stats
            .summarize_ucq(&table, &one(vec![StorePattern::new(v(0), c(11), v(2))], vec![0, 2]));
        // 3 × 3 rows, divided by the larger ?0 domain (3).
        assert_eq!(f1.join_rows(&f2), 3.0);
        let mut acc = f1.clone();
        acc.join(&f2);
        assert_eq!(acc.rows, 3.0);
        assert_eq!(acc.domains, vec![(0, 2.0), (1, 2.0), (2, 1.0)]);
    }

    #[test]
    fn empty_jucq_estimates_zero() {
        // A fragment without members has no rows, and neither has any
        // join with it.
        let (table, stats) = setup();
        let empty = stats.summarize_ucq(&table, &StoreUcq::new(vec![], vec![0]));
        assert_eq!(empty.rows, 0.0);
        let f = stats
            .summarize_ucq(&table, &one(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]));
        assert_eq!(f.join_rows(&empty), 0.0);
        assert_eq!(empty.join_rows(&f), 0.0);
    }

    #[test]
    fn empty_cq_estimates_one() {
        let (table, stats) = setup();
        let mut scratch = EstScratch::default();
        assert_eq!(stats.est_with_extents(&[], &[], &mut scratch), 1.0);
        assert_eq!(stats.pipeline_volume(&[], &[], &mut scratch), 0.0);
        assert_eq!(stats.summarize_ucq(&table, &one(vec![], vec![])).rows, 1.0);
    }

    #[test]
    fn pattern_card_matches_table_count() {
        let (table, stats) = setup();
        let p = StorePattern::new(v(0), c(11), v(1));
        assert_eq!(stats.pattern_card(&table, &p), 3);
    }
}
