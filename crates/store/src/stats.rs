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

use jucq_model::{FxHashMap, TermId};

use crate::ir::{StoreCq, StoreJucq, StorePattern, StoreUcq, VarId};
use crate::table::TripleTable;

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
    /// Gather statistics from a built table. Near-linear: the PSO index
    /// already groups triples by predicate with subjects sorted inside
    /// each run, and the SPO/OSP indexes give global distinct subject
    /// and object counts by run-counting — no re-sorting pass (this is
    /// also what keeps incremental store maintenance cheap).
    pub fn build(table: &TripleTable) -> Self {
        let mut predicates: FxHashMap<TermId, PredicateStats> = FxHashMap::default();
        let pso = table.by_predicate();
        let mut i = 0usize;
        while i < pso.len() {
            let p = pso[i].p;
            let mut j = i;
            while j < pso.len() && pso[j].p == p {
                j += 1;
            }
            let run = &pso[i..j];
            // Subjects are sorted within a PSO run.
            let distinct_subjects = count_runs(run.iter().map(|t| t.s));
            // Objects are not; sort a raw copy of the run.
            let mut objects: Vec<u32> = run.iter().map(|t| t.o.raw()).collect();
            objects.sort_unstable();
            objects.dedup();
            predicates.insert(
                p,
                PredicateStats {
                    count: run.len(),
                    distinct_subjects,
                    distinct_objects: objects.len(),
                },
            );
            i = j;
        }
        Statistics {
            total: table.len(),
            distinct_predicates: predicates.len(),
            predicates,
            distinct_subjects: count_runs(table.all().iter().map(|t| t.s)),
            distinct_objects: count_runs(table.by_object().iter().map(|t| t.o)),
        }
    }

    /// Total triples.
    pub fn total(&self) -> usize {
        self.total
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

    /// Estimated result cardinality of a CQ body (before projection):
    /// product of exact pattern extents divided per shared variable by
    /// all but the smallest of its per-atom domains (containment of
    /// value sets).
    pub fn est_cq(&self, table: &TripleTable, cq: &StoreCq) -> f64 {
        let cards: Vec<f64> =
            cq.patterns.iter().map(|p| self.pattern_card(table, p) as f64).collect();
        self.est_with_extents(&cq.patterns, &cards)
    }

    /// The [`Statistics::est_cq`] formula with *supplied* per-atom
    /// extents instead of index lookups. This backs the optimizer's
    /// union-overlap-aware fragment estimate: a reformulated fragment's
    /// result is contained in the join of its atoms' *unioned*
    /// reformulation extents, which this estimates (the per-member sum
    /// wildly overcounts the overlap between union members).
    pub fn est_with_extents(&self, atoms: &[StorePattern], extents: &[f64]) -> f64 {
        debug_assert_eq!(atoms.len(), extents.len());
        if atoms.is_empty() {
            return 1.0;
        }
        if extents.contains(&0.0) {
            return 0.0;
        }
        let mut est: f64 = extents.iter().product();
        // Per-variable join selectivity.
        let mut var_occurrences: FxHashMap<VarId, Vec<f64>> = FxHashMap::default();
        for (p, &card) in atoms.iter().zip(extents) {
            for v in p.variables() {
                var_occurrences.entry(v).or_default().push(self.var_domain(p, v, card));
            }
        }
        for (_, mut domains) in var_occurrences {
            if domains.len() < 2 {
                continue;
            }
            domains.sort_by(|a, b| a.partial_cmp(b).expect("finite domains"));
            // Divide by every domain except the smallest.
            for d in &domains[1..] {
                est /= d.max(1.0);
            }
        }
        est.max(0.0)
    }

    /// Domain size of `var` within `atoms` (the largest per-atom domain
    /// where it occurs), for join-selectivity reasoning outside this
    /// module; `extents` as in [`Statistics::est_with_extents`].
    pub fn var_domain_in(&self, atoms: &[StorePattern], extents: &[f64], var: VarId) -> f64 {
        let mut best: f64 = 1.0;
        for (p, &card) in atoms.iter().zip(extents) {
            if p.variables().contains(&var) {
                best = best.max(self.var_domain(p, var, card));
            }
        }
        best
    }

    /// Estimated cardinality of a UCQ: sum of member estimates (overlap
    /// ignored, as usual for union estimation).
    pub fn est_ucq(&self, table: &TripleTable, ucq: &StoreUcq) -> f64 {
        ucq.cqs.iter().map(|cq| self.est_cq(table, cq)).sum()
    }

    /// Estimated cardinality of a JUCQ: fragment estimates combined with
    /// join selectivities on the variables shared between fragments,
    /// using each shared variable's smallest per-fragment domain.
    pub fn est_jucq(&self, table: &TripleTable, jucq: &StoreJucq) -> f64 {
        if jucq.fragments.is_empty() {
            return 0.0;
        }
        let frag_cards: Vec<f64> = jucq.fragments.iter().map(|u| self.est_ucq(table, u)).collect();
        if frag_cards.contains(&0.0) {
            return 0.0;
        }
        let mut est: f64 = frag_cards.iter().product();
        // Domain of a shared variable within a fragment: the largest
        // per-atom domain over the fragment's members (atoms where it
        // occurs), capped by the fragment estimate. Variables that the
        // reformulation's instantiation rules turned into *constants*
        // in the member heads (class/property variables, paper Example
        // 4) no longer occur in any pattern — their domain there is the
        // number of distinct constants across the members.
        let mut var_domains: FxHashMap<VarId, Vec<f64>> = FxHashMap::default();
        for (frag, &fcard) in jucq.fragments.iter().zip(&frag_cards) {
            let mut per_var: FxHashMap<VarId, f64> = FxHashMap::default();
            let mut head_consts: FxHashMap<VarId, jucq_model::FxHashSet<jucq_model::TermId>> =
                FxHashMap::default();
            for cq in &frag.cqs {
                for p in &cq.patterns {
                    let card = self.pattern_card(table, p);
                    for v in p.variables() {
                        if !frag.head.contains(&v) {
                            continue;
                        }
                        let d = self.var_domain(p, v, card as f64);
                        per_var.entry(v).and_modify(|cur| *cur = cur.max(d)).or_insert(d);
                    }
                }
                for (pos, &v) in frag.head.iter().enumerate() {
                    if let Some(c) = cq.head.get(pos).and_then(|t| t.as_const()) {
                        head_consts.entry(v).or_default().insert(c);
                    }
                }
            }
            for (v, consts) in head_consts {
                let d = consts.len() as f64;
                per_var.entry(v).and_modify(|cur| *cur = cur.max(d)).or_insert(d);
            }
            for (v, d) in per_var {
                var_domains.entry(v).or_default().push(d.min(fcard.max(1.0)));
            }
        }
        for (_, mut domains) in var_domains {
            if domains.len() < 2 {
                continue;
            }
            domains.sort_by(|a, b| a.partial_cmp(b).expect("finite domains"));
            for d in &domains[1..] {
                est /= d.max(1.0);
            }
        }
        est.max(0.0)
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

    #[test]
    fn single_pattern_estimate_is_exact() {
        let (table, stats) = setup();
        let cq = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]);
        assert_eq!(stats.est_cq(&table, &cq), 3.0);
    }

    #[test]
    fn zero_extent_pattern_estimates_zero() {
        let (table, stats) = setup();
        let cq = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(99), v(1)), StorePattern::new(v(0), c(10), v(2))],
            vec![0],
        );
        assert_eq!(stats.est_cq(&table, &cq), 0.0);
    }

    #[test]
    fn join_estimate_is_reduced_by_selectivity() {
        let (table, stats) = setup();
        // ?x 10 ?y ⋈ ?x 11 ?z: 3 × 3 = 9 before selectivity; shared var
        // x has domains {2, 3} ⇒ divide by 3 ⇒ 3.
        let cq = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(0), c(11), v(2))],
            vec![0, 1, 2],
        );
        let est = stats.est_cq(&table, &cq);
        assert!(est > 0.0 && est < 9.0, "estimate {est} reduced below cross product");
    }

    #[test]
    fn ucq_estimate_sums_members() {
        let (table, stats) = setup();
        let a = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]);
        let b = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(11), v(1))], vec![0, 1]);
        let ucq = StoreUcq::new(vec![a, b], vec![0, 1]);
        assert_eq!(stats.est_ucq(&table, &ucq), 6.0);
    }

    #[test]
    fn jucq_estimate_applies_fragment_join_selectivity() {
        let (table, stats) = setup();
        let f1 = StoreUcq::new(
            vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1])],
            vec![0, 1],
        );
        let f2 = StoreUcq::new(
            vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(11), v(2))], vec![0, 2])],
            vec![0, 2],
        );
        let jucq = StoreJucq::new(vec![f1, f2], vec![0, 1, 2]);
        let est = stats.est_jucq(&table, &jucq);
        assert!(est > 0.0 && est < 9.0, "estimate {est}");
    }

    #[test]
    fn empty_jucq_estimates_zero() {
        let (table, stats) = setup();
        let jucq = StoreJucq::new(vec![], vec![]);
        assert_eq!(stats.est_jucq(&table, &jucq), 0.0);
    }

    #[test]
    fn empty_cq_estimates_one() {
        let (table, stats) = setup();
        let cq = StoreCq::with_var_head(vec![], vec![]);
        assert_eq!(stats.est_cq(&table, &cq), 1.0);
    }

    #[test]
    fn pattern_card_matches_table_count() {
        let (table, stats) = setup();
        let p = StorePattern::new(v(0), c(11), v(1));
        assert_eq!(stats.pattern_card(&table, &p), 3);
    }
}
