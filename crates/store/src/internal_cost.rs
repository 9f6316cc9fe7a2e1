//! The engine's *internal* cost estimator.
//!
//! Figure 9 of the paper compares two ways of guiding ECov/GCov: the
//! analytic cost model of §4.1 (implemented in `jucq-optimizer`) and
//! "the RDBMS's internal cost estimation function", obtained there by
//! sending `EXPLAIN` statements to Postgres. This module plays the
//! latter role for our engine: it estimates the cost of a [`StoreJucq`]
//! from the engine's *actual* physical plan — greedy INLJ pipelines per
//! CQ, per-profile fragment join algorithm in the planner's own
//! fragment join order, materialization policy — rather than from the
//! paper's abstract scan/join/materialize formulas.
//! The two models legitimately disagree in places, which is precisely
//! what the figure studies.

use jucq_model::FxHashMap;

use crate::ir::{StoreCq, StoreJucq, StorePattern, StoreUcq, VarId};
use crate::plan::{fragment_join_order, JoinStep};
use crate::profile::JoinAlgo;
use crate::stats::{EstScratch, FragmentSummary, Statistics};
use crate::table::TableStack;
use crate::Store;

/// Per-tuple work factors of the internal model (arbitrary engine cost
/// units, like Postgres' `cost=` numbers — only relative order matters).
const CPU_TUPLE: f64 = 1.0;
const CPU_PROBE: f64 = 1.2;
const CPU_HASH_BUILD: f64 = 1.5;
const CPU_MATERIALIZE: f64 = 0.8;
const CPU_DEDUP: f64 = 1.1;
const STARTUP: f64 = 10.0;

/// Scale of every per-tuple CPU term relative to `STARTUP`: the factors
/// above were set against a tuple-at-a-time executor, and the kernels'
/// amortized liveness polls, hoisted column maps and bulk buffer
/// appends cut per-tuple dispatch by roughly a third.
const BATCH_CPU_DISCOUNT: f64 = 0.7;

/// Join-input discount of sideways information passing: Bloom probes
/// drop part of each non-base fragment before it reaches the fragment
/// join, shrinking build and probe inputs.
const SIP_JOIN_DISCOUNT: f64 = 0.85;

/// Cost of one fragment-join step over inputs of `acc` and `c` rows.
fn join_step_cost(algo: JoinAlgo, acc: f64, c: f64) -> f64 {
    match algo {
        JoinAlgo::Hash => CPU_HASH_BUILD * acc.min(c) + CPU_PROBE * acc.max(c),
        JoinAlgo::BlockNestedLoop => CPU_TUPLE * acc * c,
    }
}

/// Estimate the internal cost of evaluating one CQ with the greedy
/// index-nested-loop pipeline: one probe per intermediate tuple of every
/// pipeline prefix ([`Statistics::pipeline_volume`]) plus a per-step
/// setup. `extents` and `scratch` are reused across members.
fn cq_cost(
    stats: &Statistics,
    tables: &TableStack,
    cq: &StoreCq,
    extents: &mut Vec<f64>,
    scratch: &mut EstScratch,
) -> f64 {
    if cq.patterns.is_empty() {
        return CPU_TUPLE;
    }
    extents.clear();
    extents.extend(cq.patterns.iter().map(|p| stats.pattern_card(tables, p) as f64));
    CPU_PROBE * stats.pipeline_volume(&cq.patterns, extents, scratch)
        + CPU_TUPLE * cq.patterns.len() as f64
}

/// Estimate the internal cost of one fragment UCQ (members + dedup)
/// whose result is estimated at `card` rows.
fn ucq_cost(stats: &Statistics, tables: &TableStack, ucq: &StoreUcq, card: f64) -> f64 {
    let (mut extents, mut scratch) = (Vec::new(), EstScratch::default());
    let members: f64 =
        ucq.cqs.iter().map(|cq| cq_cost(stats, tables, cq, &mut extents, &mut scratch)).sum();
    members + CPU_DEDUP * card + STARTUP * ucq.cqs.len() as f64
}

/// Scan work the planner's common-scan factoring saves: each distinct
/// pattern scanned by `k > 1` members is computed once instead of `k`
/// times. Mirrors the planner's scan-position prediction (the
/// first-minimum-extent leaf per member) but stays deliberately cheap —
/// `estimate` runs inside cover-search scoring loops, so no full plan
/// lowering here.
fn sharing_savings(tables: &TableStack, q: &StoreJucq) -> f64 {
    let mut uses: FxHashMap<StorePattern, (usize, f64)> = FxHashMap::default();
    for cq in q.fragments.iter().flat_map(|f| &f.cqs) {
        let Some(leaf) = cq.patterns.iter().min_by_key(|p| tables.count(&p.bound())) else {
            continue;
        };
        let e = uses.entry(*leaf).or_insert_with(|| (0, tables.count(&leaf.bound()) as f64));
        e.0 += 1;
    }
    uses.values().filter(|(k, _)| *k > 1).map(|(k, card)| (*k - 1) as f64 * CPU_PROBE * card).sum()
}

/// The fragments' summaries over their logical members and the order
/// the planner will join them in — the shared [`fragment_join_order`],
/// not the order the fragments were declared in.
fn planned_joins(
    stats: &Statistics,
    tables: &TableStack,
    q: &StoreJucq,
) -> (Vec<FragmentSummary>, Vec<JoinStep>) {
    let summaries: Vec<FragmentSummary> =
        q.fragments.iter().map(|f| stats.summarize_ucq(tables, f)).collect();
    let heads: Vec<&[VarId]> = q.fragments.iter().map(|f| f.head.as_slice()).collect();
    let order = fragment_join_order(&summaries, &heads);
    (summaries, order)
}

/// The `(left rows, right rows)` input estimates of every fragment join
/// in plan order: each step joins the rows accumulated so far to the
/// next fragment's.
fn join_inputs(summaries: &[FragmentSummary], order: &[JoinStep]) -> Vec<(f64, f64)> {
    order.windows(2).map(|w| (w[0].est_rows, summaries[w[1].fragment].rows)).collect()
}

/// Estimate the internal cost of a whole JUCQ under the store's profile.
pub fn estimate(store: &Store, q: &StoreJucq) -> f64 {
    let stats = store.stats();
    let tables = store.tables();
    let profile = store.profile();

    let (summaries, order) = planned_joins(stats, tables, q);
    let frag_costs: f64 =
        q.fragments.iter().zip(&summaries).map(|(f, s)| ucq_cost(stats, tables, f, s.rows)).sum();

    // Materialization: all fragments if the profile materializes every
    // union, otherwise all but the largest.
    let mat: f64 = if q.fragments.len() <= 1 && !profile.materialize_all_unions {
        0.0
    } else {
        let largest = summaries.iter().map(|s| s.rows).fold(f64::NEG_INFINITY, f64::max).max(0.0);
        let total: f64 = summaries.iter().map(|s| s.rows).sum();
        let charged = if profile.materialize_all_unions { total } else { total - largest };
        CPU_MATERIALIZE * charged.max(0.0)
    };

    // Fragment joins, in the planner's order and with the profile's
    // algorithm.
    let join_cost: f64 = join_inputs(&summaries, &order)
        .into_iter()
        .map(|(acc, c)| join_step_cost(profile.fragment_join, acc, c))
        .sum();

    let final_card = order.last().map_or(0.0, |step| step.est_rows);
    let savings = sharing_savings(tables, q);
    let cpu_scale = BATCH_CPU_DISCOUNT;
    cpu_scale * ((frag_costs - savings).max(0.0) + mat + CPU_DEDUP * final_card)
        + cpu_scale * SIP_JOIN_DISCOUNT * join_cost
        + STARTUP
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{PatternTerm, StorePattern};
    use crate::profile::EngineProfile;
    use jucq_model::term::TermKind;
    use jucq_model::{TermId, TripleId};

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

    fn store(profile: EngineProfile) -> Store {
        let triples: Vec<TripleId> =
            (0..100).map(|i| t(i, 10, i % 7)).chain((0..10).map(|i| t(i, 11, 99))).collect();
        Store::from_triples(&triples, profile)
    }

    fn one_fragment(patterns: Vec<StorePattern>) -> StoreUcq {
        let head: Vec<VarId> = {
            let cq = StoreCq::with_var_head(patterns.clone(), vec![]);
            cq.body_variables()
        };
        StoreUcq::new(vec![StoreCq::with_var_head(patterns, head.clone())], head)
    }

    #[test]
    fn cost_is_positive_and_finite() {
        let s = store(EngineProfile::pg_like());
        let q = StoreJucq::from_ucq(one_fragment(vec![StorePattern::new(v(0), c(10), v(1))]));
        let cost = estimate(&s, &q);
        assert!(cost.is_finite() && cost > 0.0);
    }

    #[test]
    fn more_union_terms_cost_more() {
        let s = store(EngineProfile::pg_like());
        let member = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]);
        let small = StoreJucq::from_ucq(StoreUcq::new(vec![member.clone()], vec![0, 1]));
        let big = StoreJucq::from_ucq(StoreUcq::new(
            vec![member.clone(), member.clone(), member],
            vec![0, 1],
        ));
        assert!(estimate(&s, &big) > estimate(&s, &small));
    }

    #[test]
    fn nested_loop_profile_penalizes_fragment_joins() {
        let fa = one_fragment(vec![StorePattern::new(v(0), c(10), v(1))]);
        let fb = one_fragment(vec![StorePattern::new(v(0), c(11), v(2))]);
        let q = StoreJucq::new(vec![fa, fb], vec![0, 1, 2]);
        let hash_cost = estimate(&store(EngineProfile::pg_like()), &q);
        let bnl_cost = estimate(&store(EngineProfile::mysql_like()), &q);
        assert!(bnl_cost > hash_cost, "BNL {bnl_cost} should exceed hash {hash_cost}");
    }

    #[test]
    fn prices_the_plans_join_steps_not_the_declaration_order() {
        // Declared big, mid, small; joined small, mid, big (both
        // candidates tie on the join estimate, the smaller goes first).
        let triples: Vec<TripleId> = (0..100)
            .map(|i| t(i, 10, i % 7))
            .chain((0..10).map(|i| t(i, 11, 99)))
            .chain((0..30).map(|i| t(i, 12, 200 + i)))
            .collect();
        let s = Store::from_triples(&triples, EngineProfile::pg_like());
        let q = StoreJucq::new(
            vec![
                one_fragment(vec![StorePattern::new(v(0), c(10), v(1))]),
                one_fragment(vec![StorePattern::new(v(0), c(12), v(2))]),
                one_fragment(vec![StorePattern::new(v(0), c(11), v(3))]),
            ],
            vec![0, 1, 2, 3],
        );
        let (summaries, order) = planned_joins(s.stats(), s.tables(), &q);
        let priced = join_inputs(&summaries, &order);
        assert_eq!(priced, vec![(10.0, 30.0), (10.0, 100.0)]);

        let plan = s.plan_jucq(&q).unwrap();
        assert_eq!(plan.join_order, order);
        let planned: Vec<(f64, f64)> = plan
            .join_order
            .windows(2)
            .map(|w| (w[0].est_rows, plan.fragments[w[1].fragment].est))
            .collect();
        assert_eq!(priced, planned);
    }

    #[test]
    fn scan_sharing_lowers_the_estimate() {
        // Two members sharing the same cheap leaf (?0 11 99): the
        // factored plan scans it once, and the internal model credits
        // one saved scan of its ten rows. Members leading with
        // different leaves save nothing.
        let s = store(EngineProfile::pg_like());
        let member = |leaf: StorePattern, probe: StorePattern| {
            StoreCq::with_var_head(vec![leaf, probe], vec![0, 1])
        };
        let (cheap, wide) =
            (StorePattern::new(v(0), c(11), c(99)), StorePattern::new(v(0), c(10), v(1)));
        let shared = StoreJucq::from_ucq(StoreUcq::new(
            vec![member(cheap, wide), member(cheap, StorePattern::new(v(1), c(10), v(0)))],
            vec![0, 1],
        ));
        assert_eq!(sharing_savings(s.tables(), &shared), CPU_PROBE * 10.0);
        let distinct = StoreJucq::from_ucq(StoreUcq::new(
            vec![member(cheap, wide), member(StorePattern::new(v(1), c(11), c(99)), wide)],
            vec![0, 1],
        ));
        assert_eq!(sharing_savings(s.tables(), &distinct), 0.0);
    }

    #[test]
    fn empty_extent_query_is_cheap() {
        let s = store(EngineProfile::pg_like());
        let q = StoreJucq::from_ucq(one_fragment(vec![StorePattern::new(v(0), c(99), v(1))]));
        let cost = estimate(&s, &q);
        assert!(
            cost < estimate(
                &s,
                &StoreJucq::from_ucq(one_fragment(vec![StorePattern::new(v(0), c(10), v(1)),]))
            )
        );
    }
}
