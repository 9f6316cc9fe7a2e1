//! The cold planning path's kernels against the implementations they
//! replaced, kept in `common/reference.rs`.
//!
//! Over every fragment of every LUBM-like (1 university) and DBLP-like
//! (200 authors) workload query, under its complement head and under
//! the head of all its variables:
//!
//! * reformulation (lean canonicalization, dedup through member
//!   indices, single-atom rewritings memoized) returns the reference's
//!   members, member for member and in order. It is called as a cover
//!   search calls it, `reformulate_memoized` with one atom memo per
//!   query (`reformulate_with_limit` is the same call with a fresh
//!   memo), under the reformulation cap of a `pg_like` search;
//! * on every union of at most 4 096 members (the width the cost model
//!   prices range collapse at), `collapsible_runs` returns the
//!   reference's runs, and the planner's collapse fixpoint — read off the
//!   lowered plan's `Interval`s — the reference fixpoint's intervals.
//!
//! Run: `cargo test --release -p jucq-optimizer --test cold_path_identity`

mod common;

use common::reference::{self, Collapse};
use common::{fragments, workloads, REFORMULATION_LIMIT};
use jucq_reformulation::reformulate::{reformulate_memoized, AtomMemo};
use jucq_reformulation::{BgpQuery, ReformulationEnv};
use jucq_store::{
    collapsible_runs, EngineProfile, Interval, Leaf, Plan, Planner, Store, StoreJucq, StorePattern,
    StoreUcq,
};

/// A reformulation, or the member count past the limit it stopped at.
type ReformResult = Result<StoreUcq, usize>;

/// The widest union the cost model detects collapse on.
const COLLAPSE_MAX_MEMBERS: usize = 4_096;

/// The collapsed atoms of a plan of one fragment.
fn plan_collapse(plan: &Plan) -> Collapse {
    let key = |p: &StorePattern, iv: &Interval| (*p, iv.ranged, iv.lo, iv.hi, iv.members);
    let Some(fragment) = plan.fragments.first() else { return Vec::new() };
    (fragment.members.iter())
        .map(|m| {
            let mut ranges = Vec::new();
            if let Leaf::Range { pattern, interval, .. } = &m.leaf {
                ranges.push(key(pattern, interval));
            }
            for probe in &m.probes {
                if let Some(iv) = &probe.range {
                    ranges.push(key(&probe.pattern, iv));
                }
            }
            ranges.sort_unstable();
            ranges
        })
        .collect()
}

/// Visit every fragment reformulation of both workloads, as a cover
/// search computes it: through `reformulate_memoized`, with one atom
/// memo per query.
fn for_each_reformulation(
    visit: &mut dyn FnMut(&str, &BgpQuery, &ReformulationEnv<'_>, &Store, ReformResult),
) {
    for mut w in workloads() {
        let env = ReformulationEnv { closure: &w.closure, rdf_type: w.rdf_type };
        let store = w.db.plain_store();
        for (name, q) in &w.queries {
            let masks = q.atom_masks().expect("workload queries fit the mask width");
            let mut memo = AtomMemo::default();
            for (fragment, heads) in fragments(q) {
                for head in heads {
                    let cq = masks.cover_query(q, fragment, head);
                    let at = format!("{} {name} fragment {fragment:#b} head {head:#b}", w.name);
                    let new = reformulate_memoized(&cq, &env, REFORMULATION_LIMIT, &mut memo);
                    visit(&at, &cq, &env, store, new);
                }
            }
        }
    }
}

#[test]
fn reformulation_matches_the_reference() {
    let (mut checked, mut members) = (0usize, 0usize);
    for_each_reformulation(&mut |at, cq, env, _, new| {
        let old = reference::reformulate_with_limit(cq, env, REFORMULATION_LIMIT);
        assert!(new == old, "{at}: reformulation differs from the reference");
        checked += 1;
        members += new.map_or(0, |u| u.len());
    });
    println!("{checked} fragment reformulations, {members} members");
    assert!(checked > 1_900, "every fragment of 38 queries under two heads");
}

#[test]
fn collapse_matches_the_reference() {
    let profile = EngineProfile::pg_like();
    assert!(profile.range_scans, "the planner collapses under pg_like");
    let (mut unions, mut runs, mut intervals) = (0usize, 0usize, 0usize);
    for_each_reformulation(&mut |at, _, _, store, new| {
        let Ok(ucq) = new else { return };
        if ucq.len() > COLLAPSE_MAX_MEMBERS {
            return;
        }
        unions += 1;
        let new = collapsible_runs(ucq.cqs.iter());
        assert_eq!(new, reference::collapsible_runs(ucq.cqs.iter()), "{at}: collapsible runs");
        runs += new.len();
        let planner = Planner::new(store.tables(), store.stats(), &profile);
        let new = plan_collapse(&planner.plan(&StoreJucq::from_ucq(ucq.clone())));
        assert_eq!(new, reference::planner_collapse(store.table(), &ucq), "{at}: planner collapse");
        intervals += new.iter().map(Vec::len).sum::<usize>();
    });
    println!("{unions} unions, {runs} collapsible runs, {intervals} planner intervals");
    // The comparison must have bitten: both workloads collapse class
    // and property subtrees.
    assert!(unions > 1_000 && runs > 10_000 && intervals > 10_000);
}
