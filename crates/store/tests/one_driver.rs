//! The plan driver has one fragment loop: fragments run one at a time
//! in join order. Three plan shapes that once took other paths — a
//! single fragment, a join whose only step is a cartesian product (no
//! key, so no SIP filter), and a fragment served from the view catalog —
//! run through it. Each answers what the naive evaluator of `common`
//! does.

mod common;

use common::{c, id, naive_answers, sorted_rows, triples, v, Spo};
use jucq_store::{
    Counters, EngineProfile, Store, StoreCq, StoreJucq, StorePattern, StoreUcq, VarId, ViewCatalog,
    ViewFootprint, ViewSignature, ViewSource,
};

/// Four predicates over a few hundred subjects, so every union member
/// has rows.
fn sample_data() -> Vec<Spo> {
    let mut data = Vec::new();
    for i in 0..300 {
        data.push((i, 10, 1000 + i % 40));
        data.push((i, 11, 1000 + i % 25));
    }
    for i in (0..300).step_by(2) {
        data.push((i, 12, 2000 + i % 9));
    }
    for i in 0..6 {
        data.push((3000 + i, 13, 4000 + i));
    }
    data
}

/// `(?s p ?o) ∪ (?s q ?o)` with head `[s, o]`.
fn union2(s: VarId, p: u32, q: u32, o: VarId) -> StoreUcq {
    let member =
        |pred| StoreCq::with_var_head(vec![StorePattern::new(v(s), c(pred), v(o))], vec![s, o]);
    StoreUcq::new(vec![member(p), member(q)], vec![s, o])
}

fn single_fragment() -> StoreJucq {
    StoreJucq::from_ucq(union2(0, 10, 11, 1))
}

/// Two fragments sharing no variable: the only join step is cartesian.
fn cartesian() -> StoreJucq {
    let edges = StoreUcq::new(
        vec![StoreCq::with_var_head(vec![StorePattern::new(v(2), c(13), v(3))], vec![2, 3])],
        vec![2, 3],
    );
    StoreJucq::new(vec![union2(0, 10, 12, 1), edges], vec![0, 1, 2, 3])
}

/// `(p10 ∪ p11)(?0, ?1) ⋈ p12(?0, ?2)`; the second fragment is the one
/// the catalog serves.
fn view_served() -> StoreJucq {
    let attribute = StoreUcq::new(
        vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(12), v(2))], vec![0, 2])],
        vec![0, 2],
    );
    StoreJucq::new(vec![union2(0, 10, 11, 1), attribute], vec![0, 1, 2])
}

/// Answer `q`, the fragments the catalog holds served from it.
fn run(
    store: &Store,
    q: &StoreJucq,
    catalog: &ViewCatalog,
) -> (Vec<Vec<jucq_model::TermId>>, Counters) {
    let plan = store.plan_jucq_views(q, Some(catalog)).expect("admitted");
    let views = ViewSource { catalog, epoch: 0 };
    let (out, _) = store.eval_plan_views(&plan, false, None, Some(&views)).unwrap();
    (sorted_rows(&out.relation), out.counters)
}

#[test]
fn every_plan_shape_runs_through_the_one_driver() {
    let data = sample_data();
    let store = Store::from_triples(&triples(&data), EngineProfile::pg_like());

    let empty = ViewCatalog::new(0);
    let pinned = ViewCatalog::new(1_000);
    let served = view_served().fragments[1].clone();
    let rows = store.eval_ucq(&served).unwrap().relation;
    let footprint = ViewFootprint::of(&served, id(0));
    let sig = ViewSignature::of(&served);
    assert!(pinned.insert(sig, ViewSignature::body_of(&served), rows, footprint));

    let cartesian_plan = store.plan_jucq(&cartesian()).unwrap();
    assert!(cartesian_plan.join_order[1].key.is_empty(), "{}", cartesian_plan.render(2));
    assert!(cartesian_plan.sip().is_empty(), "a cartesian step has no filter");
    let view_plan = store.plan_jucq_views(&view_served(), Some(&pinned)).unwrap();
    assert_eq!(view_plan.view_scans(), 1, "{}", view_plan.render(2));

    let cases = [
        ("single fragment", single_fragment(), &empty),
        ("cartesian step", cartesian(), &empty),
        ("view-served fragment", view_served(), &pinned),
    ];
    for (name, q, catalog) in cases {
        let expect = naive_answers(&data, &q);
        assert!(!expect.is_empty(), "{name}: the fixture has answers");
        let (rows, counters) = run(&store, &q, catalog);
        assert_eq!(rows, expect, "{name}");
        match name {
            // No join, so nothing is materialized for one.
            "single fragment" => assert_eq!(counters.tuples_materialized, 0, "{counters:?}"),
            "view-served fragment" => assert_eq!(counters.view_hits, 1, "{counters:?}"),
            _ => assert_eq!(counters.sip_probes, 0, "{counters:?}"),
        }
    }
}
