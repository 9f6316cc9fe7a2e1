//! The fragment join order, end to end. Three JUCQ shapes — the
//! "two memberships sharing a 10-value variable plus one selective edge"
//! cycle of LUBM Q28 under SCQ, a chain and a star — are planned and run
//! under every fragment join algorithm. Answers are held to the naive
//! evaluator of `common`; on the membership shape the join counter must stay near
//! the inputs, where joining the two memberships first produces the
//! square of their extent over the shared variable's ten values.

mod common;

use common::{c, naive_answers, sorted_rows, triples, v};
use jucq_store::{
    EngineProfile, JoinAlgo, Store, StoreCq, StoreJucq, StorePattern, StoreUcq, VarId,
};

const MEMBER_OF: u32 = 10;
const ADVISOR: u32 = 11;
const MEMBERS: u32 = 2500;
const GROUPS: u32 = 10;

/// One single-atom, single-member fragment `(?s p ?o)`.
fn edge(s: VarId, p: u32, o: VarId) -> StoreUcq {
    let head = vec![s, o];
    StoreUcq::new(
        vec![StoreCq::with_var_head(vec![StorePattern::new(v(s), c(p), v(o))], head.clone())],
        head,
    )
}

/// `MEMBERS` subjects spread over `GROUPS` groups, and 1.1 advisor
/// edges per subject: the advisor extent is the *largest* fragment, yet
/// joining it to a membership keeps one row per edge, while the two
/// memberships join to `MEMBERS² / GROUPS` rows.
fn membership_data() -> Vec<(u32, u32, u32)> {
    let mut data = Vec::new();
    for i in 0..MEMBERS {
        data.push((i, MEMBER_OF, 100_000 + i % GROUPS));
        data.push((i, ADVISOR, (i * 3 + 4) % MEMBERS));
    }
    for i in 0..MEMBERS / 10 {
        data.push((i * 10, ADVISOR, (i * 13 + 5) % MEMBERS));
    }
    data
}

/// `memberOf(?0, ?2) ⋈ advisor(?0, ?1) ⋈ memberOf(?1, ?2)`, declared
/// with the edge in the middle so the naive evaluator's declaration-
/// order join never builds the square either.
fn membership_query() -> StoreJucq {
    StoreJucq::new(
        vec![edge(0, MEMBER_OF, 2), edge(0, ADVISOR, 1), edge(1, MEMBER_OF, 2)],
        vec![0, 1, 2],
    )
}

/// A four-hop chain `?0 → ?1 → ?2 → ?3 → ?4` over predicates 20..24 of
/// shrinking extents, and a star of four attributes 30..34 of one hub.
fn chain_and_star_data() -> Vec<(u32, u32, u32)> {
    let mut data = Vec::new();
    for (k, n) in [400u32, 300, 200, 100].into_iter().enumerate() {
        for i in 0..n {
            data.push((i, 20 + k as u32, (i * 3 + k as u32) % 400));
        }
    }
    for (k, n) in [250u32, 40, 120, 40].into_iter().enumerate() {
        for i in 0..n {
            data.push((i * (k as u32 + 1), 30 + k as u32, 50_000 + i % 7));
        }
    }
    data
}

fn chain_query() -> StoreJucq {
    StoreJucq::new(
        vec![edge(0, 20, 1), edge(1, 21, 2), edge(2, 22, 3), edge(3, 23, 4)],
        vec![0, 1, 2, 3, 4],
    )
}

fn star_query() -> StoreJucq {
    StoreJucq::new(
        vec![edge(0, 30, 1), edge(0, 31, 2), edge(0, 32, 3), edge(0, 33, 4)],
        vec![0, 1, 2, 3, 4],
    )
}

fn profile(join: JoinAlgo) -> EngineProfile {
    EngineProfile::pg_like().with_fragment_join(join)
}

const JOINS: [JoinAlgo; 2] = [JoinAlgo::Hash, JoinAlgo::BlockNestedLoop];

fn join_order_of(store: &Store, q: &StoreJucq) -> Vec<usize> {
    let plan = store.plan_jucq(q).expect("admitted");
    println!("{}", plan.render(2));
    plan.join_order.iter().map(|s| s.fragment).collect()
}

/// Every shape × join algorithm returns the naive answer.
#[test]
fn every_configuration_returns_the_naive_answer() {
    let membership = membership_data();
    let others = chain_and_star_data();
    let cases = [
        ("membership", &membership, membership_query()),
        ("chain", &others, chain_query()),
        ("star", &others, star_query()),
    ];
    for (name, data, q) in cases {
        let expect = naive_answers(data, &q);
        assert!(!expect.is_empty(), "{name}: the fixture has answers");
        let triples = triples(data);
        for join in JOINS {
            let label = format!("{name} {join:?}");
            let out = Store::from_triples(&triples, profile(join))
                .eval_jucq(&q)
                .unwrap_or_else(|e| panic!("{label}: evaluation failed: {e}"));
            assert_eq!(sorted_rows(&out.relation), expect, "{label}");
        }
    }
}

/// The selective edge is joined before the second membership, so no
/// step outputs more than it was handed: `tuples_joined` stays within
/// twice the fragment inputs plus the output. Membership ⋈ membership
/// first — what ordering by fragment size alone does here, the edge
/// being the largest fragment — emits `MEMBERS² / GROUPS` rows.
#[test]
fn membership_shape_never_joins_the_square() {
    let data = membership_data();
    let q = membership_query();
    let inputs = data.len() as u64 + u64::from(MEMBERS);
    let output = naive_answers(&data, &q).len() as u64;
    let bound = 2 * (inputs + output);
    let square = u64::from(MEMBERS) * u64::from(MEMBERS) / u64::from(GROUPS);
    assert!(square > 20 * bound, "the fixture separates the two orders: {square} vs {bound}");
    let triples = triples(&data);
    for join in JOINS {
        let store = Store::from_triples(&triples, profile(join));
        assert_eq!(join_order_of(&store, &q), vec![0, 1, 2], "{join:?}");
        let joined = store.eval_jucq(&q).unwrap().counters.tuples_joined;
        assert!(joined <= bound, "{join:?}: joined {joined} > {bound}");
    }
}

/// Declaration order is not join order: with the memberships declared
/// first the planner still seeds with one of them and takes the edge
/// next, and the chain is walked from its small end.
#[test]
fn the_order_follows_estimates_not_declaration() {
    let data = membership_data();
    let store = Store::from_triples(&triples(&data), EngineProfile::pg_like());
    let declared = StoreJucq::new(
        vec![edge(0, MEMBER_OF, 2), edge(1, MEMBER_OF, 2), edge(0, ADVISOR, 1)],
        vec![0, 1, 2],
    );
    assert_eq!(join_order_of(&store, &declared), vec![0, 2, 1]);
    assert_eq!(
        sorted_rows(&store.eval_jucq(&declared).unwrap().relation),
        naive_answers(&data, &membership_query())
    );

    let store = Store::from_triples(&triples(&chain_and_star_data()), EngineProfile::pg_like());
    assert_eq!(join_order_of(&store, &chain_query()), vec![3, 2, 1, 0]);
}

/// Equal join estimates fall back to the smaller fragment and then to
/// the lower index. Every attribute's subjects are distinct, so joining
/// one to the accumulated star is estimated at the accumulated rows
/// whichever it is (rows × rows / the larger hub domain): after the seed
/// (attribute 31, 40 rows, declared before its twin 33) the attributes
/// follow by size.
#[test]
fn equal_estimates_fall_back_to_smaller_fragment_then_index() {
    let store = Store::from_triples(&triples(&chain_and_star_data()), EngineProfile::pg_like());
    assert_eq!(join_order_of(&store, &star_query()), vec![1, 3, 2, 0]);
    // Four fragments over the same extent: every estimate ties at every
    // step, and the order is the declaration order.
    let twins = StoreJucq::new(
        vec![edge(0, 31, 1), edge(0, 31, 2), edge(0, 31, 3), edge(0, 31, 4)],
        vec![0, 1, 2, 3, 4],
    );
    assert_eq!(join_order_of(&store, &twins), vec![0, 1, 2, 3]);
}

/// A fragment sharing no variable with the rest is joined last, as a
/// keyless cartesian product without a SIP filter — even when that
/// product with the seed (20 × 30) is estimated below the connected join
/// (20 × 200 over 5 shared values).
#[test]
fn a_disconnected_fragment_is_joined_last() {
    let mut data = Vec::new();
    for i in 0..20 {
        data.push((i, 40, 70_000 + i % 5));
    }
    for i in 0..200 {
        data.push((1000 + i, 41, 70_000 + i % 5));
    }
    for i in 0..30 {
        data.push((2000 + i, 42, 3000 + i));
    }
    let store = Store::from_triples(&triples(&data), EngineProfile::pg_like());
    let q =
        StoreJucq::new(vec![edge(0, 40, 1), edge(8, 42, 9), edge(2, 41, 1)], vec![0, 1, 2, 8, 9]);
    let plan = store.plan_jucq(&q).unwrap();
    println!("{}", plan.render(2));
    let order: Vec<usize> = plan.join_order.iter().map(|s| s.fragment).collect();
    assert_eq!(order, vec![0, 2, 1]);
    assert_eq!(plan.join_order[1].est_rows, 800.0);
    assert!(plan.join_order[2].key.is_empty());
    assert!(plan.sip().iter().all(|f| f.target != 1), "no filter on a cartesian step");
    let out = store.eval_jucq(&q).unwrap();
    assert_eq!(out.relation.len(), 800 * 30);
    assert_eq!(sorted_rows(&out.relation), naive_answers(&data, &q));
}
