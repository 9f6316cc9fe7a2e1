//! Execution differential matrix: zero-copy scan borrows and pre-sized
//! join outputs must be pure performance features. Across both
//! fragment-join algorithms and every engine profile, the answer set
//! equals the naive evaluator's of `common`, and on the right fixture
//! the counters that report both are provably live.

mod common;

use common::{c, naive_answers, sorted_rows, triples, v, Spo};
use jucq_store::{EngineProfile, JoinAlgo, Store, StoreCq, StoreJucq, StorePattern, StoreUcq};

/// A chain on p10, a two-member-union feeder on p13, and a skewed pair
/// p14/p15: p14 fans 25 subjects out to 12 objects each (300 rows)
/// while p15 touches 6 of those subjects once.
fn sample_data() -> Vec<Spo> {
    let mut data = Vec::new();
    for i in 0..40 {
        data.push((i, 10, i + 1));
    }
    for i in (0..40).step_by(3) {
        data.push((i, 13, i));
    }
    for s in 0..25 {
        for o in 0..12 {
            data.push((s, 14, 100 + (s * 7 + o * 11) % 60));
        }
    }
    for s in 0..6 {
        data.push((s * 4, 15, 200 + s));
    }
    data
}

/// Three joined fragments: two single-member (borrow candidates) and a
/// two-member union in the middle, which must deduplicate.
fn chain_query() -> StoreJucq {
    let fa = StoreUcq::new(
        vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1])],
        vec![0, 1],
    );
    let fb = StoreUcq::new(
        vec![
            StoreCq::with_var_head(vec![StorePattern::new(v(1), c(10), v(2))], vec![1, 2]),
            StoreCq::with_var_head(vec![StorePattern::new(v(1), c(13), v(2))], vec![1, 2]),
        ],
        vec![1, 2],
    );
    let fc = StoreUcq::new(
        vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(14), v(3))], vec![0, 3])],
        vec![0, 3],
    );
    StoreJucq::new(vec![fa, fb, fc], vec![0, 1, 2, 3])
}

/// Two single-member fragments over the skewed predicates, joined on
/// the subject across a 50× size skew.
fn skewed_query() -> StoreJucq {
    let big = StoreUcq::new(
        vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(14), v(1))], vec![0, 1])],
        vec![0, 1],
    );
    let small = StoreUcq::new(
        vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(15), v(2))], vec![0, 2])],
        vec![0, 2],
    );
    StoreJucq::new(vec![big, small], vec![0, 1, 2])
}

/// Every (profile, join) cell answers what the naive evaluator does.
#[test]
fn every_preset_and_join_matches_naive() {
    let data = sample_data();
    let triples = triples(&data);
    for (qname, q) in [("chain", chain_query()), ("skewed", skewed_query())] {
        let expect = naive_answers(&data, &q);
        assert!(!expect.is_empty(), "{qname}: the fixture must produce answers");
        let bases: [fn() -> EngineProfile; 3] =
            [EngineProfile::pg_like, EngineProfile::db2_like, EngineProfile::mysql_like];
        for base in bases {
            for join in [JoinAlgo::Hash, JoinAlgo::BlockNestedLoop] {
                let profile = base().with_fragment_join(join);
                let label = format!("{qname} {} join={join:?}", profile.name);
                let out = Store::from_triples(&triples, profile)
                    .eval_jucq(&q)
                    .unwrap_or_else(|e| panic!("{label}: evaluation failed: {e}"));
                assert_eq!(sorted_rows(&out.relation), expect, "{label}");
            }
        }
    }
}

/// On the skewed fixture a pg-like run provably exercises both: the
/// single-member distinct fragments borrow their scan rows, and the hash
/// join's output is pre-sized from the step estimate.
#[test]
fn order_counters_are_live_on_the_skewed_fixture() {
    let triples = triples(&sample_data());
    let out =
        Store::from_triples(&triples, EngineProfile::pg_like()).eval_jucq(&skewed_query()).unwrap();
    assert!(out.counters.scan_rows_borrowed > 0, "no rows borrowed: {:?}", out.counters);
    assert!(out.counters.rows_reserved > 0, "no output pre-sizing: {:?}", out.counters);
}
