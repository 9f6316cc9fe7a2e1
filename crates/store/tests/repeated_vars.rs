//! Repeated-variable patterns (`?x p ?x`) across the whole execution
//! matrix: every engine profile and every fragment-join algorithm. A
//! repeated variable constrains a private scan (the planner inserts a
//! `Filter` node over it) and a scan both fragments share (`?0 10 ?0`
//! leads fragment B's member too); every configuration must produce the
//! brute-force set-semantics answer.

use jucq_model::term::TermKind;
use jucq_model::{TermId, TripleId};
use jucq_store::{
    EngineProfile, JoinAlgo, PatternTerm, Relation, Store, StoreCq, StoreJucq, StorePattern,
    StoreUcq, VarId,
};

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

/// Self-loops on predicates 10 and 11, a chain on 10, and fan-out on 12.
fn sample_triples() -> Vec<TripleId> {
    let mut data = Vec::new();
    for i in 0..5 {
        data.push(t(i, 10, i)); // self-loops 0..5 on p10
    }
    for i in 0..10 {
        data.push(t(i, 10, i + 1)); // chain (never a self-loop)
    }
    for i in (0..8).step_by(2) {
        data.push(t(i, 11, i)); // self-loops 0,2,4,6 on p11
    }
    for i in 0..10 {
        data.push(t(i, 12, i % 3));
        data.push(t(i, 12, (i + 1) % 3));
    }
    data
}

/// Fragment A: x is a self-loop subject on p10 OR on p11 (both members
/// are `?0 p ?0` scans). Fragment B: `(?0 12 ?1) ⋈ (?0 10 ?0)` — the
/// repeated variable also exercised in probe/join position.
fn query() -> StoreJucq {
    let frag_a = StoreUcq::new(
        vec![
            StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(0))], vec![0]),
            StoreCq::with_var_head(vec![StorePattern::new(v(0), c(11), v(0))], vec![0]),
        ],
        vec![0],
    );
    let frag_b = StoreUcq::new(
        vec![StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(12), v(1)), StorePattern::new(v(0), c(10), v(0))],
            vec![0, 1],
        )],
        vec![0, 1],
    );
    StoreJucq::new(vec![frag_a, frag_b], vec![0, 1])
}

/// The expected answer, computed brute-force from the raw triples.
fn expected_rows() -> Vec<Vec<TermId>> {
    let data = sample_triples();
    let loop10: Vec<u32> = (0..20).filter(|&x| data.contains(&t(x, 10, x))).collect();
    let loop11: Vec<u32> = (0..20).filter(|&x| data.contains(&t(x, 11, x))).collect();
    let mut rows: Vec<Vec<TermId>> = Vec::new();
    for x in 0..20u32 {
        let in_a = loop10.contains(&x) || loop11.contains(&x);
        if !in_a || !loop10.contains(&x) {
            continue;
        }
        for y in 0..20u32 {
            if data.contains(&t(x, 12, y)) && !rows.contains(&vec![id(x), id(y)]) {
                rows.push(vec![id(x), id(y)]);
            }
        }
    }
    rows.sort();
    rows
}

fn sorted_rows(r: &Relation) -> Vec<Vec<TermId>> {
    let mut rows: Vec<Vec<TermId>> = r.rows().map(|row| row.to_vec()).collect();
    rows.sort();
    rows
}

#[test]
fn repeated_vars_agree_across_the_full_execution_matrix() {
    let data = sample_triples();
    let expected = expected_rows();
    assert!(!expected.is_empty(), "the fixture must produce answers");

    let bases: [fn() -> EngineProfile; 3] =
        [EngineProfile::pg_like, EngineProfile::db2_like, EngineProfile::mysql_like];
    let algos = [JoinAlgo::Hash, JoinAlgo::BlockNestedLoop];
    for base in bases {
        for algo in algos {
            let profile = base().with_fragment_join(algo);
            let label = format!("{} algo={algo:?}", profile.name);
            let store = Store::from_triples(&data, profile);
            let out = store
                .eval_jucq(&query())
                .unwrap_or_else(|e| panic!("{label}: evaluation failed: {e}"));
            assert_eq!(sorted_rows(&out.relation), expected, "{label}");
        }
    }
}

#[test]
fn repeated_var_scan_matches_unfiltered_scan_plus_filter() {
    // Sanity on the scan level: `?0 10 ?0` returns exactly the p10
    // self-loops.
    let store = Store::from_triples(&sample_triples(), EngineProfile::pg_like());
    let cq = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(0))], vec![0]);
    let got = sorted_rows(&store.eval_cq(&cq).unwrap().relation);
    let want: Vec<Vec<TermId>> = (0..5u32).map(|i| vec![id(i)]).collect();
    assert_eq!(got, want);
}

#[test]
fn both_join_algorithms_agree_on_counters_free_answers() {
    // The two fragment-join algorithms must agree row-for-row on the
    // repeated-variable query even though their counters differ.
    let data = sample_triples();
    let reference = {
        let store = Store::from_triples(&data, EngineProfile::pg_like());
        sorted_rows(&store.eval_jucq(&query()).unwrap().relation)
    };
    for algo in [JoinAlgo::Hash, JoinAlgo::BlockNestedLoop] {
        let store = Store::from_triples(&data, EngineProfile::pg_like().with_fragment_join(algo));
        assert_eq!(
            sorted_rows(&store.eval_jucq(&query()).unwrap().relation),
            reference,
            "{algo:?}"
        );
    }
}
