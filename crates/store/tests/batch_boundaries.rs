//! Batch-boundary differential matrix. Every kernel works in
//! [`BATCH_ROWS`]-row batches, so this fixture feeds each of them — scan,
//! probe, head projection, union merge, fragment join — inputs of more
//! than two batches that are not a whole number of batches. The answers
//! are held to a naive evaluator written over plain maps, and the
//! engine's independent configurations must all agree with it: fragment
//! joins by hash or block-nested-loop, and every engine
//! profile. One query's members bind their SIP key at every stage a
//! member can test it.

mod common;

use common::{c, naive_answers, sorted_rows, triples, v};
use jucq_model::TermId;
use jucq_store::exec::{SipStage, BATCH_ROWS};
use jucq_store::{
    EngineError, EngineProfile, JoinAlgo, PatternTerm, Store, StoreCq, StoreJucq, StorePattern,
    StoreUcq, VarId,
};

/// `(s, p, o)` triples: two overlapping chains (p10, p12) whose two-hop
/// paths form the first fragment, and three attribute predicates the
/// other fragments read — p11 and p13 of more than two batches, p15 of
/// forty rows (the block-nested-loop join's inner side).
fn sample_data() -> Vec<(u32, u32, u32)> {
    let mut data = Vec::new();
    for i in 0..2500 {
        data.push((i, 10, i + 1));
    }
    for i in 0..2480 {
        // Even `i` repeats the p10 edge, odd `i` skips one node: half of
        // the second union member's rows duplicate the first member's.
        data.push((i, 12, i + 1 + i % 2));
    }
    for i in 400..3100 {
        data.push((i, 11, 9000 + i % 5));
    }
    for i in 0..2200 {
        data.push((i, 13, 8000 + i % 3));
    }
    // p11's five objects: four have a p15 edge, 36 other subjects do too.
    for k in (0..4).chain(100..136) {
        data.push((9000 + k, 15, 6000 + k));
    }
    data
}

/// Two-hop paths `?0 → ?1 → ?2` whose first hop is p10 or p12, each
/// member's body extended by `tail`, projected onto `head`.
fn paths(tail: &[StorePattern], head: Vec<VarId>) -> StoreUcq {
    let member = |first: u32| {
        let mut body =
            vec![StorePattern::new(v(0), c(first), v(1)), StorePattern::new(v(1), c(10), v(2))];
        body.extend_from_slice(tail);
        StoreCq::with_var_head(body, head.clone())
    };
    StoreUcq::new(vec![member(10), member(12)], head.clone())
}

fn attribute(subject: VarId, predicate: u32, object: VarId) -> StoreUcq {
    let head = vec![subject, object];
    StoreUcq::new(
        vec![StoreCq::with_var_head(
            vec![StorePattern::new(v(subject), c(predicate), v(object))],
            head.clone(),
        )],
        head,
    )
}

/// `paths ⋈ p11(?2) ⋈ p13(?0)`: every fragment-join input exceeds two
/// batches, and SIP filters sit on both join steps.
fn wide_query() -> StoreJucq {
    let fragments = vec![paths(&[], vec![0, 2]), attribute(2, 11, 3), attribute(0, 13, 4)];
    StoreJucq::new(fragments, vec![0, 2, 3, 4])
}

/// `(paths . p11(?2)) ⋈ p15(?3)`: a multi-batch outer side against forty
/// inner rows, four of which each match hundreds of outer rows — the
/// quadratic join emits more than two batches yet stays cheap in a
/// debug build.
fn narrow_query() -> StoreJucq {
    let outer = paths(&[StorePattern::new(v(2), c(11), v(3))], vec![0, 3]);
    StoreJucq::new(vec![outer, attribute(3, 15, 5)], vec![0, 3, 5])
}

/// `boolean × p11(?0 → 9001 | 9002) ⋈ placed(?0, ?9)`: the last fragment is the
/// SIP target, keyed on `?0`, and each of its members binds `?0` at
/// another stage of its pipeline — so the filter is tested in the leaf
/// scan, on the input of the first and of the second probe, in the head
/// projection, and against a head *constant* (one the build side holds,
/// one it does not). The boolean fragment has a scanned and
/// an empty-bodied zero-width member and no key, hence no filter.
fn placed_query() -> StoreJucq {
    let p = |s, pred: u32, o| StorePattern::new(s, c(pred), o);
    let member = |body: Vec<StorePattern>, head: [PatternTerm; 2]| StoreCq::new(body, head.into());
    let placed = StoreUcq::new(
        vec![
            // The only member scanning p13: a private leaf that binds ?0.
            member(vec![p(v(0), 13, v(9))], [v(0), v(9)]),
            // p10 leads two members, so its scan is shared and never
            // filtered: the first tests at the head, the second on the
            // input of its first probe.
            member(vec![p(v(0), 10, v(9))], [v(0), v(9)]),
            member(vec![p(v(0), 10, v(9)), p(v(9), 11, v(6))], [v(0), v(6)]),
            // ?0 is bound by probe 0: tested on the input of probe 1…
            member(vec![p(v(3), 12, v(4)), p(v(4), 10, v(0)), p(v(0), 11, v(9))], [v(0), v(9)]),
            // …or, with no later probe, at the head.
            member(vec![p(v(3), 12, v(4)), p(v(4), 10, v(0))], [v(0), v(3)]),
            // Key 401 is on the build side, key 403 is not.
            member(vec![p(v(3), 13, v(9))], [c(401), v(9)]),
            member(vec![p(v(3), 13, v(9))], [c(403), v(9)]),
        ],
        vec![0, 9],
    );
    let boolean = StoreUcq::new(
        vec![
            StoreCq::with_var_head(vec![p(v(7), 15, v(8))], vec![]),
            StoreCq::with_var_head(vec![], vec![]),
        ],
        vec![],
    );
    let seed = |o| StoreCq::with_var_head(vec![p(v(0), 11, c(o))], vec![0]);
    let seed = StoreUcq::new(vec![seed(9001), seed(9002)], vec![0]);
    StoreJucq::new(vec![boolean, seed, placed], vec![0, 9])
}

/// More than two batches, and a partial last batch.
fn crosses_batches(n: usize) -> bool {
    n > 2 * BATCH_ROWS && !n.is_multiple_of(BATCH_ROWS)
}

#[test]
fn fixture_inputs_cross_batch_boundaries() {
    let data = sample_data();
    let extent = |p: u32| data.iter().filter(|t| t.1 == p).count();
    // Scans, and the probe / member-hash-join inputs they feed.
    for p in [10, 11, 12, 13] {
        assert!(crosses_batches(extent(p)), "p{p} extent: {}", extent(p));
    }
    // Projection and union-merge inputs (each member's result), then
    // the fragment-join inputs and outputs of both queries.
    let store = Store::from_triples(&triples(&data), EngineProfile::pg_like());
    for q in [wide_query(), narrow_query()] {
        for m in &q.fragments[0].cqs {
            let rows = store.eval_cq(m).unwrap().relation.len();
            assert!(crosses_batches(rows), "member result: {rows}");
        }
        let outer = store.eval_ucq(&q.fragments[0]).unwrap().relation.len();
        assert!(crosses_batches(outer), "first fragment: {outer}");
    }
    for q in [wide_query(), narrow_query(), placed_query()] {
        let answers = naive_answers(&data, &q).len();
        assert!(crosses_batches(answers), "answers: {answers}");
    }
}

/// The queries with their naive answers. Only the narrow one is for the
/// quadratic fragment join too; `runs` says whether a join algorithm
/// takes a query.
fn cases() -> Vec<(&'static str, StoreJucq, Vec<Vec<TermId>>)> {
    let data = sample_data();
    let case = |name, q: StoreJucq| {
        let answers = naive_answers(&data, &q);
        (name, q, answers)
    };
    vec![case("wide", wide_query()), case("narrow", narrow_query()), case("placed", placed_query())]
}

fn runs(qname: &str, join: JoinAlgo) -> bool {
    qname == "narrow" || join != JoinAlgo::BlockNestedLoop
}

/// The engine's independent implementations, one at a time: fragment
/// joins by each algorithm.
#[test]
fn independent_implementations_return_the_naive_answer() {
    let triples = triples(&sample_data());
    for (qname, q, expect) in cases() {
        for join in [JoinAlgo::Hash, JoinAlgo::BlockNestedLoop] {
            if !runs(qname, join) {
                continue;
            }
            let profile = EngineProfile::pg_like().with_fragment_join(join);
            let out = Store::from_triples(&triples, profile).eval_jucq(&q).unwrap();
            assert_eq!(sorted_rows(&out.relation), expect, "{qname} {join:?}");
        }
    }
}

/// Every engine profile returns the naive answer, with SIP filters on
/// every keyed join step.
#[test]
fn profile_sip_matrix_returns_the_naive_answer() {
    let triples = triples(&sample_data());
    let bases: [fn() -> EngineProfile; 3] =
        [EngineProfile::pg_like, EngineProfile::db2_like, EngineProfile::mysql_like];
    for (qname, q, expect) in cases() {
        for base in bases {
            if !runs(qname, base().fragment_join) {
                continue;
            }
            let profile = base();
            let label = format!("{qname} {}", profile.name);
            let out = Store::from_triples(&triples, profile)
                .eval_jucq(&q)
                .unwrap_or_else(|e| panic!("{label}: evaluation failed: {e}"));
            assert_eq!(sorted_rows(&out.relation), expect, "{label}");
        }
    }
}

/// SIP filters only ever drop rows the join would discard anyway, and
/// on this fixture they provably drop some.
#[test]
fn sip_filter_drops_tuples_without_changing_answers() {
    let data = sample_data();
    let q = wide_query();
    let out = Store::from_triples(&triples(&data), EngineProfile::pg_like()).eval_jucq(&q).unwrap();
    assert_eq!(sorted_rows(&out.relation), naive_answers(&data, &q));
    assert!(out.counters.sip_probes > 0, "filters ran: {:?}", out.counters);
    assert!(out.counters.sip_drops > 0, "fixture is selective: {:?}", out.counters);
    assert!(out.counters.sip_drops <= out.counters.sip_probes);
}

/// The placed query's members test the filter where the fixture says
/// they do, and the stages add up to one per member that had rows to
/// test.
#[test]
fn sip_filter_runs_at_the_earliest_stage_binding_its_key() {
    let triples = triples(&sample_data());
    let q = placed_query();
    let stages = |profile: EngineProfile| {
        let (out, run) = Store::from_triples(&triples, profile).eval_jucq_profiled(&q).unwrap();
        let [filter] = run.sip.as_slice() else { panic!("one filter: {:?}", run.sip) };
        assert_eq!(filter.label, "fragment[2].sip_filter");
        assert_eq!(
            (filter.probes, filter.drops),
            (out.counters.sip_probes, out.counters.sip_drops)
        );
        assert!(filter.drops > 0 && filter.drops < filter.probes, "{filter:?}");
        filter.stages.clone()
    };
    assert_eq!(
        stages(EngineProfile::pg_like()),
        vec![
            (SipStage::Scan, 1),
            (SipStage::BeforeProbe(0), 1),
            (SipStage::BeforeProbe(1), 1),
            // Two more: the constant-keyed members share their p13 scan.
            (SipStage::Head, 4),
        ]
    );
}

/// A budget that the first batch of every scan fits in and the second
/// does not: the breach is found by a per-batch check in the middle of
/// an operator, and still aborts the whole query.
#[test]
fn budget_breach_inside_the_second_batch_aborts_the_query() {
    let triples = triples(&sample_data());
    let q = wide_query();
    let budget = BATCH_ROWS + BATCH_ROWS / 2;
    let profile = EngineProfile::pg_like().with_memory_budget(budget);
    let err = Store::from_triples(&triples, profile)
        .eval_jucq(&q)
        .expect_err("no scan of this query fits in one and a half batches");
    match err {
        EngineError::MemoryBudgetExceeded { tuples, .. } => {
            assert_eq!(tuples, 2 * BATCH_ROWS, "found at the second batch")
        }
        other => panic!("expected a budget breach, got {other:?}"),
    }
}

/// The breach is first met inside a scan that tests a SIP filter: the
/// seed (40 rows) and the first batch of the filtered p16 scan fit, the
/// second batch does not — and the rows the filter dropped were never
/// charged. The join key is p16's object, so the planner scans p16 in
/// object order; one object in five of its fifty, spread over that
/// order, has no p17 edge and is dropped.
#[test]
fn budget_breach_inside_a_filtered_scan_batch_aborts_the_query() {
    let mut data = sample_data();
    data.extend((0..2700).map(|i| (i, 16, 7000 + i % 50)));
    data.extend((0..50).filter(|k| k % 5 != 0).map(|k| (7000 + k, 17, 6500 + k)));
    let triples = triples(&data);
    let q = StoreJucq::new(vec![attribute(3, 17, 5), attribute(2, 16, 3)], vec![2, 5]);
    let budget = BATCH_ROWS + BATCH_ROWS / 2;
    let unlimited = Store::from_triples(&triples, EngineProfile::pg_like()).eval_jucq(&q).unwrap();
    assert!(unlimited.counters.sip_drops > 0, "{:?}", unlimited.counters);
    assert_eq!(sorted_rows(&unlimited.relation), naive_answers(&data, &q));
    let profile = EngineProfile::pg_like().with_memory_budget(budget);
    let err = Store::from_triples(&triples, profile)
        .eval_jucq(&q)
        .expect_err("four fifths of two batches exceed one and a half");
    match err {
        EngineError::MemoryBudgetExceeded { tuples, .. } => assert!(
            tuples > budget && tuples < 2 * BATCH_ROWS,
            "{tuples} rows held at the second batch"
        ),
        other => panic!("expected a budget breach, got {other:?}"),
    }
}

/// The plan-wide shared scans are all held until the query completes,
/// so the memory budget is charged with their sum, not one at a time:
/// two shared extents of 600 and 700 rows each fit a 1 000-tuple budget
/// on their own, yet the query fails when the second is materialized.
/// Range collapse is off so the two leaf predicates stay two plain
/// shared scans rather than one interval.
#[test]
fn shared_scans_share_one_budget() {
    let mut data = Vec::new();
    data.extend((0..600).map(|i| (i, 20, 5000 + i)));
    data.extend((0..700).map(|i| (i, 21, 5000 + i)));
    // Probe predicates with larger extents, so the p20/p21 atoms lead.
    data.extend((0..2000).map(|i| (5000 + i % 10, 22, i)));
    data.extend((0..2000).map(|i| (5000 + i % 10, 23, i)));
    let triples = triples(&data);
    let member = |leaf: u32, probe: u32| {
        StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(leaf), v(1)), StorePattern::new(v(1), c(probe), v(2))],
            vec![0, 2],
        )
    };
    let members = vec![member(20, 22), member(20, 23), member(21, 22), member(21, 23)];
    let q = StoreJucq::from_ucq(StoreUcq::new(members, vec![0, 2]));
    let base = EngineProfile::pg_like().with_range_scans(false);

    let store = Store::from_triples(&triples, base.clone());
    let plan = store.plan_jucq(&q).unwrap();
    let extents: Vec<usize> =
        plan.shared.iter().map(|d| data.iter().filter(|t| c(t.1) == d.pattern.p).count()).collect();
    assert_eq!(extents, vec![600, 700], "two shared scans: {:?}", plan.shared);
    let answers = store.eval_plan(&plan).unwrap().relation;
    assert_eq!(sorted_rows(&answers), naive_answers(&data, &q));

    let store = Store::from_triples(&triples, base.with_memory_budget(1000));
    match store.eval_jucq(&q) {
        Err(EngineError::MemoryBudgetExceeded { tuples, budget }) => {
            assert_eq!((tuples, budget), (1300, 1000), "charged with the sum of both extents")
        }
        other => panic!("expected a budget breach, got {other:?}"),
    }
}
