//! Plan-shape snapshots: the exact rendered physical plan for a set of
//! fixed queries over a fixed micro-dataset. These pin the planner's
//! observable output — pass ordering, shared-scan factoring, pipelining
//! choice, operator selection — so an accidental behaviour change shows
//! up as a readable diff, not a silent perf regression.

use jucq_model::term::TermKind;
use jucq_model::{TermId, TripleId};
use jucq_store::{
    EngineProfile, PatternTerm, Store, StoreCq, StoreJucq, StorePattern, StoreUcq, VarId,
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

/// A p10 chain, two p11 self-loops, and p12 fan-out.
fn store(profile: EngineProfile) -> Store {
    let mut data = Vec::new();
    for i in 0..6 {
        data.push(t(i, 10, i + 1));
    }
    data.push(t(0, 11, 0));
    data.push(t(2, 11, 2));
    for i in 0..6 {
        data.push(t(i, 12, i % 2));
    }
    Store::from_triples(&data, profile)
}

fn member(patterns: Vec<StorePattern>, head: Vec<VarId>) -> StoreCq {
    StoreCq::with_var_head(patterns, head)
}

fn render(q: &StoreJucq, profile: EngineProfile) -> String {
    let s = store(profile);
    s.plan_jucq(q).expect("admitted").render(10)
}

/// Two members of one fragment share the cheap (?0 #u11 ?1) leaf: the
/// factoring pass lifts it into the shared-scan table and both members
/// reference entry #0.
#[test]
fn shared_scan_factoring_snapshot() {
    let frag = StoreUcq::new(
        vec![
            member(
                vec![StorePattern::new(v(0), c(11), v(2)), StorePattern::new(v(0), c(10), v(1))],
                vec![0, 1],
            ),
            member(
                vec![StorePattern::new(v(0), c(11), v(2)), StorePattern::new(v(1), c(10), v(0))],
                vec![0, 1],
            ),
        ],
        vec![0, 1],
    );
    let q = StoreJucq::from_ucq(frag);
    let got = render(&q, EngineProfile::pg_like());
    let want = "\
Shared scans:
  [0] (?0 #u11 ?2) — 2 uses, est 2.0
Dedup (est 4.0)
  Project [?0, ?1]
    HashUnion fragment[0] — 2 members (est 4.0)
      Project [?0, ?1]
        Inlj probe (?0 #u10 ?1)
          SharedScan #0 (?0 #u11 ?2) (est 2.0)
      Project [?0, ?1]
        Inlj probe (?1 #u10 ?0)
          SharedScan #0 (?0 #u11 ?2) (est 2.0)
";
    assert_eq!(got, want, "got:\n{got}");
}

/// A domain rule met the query's own atom: `(?0 #u12 ?1) ⋈ (?0 #u12 ?2)`
/// with head `[?0]` asks twice for the same thing. The implied atom is
/// dropped before lowering — the first member is one scan, the second
/// keeps one of its two interchangeable #u10 probes. (Its atoms are
/// #u10, not #u12: a second member with a #u12 atom would be contained
/// in the first and dropped whole.)
#[test]
fn implied_atoms_snapshot() {
    let tc = |p, o| StorePattern::new(v(0), c(p), v(o));
    let frag = StoreUcq::new(
        vec![
            member(vec![tc(12, 1), tc(12, 2)], vec![0]),
            member(vec![tc(11, 3), tc(10, 4), tc(10, 5)], vec![0]),
        ],
        vec![0],
    );
    let got = render(&StoreJucq::from_ucq(frag), EngineProfile::pg_like());
    let want = "\
Dedup (est 8.0)
  Project [?0]
    HashUnion fragment[0] — 2 members (est 8.0)
      Project [?0]
        IndexScan (?0 #u12 ?1) (est 6.0)
      Project [?0]
        Inlj probe (?0 #u10 ?4)
          IndexScan (?0 #u11 ?3) (est 2.0)
";
    assert_eq!(got, want, "got:\n{got}");
}

/// Two fragments: the larger-estimate fragment is pipelined, the other
/// materialized; the fragment-level join follows the profile (hash for
/// pg-like, block-nested-loop for mysql-like).
#[test]
fn two_fragment_join_snapshot_pg_vs_mysql() {
    let fa = StoreUcq::new(
        vec![member(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1])],
        vec![0, 1],
    );
    let fb = StoreUcq::new(
        vec![member(vec![StorePattern::new(v(0), c(11), v(2))], vec![0, 2])],
        vec![0, 2],
    );
    let q = StoreJucq::new(vec![fa, fb], vec![0, 1, 2]);

    let pg = render(&q, EngineProfile::pg_like());
    let want_pg = "\
Pipelined fragment: 0
Fragment join order: f1 (est 2.0) ⋈[?0] f0 → est 2.0
SIP filters:
  join[0] build → fragment[0] probe on [?0]
Dedup (est 2.0)
  Project [?0, ?1, ?2]
    HashJoin join[0] (est 2.0)
      HashUnion fragment[1] — 1 member (est 2.0)
        Project [?0, ?2]
          IndexScan (?0 #u11 ?2) (est 2.0)
      HashUnion fragment[0] — 1 member (est 6.0)
        Project [?0, ?1]
          IndexScan (?0 #u10 ?1) (est 6.0)
";
    assert_eq!(pg, want_pg, "got:\n{pg}");

    // mysql-like swaps the join algorithm; its derived-table copies are
    // charged per union at execution time (`finish_union`), so the
    // join-level pipelining choice is rendered the same way.
    let my = render(&q, EngineProfile::mysql_like());
    assert!(my.contains("NestedLoopJoin join[0]"), "mysql uses BNL:\n{my}");
    assert!(my.contains("Pipelined fragment: 0"), "{my}");
}

/// SIP filter placement: a planned filter targets the fragment joined
/// in at each step, keyed on the step's shared variables, and renders
/// in its own plan section, and a disconnected (cartesian) join step
/// plans no filter.
#[test]
fn sip_filter_placement_snapshot() {
    let fa = StoreUcq::new(
        vec![member(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1])],
        vec![0, 1],
    );
    let fb = StoreUcq::new(
        vec![member(vec![StorePattern::new(v(0), c(11), v(2))], vec![0, 2])],
        vec![0, 2],
    );
    let fc = StoreUcq::new(
        vec![member(vec![StorePattern::new(v(1), c(12), v(3))], vec![1, 3])],
        vec![1, 3],
    );
    let q = StoreJucq::new(vec![fa.clone(), fb.clone(), fc], vec![0, 1, 2, 3]);
    let got = render(&q, EngineProfile::pg_like());
    let sip_section = "\
SIP filters:
  join[0] build → fragment[0] probe on [?0]
  join[1] build → fragment[2] probe on [?1]
";
    assert!(got.contains(sip_section), "got:\n{got}");

    // Disconnected fragments (no shared head variable) join as a
    // cartesian product — no key, no filter.
    let fd = StoreUcq::new(
        vec![member(vec![StorePattern::new(v(5), c(12), v(6))], vec![5, 6])],
        vec![5, 6],
    );
    let disconnected = StoreJucq::new(vec![fa, fd], vec![0, 1, 5, 6]);
    let got = render(&disconnected, EngineProfile::pg_like());
    assert!(!got.contains("SIP filters:"), "cartesian step plans no filter:\n{got}");
}

/// Duplicate members and empty-extent members disappear from the plan;
/// a repeated-variable pattern gets its Filter node.
#[test]
fn rewrite_passes_snapshot() {
    let keep = member(vec![StorePattern::new(v(0), c(11), v(0))], vec![0]);
    let dup = keep.clone();
    let empty = member(vec![StorePattern::new(v(0), c(99), v(0))], vec![0]);
    let q = StoreJucq::from_ucq(StoreUcq::new(vec![keep, dup, empty], vec![0]));
    let got = render(&q, EngineProfile::pg_like());
    // The estimator does not model repeated-variable selectivity, so
    // the union estimate stays at the scan extent (2.0).
    let want = "\
Dedup (est 2.0)
  Project [?0]
    HashUnion fragment[0] — 1 member (est 2.0)
      Project [?0]
        Filter repeated-vars (?0 #u11 ?0)
          IndexScan (?0 #u11 ?0) (est 2.0)
";
    assert_eq!(got, want, "got:\n{got}");
}

/// The fragment join order and the SIP placement it implies, on the
/// LUBM Q28/SCQ shape: two memberships sharing a low-cardinality group
/// variable plus one edge between their subjects, memberships declared
/// first. The edge is the largest fragment, yet it joins second — a
/// membership joined to it keeps one row per edge, the two memberships
/// joined to each other give the square of their extent over the four
/// groups — and each SIP filter is built from the join before its target.
#[test]
fn join_order_and_sip_placement_snapshot() {
    let mut data = Vec::new();
    for i in 0..20 {
        data.push(t(i, 10, 100 + i % 4));
        data.push(t(i, 11, (i * 3 + 4) % 20));
    }
    data.push(t(0, 11, 5));
    data.push(t(10, 11, 6));
    let store = Store::from_triples(&data, EngineProfile::pg_like());
    let fragment = |s: VarId, p: u32, o: VarId| {
        StoreUcq::new(
            vec![member(vec![StorePattern::new(v(s), c(p), v(o))], vec![s, o])],
            vec![s, o],
        )
    };
    let q = StoreJucq::new(
        vec![fragment(0, 10, 2), fragment(1, 10, 2), fragment(0, 11, 1)],
        vec![0, 1, 2],
    );
    let got = store.plan_jucq(&q).expect("admitted").render(10);
    let want = "\
Pipelined fragment: 2
Fragment join order: f0 (est 20.0) ⋈[?0] f2 → est 22.0 ⋈[?2,?1] f1 → est 5.5
SIP filters:
  join[0] build → fragment[2] probe on [?0]
  join[1] build → fragment[1] probe on [?2, ?1]
Dedup (est 5.5)
  Project [?0, ?1, ?2]
    HashJoin join[1] (est 5.5)
      HashJoin join[0] (est 22.0)
        HashUnion fragment[0] — 1 member (est 20.0)
          Project [?0, ?2]
            IndexScan (?0 #u10 ?2) (est 20.0)
        HashUnion fragment[2] — 1 member (est 22.0)
          Project [?0, ?1]
            IndexScan (?0 #u11 ?1) (est 22.0)
      HashUnion fragment[1] — 1 member (est 20.0)
        Project [?1, ?2]
          IndexScan (?1 #u10 ?2) (est 20.0)
";
    assert_eq!(got, want, "got:\n{got}");
}
