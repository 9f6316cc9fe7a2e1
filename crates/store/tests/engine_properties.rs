//! Property tests of the engine substrate: index scans agree with
//! brute-force filtering, the two join algorithms agree with each
//! other, and relation operators respect set-semantics invariants.

use proptest::prelude::*;

use jucq_model::term::TermKind;
use jucq_model::{FxHashSet, TermId, TripleId};
use jucq_store::exec::{join, ExecContext};
use jucq_store::{EngineProfile, Perm, RangePos, Relation, TripleTable};

fn id(i: u32) -> TermId {
    TermId::new(TermKind::Uri, i)
}

fn random_triples() -> impl Strategy<Value = Vec<TripleId>> {
    proptest::collection::vec((0u32..12, 0u32..6, 0u32..12), 0..60)
        .prop_map(|v| v.into_iter().map(|(s, p, o)| TripleId::new(id(s), id(p), id(o))).collect())
}

fn random_mask() -> impl Strategy<Value = [Option<u32>; 3]> {
    (proptest::option::of(0u32..12), proptest::option::of(0u32..6), proptest::option::of(0u32..12))
        .prop_map(|(s, p, o)| [s, p, o])
}

fn random_relation(vars: Vec<u16>) -> impl Strategy<Value = Relation> {
    let width = vars.len();
    proptest::collection::vec(proptest::collection::vec(0u32..8, width..=width), 0..40).prop_map(
        move |rows| {
            let mut r = Relation::empty(vars.clone());
            for row in rows {
                let ids: Vec<TermId> = row.into_iter().map(id).collect();
                r.push_row(&ids);
            }
            r
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn scans_agree_with_brute_force(
        triples in random_triples(),
        mask in random_mask(),
        lo in 0u32..14,
        hi in 0u32..14,
    ) {
        // Deduplicate: tables are built over set-semantics graphs.
        let set: FxHashSet<TripleId> = triples.iter().copied().collect();
        let triples: Vec<TripleId> = set.into_iter().collect();
        let table = TripleTable::build(&triples);
        let bound = [mask[0].map(id), mask[1].map(id), mask[2].map(id)];
        let scanned: FxHashSet<TripleId> = table.scan(&bound).iter().copied().collect();
        let brute: FxHashSet<TripleId> = triples
            .iter()
            .filter(|t| {
                bound[0].is_none_or(|s| t.s == s)
                    && bound[1].is_none_or(|p| t.p == p)
                    && bound[2].is_none_or(|o| t.o == o)
            })
            .copied()
            .collect();
        prop_assert_eq!(scanned, brute);
        // A value range over either position, the other positions bound
        // as `mask` binds them; `[lo, hi)` may be empty or inverted.
        for (ranged, pos) in [(RangePos::Predicate, 1), (RangePos::Object, 2)] {
            let mut bound = bound;
            bound[pos] = None;
            let scanned: FxHashSet<TripleId> =
                table.scan_value_range(&bound, ranged, lo, hi).iter().copied().collect();
            let brute: FxHashSet<TripleId> = triples
                .iter()
                .filter(|t| {
                    let v = [t.s, t.p, t.o];
                    (0..3).all(|i| bound[i].is_none_or(|b| v[i] == b))
                        && (lo..hi).contains(&v[pos].raw())
                })
                .copied()
                .collect();
            prop_assert_eq!(scanned, brute, "{:?} [{}, {})", ranged, lo, hi);
        }
    }

    #[test]
    fn apply_delta_agrees_with_rebuild(
        base in random_triples(),
        ins in random_triples(),
        del_mask in proptest::collection::vec(any::<bool>(), 60),
    ) {
        let base_set: FxHashSet<TripleId> = base.iter().copied().collect();
        let base: Vec<TripleId> = base_set.iter().copied().collect();
        let table = TripleTable::build(&base);
        let deletes: FxHashSet<TripleId> = base
            .iter()
            .zip(&del_mask)
            .filter(|(_, &d)| d)
            .map(|(t, _)| *t)
            .collect();
        let ins_set: FxHashSet<TripleId> = ins.iter().copied().collect();
        let ins: Vec<TripleId> = ins_set.into_iter().collect();
        let merged = table.apply_delta(ins.clone(), &deletes);
        let mut expect: FxHashSet<TripleId> = base_set
            .difference(&deletes)
            .copied()
            .collect();
        for t in &ins {
            if !deletes.contains(t) {
                expect.insert(*t);
            }
        }
        let expect: Vec<TripleId> = expect.into_iter().collect();
        let rebuilt = TripleTable::build(&expect);
        for perm in Perm::ALL {
            prop_assert_eq!(merged.sorted_by(perm), rebuilt.sorted_by(perm), "{:?}", perm);
        }
    }

    #[test]
    fn join_algorithms_agree(
        left in random_relation(vec![0, 1]),
        right in random_relation(vec![1, 2]),
    ) {
        let profile = EngineProfile::pg_like();
        let sorted = |mut r: Relation| {
            r.sort();
            r.to_rows()
        };
        let mut ctx = ExecContext::new(&profile);
        let h = sorted(join::hash_join(&left, &right, None, &mut ctx).unwrap());
        let mut ctx = ExecContext::new(&profile);
        let b = sorted(join::block_nested_loop_join(&left, &right, &mut ctx).unwrap());
        prop_assert_eq!(&h, &b);
    }

    #[test]
    fn dedup_is_idempotent_and_shrinking(r in random_relation(vec![0, 1, 2])) {
        let mut once = r.clone();
        let removed = once.dedup_in_place();
        prop_assert_eq!(once.len() + removed, r.len());
        let mut twice = once.clone();
        prop_assert_eq!(twice.dedup_in_place(), 0, "idempotent");
        // Every surviving row was in the original.
        let original: Vec<Vec<TermId>> = r.to_rows();
        for row in once.to_rows() {
            prop_assert!(original.contains(&row));
        }
    }

    #[test]
    fn projection_preserves_row_count_and_values(r in random_relation(vec![0, 1, 2])) {
        let p = r.project(&[2, 0]);
        prop_assert_eq!(p.len(), r.len());
        for (orig, proj) in r.rows().zip(p.rows()) {
            prop_assert_eq!(proj[0], orig[2]);
            prop_assert_eq!(proj[1], orig[0]);
        }
    }

    #[test]
    fn sort_is_a_permutation(r in random_relation(vec![0, 1])) {
        let mut sorted = r.clone();
        sorted.sort();
        let mut a = r.to_rows();
        let mut b = sorted.to_rows();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }
}
