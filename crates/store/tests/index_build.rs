//! Index build equivalence: `TripleTable::build` derives four of its five
//! permutation indexes by stable radix passes over one sorted order, and
//! must hold exactly what five comparison sorts of the input hold —
//! element by element, duplicates included. `Statistics::build` counts
//! runs of those indexes, and must equal the formula that copied and
//! sorted every predicate's objects.
//!
//! The kind tag of a term id sits in its two high bits, so the three
//! term kinds differ in the high radix digit; ids at and above 2^16 put
//! a second value there within one kind.

use proptest::prelude::*;

use jucq_model::term::TermKind;
use jucq_model::{FxHashMap, TermId, TripleId};
use jucq_store::stats::PredicateStats;
use jucq_store::{Perm, Statistics, TableStack, TripleTable};

/// The build before indexes were derived from one another: one full
/// comparison sort of the input per permutation.
fn five_sorts(triples: &[TripleId]) -> [Vec<TripleId>; 5] {
    let mut indexes: [Vec<TripleId>; 5] = Default::default();
    for (slot, perm) in indexes.iter_mut().zip(Perm::ALL) {
        let mut v = triples.to_vec();
        v.sort_unstable_by_key(|t| perm.key(t));
        *slot = v;
    }
    indexes
}

/// The statistics formula before objects were counted as POS runs:
/// per predicate run of the PSO index, subjects counted as runs and a
/// copy of the objects sorted and deduplicated; global distinct
/// subjects and objects counted as runs of SPO and OPS.
fn sorted_stats(table: &TripleTable) -> (FxHashMap<TermId, PredicateStats>, usize, usize) {
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
    let mut predicates: FxHashMap<TermId, PredicateStats> = FxHashMap::default();
    let pso = table.sorted_by(Perm::Pso);
    let mut i = 0usize;
    while i < pso.len() {
        let p = pso[i].p;
        let mut j = i;
        while j < pso.len() && pso[j].p == p {
            j += 1;
        }
        let run = &pso[i..j];
        let distinct_subjects = count_runs(run.iter().map(|t| t.s));
        let mut objects: Vec<u32> = run.iter().map(|t| t.o.raw()).collect();
        objects.sort_unstable();
        objects.dedup();
        predicates.insert(
            p,
            PredicateStats { count: run.len(), distinct_subjects, distinct_objects: objects.len() },
        );
        i = j;
    }
    let subjects = count_runs(table.sorted_by(Perm::Spo).iter().map(|t| t.s));
    let objects = count_runs(table.sorted_by(Perm::Ops).iter().map(|t| t.o));
    (predicates, subjects, objects)
}

/// A term id: any kind, per-kind index either small or at and above
/// 2^16 (so both radix digits vary), from a pool narrow enough that
/// triples share components and repeat.
fn term() -> impl Strategy<Value = TermId> {
    let kind = prop_oneof![Just(TermKind::Uri), Just(TermKind::Literal), Just(TermKind::Blank)];
    let index = prop_oneof![0u32..6, 65_534u32..65_540, 1_048_570u32..1_048_576];
    (kind, index).prop_map(|(kind, index)| TermId::new(kind, index))
}

fn triple() -> impl Strategy<Value = TripleId> {
    (term(), term(), term()).prop_map(|(s, p, o)| TripleId::new(s, p, o))
}

/// Unsorted input with duplicates: a random list plus copies of some of
/// its own triples, from empty and one-triple tables up.
fn triples() -> impl Strategy<Value = Vec<TripleId>> {
    (proptest::collection::vec(triple(), 0..120), proptest::collection::vec(0usize..120, 0..30))
        .prop_map(|(mut ts, repeats)| {
            let n = ts.len();
            if n > 0 {
                for i in repeats {
                    ts.push(ts[i % n]);
                }
            }
            ts
        })
}

fn check_build(triples: &[TripleId]) -> Result<(), TestCaseError> {
    let table = TripleTable::build(triples);
    prop_assert_eq!(table.len(), triples.len());
    for (perm, want) in Perm::ALL.into_iter().zip(five_sorts(triples)) {
        prop_assert_eq!(table.sorted_by(perm), &want[..], "{:?} of {:?}", perm, triples);
    }
    let stats = Statistics::build(&TableStack::from(table.clone()));
    let (predicates, subjects, objects) = sorted_stats(&table);
    prop_assert_eq!(stats.total(), triples.len());
    prop_assert_eq!(stats.distinct_predicates(), predicates.len());
    for (p, want) in &predicates {
        prop_assert_eq!(stats.predicate(*p), Some(want), "predicate {:?}", p);
    }
    prop_assert_eq!(stats.distinct_subjects(), subjects);
    prop_assert_eq!(stats.distinct_objects(), objects);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn build_equals_five_comparison_sorts(ts in triples()) {
        check_build(&ts)?;
    }
}

#[test]
fn empty_and_one_triple_tables() {
    check_build(&[]).unwrap();
    let id = |kind, i| TermId::new(kind, i);
    for kind in [TermKind::Uri, TermKind::Literal, TermKind::Blank] {
        let t = TripleId::new(id(kind, 70_000), id(TermKind::Uri, 3), id(kind, 1));
        check_build(&[t]).unwrap();
        check_build(&[t, t]).unwrap();
    }
}

#[test]
fn thousands_of_triples_with_every_column_using_both_digits() {
    // Wide pools: every column needs both radix digits and all three
    // term kinds, including the predicates (the pass that runs last).
    let mut seed = 0x1dea_b0a7_u64;
    let mut next = |n: u32| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((seed >> 33) as u32) % n
    };
    let kinds = [TermKind::Uri, TermKind::Literal, TermKind::Blank];
    let triples: Vec<TripleId> = (0..20_000)
        .map(|_| {
            let mut term = |spread: u32| TermId::new(kinds[next(3) as usize], next(spread) * 4099);
            TripleId::new(term(300), term(40), term(300))
        })
        .collect();
    check_build(&triples).unwrap();
    let mut sorted = triples.clone();
    sorted.sort_unstable();
    sorted.dedup();
    check_build(&sorted).unwrap();
}
