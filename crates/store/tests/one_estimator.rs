//! One cardinality estimator: `jucq_store::stats` is the only code that
//! turns per-atom extents into row estimates and per-variable domains.
//! Four copies of that arithmetic used to exist, and this file keeps
//! them as reference implementations:
//!
//! * `Statistics::est_with_extents` as it was, with a hash map of domain
//!   vectors allocated per call and divided in the map's order;
//! * the optimizer's `Workspace::est_prefix` + `apply_selectivities`,
//!   the allocation-free sorted body the statistics layer now uses, and
//!   the member pass (`Workspace::member`) built on it;
//! * the optimizer's `fragment_components` head-domain loop (below the
//!   member-sampling cap) and `combine`'s fragment-join selectivities;
//! * `internal_cost::cq_cost`'s pipeline, a cloned `StoreCq` and an
//!   `est_cq` call per greedy prefix.
//!
//! Random patterns — repeated variables, a variable predicate, constant
//! member heads, zero extents, empty bodies — are estimated by both
//! sides. Rows agree to 1e-12 relative (exactly, against the sorted
//! body, whose division order `golden_covers.txt` was generated with);
//! domains agree exactly.

use proptest::prelude::*;

use jucq_model::term::TermKind;
use jucq_model::{FxHashMap, FxHashSet, TermId, TripleId};
use jucq_store::{
    EstScratch, FragmentSummary, PatternTerm, Statistics, StoreCq, StorePattern, StoreUcq,
    TripleTable, VarId,
};

/// The old `Statistics::est_with_extents`.
fn hashmap_est(stats: &Statistics, atoms: &[StorePattern], extents: &[f64]) -> f64 {
    if atoms.is_empty() {
        return 1.0;
    }
    if extents.contains(&0.0) {
        return 0.0;
    }
    let mut est: f64 = extents.iter().product();
    let mut var_occurrences: FxHashMap<VarId, Vec<f64>> = FxHashMap::default();
    for (p, &card) in atoms.iter().zip(extents) {
        for v in p.variables() {
            var_occurrences.entry(v).or_default().push(stats.var_domain(p, v, card));
        }
    }
    for (_, mut domains) in var_occurrences {
        if domains.len() < 2 {
            continue;
        }
        domains.sort_by(|a, b| a.partial_cmp(b).expect("finite domains"));
        for d in &domains[1..] {
            est /= d.max(1.0);
        }
    }
    est.max(0.0)
}

/// The old optimizer's `apply_selectivities`: divide `est` by every
/// domain of each variable but its smallest, in sorted order.
fn apply_selectivities(mut est: f64, domains: &mut [(VarId, f64)]) -> f64 {
    domains.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite domains"));
    for i in 1..domains.len() {
        if domains[i].0 == domains[i - 1].0 {
            est /= domains[i].1.max(1.0);
        }
    }
    est
}

/// The old optimizer's `Workspace::est_prefix`: the estimate over the
/// first `len` atoms of `order`.
fn est_prefix(
    stats: &Statistics,
    patterns: &[StorePattern],
    member: &[f64],
    order: &[usize],
    len: usize,
) -> f64 {
    let atoms = &order[..len];
    if atoms.iter().any(|&i| member[i] == 0.0) {
        return 0.0;
    }
    let product: f64 = atoms.iter().map(|&i| member[i]).product();
    let mut domains = Vec::new();
    for &i in atoms {
        let p = &patterns[i];
        domains.extend(p.variables().into_iter().map(|v| (v, stats.var_domain(p, v, member[i]))));
    }
    apply_selectivities(product, &mut domains).max(0.0)
}

/// The old optimizer's `Workspace::member` under
/// `EvalModel::IndexPipeline`: `(result estimate, evaluated input
/// volume)`.
fn optimizer_member(stats: &Statistics, patterns: &[StorePattern], member: &[f64]) -> (f64, f64) {
    let n = patterns.len();
    let mut order: Vec<usize> = (0..n).collect();
    let card = est_prefix(stats, patterns, member, &order, n);
    if n <= 1 {
        return (card, member.iter().sum());
    }
    order.sort_by(|&a, &b| member[a].partial_cmp(&member[b]).expect("finite extents"));
    let mut input = member[order[0]];
    for len in 2..=n {
        input += est_prefix(stats, patterns, member, &order, len);
    }
    (card, input)
}

/// `internal_cost::cq_cost`'s pipeline volume: one `est_cq` per greedy
/// prefix (cheapest index count first), each over a cloned `StoreCq`.
fn internal_cost_prefix_sum(stats: &Statistics, table: &TripleTable, cq: &StoreCq) -> f64 {
    let est_cq = |cq: &StoreCq| {
        let cards: Vec<f64> =
            cq.patterns.iter().map(|p| stats.pattern_card(table, p) as f64).collect();
        hashmap_est(stats, &cq.patterns, &cards)
    };
    let mut order: Vec<usize> = (0..cq.patterns.len()).collect();
    order.sort_by_key(|&i| table.count(&cq.patterns[i].bound()));
    let mut sum = 0.0;
    for k in 1..=order.len() {
        let prefix: Vec<_> = order[..k].iter().map(|&i| cq.patterns[i]).collect();
        sum += est_cq(&StoreCq::with_var_head(prefix, vec![]));
    }
    sum
}

/// The old `Statistics::var_domain_in`.
fn var_domain_in(stats: &Statistics, atoms: &[StorePattern], extents: &[f64], var: VarId) -> f64 {
    let mut best: f64 = 1.0;
    for (p, &card) in atoms.iter().zip(extents) {
        if p.variables().contains(&var) {
            best = best.max(stats.var_domain(p, var, card));
        }
    }
    best
}

/// The old `fragment_components` head-domain loop, below the sampling
/// cap: per head variable the largest domain over the members, raised
/// to the number of distinct constants it takes in member heads, capped
/// by the member sum `card`.
fn fragment_domains(
    stats: &Statistics,
    table: &TripleTable,
    ucq: &StoreUcq,
    card: f64,
) -> Vec<(VarId, f64)> {
    let mut consts: FxHashMap<VarId, FxHashSet<TermId>> = FxHashMap::default();
    let mut domains: FxHashMap<VarId, f64> = FxHashMap::default();
    for cq in &ucq.cqs {
        let extents: Vec<f64> =
            cq.patterns.iter().map(|p| stats.pattern_card(table, p) as f64).collect();
        for (pos, &v) in ucq.head.iter().enumerate() {
            let d = var_domain_in(stats, &cq.patterns, &extents, v);
            domains.entry(v).and_modify(|cur| *cur = cur.max(d)).or_insert(d);
            if let Some(PatternTerm::Const(c)) = cq.head.get(pos) {
                consts.entry(v).or_default().insert(*c);
            }
        }
    }
    ucq.head
        .iter()
        .map(|v| {
            let mut d = domains.get(v).copied().unwrap_or(1.0);
            if let Some(cs) = consts.get(v) {
                d = d.max(cs.len() as f64);
            }
            (*v, d.min(card.max(1.0)))
        })
        .collect()
}

/// The old `combine` fragment-join cardinality: the product of the
/// fragments' rows, divided by the sorted selectivities of all their
/// domains together.
fn combine_join_rows(frags: &[FragmentSummary]) -> f64 {
    let est: f64 = frags.iter().map(|f| f.rows).product();
    if frags.len() <= 1 {
        return est;
    }
    let mut domains: Vec<(VarId, f64)> = frags.iter().flat_map(|f| f.domains.clone()).collect();
    apply_selectivities(est, &mut domains)
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

fn id(i: u32) -> TermId {
    TermId::new(TermKind::Uri, i)
}

/// Subjects and objects come from `0..6`, predicates from `100..103`:
/// patterns over `100..105` also name predicates the data lacks.
fn triples() -> impl Strategy<Value = Vec<TripleId>> {
    proptest::collection::vec((0u32..6, 100u32..103, 0u32..6), 0..60)
        .prop_map(|ts| ts.into_iter().map(|(s, p, o)| TripleId::new(id(s), id(p), id(o))).collect())
}

/// Variables `0..4` — few enough that atoms share and repeat them.
fn node() -> impl Strategy<Value = PatternTerm> {
    prop_oneof![
        3 => (0u16..4).prop_map(PatternTerm::Var),
        2 => (0u32..6).prop_map(|i| PatternTerm::Const(id(i))),
    ]
}

fn pattern() -> impl Strategy<Value = StorePattern> {
    let predicate = prop_oneof![
        9 => (100u32..105).prop_map(|i| PatternTerm::Const(id(i))),
        1 => (0u16..4).prop_map(PatternTerm::Var),
    ];
    (node(), predicate, node()).prop_map(|(s, p, o)| StorePattern::new(s, p, o))
}

/// A body of up to four atoms (possibly empty) with one supplied extent
/// per atom, zero included.
fn body_with_extents() -> impl Strategy<Value = (Vec<StorePattern>, Vec<f64>)> {
    let extent = prop_oneof![1 => Just(0u32), 6 => 1u32..40];
    (proptest::collection::vec(pattern(), 0..5), proptest::collection::vec(extent, 4)).prop_map(
        |(atoms, extents)| {
            let extents = extents[..atoms.len()].iter().map(|&e| e as f64).collect();
            (atoms, extents)
        },
    )
}

/// A union with head `[?0, ?1]`: a member's head position holds the
/// variable when its body binds it, and otherwise (or by choice) a
/// constant, as the reformulation's instantiation rules leave it.
fn fragment() -> impl Strategy<Value = StoreUcq> {
    let member = (
        proptest::collection::vec(pattern(), 0..4),
        proptest::collection::vec((any::<bool>(), 0u32..4), 2),
    )
        .prop_map(|(patterns, choices)| {
            let cq = StoreCq { patterns, head: Vec::new() };
            let bound = cq.body_variables();
            let head = [0u16, 1]
                .iter()
                .zip(choices)
                .map(|(&v, (keep, c))| {
                    if keep && bound.contains(&v) {
                        PatternTerm::Var(v)
                    } else {
                        PatternTerm::Const(id(c))
                    }
                })
                .collect();
            StoreCq { head, ..cq }
        });
    proptest::collection::vec(member, 1..6).prop_map(|cqs| StoreUcq::new(cqs, vec![0, 1]))
}

fn summary() -> impl Strategy<Value = FragmentSummary> {
    let domain = (0u16..4, 1u32..50);
    let rows = prop_oneof![1 => Just(0u32), 8 => 1u32..1000];
    (rows, proptest::collection::vec(domain, 0..4)).prop_map(|(rows, raw)| {
        let mut domains: Vec<(VarId, f64)> = Vec::new();
        for (v, d) in raw {
            if !domains.iter().any(|e| e.0 == v) {
                domains.push((v, d as f64));
            }
        }
        FragmentSummary { rows: rows as f64, domains }
    })
}

fn sorted(mut domains: Vec<(VarId, f64)>) -> Vec<(VarId, f64)> {
    domains.sort_by_key(|d| d.0);
    domains
}

fn check_member(
    stats: &Statistics,
    atoms: &[StorePattern],
    extents: &[f64],
) -> Result<(), TestCaseError> {
    let mut scratch = EstScratch::default();
    let est = stats.est_with_extents(atoms, extents, &mut scratch);
    let pipeline = stats.pipeline_volume(atoms, extents, &mut scratch);
    let (card, input) = optimizer_member(stats, atoms, extents);
    prop_assert_eq!(est.to_bits(), card.to_bits(), "est {} vs optimizer {}", est, card);
    prop_assert_eq!(pipeline.to_bits(), input.to_bits(), "{} vs optimizer {}", pipeline, input);
    let old = hashmap_est(stats, atoms, extents);
    prop_assert!(close(est, old), "est {} vs hash-map body {} over {:?}", est, old, atoms);
    Ok(())
}

fn check_fragment(
    stats: &Statistics,
    table: &TripleTable,
    ucq: &StoreUcq,
) -> Result<(), TestCaseError> {
    let summary = stats.summarize_ucq(table, ucq);
    let mut card = 0.0;
    let mut old_rows = 0.0;
    for cq in &ucq.cqs {
        let extents: Vec<f64> =
            cq.patterns.iter().map(|p| stats.pattern_card(table, p) as f64).collect();
        card += optimizer_member(stats, &cq.patterns, &extents).0;
        old_rows += hashmap_est(stats, &cq.patterns, &extents);
        let pipeline = stats.pipeline_volume(&cq.patterns, &extents, &mut EstScratch::default());
        let old = internal_cost_prefix_sum(stats, table, cq);
        prop_assert!(close(pipeline, old), "pipeline {} vs per-prefix est_cq {}", pipeline, old);
    }
    prop_assert_eq!(summary.rows.to_bits(), card.to_bits());
    prop_assert!(close(summary.rows, old_rows), "rows {} vs est_ucq {}", summary.rows, old_rows);
    prop_assert_eq!(
        sorted(summary.domains.clone()),
        sorted(fragment_domains(stats, table, ucq, card)),
        "{:?}",
        ucq
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn member_estimates_equal_the_deleted_bodies(ts in triples(), body in body_with_extents()) {
        let stats = Statistics::build(&TripleTable::build(&ts));
        check_member(&stats, &body.0, &body.1)?;
    }

    #[test]
    fn fragment_summaries_equal_the_deleted_loops(ts in triples(), ucq in fragment()) {
        let table = TripleTable::build(&ts);
        let stats = Statistics::build(&table);
        check_fragment(&stats, &table, &ucq)?;
    }

    #[test]
    fn cover_query_summaries_equal_the_template_loop(
        ts in triples(),
        body in body_with_extents(),
    ) {
        // The optimizer's template: the cover query as one member whose
        // head is all its variables, over supplied (unioned) extents.
        let stats = Statistics::build(&TripleTable::build(&ts));
        let (atoms, extents) = body;
        let head = StoreCq::with_var_head(atoms.clone(), vec![]).body_variables();
        let cover = StoreCq::with_var_head(atoms.clone(), head.clone());
        let summary = stats.summarize(&head, [(&cover, extents.iter().copied())]);
        let card = hashmap_est(&stats, &atoms, &extents);
        prop_assert!(close(summary.rows, card), "rows {} vs {}", summary.rows, card);
        let old: Vec<(VarId, f64)> = head
            .iter()
            .map(|&v| (v, var_domain_in(&stats, &atoms, &extents, v).min(summary.rows.max(1.0))))
            .collect();
        prop_assert_eq!(summary.domains, old);
    }

    #[test]
    fn summary_joins_equal_combines_selectivities(
        frags in proptest::collection::vec(summary(), 1..5),
    ) {
        // `combine` folds every fragment into a unit row.
        let mut join = FragmentSummary { rows: 1.0, domains: Vec::new() };
        for f in &frags {
            join.join(f);
        }
        let old = combine_join_rows(&frags);
        prop_assert!(close(join.rows, old), "fold {} vs product {} of {:?}", join.rows, old, frags);
    }
}

#[test]
fn fixed_shapes() {
    // A repeated variable, a variable predicate, a missing predicate and
    // an empty body, over one small table.
    let triples: Vec<TripleId> = (0..12)
        .map(|i| TripleId::new(id(i % 4), id(100 + i % 3), id(i % 5)))
        .chain([TripleId::new(id(2), id(100), id(2))])
        .collect();
    let table = TripleTable::build(&triples);
    let stats = Statistics::build(&table);
    let (v, c) = (PatternTerm::Var, |i| PatternTerm::Const(id(i)));
    let atoms = [
        StorePattern::new(v(0), c(100), v(0)),
        StorePattern::new(v(0), v(1), v(2)),
        StorePattern::new(v(2), c(101), v(3)),
        StorePattern::new(v(3), c(104), v(1)),
    ];
    for n in 0..=atoms.len() {
        let extents: Vec<f64> =
            atoms[..n].iter().map(|p| stats.pattern_card(&table, p) as f64).collect();
        check_member(&stats, &atoms[..n], &extents).unwrap();
        let cq = StoreCq::with_var_head(atoms[..n].to_vec(), vec![]);
        let head = cq.body_variables();
        let ucq =
            StoreUcq::new(vec![StoreCq::with_var_head(atoms[..n].to_vec(), head.clone())], head);
        check_fragment(&stats, &table, &ucq).unwrap();
    }
}
