//! Micro-benchmarks of the engine substrate's physical operators:
//! index-range scans, the three fragment-join algorithms, and duplicate
//! elimination. These are the quantities the §4.1 cost constants
//! (`c_t`, `c_j`, `c_l`) model, so their relative magnitudes sanity-check
//! the calibration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use jucq_model::term::TermKind;
use jucq_model::{TermId, TripleId};
use jucq_store::exec::{join, ExecContext};
use jucq_store::{EngineProfile, Relation, TripleTable};

fn id(i: u32) -> TermId {
    TermId::new(TermKind::Uri, i)
}

fn table(n: u32) -> TripleTable {
    let triples: Vec<TripleId> =
        (0..n).map(|i| TripleId::new(id(i), id(1_000_000 + i % 8), id(i % 1024))).collect();
    TripleTable::build(&triples)
}

fn relation(vars: Vec<u16>, rows: u32, dup_every: u32) -> Relation {
    let mut r = Relation::empty(vars.clone());
    for i in 0..rows {
        let key = id(i / dup_every);
        let row: Vec<TermId> = vars.iter().map(|_| key).collect();
        r.push_row(&row);
    }
    r
}

fn bench_scans(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan");
    for &n in &[10_000u32, 100_000] {
        let t = table(n);
        g.bench_with_input(BenchmarkId::new("by_predicate", n), &t, |b, t| {
            b.iter(|| black_box(t.scan(&[None, Some(id(1_000_000)), None]).len()));
        });
        g.bench_with_input(BenchmarkId::new("point_lookup", n), &t, |b, t| {
            b.iter(|| black_box(t.count(&[Some(id(42)), Some(id(1_000_002)), None])));
        });
    }
    g.finish();
}

fn bench_joins(c: &mut Criterion) {
    let mut g = c.benchmark_group("fragment_join");
    g.sample_size(20);
    let left = relation(vec![0, 1], 10_000, 1);
    let right = relation(vec![0, 2], 10_000, 1);
    let profile = EngineProfile::pg_like();
    g.bench_function("hash_10k_x_10k", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new(&profile);
            black_box(
                join::hash_join(&left, &right, join::JoinOpts::default(), &mut ctx).unwrap().len(),
            )
        });
    });
    g.bench_function("sort_merge_10k_x_10k", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new(&profile);
            black_box(
                join::sort_merge_join(&left, &right, join::JoinOpts::default(), &mut ctx)
                    .unwrap()
                    .len(),
            )
        });
    });
    // Block-nested-loop is quadratic; bench a smaller instance.
    let small_l = relation(vec![0, 1], 1_000, 1);
    let small_r = relation(vec![0, 2], 1_000, 1);
    g.bench_function("block_nested_loop_1k_x_1k", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new(&profile);
            black_box(join::block_nested_loop_join(&small_l, &small_r, &mut ctx).unwrap().len())
        });
    });
    g.finish();
}

fn bench_dedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("dedup");
    for &dup in &[1u32, 4, 32] {
        let base = relation(vec![0, 1], 50_000, dup);
        g.bench_with_input(BenchmarkId::new("hash_50k", dup), &base, |b, base| {
            b.iter(|| {
                let mut r = base.clone();
                black_box(r.dedup_in_place())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scans, bench_joins, bench_dedup);
criterion_main!(benches);
