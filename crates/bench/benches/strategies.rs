//! End-to-end strategy benchmarks on LUBM-like data, plus the physical
//! ablations DESIGN.md calls out: index-nested-loop CQ evaluation and
//! the materialize-all-unions policy.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use jucq_core::{RdfDatabase, Strategy};
use jucq_datagen::lubm;
use jucq_store::EngineProfile;

fn db_with(profile: EngineProfile) -> (RdfDatabase, jucq_reformulation::BgpQuery) {
    let graph = lubm::generate(&lubm::LubmConfig::new(1));
    let mut db = RdfDatabase::from_graph(graph, profile);
    db.set_cost_constants(Default::default());
    let q1 = db.parse_query(&lubm::motivating_queries()[0].sparql).unwrap();
    db.prepare();
    (db, q1)
}

fn bench_strategies(c: &mut Criterion) {
    let (mut db, q1) = db_with(EngineProfile::pg_like());
    let mut g = c.benchmark_group("q1_strategies");
    g.sample_size(10);
    for (name, s) in [
        ("saturation", Strategy::Saturation),
        ("ucq", Strategy::Ucq),
        ("scq", Strategy::Scq),
        ("gcov", Strategy::gcov_default()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(db.answer(&q1, &s).unwrap().rows.len()));
        });
    }
    g.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("physical_ablations");
    g.sample_size(10);

    // CQ evaluation: the index-nested-loop pipeline.
    let (mut inlj_db, q1) = db_with(EngineProfile::pg_like());
    g.bench_function("cq_inlj", |b| {
        b.iter(|| black_box(inlj_db.answer(&q1, &Strategy::Ucq).unwrap().rows.len()));
    });

    // Union materialization policy (the MySQL-like derived-table copy).
    let mut mat_profile = EngineProfile::pg_like();
    mat_profile.materialize_all_unions = true;
    let (mut mat_db, q1m) = db_with(mat_profile);
    g.bench_function("scq_materialize_all", |b| {
        b.iter(|| black_box(mat_db.answer(&q1m, &Strategy::Scq).unwrap().rows.len()));
    });
    let (mut pipe_db, q1p) = db_with(EngineProfile::pg_like());
    g.bench_function("scq_pipelined", |b| {
        b.iter(|| black_box(pipe_db.answer(&q1p, &Strategy::Scq).unwrap().rows.len()));
    });
    g.finish();
}

criterion_group!(benches, bench_strategies, bench_ablations);
criterion_main!(benches);
