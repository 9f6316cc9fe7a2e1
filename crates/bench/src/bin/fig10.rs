//! Figure 10 — optimized reformulation vs saturation-based answering:
//! UCQ reformulation, the GCov JUCQ and saturation on the relational
//! (pg-like) engine, at two LUBM scales. The paper's Virtuoso column
//! has no stand-in: an engine profile differing from pg-like only in
//! its memory budget answers exactly as pg-like does.
//!
//! Paper shape: UCQ is up to three orders of magnitude worse than the
//! GCov JUCQ and fails on several queries at scale; saturation keeps an
//! edge on some queries, but the GCov JUCQ is competitive with it on
//! many others — remarkable, since reformulation reasons at query time.
//!
//! Run: `cargo run --release -p jucq-bench --bin fig10 [small] [large]`

use jucq_bench::harness::{arg_scale, lubm_db, render_table, run_strategy};
use jucq_core::Strategy;
use jucq_datagen::{lubm, NamedQuery};
use jucq_store::EngineProfile;

fn run_scale(universities: usize, label: &str) {
    eprintln!("building LUBM-like({universities})...");
    let mut db = lubm_db(universities, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.data_len());
    let queries: Vec<NamedQuery> = lubm::workload();

    let mut rows = Vec::new();
    for nq in &queries {
        eprintln!("  {}...", nq.name);
        let q = db.parse_query(&nq.sparql).expect("parses");
        let ucq = run_strategy(&mut db, &q, &Strategy::Ucq, 2).render();
        let gcov = run_strategy(&mut db, &q, &Strategy::gcov_default(), 2).render();
        let sat_pg = run_strategy(&mut db, &q, &Strategy::Saturation, 2).render();
        rows.push(vec![nq.name.clone(), ucq, gcov, sat_pg]);
    }
    println!(
        "{}",
        render_table(
            &format!(
                "Figure 10({label}): reformulation vs saturation, LUBM-like ({universities} univ)"
            ),
            &["q".into(), "UCQ (ms)".into(), "GCov JUCQ (ms)".into(), "SAT pg-like (ms)".into()],
            &rows,
        )
    );
}

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("fig10");
    let small = arg_scale(1, 4);
    let large = arg_scale(2, 12);
    run_scale(small, "a");
    run_scale(large, "b");
}
