//! Figure 7 — cover-space exploration on LUBM: number of query covers
//! explored by ECov vs GCov (top) and the algorithms' running times,
//! alongside the time to merely *build* the UCQ and SCQ reformulations
//! (bottom).
//!
//! Paper shape: the cover space can be huge; GCov explores a small
//! subset and runs up to an order of magnitude faster than ECov, while
//! the cost-ignorant UCQ/SCQ constructions are fastest (and pay for it
//! at evaluation time). The largest planning times belong to the
//! huge-reformulation queries.
//!
//! Run: `cargo run --release -p jucq-bench --bin fig7 [universities]`

use std::time::Instant;

use jucq_bench::harness::{arg_scale, lubm_db, render_table};
use jucq_core::{RdfDatabase, Strategy};
use jucq_datagen::{lubm, NamedQuery};
use jucq_store::EngineProfile;

fn explore_row(db: &mut RdfDatabase, nq: &NamedQuery) -> Vec<String> {
    let q = db.parse_query(&nq.sparql).expect("parses");
    // ECov / GCov: explored covers + planning time.
    let (e_explored, e_time) = match db.answer(&q, &Strategy::ecov_default()) {
        Ok(r) => (
            r.covers_explored.unwrap_or(0).to_string(),
            format!("{:.1}", r.planning_time.as_secs_f64() * 1e3),
        ),
        Err(_) => ("-".into(), "FAIL".into()),
    };
    let (g_explored, g_time) = match db.answer(&q, &Strategy::gcov_default()) {
        Ok(r) => (
            r.covers_explored.unwrap_or(0).to_string(),
            format!("{:.1}", r.planning_time.as_secs_f64() * 1e3),
        ),
        Err(_) => ("-".into(), "FAIL".into()),
    };
    // UCQ / SCQ construction times (reformulation only — measured as
    // planning time of the fixed strategies, evaluation excluded).
    let mut build_time = |s: &Strategy| -> String {
        let started = Instant::now();
        match db.answer(&q, s) {
            Ok(r) => format!("{:.1}", r.planning_time.as_secs_f64() * 1e3),
            Err(_) => format!("{:.1}*", started.elapsed().as_secs_f64() * 1e3),
        }
    };
    let ucq_time = build_time(&Strategy::Ucq);
    let scq_time = build_time(&Strategy::Scq);
    vec![nq.name.clone(), e_explored, g_explored, e_time, g_time, ucq_time, scq_time]
}

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("fig7");
    let universities = arg_scale(1, 2);
    eprintln!("building LUBM-like({universities})...");
    let mut db = lubm_db(universities, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.data_len());

    let queries: Vec<NamedQuery> =
        lubm::motivating_queries().into_iter().chain(lubm::workload()).collect();
    let mut rows = Vec::new();
    for nq in &queries {
        eprintln!("  {}...", nq.name);
        rows.push(explore_row(&mut db, nq));
    }
    println!(
        "{}",
        render_table(
            &format!(
                "Figure 7: covers explored & algorithm time, LUBM-like ({} triples)",
                db.data_len()
            ),
            &[
                "q".into(),
                "ECov #covers".into(),
                "GCov #covers".into(),
                "ECov (ms)".into(),
                "GCov (ms)".into(),
                "UCQ build (ms)".into(),
                "SCQ build (ms)".into(),
            ],
            &rows,
        )
    );
    println!("(* = construction aborted by the engine's union limit)");
}
