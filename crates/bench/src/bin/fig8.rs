//! Figure 8 — cover-space exploration on DBLP: covers explored and
//! algorithm running times for ECov vs GCov (plus UCQ/SCQ build times).
//!
//! Paper shape: on the 10-atom Q10 the cover search space is so large
//! that ECov's exhaustive search is unfeasible (it times out and is
//! reported truncated), while GCov still completes.
//!
//! Run: `cargo run --release -p jucq-bench --bin fig8 [authors]`

use jucq_bench::harness::{arg_scale, dblp_db, render_table};
use jucq_core::Strategy;
use jucq_datagen::dblp;
use jucq_store::EngineProfile;

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("fig8");
    let authors = arg_scale(1, 2_000);
    eprintln!("building DBLP-like({authors} authors)...");
    let mut db = dblp_db(authors, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.data_len());

    let mut rows = Vec::new();
    for nq in dblp::workload() {
        eprintln!("  {}...", nq.name);
        let q = db.parse_query(&nq.sparql).expect("parses");
        let mut fmt = |s: &Strategy| match db.answer(&q, s) {
            Ok(r) => (
                r.covers_explored.map(|e| e.to_string()).unwrap_or_else(|| "-".into()),
                format!("{:.1}", r.planning_time.as_secs_f64() * 1e3),
            ),
            Err(e) => ("-".into(), format!("FAIL({e:.30})")),
        };
        let (e_explored, e_time) = fmt(&Strategy::ecov_default());
        let (g_explored, g_time) = fmt(&Strategy::gcov_default());
        rows.push(vec![nq.name.clone(), e_explored, g_explored, e_time, g_time]);
    }
    println!(
        "{}",
        render_table(
            &format!(
                "Figure 8: covers explored & algorithm time, DBLP-like ({} triples)",
                db.data_len()
            ),
            &[
                "q".into(),
                "ECov #covers".into(),
                "GCov #covers".into(),
                "ECov (ms)".into(),
                "GCov (ms)".into()
            ],
            &rows,
        )
    );
}
