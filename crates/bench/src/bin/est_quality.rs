//! Extension experiment — cardinality-estimator accuracy.
//!
//! The cost model's guidance (Figures 4–9) stands or falls with its
//! cardinality estimates. This binary measures the estimator's q-error
//! (`max(est/actual, actual/est)`, the standard metric) across the LUBM
//! workload's UCQ reformulations, for the two fragment estimates the
//! statistics layer (`jucq_store::stats`) gives:
//!
//! * the member sum, the rows of the fragment's `FragmentSummary` as the
//!   planner builds it (`summarize_ucq`);
//! * the overlap-aware join-of-unioned-extents template estimate the
//!   cover search prices (`est_with_extents` over the cover query).
//!
//! Run: `cargo run --release -p jucq-bench --bin est_quality [universities]`

use jucq_bench::harness::{arg_scale, lubm_db, render_table};
use jucq_core::reformulation::reformulate::ReformulationEnv;
use jucq_core::Strategy;
use jucq_datagen::{lubm, NamedQuery};
use jucq_optimizer::PaperCostModel;
use jucq_reformulation::Cover;
use jucq_store::{EngineProfile, EstScratch};

fn q_error(est: f64, actual: f64) -> f64 {
    let est = est.max(0.5);
    let actual = actual.max(0.5);
    (est / actual).max(actual / est)
}

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("est_quality");
    let universities = arg_scale(1, 2);
    eprintln!("building LUBM-like({universities})...");
    let mut db = lubm_db(universities, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.graph().len());
    let constants = db.cost_constants();

    let queries: Vec<NamedQuery> =
        lubm::motivating_queries().into_iter().chain(lubm::workload()).collect();
    let mut rows = Vec::new();
    for nq in &queries {
        eprintln!("  {}...", nq.name);
        let q = db.parse_query(&nq.sparql).expect("parses");
        // Actual result size via saturation (always feasible).
        let actual = match db.answer(&q, &Strategy::Saturation) {
            Ok(r) => r.rows.len() as f64,
            Err(_) => continue,
        };
        let rdf_type = db.rdf_type();
        let closure = db.closure().clone();
        let env = ReformulationEnv { closure: &closure, rdf_type };
        let Ok(cover) = Cover::single_fragment(&q) else { continue };
        let Ok(jucq) =
            jucq_core::reformulation::jucq::jucq_for_cover_bounded(&q, &cover, &env, 100_000)
        else {
            rows.push(vec![nq.name.clone(), "-".into(), "-".into(), actual.to_string()]);
            continue;
        };
        let store = db.plain_store();
        let model = PaperCostModel::new(store.table(), store.stats(), constants);
        // Member-sum estimate vs template estimate for the whole UCQ.
        let member_sum = store.stats().summarize_ucq(store.table(), &jucq.fragments[0]).rows;
        let template = {
            let cq = &cover.cover_queries(&q)[0];
            let extents: Vec<f64> = cq
                .atoms
                .iter()
                .map(|a| {
                    let single =
                        jucq_reformulation::BgpQuery::new(a.variables().to_vec(), vec![*a]);
                    match jucq_core::reformulation::reformulate::reformulate_with_limit(
                        &single, &env, 100_000,
                    ) {
                        Ok(u) => model.ucq_scan_volume(&u),
                        Err(n) => n as f64,
                    }
                })
                .collect();
            store.stats().est_with_extents(&cq.atoms, &extents, &mut EstScratch::default())
        };
        rows.push(vec![
            nq.name.clone(),
            format!("{:.1}", q_error(member_sum, actual)),
            format!("{:.1}", q_error(template, actual)),
            actual.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &format!(
                "Estimator q-errors on UCQ result sizes (LUBM-like, {} triples)",
                db.graph().len()
            ),
            &["q".into(), "member-sum q-err".into(), "template q-err".into(), "actual rows".into(),],
            &rows,
        )
    );
    println!("(q-error = max(est/actual, actual/est); 1.0 is perfect)");
}
