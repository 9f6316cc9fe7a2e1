//! Table 4 — characteristics of the workload queries: UCQ reformulation
//! size `|q_ref|` and answer-set size `|q(db)|` for the LUBM queries
//! (at two scales) and the DBLP queries.
//!
//! Paper shape: LUBM `|q_ref|` ranges 3 … 318,096 (Q28) and DBLP up to
//! 2,923,349 (Q10); answer sizes range from 0 to millions.
//!
//! Run: `cargo run --release -p jucq-bench --bin table4 [small] [large] [authors]`

use jucq_bench::harness::{arg_scale, dblp_db, lubm_db, render_table};
use jucq_core::{AnswerError, RdfDatabase, Strategy};
use jucq_datagen::{dblp, lubm, NamedQuery};
use jucq_store::EngineProfile;

/// |q_ref| via a bounded UCQ reformulation; reports `>N` beyond the cap.
fn ref_size(db: &mut RdfDatabase, q: &jucq_reformulation::BgpQuery) -> String {
    use jucq_reformulation::jucq::jucq_for_cover_bounded;
    use jucq_reformulation::reformulate::ReformulationEnv;
    use jucq_reformulation::Cover;
    let Ok(cover) = Cover::single_fragment(q) else {
        return "-".into();
    };
    let rdf_type = db.rdf_type();
    let closure = db.closure().clone();
    let env = ReformulationEnv { closure: &closure, rdf_type };
    match jucq_for_cover_bounded(q, &cover, &env, 500_000) {
        Ok(jucq) => jucq.union_terms().to_string(),
        Err(n) => format!(">{n}"),
    }
}

/// |q(db)| via saturation-based answering (always feasible).
fn answer_size(db: &mut RdfDatabase, q: &jucq_reformulation::BgpQuery) -> String {
    match db.answer(q, &Strategy::Saturation) {
        Ok(r) => r.rows.len().to_string(),
        Err(AnswerError::Engine(e)) => format!("({e})"),
        Err(e) => format!("({e})"),
    }
}

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("table4");
    let small = arg_scale(1, 2);
    let large = arg_scale(2, 8);
    let authors = arg_scale(3, 4_000);

    // --- LUBM ---
    let queries: Vec<NamedQuery> =
        lubm::motivating_queries().into_iter().chain(lubm::workload()).collect();

    eprintln!("building LUBM-like({small})...");
    let mut db_small = lubm_db(small, EngineProfile::pg_like());
    eprintln!("building LUBM-like({large})...");
    let mut db_large = lubm_db(large, EngineProfile::pg_like());

    let mut rows = Vec::new();
    for nq in &queries {
        eprint!("  {} ...", nq.name);
        let q_small = db_small.parse_query(&nq.sparql).expect("parses");
        let q_large = db_large.parse_query(&nq.sparql).expect("parses");
        let r = ref_size(&mut db_small, &q_small);
        let a_small = answer_size(&mut db_small, &q_small);
        let a_large = answer_size(&mut db_large, &q_large);
        eprintln!(" |q_ref|={r} small={a_small} large={a_large}");
        rows.push(vec![nq.name.clone(), r, a_small, a_large]);
    }
    println!(
        "{}",
        render_table(
            &format!(
                "Table 4a: LUBM query characteristics (small={} triples, large={} triples)",
                db_small.data_len(),
                db_large.data_len()
            ),
            &[
                "q".into(),
                "|q_ref|".into(),
                format!("|q(db)| ({small}u)"),
                format!("|q(db)| ({large}u)")
            ],
            &rows,
        )
    );

    // --- DBLP ---
    eprintln!("building DBLP-like({authors} authors)...");
    let mut db_dblp = dblp_db(authors, EngineProfile::pg_like());
    let mut rows = Vec::new();
    for nq in dblp::workload() {
        eprint!("  {} ...", nq.name);
        let q = db_dblp.parse_query(&nq.sparql).expect("parses");
        let r = ref_size(&mut db_dblp, &q);
        let a = answer_size(&mut db_dblp, &q);
        eprintln!(" |q_ref|={r} |q(db)|={a}");
        rows.push(vec![nq.name.clone(), r, a]);
    }
    println!(
        "{}",
        render_table(
            &format!("Table 4b: DBLP query characteristics ({} triples)", db_dblp.data_len()),
            &["q".into(), "|q_ref|".into(), "|q(db)|".into()],
            &rows,
        )
    );
    println!("paper shape: LUBM |q_ref| ∈ [3, 318,096]; DBLP |q_ref| up to 2,923,349 (Q10).");
}
