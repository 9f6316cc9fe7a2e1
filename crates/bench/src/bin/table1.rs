//! Table 1 — characteristics of the motivating query q1's triples:
//! per-triple direct answers, reformulation counts, and answers after
//! reformulation, over the LUBM-like dataset.
//!
//! Paper values (LUBM 100M): t1 = (18,999,081 / 188 / 33,328,108),
//! t2 = (0 / 4 / 3,223), t3 = (4,434 / 3 / 5,939).
//!
//! Run: `cargo run --release -p jucq-bench --bin table1 [universities]`

use jucq_bench::harness::{arg_scale, lubm_db, render_table};
use jucq_core::Strategy;
use jucq_datagen::lubm;
use jucq_reformulation::BgpQuery;
use jucq_store::EngineProfile;

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("table1");
    let universities = arg_scale(1, 4);
    eprintln!("building LUBM-like({universities})...");
    let mut db = lubm_db(universities, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.data_len());

    let q1 = db.parse_query(&lubm::motivating_queries()[0].sparql).expect("q1 parses");

    let mut rows = Vec::new();
    for (i, atom) in q1.atoms.iter().enumerate() {
        let single = BgpQuery::new(atom.variables().to_vec(), vec![*atom]);
        let direct = db
            .plain_store()
            .eval_cq(&single.to_store_cq())
            .expect("direct evaluation")
            .relation
            .len();
        let report = db.answer(&single, &Strategy::Ucq).expect("UCQ evaluation");
        rows.push(vec![
            format!("(t{})", i + 1),
            direct.to_string(),
            report.union_terms.to_string(),
            report.rows.len().to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &format!(
                "Table 1: characteristics of q1 (LUBM-like {universities} univ, {} triples)",
                db.data_len()
            ),
            &[
                "Triple".into(),
                "#answers".into(),
                "#reformulations".into(),
                "#answers after reformulation".into()
            ],
            &rows,
        )
    );
    println!(
        "paper (LUBM 100M): t1 = 18,999,081/188/33,328,108; t2 = 0/4/3,223; t3 = 4,434/3/5,939"
    );
}
