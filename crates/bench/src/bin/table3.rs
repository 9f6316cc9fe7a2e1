//! Table 3 — characteristics of the motivating query q2's six triples:
//! direct answers, reformulation counts, answers after reformulation.
//!
//! Paper values (LUBM 100M, legible rows): t1/t2 = (18,999,081 / 188 /
//! 33,328,108), t5/t6 = (7,299,701 / 3 / 8,803,096); t3/t4
//! (mastersDegreeFrom / doctoralDegreeFrom) are small and selective.
//!
//! Run: `cargo run --release -p jucq-bench --bin table3 [universities]`

use jucq_bench::harness::{arg_scale, lubm_db, render_table};
use jucq_core::Strategy;
use jucq_datagen::lubm;
use jucq_reformulation::BgpQuery;
use jucq_store::EngineProfile;

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("table3");
    let universities = arg_scale(1, 4);
    eprintln!("building LUBM-like({universities})...");
    let mut db = lubm_db(universities, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.data_len());

    let q2 = db.parse_query(&lubm::motivating_queries()[1].sparql).expect("q2 parses");

    let mut rows = Vec::new();
    for (i, atom) in q2.atoms.iter().enumerate() {
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
                "Table 3: characteristics of q2 (LUBM-like {universities} univ, {} triples)",
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
    println!("paper (LUBM 100M): t1,t2 = 18,999,081/188/33,328,108; t5,t6 = 7,299,701/3/8,803,096");
}
