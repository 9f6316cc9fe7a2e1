//! Table 2 — all eight covers of the motivating query q1: number of
//! union terms and execution time of each cover-based JUCQ
//! reformulation.
//!
//! Paper values (LUBM 100M, ms): (t1,t2,t3)=2256/6387;
//! (t1)(t2)(t3)=195/1,074,026; (t1,t2)(t3)=755/1968;
//! (t1)(t2,t3)=200/17,710; (t1,t3)(t2)=568/554;
//! (t1,t2)(t1,t3)=1316/2734; (t1,t2)(t2,t3)=764/2289;
//! (t1,t3)(t2,t3)=576/…
//!
//! Run: `cargo run --release -p jucq-bench --bin table2 [universities]`

use jucq_bench::harness::{arg_scale, lubm_db, render_table, run_strategy, Cell};
use jucq_core::Strategy;
use jucq_datagen::lubm;
use jucq_reformulation::Cover;
use jucq_store::EngineProfile;

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("table2");
    let universities = arg_scale(1, 4);
    eprintln!("building LUBM-like({universities})...");
    let mut db = lubm_db(universities, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.data_len());

    let q1 = db.parse_query(&lubm::motivating_queries()[0].sparql).expect("q1 parses");

    let covers: Vec<(&str, Vec<Vec<usize>>)> = vec![
        ("(t1,t2,t3)", vec![vec![0, 1, 2]]),
        ("(t1)(t2)(t3)", vec![vec![0], vec![1], vec![2]]),
        ("(t1,t2)(t3)", vec![vec![0, 1], vec![2]]),
        ("(t1)(t2,t3)", vec![vec![0], vec![1, 2]]),
        ("(t1,t3)(t2)", vec![vec![0, 2], vec![1]]),
        ("(t1,t2)(t1,t3)", vec![vec![0, 1], vec![0, 2]]),
        ("(t1,t2)(t2,t3)", vec![vec![0, 1], vec![1, 2]]),
        ("(t1,t3)(t2,t3)", vec![vec![0, 2], vec![1, 2]]),
    ];

    let mut rows = Vec::new();
    for (label, fragments) in covers {
        let cover = Cover::new(&q1, fragments).expect("valid cover of q1");
        let cell = run_strategy(&mut db, &q1, &Strategy::FixedCover(cover), 3);
        let (terms, time, result_rows) = match &cell {
            Cell::Time { union_terms, rows, .. } => {
                (union_terms.to_string(), cell.render(), rows.to_string())
            }
            Cell::Failed(_) => ("-".into(), cell.render(), "-".into()),
        };
        rows.push(vec![label.to_string(), terms, time, result_rows]);
    }

    // Also show which cover GCov picks.
    let gcov = db.answer(&q1, &Strategy::gcov_default()).expect("GCov");
    println!(
        "{}",
        render_table(
            &format!(
                "Table 2: covers of q1 (LUBM-like {universities} univ, {} triples)",
                db.data_len()
            ),
            &["Cover".into(), "#reformulations".into(), "exec (ms)".into(), "#answers".into()],
            &rows,
        )
    );
    println!("GCov picks {} ({} union terms)", gcov.cover.expect("cover-based"), gcov.union_terms);
}
