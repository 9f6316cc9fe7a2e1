//! Figure 9 — cost-model comparison: the JUCQs chosen by ECov/GCov when
//! guided by the paper's analytic cost model (§4.1) vs by the engine's
//! internal cost estimator (the paper's Postgres `EXPLAIN` harness).
//!
//! Paper shape: the two models mostly agree (similar evaluation times);
//! the analytic model is the more robust of the two — its choices are
//! always feasible, while the engine-model-guided choices occasionally
//! fail or time out.
//!
//! Run: `cargo run --release -p jucq-bench --bin fig9 [universities]`

use std::time::Duration;

use jucq_bench::harness::{arg_scale, lubm_db, render_table, run_strategy};
use jucq_core::{CostSource, Strategy};
use jucq_datagen::{lubm, NamedQuery};
use jucq_store::EngineProfile;

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("fig9");
    let universities = arg_scale(1, 4);
    eprintln!("building LUBM-like({universities})...");
    let mut db = lubm_db(universities, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.data_len());

    let strategies = [
        ("ECov/paper", Strategy::ECov { budget: Duration::from_secs(30), cost: CostSource::Paper }),
        (
            "ECov/engine",
            Strategy::ECov { budget: Duration::from_secs(30), cost: CostSource::Engine },
        ),
        (
            "GCov/paper",
            Strategy::GCov {
                budget: Duration::from_secs(10),
                max_moves: 10_000,
                cost: CostSource::Paper,
            },
        ),
        (
            "GCov/engine",
            Strategy::GCov {
                budget: Duration::from_secs(10),
                max_moves: 10_000,
                cost: CostSource::Engine,
            },
        ),
    ];

    let queries: Vec<NamedQuery> =
        lubm::motivating_queries().into_iter().chain(lubm::workload()).collect();
    let mut rows = Vec::new();
    for nq in &queries {
        eprintln!("  {}...", nq.name);
        let q = db.parse_query(&nq.sparql).expect("parses");
        let mut row = vec![nq.name.clone()];
        for (_, s) in &strategies {
            row.push(run_strategy(&mut db, &q, s, 2).render());
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("q".to_string())
        .chain(strategies.iter().map(|(n, _)| format!("{n} (ms)")))
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "Figure 9: cost model comparison, LUBM-like ({} triples), pg-like engine",
                db.data_len()
            ),
            &header,
            &rows,
        )
    );
}
