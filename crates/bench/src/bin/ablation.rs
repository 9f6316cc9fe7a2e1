//! Ablation — the DESIGN.md-flagged substitution in the cost model:
//! equation 2 measures a member CQ's evaluation input as the sum of its
//! full atom extents (`ScanVolume`, faithful to the paper's RDBMS
//! plans), while our engine evaluates members with index-nested-loop
//! pipelines (`IndexPipeline`, the default). This binary runs GCov
//! under both member-evaluation models and evaluates the chosen JUCQs,
//! quantifying what the substrate-aware refinement buys. A second
//! table sets each UCQ's union terms beside the members the planner
//! keeps of them (`Plan::fragments`), i.e. what containment removes.
//!
//! Run: `cargo run --release -p jucq-bench --bin ablation [universities]`

use std::time::Duration;

use jucq_bench::harness::{arg_scale, lubm_db, render_table, run_strategy};
use jucq_core::reformulation::jucq::jucq_for_cover_bounded;
use jucq_core::reformulation::reformulate::ReformulationEnv;
use jucq_core::reformulation::Cover;
use jucq_core::Strategy;
use jucq_datagen::{lubm, NamedQuery};
use jucq_optimizer::cost::EvalModel;
use jucq_optimizer::{gcov, CoverSearch, PaperCostModel};
use jucq_store::{EngineProfile, Planner};

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("ablation");
    let universities = arg_scale(1, 4);
    eprintln!("building LUBM-like({universities})...");
    let mut db = lubm_db(universities, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.data_len());
    let constants = db.cost_constants();
    let (rdf_type, closure) = (db.rdf_type(), db.closure().clone());
    let env = ReformulationEnv { closure: &closure, rdf_type };

    let queries: Vec<NamedQuery> =
        lubm::motivating_queries().into_iter().chain(lubm::workload()).collect();
    let mut rows = Vec::new();
    for nq in &queries {
        eprintln!("  {}...", nq.name);
        let q = db.parse_query(&nq.sparql).expect("parses");

        let mut row = vec![nq.name.clone()];
        let mut covers = Vec::new();
        {
            let store = db.plain_store();
            for eval_model in [EvalModel::IndexPipeline, EvalModel::ScanVolume] {
                let model = PaperCostModel::new(store.table(), store.stats(), constants)
                    .with_eval_model(eval_model);
                let search = CoverSearch::new(&q, env, &model);
                let result =
                    gcov(&search, Duration::from_secs(20), 10_000).expect("connected query");
                covers.push(result.cover);
            }
        }
        for cover in covers {
            let label = cover.to_string();
            match db.answer(&q, &Strategy::FixedCover(cover)) {
                Ok(r) => row.push(format!("{:.1} ({label})", r.eval_time.as_secs_f64() * 1e3)),
                Err(e) => row.push(format!("FAIL({e:.20})")),
            }
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &format!(
                "Ablation: GCov guided by IndexPipeline vs ScanVolume member costs (LUBM-like, {} triples)",
                db.data_len()
            ),
            &["q".into(), "pipeline model (ms, cover)".into(), "scan-volume model (ms, cover)".into()],
            &rows,
        )
    );

    // Second ablation: the union terms of the UCQ reformulation against
    // the members the planner keeps once empty members are pruned and
    // every member is reduced to its core, deduplicated and dropped when
    // a sibling contains it (planner passes 1–2; range scans off, so no
    // member is folded into an interval).
    let passes = EngineProfile::pg_like().with_range_scans(false);
    let mut rows = Vec::new();
    for nq in &queries {
        eprintln!("  members {}...", nq.name);
        let q = db.parse_query(&nq.sparql).expect("parses");
        let cover = Cover::single_fragment(&q).expect("connected query");
        let (terms, kept) = match jucq_for_cover_bounded(&q, &cover, &env, passes.max_union_terms) {
            Ok(jucq) => {
                let store = db.plain_store();
                let plan = Planner::new(store.tables(), store.stats(), &passes).plan(&jucq);
                let kept: usize = plan.fragments.iter().map(|f| f.members.len()).sum();
                (jucq.union_terms().to_string(), kept.to_string())
            }
            Err(_) => ("-".into(), "-".into()),
        };
        let ucq = run_strategy(&mut db, &q, &Strategy::Ucq, 2).render();
        rows.push(vec![nq.name.clone(), terms, kept, ucq]);
    }
    println!(
        "{}",
        render_table(
            "Ablation: UCQ union terms vs the members the planner keeps (passes 1-2)",
            &["q".into(), "UCQ terms".into(), "plan members".into(), "UCQ (ms)".into()],
            &rows,
        )
    );
}
