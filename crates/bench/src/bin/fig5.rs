//! Figure 5 — the Figure 4 experiment at the larger LUBM scale (the
//! paper's 100M-triple configuration; here laptop-scale, configurable).
//!
//! Paper shape: failures multiply at scale — UCQ becomes infeasible on
//! more queries, SCQ degrades by orders of magnitude, GCov stays fast;
//! GCov gains up to 4 orders of magnitude over SCQ and 2 over UCQ.
//!
//! Run: `cargo run --release -p jucq-bench --bin fig5 [universities]`

use jucq_bench::harness::{arg_scale, lubm_db, rdbms_figure};
use jucq_datagen::{lubm, NamedQuery};
use jucq_store::EngineProfile;

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("fig5");
    let universities = arg_scale(1, 12);
    eprintln!("building LUBM-like({universities})...");
    let mut db = lubm_db(universities, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.data_len());
    let queries: Vec<NamedQuery> = lubm::workload();
    rdbms_figure(
        &format!("Figure 5: LUBM-like large scale ({} triples)", db.data_len()),
        &mut db,
        &queries,
    );
}
