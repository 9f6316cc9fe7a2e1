//! Figure 4 — LUBM (small scale) query answering through UCQ, SCQ,
//! ECov and GCov JUCQ reformulations, under the three RDBMS-like engine
//! profiles (the paper's DB2 / Postgres / MySQL).
//!
//! Paper shape: neither UCQ nor SCQ is reliable — UCQ fails or is
//! slowest on many queries, SCQ collapses on the MySQL-like engine;
//! the GCov JUCQ always completes and is fastest overall.
//!
//! Run: `cargo run --release -p jucq-bench --bin fig4 [universities]`

use jucq_bench::harness::{arg_scale, lubm_db, rdbms_figure};
use jucq_datagen::{lubm, NamedQuery};
use jucq_store::EngineProfile;

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("fig4");
    let universities = arg_scale(1, 4);
    eprintln!("building LUBM-like({universities})...");
    let mut db = lubm_db(universities, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.data_len());
    let queries: Vec<NamedQuery> = lubm::workload();
    rdbms_figure(
        &format!("Figure 4: LUBM-like small scale ({} triples)", db.data_len()),
        &mut db,
        &queries,
    );
}
