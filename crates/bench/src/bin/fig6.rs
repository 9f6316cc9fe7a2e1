//! Figure 6 — DBLP query answering through UCQ, SCQ, ECov and GCov
//! under the three RDBMS-like engine profiles.
//!
//! Paper shape: no fixed reformulation is always best (SCQ shines on a
//! couple of DB2 queries, collapses elsewhere; UCQ times out on Q09);
//! the GCov JUCQ is robust and within reach of the per-query optimum.
//!
//! Run: `cargo run --release -p jucq-bench --bin fig6 [authors]`

use jucq_bench::harness::{arg_scale, dblp_db, rdbms_figure};
use jucq_datagen::dblp;
use jucq_store::EngineProfile;

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("fig6");
    let authors = arg_scale(1, 6_000);
    eprintln!("building DBLP-like({authors} authors)...");
    let mut db = dblp_db(authors, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.data_len());
    rdbms_figure(
        &format!("Figure 6: DBLP-like ({} triples)", db.data_len()),
        &mut db,
        &dblp::workload(),
    );
}
