//! Cost-model calibration (§4.1 / §5.1): print the learned constants
//! for each engine profile on a LUBM-like dataset.
//!
//! Run: `cargo run --release -p jucq-bench --bin calibrate [universities]`

use jucq_bench::harness::{arg_scale, lubm_db, render_table, switch_profile};
use jucq_store::EngineProfile;

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("calibrate");
    let universities = arg_scale(1, 2);
    eprintln!("building LUBM-like({universities})...");
    let mut db = lubm_db(universities, EngineProfile::pg_like());

    let mut rows = Vec::new();
    for profile in EngineProfile::rdbms_trio() {
        let name = profile.name.clone();
        switch_profile(&mut db, profile);
        let c = db.cost_constants();
        rows.push(vec![
            name,
            format!("{:.2e}", c.c_db),
            format!("{:.2e}", c.c_t),
            format!("{:.2e}", c.c_j),
            format!("{:.2e}", c.c_m),
            format!("{:.2e}", c.c_l),
            format!("{:.2e}", c.c_k),
        ]);
    }
    println!(
        "{}",
        render_table(
            &format!("Calibrated cost constants ({} triples)", db.data_len()),
            &[
                "engine".into(),
                "c_db".into(),
                "c_t".into(),
                "c_j".into(),
                "c_m".into(),
                "c_l".into(),
                "c_k".into()
            ],
            &rows,
        )
    );
}
