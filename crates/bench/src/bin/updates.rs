//! Extension experiment — the update trade-off of §5.3: "if the RDF
//! graph is updated, the cost of maintaining the saturation may be very
//! high \[4\]. In contrast, query reformulation is performed directly at
//! query time, and so it naturally adapts".
//!
//! Measures, for batches of data insertions and deletions on the
//! LUBM-like dataset, two writers side by side:
//!
//! * *reformulation-only*: the saturated store was never built, so an
//!   update merges the plain store's indexes and nothing else;
//! * *saturation maintained*: the saturated store was built first
//!   (`saturated_store()`), so every update also runs the counting-based
//!   saturation delta and merges the saturated store's indexes;
//!
//! plus, for each, the full-rebuild alternative (re-prepare; for the
//! maintained side, re-saturate and re-index too), and query answering
//! after updates, confirming GCov stays correct.
//!
//! Run: `cargo run --release -p jucq-bench --bin updates [universities]`

use std::time::Instant;

use jucq_bench::harness::{arg_scale, lubm_db, render_table};
use jucq_core::Strategy;
use jucq_datagen::lubm;
use jucq_model::{Term, Triple};
use jucq_store::EngineProfile;

/// A batch of in-vocabulary member/degree updates for department 0.
fn batch(size: usize, tag: &str) -> Vec<Triple> {
    let dept = jucq_datagen::lubm::generator::department_uri(0, 0);
    let univ = jucq_datagen::lubm::generator::university_uri(0);
    let member_of = lubm::Ontology::uri("memberOf");
    let degree = lubm::Ontology::uri("doctoralDegreeFrom");
    let grad = lubm::Ontology::uri("GraduateStudent");
    let rdf_type = jucq_model::vocab::RDF_TYPE;
    let mut out = Vec::with_capacity(size * 3);
    for i in 0..size {
        let s = format!("{dept}/new-{tag}-{i}");
        out.push(Triple::new(Term::uri(&s), Term::uri(rdf_type), Term::uri(&grad)));
        out.push(Triple::new(Term::uri(&s), Term::uri(&member_of), Term::uri(&dept)));
        out.push(Triple::new(Term::uri(&s), Term::uri(&degree), Term::uri(&univ)));
    }
    out
}

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("updates");
    let universities = arg_scale(1, 4);
    eprintln!("building LUBM-like({universities})...");
    let mut db = lubm_db(universities, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.data_len());
    let q1 = db.parse_query(&lubm::motivating_queries()[0].sparql).expect("q1");
    let baseline = db.answer(&q1, &Strategy::gcov_default()).expect("baseline").rows.len();

    let mut rows = Vec::new();
    let mut counting_ms = 0.0;
    for maintained in [false, true] {
        if maintained {
            db.saturated_store();
            // The first maintained update after a build creates the
            // counting state from the data: an empty one, timed apart,
            // so the rows show the steady state. (Each row's clean-up
            // delete below is such a first update after its rebuild.)
            let started = Instant::now();
            assert!(db.apply_data_updates(&[], &[]).saturation_maintained);
            counting_ms = started.elapsed().as_secs_f64() * 1e3;
        }
        for &size in &[10usize, 100, 1_000, 10_000] {
            let ins = batch(size, &format!("b{size}"));
            // Incremental path.
            let started = Instant::now();
            let report = db.apply_data_updates(&ins, &[]);
            let t_inc_ins = started.elapsed();
            assert!(report.incremental, "batch stays in vocabulary");
            assert_eq!(report.saturation_maintained, maintained);
            let after = db.answer(&q1, &Strategy::gcov_default()).expect("after").rows.len();
            // q1's head is (x, y): each new graduate answers with three
            // implicit classes (GraduateStudent, Student, Person).
            assert_eq!(after, baseline + 3 * size, "each new member answers q1 thrice");
            let started = Instant::now();
            let report_del = db.apply_data_updates(&[], &ins);
            let t_inc_del = started.elapsed();
            assert!(report_del.incremental);
            assert_eq!(report_del.saturation_maintained, maintained);

            // Full-rebuild path: insert triples through the invalidating
            // API and re-prepare (and re-saturate, for the maintained
            // writer).
            db.extend(&ins);
            let started = Instant::now();
            db.prepare();
            if maintained {
                db.saturated_store();
            }
            let t_full = started.elapsed();
            // Clean up, outside the timer.
            let del_report = db.apply_data_updates(&[], &ins);
            assert_eq!(del_report.deleted, ins.len());

            rows.push(vec![
                (size * 3).to_string(),
                if maintained { "saturation maintained" } else { "reformulation-only" }.into(),
                format!("{:.1}", t_inc_ins.as_secs_f64() * 1e3),
                format!("{:.1}", t_inc_del.as_secs_f64() * 1e3),
                format!("{:.1}", t_full.as_secs_f64() * 1e3),
                report.entailed_added.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &format!(
                "Update maintenance, LUBM-like ({} triples): incremental vs full rebuild",
                db.data_len()
            ),
            &[
                "batch (triples)".into(),
                "writer".into(),
                "incr insert (ms)".into(),
                "incr delete (ms)".into(),
                "full rebuild (ms)".into(),
                "entailed added".into(),
            ],
            &rows,
        )
    );
    println!(
        "first maintained update after a build (empty batch; creates the counting state): {counting_ms:.1} ms"
    );
    println!("paper §5.3: reformulation adapts at query time; saturation pays maintenance.");
}
