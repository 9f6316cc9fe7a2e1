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
//!   (`saturated_store()`: the plain store's table under an entailed
//!   layer), so every update also derives the entailed layer's delta —
//!   from the inserted triples' consequences, and from lookups in the
//!   new plain store for each deleted triple's — and merges that
//!   layer's indexes;
//!
//! plus, for each, the full-rebuild alternative (a new database over the
//! writer's data, prepared; for the maintained side, re-saturated too),
//! and the first GCov answer after the update, confirming GCov stays
//! correct. A batch with a new property is a delta like any other. The
//! maintained rows report the probes per delete candidate (the deleted
//! triples and their consequences), and the first maintained update after a build is
//! timed beside a steady one, with the process's resident memory around
//! it: the writer keeps no maintenance state, so they should match.
//!
//! Run: `cargo run --release -p jucq-bench --bin updates [universities]`

use std::time::Instant;

use jucq_bench::harness::{arg_scale, lubm_db, render_table};
use jucq_core::{RdfDatabase, Strategy};
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

/// Resident memory of this process in MB (`VmRSS`), or `?`.
fn rss_mb() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status.lines().find_map(|l| l.strip_prefix("VmRSS:")?.trim().strip_suffix(" kB"));
    kb.and_then(|kb| kb.parse::<f64>().ok()).map_or("?".into(), |kb| format!("{:.1}", kb / 1024.0))
}

/// The delete candidates and probes the maintained writer has counted.
fn probe_counts() -> (u64, u64) {
    let m = jucq_obs::global().snapshot();
    (m.counter("saturation.delete_candidates"), m.counter("saturation.delete_probes"))
}

/// Run `f`, returning its result and its wall time in ms.
fn timed<T>(f: impl FnOnce() -> T) -> (T, String) {
    let started = Instant::now();
    let out = f();
    (out, format!("{:.1}", started.elapsed().as_secs_f64() * 1e3))
}

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("updates");
    let observed = jucq_obs::enabled();
    let universities = arg_scale(1, 4);
    eprintln!("building LUBM-like({universities})...");
    let mut db = lubm_db(universities, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.data_len());
    let q1 = db.parse_query(&lubm::motivating_queries()[0].sparql).expect("q1");
    let baseline = db.answer(&q1, &Strategy::gcov_default()).expect("baseline").rows.len();

    let mut rows = Vec::new();
    let mut first_update = String::new();
    for maintained in [false, true] {
        if maintained {
            db.saturated_store();
            // The first maintained update after the build, then a steady
            // one of the same size, each a 30-triple insert.
            let (first, steady) = (batch(10, "first"), batch(10, "steady"));
            let rss_before = rss_mb();
            let (_, t_first) = timed(|| db.apply_data_updates(&first, &[]));
            let rss_after = rss_mb();
            let (_, t_steady) = timed(|| db.apply_data_updates(&steady, &[]));
            db.apply_data_updates(&[], &[first, steady].concat());
            first_update = format!(
                "first maintained update after a build (30-triple insert): {t_first} ms, \
                 resident memory {rss_before} -> {rss_after} MB; a steady one: {t_steady} ms"
            );
        }
        let writer = ["reformulation-only", "saturation maintained"][usize::from(maintained)];
        let mut batches: Vec<(String, Vec<Triple>, usize, bool)> = [10usize, 100, 1_000, 10_000]
            .iter()
            .map(|&size| ((size * 3).to_string(), batch(size, &format!("b{size}")), 3 * size, true))
            .collect();
        // The last member's degree under a new property: it recomputes
        // the closure and leaves the saturated store to be built on
        // demand (the last row), and that member answers nothing.
        let tag = format!("new{}", u8::from(maintained));
        let mut novel = batch(10, &tag);
        novel[29].p = Term::uri(lubm::Ontology::uri(&tag));
        batches.push(("30, one new property".into(), novel, 27, false));
        for (label, ins, new_answers, in_vocabulary) in batches {
            let (report, t_inc_ins) = timed(|| db.apply_data_updates(&ins, &[]));
            assert_eq!(report.incremental, in_vocabulary, "{label}");
            assert_eq!(report.saturation_maintained, maintained && in_vocabulary);
            let (after, t_answer) =
                timed(|| db.answer(&q1, &Strategy::gcov_default()).expect("after").rows.len());
            // q1's head is (x, y): each new graduate answers with three
            // implicit classes (GraduateStudent, Student, Person).
            assert_eq!(after, baseline + new_answers, "each new member answers q1 thrice");
            // Observed, so the maintained writer counts its probes.
            let counted = probe_counts();
            jucq_obs::set_enabled(true);
            let (report_del, t_inc_del) = timed(|| db.apply_data_updates(&[], &ins));
            jucq_obs::set_enabled(observed);
            assert!(report_del.incremental);
            assert_eq!(report_del.saturation_maintained, maintained && in_vocabulary);
            let (candidates, probes) = probe_counts();
            let probes_per_candidate = match candidates - counted.0 {
                0 => "-".into(),
                n => format!("{:.2}", (probes - counted.1) as f64 / n as f64),
            };

            // Full-rebuild path: a new database over the writer's data
            // with the batch, prepared (and saturated, for the
            // maintained writer). The batch goes in and out untimed.
            db.apply_data_updates(&ins, &[]);
            let (profile, constants) = (db.profile().clone(), db.cost_constants());
            let (_full, t_full) = timed(|| {
                let mut full = RdfDatabase::from_graph(db.to_graph(), profile);
                full.set_cost_constants(constants);
                full.prepare();
                if maintained {
                    full.saturated_store();
                }
                full
            });
            let del_report = db.apply_data_updates(&[], &ins);
            assert_eq!(del_report.deleted, ins.len());

            rows.push(vec![
                label,
                writer.into(),
                t_inc_ins,
                t_answer,
                t_inc_del,
                t_full,
                report.entailed_added.to_string(),
                probes_per_candidate,
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
                "next GCov answer (ms)".into(),
                "incr delete (ms)".into(),
                "full rebuild (ms)".into(),
                "entailed added".into(),
                "probes/delete candidate".into(),
            ],
            &rows,
        )
    );
    println!("{first_update}");
    println!("paper §5.3: reformulation adapts at query time; saturation pays maintenance.");
}
