//! Incremental updates: the paper's §5.3 trade-off, live.
//!
//! Saturation-based answering pays a maintenance cost on every update;
//! reformulation adapts at query time for free. This example inserts
//! and deletes triples on a prepared database and shows (a) both
//! techniques staying in sync — the saturated store maintained from the
//! previous one and the new plain store, with no state kept beside them
//! — and (b) the per-update entailment deltas.
//! The saturated store is built by the first Saturation answer and
//! maintained from then on; a database that only ever reformulates
//! never builds it, and its updates report `saturation_maintained =
//! false`.
//!
//! Run with: `cargo run --release --example incremental_updates`

use jucq_core::model::{Term, Triple};
use jucq_core::{RdfDatabase, Strategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = RdfDatabase::new();
    db.load_turtle(
        r#"
        @prefix ex: <http://example.org/> .
        ex:Book      rdfs:subClassOf    ex:Publication .
        ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .
        ex:writtenBy rdfs:domain        ex:Book .
        ex:writtenBy rdfs:range         ex:Person .
        ex:doi1      ex:writtenBy       ex:grrm .
    "#,
    )?;
    db.prepare();

    let q = db.parse_query("SELECT ?x WHERE { ?x rdf:type <http://example.org/Person> . }")?;
    let count =
        |db: &mut RdfDatabase, q, s: &Strategy| db.answer(q, s).map(|r| r.rows.len()).unwrap_or(0);
    println!(
        "people before update: SAT={} GCov={}",
        count(&mut db, &q, &Strategy::Saturation),
        count(&mut db, &q, &Strategy::gcov_default()),
    );

    // Insert a second book.
    let batch = vec![Triple::new(
        Term::uri("http://example.org/doi2"),
        Term::uri("http://example.org/writtenBy"),
        Term::uri("http://example.org/robin"),
    )];
    let report = db.apply_data_updates(&batch, &[]);
    println!(
        "insert: incremental={} saturation_maintained={} (+{} explicit, +{} entailed)",
        report.incremental, report.saturation_maintained, report.inserted, report.entailed_added
    );
    println!(
        "people after insert:  SAT={} GCov={}",
        count(&mut db, &q, &Strategy::Saturation),
        count(&mut db, &q, &Strategy::gcov_default()),
    );

    // And delete it again: the entailed Person fact must disappear too.
    let report = db.apply_data_updates(&[], &batch);
    println!(
        "delete: incremental={} saturation_maintained={} (-{} explicit, -{} entailed)",
        report.incremental, report.saturation_maintained, report.deleted, report.entailed_removed
    );
    println!(
        "people after delete:  SAT={} GCov={}",
        count(&mut db, &q, &Strategy::Saturation),
        count(&mut db, &q, &Strategy::gcov_default()),
    );
    Ok(())
}
