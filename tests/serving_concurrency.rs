//! Concurrency hammer for the serving layer: N reader threads answer a
//! LUBM workload against pinned snapshots while a writer thread applies
//! incremental insert batches. Every response must equal the
//! single-threaded answer **for the epoch it was served from** — the
//! snapshot a request pins is the whole consistency story, so a reader
//! racing the writer may see epoch `e` or `e+1`, but never a blend.
//!
//! The served database runs with materialized fragment views pinned for
//! the whole workload, so the race also covers the catalog: every
//! update invalidates/re-materializes views mid-flight while readers
//! resolve them epoch-exactly (or fall back to the embedded union). The
//! oracle databases never enable a catalog — view-served answers are
//! checked against view-free ground truth.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use jucq_core::{RdfDatabase, ServingDb, Strategy};
use jucq_datagen::lubm;
use jucq_model::{Triple, TripleId};

const READERS: usize = 4;
const BATCHES: usize = 3;
const BATCH_SIZE: usize = 150;

/// Sorted, decoded rows — the dictionary-independent answer fingerprint.
fn fingerprint(rows: Vec<Vec<jucq_model::Term>>) -> Vec<String> {
    let mut out: Vec<String> = rows
        .into_iter()
        .map(|row| row.iter().map(ToString::to_string).collect::<Vec<_>>().join("\t"))
        .collect();
    out.sort();
    out
}

fn decode_all(graph: &jucq_model::Graph, ids: &[TripleId]) -> Vec<Triple> {
    ids.iter()
        .map(|t| {
            Triple::new(
                graph.dict().decode(t.s),
                graph.dict().decode(t.p),
                graph.dict().decode(t.o),
            )
        })
        .collect()
}

#[test]
fn concurrent_readers_always_match_their_epochs_oracle() {
    let base = lubm::generate(&lubm::LubmConfig { universities: 1, seed: 42 });
    // Insert batches drawn from a differently-seeded generation of the
    // same ontology: new individuals, known vocabulary — exactly the
    // shape the incremental maintenance path absorbs without a rebuild.
    let extra = lubm::generate(&lubm::LubmConfig { universities: 1, seed: 7 });
    let extra_triples = decode_all(&extra, extra.data());
    let batches: Vec<Vec<Triple>> = (0..BATCHES)
        .map(|b| extra_triples[b * BATCH_SIZE..(b + 1) * BATCH_SIZE].to_vec())
        .collect();

    let queries: Vec<String> = lubm::workload().into_iter().take(5).map(|nq| nq.sparql).collect();

    // Single-threaded oracle: the expected answer per (epoch, query).
    let oracle: Vec<Vec<Vec<String>>> = (0..=BATCHES)
        .map(|epoch| {
            let mut db = RdfDatabase::from_graph(base.clone(), Default::default());
            db.set_cost_constants(Default::default());
            for batch in &batches[..epoch] {
                db.extend(batch);
            }
            queries
                .iter()
                .map(|sparql| {
                    let q = db.parse_query(sparql).expect("workload query parses");
                    let r = db.answer(&q, &Strategy::Ucq).expect("oracle answers");
                    fingerprint(db.decode_rows(&r.rows))
                })
                .collect()
        })
        .collect();

    let mut db = RdfDatabase::from_graph(base, jucq_store::EngineProfile::default());
    db.set_cost_constants(Default::default());
    db.enable_plan_cache(32);
    db.enable_views(500_000);
    let serving = Arc::new(ServingDb::new(db));
    // Pin every workload query's fragments under both view-consulting
    // strategies; the serving layer re-pins them after each update.
    for sparql in &queries {
        serving.pin_views(sparql, &Strategy::Ucq).expect("pin ucq");
        serving.pin_views(sparql, &Strategy::gcov_default()).expect("pin gcov");
    }
    assert!(
        serving.view_stats().expect("views enabled").entries > 0,
        "the workload pinned at least one fragment"
    );
    let stop = Arc::new(AtomicBool::new(false));

    let strategies = [Strategy::Ucq, Strategy::gcov_default(), Strategy::Saturation];
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                let serving = Arc::clone(&serving);
                let stop = Arc::clone(&stop);
                let queries = &queries;
                let oracle = &oracle;
                let strategies = &strategies;
                s.spawn(move || {
                    let mut checked = 0usize;
                    let mut iteration = reader; // desynchronize readers
                    while !stop.load(Ordering::Relaxed) {
                        // Pin one epoch for the whole request.
                        let snapshot = serving.snapshot();
                        let epoch = snapshot.epoch() as usize;
                        assert!(epoch <= BATCHES, "epoch {epoch} beyond the last batch");
                        let qi = iteration % queries.len();
                        let strategy = &strategies[iteration % strategies.len()];
                        let q = snapshot
                            .parse_query(&queries[qi])
                            .expect("frozen parse of a workload query");
                        let r = snapshot.answer(&q, strategy).expect("served answer");
                        let got = fingerprint(snapshot.decode_rows(&r.rows));
                        assert_eq!(
                            got,
                            oracle[epoch][qi],
                            "reader {reader} (query {qi}, {}) diverged from the \
                             single-threaded oracle for epoch {epoch}",
                            strategy.name()
                        );
                        checked += 1;
                        iteration += 1;
                    }
                    checked
                })
            })
            .collect();

        for batch in &batches {
            std::thread::sleep(Duration::from_millis(25));
            let report = serving.apply_data_updates(batch, &[]);
            assert!(
                report.incremental,
                "known-vocabulary data inserts must take the incremental path"
            );
        }
        // One more window of reads against the final epoch.
        std::thread::sleep(Duration::from_millis(25));
        stop.store(true, Ordering::Relaxed);

        let mut total = 0usize;
        for handle in readers {
            total += handle.join().expect("no reader panicked (and no lock poisoned)");
        }
        assert!(total >= READERS, "every reader completed at least one request");
    });

    assert_eq!(serving.epoch() as usize, BATCHES);
    let stats = serving.view_stats().expect("views enabled");
    assert!(stats.hits > 0, "pinned views actually served under the race: {stats:?}");
    assert_eq!(stats.epoch as usize, BATCHES, "catalog epoch tracks serving epoch");
    // The final published epoch answers exactly like the oracle's.
    let snapshot = serving.snapshot();
    for (qi, sparql) in queries.iter().enumerate() {
        let q = snapshot.parse_query(sparql).unwrap();
        let r = snapshot.answer(&q, &Strategy::Ucq).unwrap();
        assert_eq!(fingerprint(snapshot.decode_rows(&r.rows)), oracle[BATCHES][qi]);
    }
}
