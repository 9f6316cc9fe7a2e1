//! # jucq-core — reformulation-based RDF query answering, optimized
//!
//! The public facade of the `jucq` workspace: everything needed to
//! reproduce *Optimizing Reformulation-based Query Answering in RDF*
//! (Bursztyn, Goasdoué, Manolescu; EDBT 2015) end to end.
//!
//! ```
//! use jucq_core::{CostSource, RdfDatabase, Strategy};
//!
//! let mut db = RdfDatabase::new();
//! db.load_turtle(r#"
//!     @prefix ex: <http://example.org/> .
//!     ex:Book rdfs:subClassOf ex:Publication .
//!     ex:writtenBy rdfs:domain ex:Book .
//!     ex:doi1 ex:writtenBy ex:author1 .
//! "#).unwrap();
//! let q = db.parse_query(
//!     "SELECT ?x WHERE { ?x rdf:type <http://example.org/Publication> . }",
//! ).unwrap();
//! let report = db.answer(&q, &Strategy::gcov_default()).unwrap();
//! assert_eq!(report.rows.len(), 1); // doi1, via the domain constraint
//!
//! // The answer holds ids. Owned terms share the dictionary's lexemes
//! // (`Term` wraps `Arc<str>`); borrowed ones print without allocating.
//! let owned = db.decode_rows(&report.rows);
//! let borrowed: Vec<String> = jucq_core::rows::term_rows(db.graph().dict(), &report.rows)
//!     .flatten()
//!     .map(|term| term.to_string())
//!     .collect();
//! assert_eq!(borrowed, [owned[0][0].to_string()]);
//! assert_eq!(borrowed, ["<http://example.org/doi1>"]);
//!
//! // `db.answer` delegated to the snapshot `db` published when it first
//! // prepared. A `ServingDb` hands the same snapshots to any number of
//! // readers: everything query-facing is a `&self` method on one.
//! let serving = jucq_core::ServingDb::new(db);
//! let snapshot = serving.snapshot();
//! let q = snapshot.parse_query(
//!     "SELECT ?x WHERE { ?x rdf:type <http://example.org/Publication> . }",
//! ).unwrap();
//! assert_eq!(snapshot.answer(&q, &Strategy::Ucq).unwrap().rows.len(), 1);
//! assert!(snapshot.explain(&q, &Strategy::Ucq).unwrap().contains("Physical plan"));
//! ```
//!
//! Modules:
//! * [`epoch`] — [`Snapshot`]: one immutable published state of the
//!   database (dictionary, closure, the plain and the saturated store,
//!   cost constants, cache and view handles) and the one answering
//!   path over it: parse, answer, explain;
//! * [`database`] — [`RdfDatabase`], the single writer: graph, loading,
//!   updates, preparation; its query-facing methods delegate to its
//!   current snapshot;
//! * [`serving`] — [`ServingDb`]: the writer behind a mutex, its
//!   snapshots handed to concurrent readers;
//! * [`report`] — what an answer and an update report, and the errors;
//! * [`strategy`] — the answering strategies compared throughout the
//!   paper's Section 5: saturation, UCQ, SCQ, ECov/GCov JUCQs, fixed
//!   covers;
//! * [`parser`] — a SPARQL-BGP subset parser (`SELECT … WHERE { … }`);
//! * [`rows`] — the answer edge: an answer's ids read as borrowed or
//!   owned terms;
//! * [`telemetry`] — the workload telemetry pipeline: query-log record
//!   construction and the `jucq replay` regression harness;
//! * [`turtle`] — a Turtle-subset loader for examples and tests;
//! * [`snapshot`] — the binary graph *file* format (save / restore; not
//!   the in-memory [`Snapshot`]).

#![warn(missing_docs)]

pub mod advisor;
pub mod database;
pub mod epoch;
pub mod parser;
pub mod plan_cache;
pub mod report;
pub mod rows;
pub mod serving;
pub mod snapshot;
pub mod strategy;
pub mod telemetry;
pub mod turtle;

pub use advisor::{advise, AdvisorReport, ViewAdvice};
pub use database::RdfDatabase;
pub use epoch::Snapshot;
pub use plan_cache::{PlanCache, PlanCacheStats};
pub use report::{AnswerError, AnswerReport, UpdateReport};
pub use serving::{PinError, ServingDb};
pub use strategy::{CostSource, Strategy};
pub use telemetry::{replay, LatencyPercentiles, ReplayEntry, ReplayReport};

// Re-export the lower layers so downstream users need a single
// dependency.
pub use jucq_model as model;
pub use jucq_optimizer as optimizer;
pub use jucq_reformulation as reformulation;
pub use jucq_store as store;

/// Serializes tests that poke the process-global jucq-obs state.
#[cfg(test)]
pub(crate) fn obs_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
