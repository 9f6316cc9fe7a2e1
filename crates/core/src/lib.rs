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
//! ```
//!
//! Modules:
//! * [`database`] — [`RdfDatabase`]: graph + schema closure + the two
//!   engine-backed stores (plain and saturated);
//! * [`strategy`] — the answering strategies compared throughout the
//!   paper's Section 5: saturation, UCQ, SCQ, ECov/GCov JUCQs, fixed
//!   covers;
//! * [`parser`] — a SPARQL-BGP subset parser (`SELECT … WHERE { … }`);
//! * [`rows`] — the answer edge: an answer's ids read as borrowed or
//!   owned terms;
//! * [`telemetry`] — the workload telemetry pipeline: query-log record
//!   construction and the `jucq replay` regression harness;
//! * [`turtle`] — a Turtle-subset loader for examples and tests.

#![warn(missing_docs)]

pub mod advisor;
pub mod database;
pub mod parser;
pub mod plan_cache;
pub mod rows;
pub mod serving;
pub mod snapshot;
pub mod strategy;
pub mod telemetry;
pub mod turtle;

pub use advisor::{advise, AdvisorReport, ViewAdvice};
pub use database::UpdateReport;
pub use database::{AnswerError, AnswerReport, EncodingMode, RdfDatabase};
pub use plan_cache::{PlanCache, PlanCacheStats};
pub use serving::{PinError, ServingDb, Snapshot};
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
