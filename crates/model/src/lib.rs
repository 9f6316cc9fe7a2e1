//! # jucq-model — RDF data model
//!
//! The foundation layer of the `jucq` workspace: RDF terms, dictionary
//! encoding, triples, graphs and RDFS schemas, as defined in Section 2.1
//! of *Optimizing Reformulation-based Query Answering in RDF* (Bursztyn,
//! Goasdoué, Manolescu; EDBT 2015 / INRIA RR-8646).
//!
//! The design follows the paper's *database (DB) fragment of RDF*:
//!
//! * data is a set of well-formed triples `s p o` over URIs, literals and
//!   blank nodes ([`Term`]);
//! * the only entailment considered is RDF **Schema** entailment over the
//!   four constraint kinds of the paper's Figure 2: `rdfs:subClassOf`,
//!   `rdfs:subPropertyOf`, `rdfs:domain` and `rdfs:range` ([`Schema`]);
//! * graphs are not restricted in any way.
//!
//! Everything past parsing is dictionary-encoded: terms become compact
//! [`TermId`]s (32-bit, kind-tagged) via the [`Dictionary`], and a triple
//! is three ids ([`TripleId`]). This mirrors the paper's experimental
//! setup, where the `Triples(s,p,o)` table is "dictionary-encoded, using a
//! unique integer for each distinct value".

#![warn(missing_docs)]

pub mod dict;
pub mod graph;
pub mod hash;
pub mod schema;
pub mod term;
pub mod triple;
pub mod vocab;

pub use dict::Dictionary;
pub use graph::Graph;
pub use hash::{FxHashMap, FxHashSet};
pub use schema::{Schema, SchemaClosure};
pub use term::{Term, TermKind, TermRef};
pub use triple::TermId;
pub use triple::{Triple, TripleId};
