//! # jucq-reformulation — reasoning on RDF graphs and queries
//!
//! The two reasoning steps of Section 2 of *Optimizing
//! Reformulation-based Query Answering in RDF*:
//!
//! * [`saturation`] — forward chaining: compute the closure `G∞` of an
//!   RDF graph under the RDFS entailment rules of the DB fragment, so
//!   that plain evaluation over the saturation yields complete answers
//!   (`q(db∞) = q(saturate(db))`);
//! * [`mod@reformulate`] — backward chaining: turn a BGP conjunctive query
//!   into the equivalent union of conjunctive queries (UCQ) whose plain
//!   evaluation over the *non-saturated* graph yields the same complete
//!   answers (`q(db∞) = q_ref(db)`).
//!
//! On top of those, the paper's Section 3 machinery:
//!
//! * [`bgp`] — BGP (SPARQL conjunctive) queries;
//! * [`cover`] — query covers (Definition 3.3) and cover queries
//!   (Definition 3.4);
//! * [`jucq`] — cover-based JUCQ reformulations (Theorem 3.1), plus the
//!   fixed UCQ and SCQ reformulations of prior work as special cases.

#![warn(missing_docs)]

pub mod bgp;
pub mod cover;
pub mod jucq;
pub mod reformulate;
pub mod saturation;

pub use bgp::{bits, AtomMask, AtomMasks, BgpQuery, VarMask};
pub use cover::{Cover, CoverError};
pub use jucq::{jucq_for_cover, scq_reformulation, ucq_reformulation};
pub use reformulate::{reformulate, reformulate_memoized, AtomMemo, ReformulationEnv};
pub use saturation::saturate;
