//! # jucq-store — the relational evaluation engine substrate
//!
//! The paper evaluates reformulated queries by handing them "to a query
//! evaluation engine, which can be an RDBMS, a dedicated RDF storage and
//! query processing engine, or more generally any system capable of
//! evaluating selections, projections, joins and unions" (§1). Its
//! experiments run on PostgreSQL, DB2 and MySQL over a dictionary-encoded
//! `Triples(s,p,o)` table "indexed by all permutations of the s,p,o
//! columns, leading to a total of 6 indexes" (§5.1). Five suffice here:
//! OPS serves every object-led lookup OSP would, so the table keeps
//! SPO, SOP, PSO, POS and OPS.
//!
//! This crate is that substrate, built from scratch:
//!
//! * [`table::TripleTable`] — the triples table plus its five clustered
//!   permutation indexes; triple-pattern scans are binary-search prefix
//!   ranges and pattern cardinalities are **exact** and O(log n);
//!   [`table::TableStack`] reads disjoint tables as one (a lookup is a
//!   run per table, counts add), which is how a store reads its data;
//! * [`ir`] — a minimal relational IR: triple patterns, conjunctive
//!   queries (σ/π/⋈ over the table), unions thereof, and joins of unions
//!   (the shapes UCQ / SCQ / JUCQ reformulations compile to);
//! * [`exec`] — the executor: index-nested-loop CQ pipelines,
//!   hash / block-nested-loop joins of materialized
//!   relations, unions, duplicate elimination;
//! * [`stats::Statistics`] — per-predicate statistics and System-R-style
//!   cardinality estimation for CQs/UCQs/JUCQs;
//! * [`profile::EngineProfile`] — knobs emulating the behavioural
//!   differences between the paper's three RDBMSs (join algorithm,
//!   materialization policy, union-size limits, memory budget);
//! * [`plan`] — the physical plan layer: fragment unions of member
//!   pipelines plus join steps ([`plan::Plan`]), produced by the
//!   rewrite-pass [`plan::Planner`]
//!   (empty-member pruning, member cores and subsumption, common-scan
//!   factoring, join-order selection, operator choice), interpreted by
//!   the executor;
//! * [`containment`] — conjunctive-query containment, the planner's one
//!   test for redundant atoms and union members (member cores,
//!   duplicates, members a sibling contains);
//! * [`engine::Store`] — the facade: load a graph, plan and evaluate
//!   queries under a deadline, expose failures (`stack depth`-style
//!   errors, memory exhaustion, timeouts) as typed
//!   [`error::EngineError`]s so the experiment harness can render the
//!   paper's "missing bars";
//! * [`internal_cost`] — the engine's *own* cost estimator, playing the
//!   role of "the RDBMS's internal cost estimation function" that
//!   Figure 9 compares against the paper's analytic model.

#![warn(missing_docs)]

pub mod containment;
pub mod engine;
pub mod error;
pub mod exec;
pub mod explain;
pub mod internal_cost;
pub mod ir;
pub mod plan;
pub mod profile;
pub mod relation;
pub mod stats;
pub mod table;
pub mod views;

pub use engine::{ExecProfile, PlanNodeReport, Store};
pub use error::EngineError;
pub use exec::Counters;
pub use ir::{PatternTerm, StoreCq, StoreJucq, StorePattern, StoreUcq, VarId};
pub use plan::{
    collapsible_runs, fragment_join_order, CollapsibleRun, FragmentPlan, Interval, JoinStep, Leaf,
    MemberPlan, Plan, Planner, Probe, SharedScanDef, TermNameResolver,
};
pub use profile::{EngineProfile, JoinAlgo};
pub use relation::Relation;
pub use stats::{EstScratch, FragmentSummary, Statistics};
pub use table::{Merged, Perm, ProbeCursor, RangePos, Runs, TableStack, TripleTable, MAX_LAYERS};
pub use views::{
    DeltaFootprint, ViewCatalog, ViewCatalogStats, ViewFootprint, ViewSignature, ViewSource,
};
