//! The physical plan layer: a typed plan tree, the rewrite-pass
//! planner that lowers logical [`crate::ir::StoreJucq`]s into it, and
//! the executor driving a plan sequentially or in parallel.
//!
//! See `DESIGN.md` §4e for the pass ordering, `SharedScan` semantics
//! and plan-cache keying.

mod join_order;
mod node;
mod planner;

pub(crate) mod exec;

pub use join_order::{fragment_join_order, JoinStep};
pub use node::{Plan, PlanNode, SharedScanDef, SipFilterDef, TermNameResolver};
pub use planner::{collapsible_runs, CollapsibleRun, Planner};
