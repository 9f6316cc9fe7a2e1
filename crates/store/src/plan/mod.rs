//! The physical plan layer: the plan as data (fragment unions of member
//! pipelines plus join steps), the rewrite-pass planner that lowers
//! logical [`crate::ir::StoreJucq`]s into it, and the executor driving a
//! plan.
//!
//! See `DESIGN.md` §4e for the plan types, the pass ordering,
//! shared-scan semantics and plan-cache keying.

mod join_order;
mod node;
mod planner;

pub(crate) mod exec;

pub use join_order::{fragment_join_order, JoinStep};
pub use node::{
    FragmentPlan, Interval, Leaf, MemberPlan, Plan, Probe, SharedScanDef, SipFilterDef,
    TermNameResolver,
};
pub use planner::{collapsible_runs, CollapsibleRun, Planner};
