//! # jucq-optimizer — cost-based selection of JUCQ reformulations
//!
//! Section 4 of the paper:
//!
//! * [`cost`] — the analytic cost model of §4.1 for evaluating a JUCQ
//!   through an RDBMS (connection overhead, per-fragment evaluation,
//!   duplicate elimination, fragment joins, materialization of all but
//!   the largest fragment, final dedup), parameterized by per-engine
//!   constants;
//! * [`mod@calibrate`] — learns those constants by "running a set of simple
//!   calibration queries on the RDBMS being used" (§4.1);
//! * [`search`] — the shared cover-search machinery: fragment
//!   reformulation caching and pluggable cost estimation (the paper's
//!   model or the engine's internal one, as compared in Figure 9);
//! * [`mod@ecov`] — the exhaustive cover algorithm ECov (§4.2), the "golden
//!   standard" baseline;
//! * [`mod@gcov`] — the greedy, anytime cover algorithm GCov (§4.3,
//!   Algorithm 1).

#![warn(missing_docs)]

pub mod calibrate;
pub mod cost;
pub mod ecov;
#[cfg(test)]
mod fixture;
pub mod gcov;
pub mod search;

pub use calibrate::calibrate;
pub use cost::{CostConstants, PaperCostModel};
pub use ecov::ecov;
pub use gcov::gcov;
pub use search::{CoverSearch, CoverSearchResult, EngineCostModel, JucqCostEstimator};
