//! Query-answering strategies (the contenders of Section 5).

use std::time::Duration;

use jucq_reformulation::Cover;

/// Which cost estimator guides the cover search — the paper's analytic
/// model (§4.1) or the engine's internal one (the Figure 9 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostSource {
    /// The §4.1 analytic model with calibrated constants.
    Paper,
    /// The engine's own plan-cost estimator (the paper's `EXPLAIN`
    /// harness).
    Engine,
}

/// A query-answering strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Saturation-based answering: evaluate the query unchanged over
    /// the pre-saturated graph (§2.3).
    Saturation,
    /// The classical UCQ reformulation (single-fragment cover) used by
    /// most prior work.
    Ucq,
    /// The SCQ reformulation of \[13\] (one singleton fragment per
    /// triple).
    Scq,
    /// The JUCQ chosen by the exhaustive ECov search (§4.2).
    ECov {
        /// Search wall-clock budget.
        budget: Duration,
        /// Cost estimator.
        cost: CostSource,
    },
    /// The JUCQ chosen by the greedy GCov search (§4.3).
    GCov {
        /// Search wall-clock budget.
        budget: Duration,
        /// Maximum applied moves.
        max_moves: usize,
        /// Cost estimator.
        cost: CostSource,
    },
    /// A user-supplied cover (Table 2 enumerates all covers of q1 this
    /// way).
    FixedCover(Cover),
}

impl Strategy {
    /// GCov with sensible defaults (10 s budget, 10 000 moves, paper
    /// cost model).
    pub fn gcov_default() -> Self {
        Strategy::GCov {
            budget: Duration::from_secs(10),
            max_moves: 10_000,
            cost: CostSource::Paper,
        }
    }

    /// ECov with sensible defaults (30 s budget, paper cost model).
    pub fn ecov_default() -> Self {
        Strategy::ECov { budget: Duration::from_secs(30), cost: CostSource::Paper }
    }

    /// Short name used in reports and figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Saturation => "SAT",
            Strategy::Ucq => "UCQ",
            Strategy::Scq => "SCQ",
            Strategy::ECov { .. } => "ECov",
            Strategy::GCov { .. } => "GCov",
            Strategy::FixedCover(_) => "Cover",
        }
    }

    /// The strategy a name denotes: a lowercase CLI / HTTP name (`sat`,
    /// `saturation`, `ucq`, `scq`, `ecov`, `gcov`) or a [`Strategy::name`]
    /// as the query log records it. Budgeted searches get their default
    /// budgets. `Cover` names no strategy on its own — the cover is
    /// separate data — and unknown names are `None`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "sat" | "saturation" | "SAT" => Some(Strategy::Saturation),
            "ucq" | "UCQ" => Some(Strategy::Ucq),
            "scq" | "SCQ" => Some(Strategy::Scq),
            "ecov" | "ECov" => Some(Strategy::ecov_default()),
            "gcov" | "GCov" => Some(Strategy::gcov_default()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Strategy::Saturation.name(), "SAT");
        assert_eq!(Strategy::Ucq.name(), "UCQ");
        assert_eq!(Strategy::Scq.name(), "SCQ");
        assert_eq!(Strategy::ecov_default().name(), "ECov");
        assert_eq!(Strategy::gcov_default().name(), "GCov");
    }

    #[test]
    fn from_name_reads_cli_and_record_names() {
        for s in [
            Strategy::Saturation,
            Strategy::Ucq,
            Strategy::Scq,
            Strategy::ecov_default(),
            Strategy::gcov_default(),
        ] {
            assert_eq!(Strategy::from_name(s.name()), Some(s.clone()), "{}", s.name());
        }
        for (cli, record) in [
            ("sat", "SAT"),
            ("saturation", "SAT"),
            ("ucq", "UCQ"),
            ("scq", "SCQ"),
            ("ecov", "ECov"),
            ("gcov", "GCov"),
        ] {
            assert_eq!(Strategy::from_name(cli).map(|s| s.name()), Some(record), "{cli}");
        }
        for unknown in ["Range", "range", "UCQmin", "Cover", "bogus", ""] {
            assert_eq!(Strategy::from_name(unknown), None, "`{unknown}`");
        }
    }

    #[test]
    fn defaults_use_paper_model() {
        match Strategy::gcov_default() {
            Strategy::GCov { cost, .. } => assert_eq!(cost, CostSource::Paper),
            _ => unreachable!(),
        }
    }
}
