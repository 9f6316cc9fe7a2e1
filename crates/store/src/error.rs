//! Typed engine failures.
//!
//! The paper's experiments hinge on the fact that real engines *fail* on
//! extreme reformulations: DB2 throws `stack depth limit exceeded` on
//! huge UCQs, other queries die with I/O exceptions "in connection with a
//! failed attempt to materialize an intermediary result", and runs beyond
//! two hours are killed. We surface all three failure modes as values so
//! the harness can render them as the figures' missing bars.

use std::fmt;
use std::time::Duration;

/// Why the engine could not complete an evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The query's union has more terms than the engine profile can
    /// parse/plan — the analogue of DB2's `stack depth limit exceeded`.
    UnionTooLarge {
        /// Union terms in the submitted query.
        terms: usize,
        /// The profile's limit.
        limit: usize,
    },
    /// An intermediate result exceeded the engine's memory budget — the
    /// analogue of the paper's failed materialization I/O exceptions.
    MemoryBudgetExceeded {
        /// Tuples the operator tried to hold.
        tuples: usize,
        /// The profile's budget, in tuples.
        budget: usize,
    },
    /// Evaluation exceeded the deadline (the paper interrupts runs after
    /// two hours).
    Timeout {
        /// The configured limit.
        limit: Duration,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnionTooLarge { terms, limit } => {
                write!(f, "stack depth limit exceeded: union of {terms} terms (limit {limit})")
            }
            EngineError::MemoryBudgetExceeded { tuples, budget } => {
                write!(
                    f,
                    "failed to materialize intermediate result: {tuples} tuples (budget {budget})"
                )
            }
            EngineError::Timeout { limit } => write!(f, "evaluation timed out after {limit:?}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_cause() {
        let e = EngineError::UnionTooLarge { terms: 318_096, limit: 2_000 };
        assert!(e.to_string().contains("stack depth"));
        let e = EngineError::MemoryBudgetExceeded { tuples: 10, budget: 5 };
        assert!(e.to_string().contains("materialize"));
        let e = EngineError::Timeout { limit: Duration::from_secs(5) };
        assert!(e.to_string().contains("timed out"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            EngineError::UnionTooLarge { terms: 1, limit: 2 },
            EngineError::UnionTooLarge { terms: 1, limit: 2 }
        );
        assert_ne!(
            EngineError::UnionTooLarge { terms: 1, limit: 2 },
            EngineError::Timeout { limit: Duration::from_secs(1) }
        );
    }
}
