//! Engine profiles: the substitution for DB2 / PostgreSQL / MySQL.
//!
//! The paper's experiments (§5) show that the three RDBMSs differ
//! sharply in how they cope with reformulated queries: DB2 fails on huge
//! UCQs with stack-depth errors, MySQL is catastrophically slow on SCQs
//! (it materializes every derived table and joins without hashing),
//! Postgres sits in between. DESIGN.md §3 documents this substitution:
//! we reproduce the *phenomenon* — engines with different strengths and
//! weaknesses, each needing its own calibrated cost model — with one
//! executor parameterized by a profile.

use std::time::Duration;

/// The join algorithm used when combining materialized fragment results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Build a hash table on the smaller input, probe with the larger.
    Hash,
    /// Nested loop over blocks of the outer input — no auxiliary
    /// structure, quadratic; this is what makes the MySQL-like profile
    /// collapse on SCQ's giant fragment unions.
    BlockNestedLoop,
}

/// Behavioural knobs emulating one RDBMS.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineProfile {
    /// Human-readable name used in reports (e.g. `pg-like`).
    pub name: String,
    /// Maximum number of union terms the engine accepts in one query;
    /// beyond this it fails with a stack-depth-style error.
    pub max_union_terms: usize,
    /// Memory budget, in tuples, for any single materialized
    /// intermediate result; beyond this the evaluation aborts.
    pub memory_budget_tuples: usize,
    /// Join algorithm for fragment-level joins (UCQ × UCQ).
    pub fragment_join: JoinAlgo,
    /// If true, every union subquery result is fully copied
    /// (materialized) before use, even the one the paper's model assumes
    /// pipelined — MySQL's derived-table behaviour.
    pub materialize_all_unions: bool,
    /// Default per-query deadline.
    pub timeout: Duration,
    /// If true (the default), the planner collapses union members that
    /// differ in exactly one constant into a single `RangeScan` (or
    /// `RangeProbe`) over the id interval the constants span. Ids in
    /// the interval that are no member's constant are bridged only when
    /// the index proves they match nothing, so the rewrite is
    /// answer-preserving over plain first-seen ids. It fires often
    /// there: on the LUBM-like workload it collapses as many unions as
    /// a hierarchy-aware re-encoding of the ids did, and turning it off
    /// makes `lubm4_matrix` a third slower (DESIGN.md §4g). Disable to
    /// measure the pure-UCQ baseline.
    pub range_scans: bool,
}

impl EngineProfile {
    /// PostgreSQL-like: hash joins, pipelined largest union, generous
    /// union limit, moderate memory.
    pub fn pg_like() -> Self {
        EngineProfile {
            name: "pg-like".into(),
            max_union_terms: 100_000,
            memory_budget_tuples: 40_000_000,
            fragment_join: JoinAlgo::Hash,
            materialize_all_unions: false,
            timeout: Duration::from_secs(30),
            range_scans: true,
        }
    }

    /// DB2-like: strong executor (hash joins) but a hard stack-depth
    /// limit on the number of union terms it can plan.
    pub fn db2_like() -> Self {
        EngineProfile {
            name: "db2-like".into(),
            max_union_terms: 2_000,
            memory_budget_tuples: 40_000_000,
            fragment_join: JoinAlgo::Hash,
            materialize_all_unions: false,
            timeout: Duration::from_secs(30),
            range_scans: true,
        }
    }

    /// MySQL-like: materializes every derived union and joins fragments
    /// with block-nested loops; tight memory budget.
    pub fn mysql_like() -> Self {
        EngineProfile {
            name: "mysql-like".into(),
            max_union_terms: 60_000,
            memory_budget_tuples: 25_000_000,
            fragment_join: JoinAlgo::BlockNestedLoop,
            materialize_all_unions: true,
            timeout: Duration::from_secs(30),
            range_scans: true,
        }
    }

    /// All three RDBMS-like profiles, in the order the figures use.
    pub fn rdbms_trio() -> [EngineProfile; 3] {
        [Self::db2_like(), Self::pg_like(), Self::mysql_like()]
    }

    /// Replace the deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Replace the memory budget.
    pub fn with_memory_budget(mut self, tuples: usize) -> Self {
        self.memory_budget_tuples = tuples;
        self
    }

    /// Replace the union-term limit.
    pub fn with_max_union_terms(mut self, terms: usize) -> Self {
        self.max_union_terms = terms;
        self
    }

    /// Replace the fragment-level join algorithm.
    pub fn with_fragment_join(mut self, algo: JoinAlgo) -> Self {
        self.fragment_join = algo;
        self
    }

    /// Enable or disable collapsing contiguous-id union members into
    /// `RangeScan` nodes.
    pub fn with_range_scans(mut self, on: bool) -> Self {
        self.range_scans = on;
        self
    }

    /// Always `1`: a query runs on the thread that submits it. Kept so
    /// that callers which still report an engine worker count build.
    #[doc(hidden)]
    pub fn effective_parallelism(&self) -> usize {
        1
    }

    /// A cache-key fingerprint of every knob that changes the *plan* or
    /// how a cached plan may be replayed: toggling any of these (e.g.
    /// via `with_range_scans` or `with_fragment_join`) must miss the
    /// plan cache rather than serve a plan lowered under the old
    /// settings. The name alone is not enough — two profiles can share a
    /// name and differ in knobs (the `set_profile` staleness class).
    pub fn plan_cache_key(&self) -> String {
        format!(
            "{}|join={:?}|mat={}|range={}",
            self.name, self.fragment_join, self.materialize_all_unions, self.range_scans,
        )
    }
}

impl Default for EngineProfile {
    fn default() -> Self {
        Self::pg_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_distinct_names() {
        let names: Vec<String> =
            EngineProfile::rdbms_trio().iter().map(|p| p.name.clone()).collect();
        assert_eq!(names, vec!["db2-like", "pg-like", "mysql-like"]);
    }

    #[test]
    fn db2_has_tightest_union_limit() {
        let [db2, pg, my] = EngineProfile::rdbms_trio();
        assert!(db2.max_union_terms < pg.max_union_terms);
        assert!(db2.max_union_terms < my.max_union_terms);
    }

    #[test]
    fn mysql_materializes_and_nested_loops() {
        let my = EngineProfile::mysql_like();
        assert!(my.materialize_all_unions);
        assert_eq!(my.fragment_join, JoinAlgo::BlockNestedLoop);
    }

    #[test]
    fn builders_override_fields() {
        let p = EngineProfile::pg_like()
            .with_timeout(Duration::from_millis(5))
            .with_memory_budget(7)
            .with_max_union_terms(3);
        assert_eq!(p.timeout, Duration::from_millis(5));
        assert_eq!(p.memory_budget_tuples, 7);
        assert_eq!(p.max_union_terms, 3);
    }

    #[test]
    fn default_is_pg_like() {
        assert_eq!(EngineProfile::default().name, "pg-like");
    }

    #[test]
    fn plan_cache_key_distinguishes_planner_knobs() {
        let base = EngineProfile::pg_like();
        let keys = [
            base.clone().plan_cache_key(),
            base.clone().with_range_scans(!base.range_scans).plan_cache_key(),
            base.clone().with_fragment_join(JoinAlgo::BlockNestedLoop).plan_cache_key(),
            EngineProfile { materialize_all_unions: true, ..base.clone() }.plan_cache_key(),
        ];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "knob change must change the key");
            }
        }
        // Knobs that never affect the plan or its replay semantics —
        // timeouts, budgets — keep the key stable (cache stays warm).
        assert_eq!(
            base.clone().with_timeout(Duration::from_secs(1)).plan_cache_key(),
            base.plan_cache_key()
        );
    }
}
