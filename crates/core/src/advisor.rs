//! The workload-driven view advisor: turn a structured query log into
//! a set of cover fragments worth materializing.
//!
//! The query log (`jucq-log/5`, see [`jucq_obs::record`]) profiles
//! every answered query per plan node, so for each executed fragment we
//! know both its measured evaluation time (`fragment[i].union`
//! inclusive wall time) and its measured result size (the node's actual
//! rows — exactly the tuple count a materialized view of that fragment
//! would hold). The advisor aggregates those observations per
//! (query, strategy, fragment), then greedily picks the candidates with
//! the best *benefit per stored tuple* until the catalog's tuple budget
//! is full — the same shape as the classic view-selection knapsack,
//! with measured instead of estimated quantities.
//!
//! The output is advisory: each [`ViewAdvice`] names the normalized
//! query text, the strategy, and the fragment index to pass to
//! [`crate::RdfDatabase::pin_cover_fragments`] (or
//! [`crate::ServingDb::pin_views`], which pins every fragment of the
//! query). Fragment indices refer to the cover the strategy chooses; a
//! database whose data (and therefore cover choice) has drifted far
//! from the logged workload may pin different fragments than the log
//! measured — harmless, since pinned views are consulted by signature
//! and never change answers.

use jucq_model::FxHashMap;
use jucq_obs::record::QueryRecord;

/// One recommended materialization: a fragment of one query's cover.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewAdvice {
    /// Normalized SPARQL text, re-parseable against the database.
    pub query: String,
    /// Strategy short name (`UCQ`, `GCov`, …) the workload ran under.
    pub strategy: String,
    /// The recorded cover (atom-index fragments), when the strategy was
    /// `Cover` — needed to rebuild the exact `FixedCover`.
    pub cover: Option<Vec<Vec<u64>>>,
    /// Fragment index within the query's planned cover.
    pub fragment: usize,
    /// Measured result size of the fragment — the tuples a view of it
    /// would occupy in the catalog budget.
    pub est_tuples: u64,
    /// Summed measured evaluation time of the fragment across the
    /// workload, nanoseconds — the time a view hit would save.
    pub benefit_ns: u64,
    /// How many logged executions contributed to `benefit_ns`.
    pub executions: u64,
}

/// The advisor's output: the picked advice plus accounting.
#[derive(Debug, Clone, Default)]
pub struct AdvisorReport {
    /// Picked fragments, in greedy (best benefit-per-tuple first) order.
    pub advice: Vec<ViewAdvice>,
    /// Distinct (query, strategy, fragment) candidates considered.
    pub considered: usize,
    /// The tuple budget the picks were fitted under.
    pub budget_tuples: usize,
    /// Tuples the picked views would occupy, summed.
    pub est_total_tuples: u64,
}

/// Parse a profiled node label of the form `fragment[<i>].union` or
/// `fragment[<i>].view_scan` into its fragment index.
fn fragment_index(label: &str) -> Option<usize> {
    let rest = label.strip_prefix("fragment[")?;
    let (idx, tail) = rest.split_once(']')?;
    match tail {
        ".union" | ".view_scan" => idx.parse().ok(),
        _ => None,
    }
}

#[derive(Default)]
struct Candidate {
    query: String,
    strategy: String,
    cover: Option<Vec<Vec<u64>>>,
    benefit_ns: u64,
    tuples: u64,
    executions: u64,
}

/// Aggregate `records` and greedily pick the fragments with the best
/// benefit-per-stored-tuple under `budget_tuples`.
///
/// Only successful (`outcome == "ok"`), profiled, non-saturation
/// records contribute: saturation plans have no cover fragments to
/// materialize, and failed runs have no trustworthy measurements.
/// Zero-benefit candidates are never picked.
pub fn advise(records: &[QueryRecord], budget_tuples: usize) -> AdvisorReport {
    let mut candidates: FxHashMap<(String, String, usize), Candidate> = FxHashMap::default();
    for rec in records {
        if rec.outcome != "ok" || rec.strategy == "SAT" {
            continue;
        }
        for node in &rec.nodes {
            let Some(idx) = fragment_index(&node.label) else {
                continue;
            };
            let key = (rec.fingerprint.clone(), rec.strategy.clone(), idx);
            let c = candidates.entry(key).or_default();
            // Keep the latest text/cover — fingerprint-equal queries
            // are isomorphic, any representative re-parses to the same
            // canonical plan.
            c.query = rec.query.clone();
            c.strategy = rec.strategy.clone();
            c.cover = rec.cover.clone();
            c.benefit_ns = c.benefit_ns.saturating_add(node.elapsed_ns);
            // Result sizes can drift across the workload (updates
            // land mid-log); budget for the largest observed.
            c.tuples = c.tuples.max(node.actual_rows);
            c.executions += 1;
        }
    }

    let considered = candidates.len();
    let mut picks: Vec<((String, String, usize), Candidate)> =
        candidates.into_iter().filter(|(_, c)| c.benefit_ns > 0).collect();
    // Benefit per stored tuple, descending; cross-multiplied to stay in
    // integers (`a.benefit/a.tuples > b.benefit/b.tuples` ⇔
    // `a.benefit·b.tuples > b.benefit·a.tuples` with tuples ≥ 1).
    picks.sort_by(|(ka, a), (kb, b)| {
        let lhs = a.benefit_ns as u128 * b.tuples.max(1) as u128;
        let rhs = b.benefit_ns as u128 * a.tuples.max(1) as u128;
        rhs.cmp(&lhs).then_with(|| ka.cmp(kb))
    });

    let mut report = AdvisorReport { budget_tuples, considered, ..AdvisorReport::default() };
    for ((_, _, fragment), c) in picks {
        if report.est_total_tuples.saturating_add(c.tuples) > budget_tuples as u64 {
            continue; // greedy knapsack: smaller later candidates may still fit
        }
        report.est_total_tuples += c.tuples;
        report.advice.push(ViewAdvice {
            query: c.query,
            strategy: c.strategy,
            cover: c.cover,
            fragment,
            est_tuples: c.tuples,
            benefit_ns: c.benefit_ns,
            executions: c.executions,
        });
    }
    report
}

/// Render an [`AdvisorReport`] as a human-readable table (the body of
/// `jucq advise`).
pub fn render(report: &AdvisorReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "view advisor: {} candidate fragment(s), budget {} tuples",
        report.considered, report.budget_tuples
    );
    if report.advice.is_empty() {
        out.push_str("nothing to pin (no profiled, repeated fragment work in the log)\n");
        return out;
    }
    for (i, a) in report.advice.iter().enumerate() {
        let _ = writeln!(
            out,
            "#{:<2} {:>10} tuples  {:>9.3} ms saved  {:>4} run(s)  {} fragment[{}]\n    {}",
            i + 1,
            a.est_tuples,
            a.benefit_ns as f64 / 1e6,
            a.executions,
            a.strategy,
            a.fragment,
            a.query
        );
    }
    let _ = writeln!(
        out,
        "total: {} of {} budget tuples across {} view(s)",
        report.est_total_tuples,
        report.budget_tuples,
        report.advice.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_obs::record::NodeRecord;

    fn rec(
        fingerprint: &str,
        strategy: &str,
        outcome: &str,
        nodes: Vec<(&str, u64, u64)>,
    ) -> QueryRecord {
        QueryRecord {
            query: format!("SELECT ?x WHERE {{ ?x <p-{fingerprint}> ?y . }}"),
            fingerprint: fingerprint.into(),
            strategy: strategy.into(),
            outcome: outcome.into(),
            nodes: nodes
                .into_iter()
                .map(|(label, rows, ns)| NodeRecord {
                    label: label.into(),
                    est_rows: None,
                    actual_rows: rows,
                    elapsed_ns: ns,
                    q_error: None,
                })
                .collect(),
            ..QueryRecord::default()
        }
    }

    #[test]
    fn advisor_prefers_benefit_per_tuple_and_respects_the_budget() {
        let log = vec![
            // Hot fragment: small result, big repeated cost.
            rec("qa", "UCQ", "ok", vec![("fragment[0].union", 100, 5_000_000)]),
            rec("qa", "UCQ", "ok", vec![("fragment[0].union", 100, 5_000_000)]),
            // Big fragment: would not fit together with qa under 600.
            rec("qb", "GCov", "ok", vec![("fragment[0].union", 550, 8_000_000)]),
            // Cheap fragment: fits in the leftover budget.
            rec("qc", "UCQ", "ok", vec![("fragment[0].union", 50, 1_000_000)]),
            // Failed and saturated runs never contribute.
            rec("qd", "UCQ", "deadline", vec![("fragment[0].union", 10, 9_000_000)]),
            rec("qe", "SAT", "ok", vec![("fragment[0].union", 10, 9_000_000)]),
        ];
        let report = advise(&log, 600);
        assert_eq!(report.considered, 3);
        let picked: Vec<(&str, usize)> =
            report.advice.iter().map(|a| (a.strategy.as_str(), a.fragment)).collect();
        // qa: 10M/100 = 100k ns per tuple; qc: 1M/50 = 20k; qb: 8M/550 ≈ 14.5k.
        // Greedy takes qa (100), skips qb (550 would breach 600-100=500),
        // then takes qc (50).
        assert_eq!(picked, vec![("UCQ", 0), ("UCQ", 0)]);
        assert_eq!(report.advice[0].benefit_ns, 10_000_000);
        assert_eq!(report.advice[0].executions, 2);
        assert_eq!(report.advice[1].est_tuples, 50);
        assert_eq!(report.est_total_tuples, 150);
    }

    #[test]
    fn fragment_labels_parse_and_others_are_ignored() {
        assert_eq!(fragment_index("fragment[0].union"), Some(0));
        assert_eq!(fragment_index("fragment[12].view_scan"), Some(12));
        assert_eq!(fragment_index("fragment[0].sip_filter"), None);
        assert_eq!(fragment_index("shared_scan[0]"), None);
        assert_eq!(fragment_index("dedup"), None);
        assert_eq!(fragment_index("join[1].hash"), None);
    }

    #[test]
    fn multi_fragment_queries_yield_independent_candidates() {
        let log = vec![rec(
            "qm",
            "GCov",
            "ok",
            vec![
                ("fragment[0].union", 10, 4_000_000),
                ("fragment[1].union", 1_000_000, 1_000),
                ("dedup", 10, 50),
            ],
        )];
        let report = advise(&log, 100);
        // Only fragment 0 fits the budget; fragment 1 is a candidate
        // but far too large.
        assert_eq!(report.considered, 2);
        assert_eq!(report.advice.len(), 1);
        assert_eq!(report.advice[0].fragment, 0);
    }
}
