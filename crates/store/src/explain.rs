//! `EXPLAIN` — human-readable plan rendering.
//!
//! The paper's Figure 9 harness extracts cost estimates from Postgres
//! `EXPLAIN` output; this module is our engine's equivalent: a textual
//! plan for a JUCQ showing admission, per-fragment shapes and
//! estimates, the join algorithm, and the materialization decision.

use std::fmt::Write as _;

use crate::error::EngineError;
use crate::internal_cost;
use crate::ir::StoreJucq;
use crate::plan::{Plan, Planner, TermNameResolver};
use crate::Store;

/// Estimated peak materialized intermediate, in tuples, of a plan whose
/// fragments are estimated at `rows`: the larger of the biggest single
/// fragment (each union accumulates its distinct rows) and the sum of
/// the fragments materialized for the join (all but the largest, §4.1).
fn est_peak_materialized(rows: &[f64]) -> f64 {
    let per_fragment_peak = rows.iter().copied().fold(0.0, f64::max);
    let materialized_sum =
        if rows.len() > 1 { rows.iter().sum::<f64>() - per_fragment_peak } else { 0.0 };
    per_fragment_peak.max(materialized_sum)
}

/// The plan's own row estimate of fragment `i`'s union: the summary of
/// its rewritten members (0 for a plan folded to `Empty`).
fn fragment_rows(plan: &Plan, i: usize) -> f64 {
    let label = format!("fragment[{i}].union");
    plan.estimates.iter().find(|(l, _)| *l == label).map_or(0.0, |e| e.1)
}

/// Render the evaluation plan for `q` under the store's profile.
pub fn explain(store: &Store, q: &StoreJucq) -> String {
    explain_plan(store, q, None, None)
}

/// [`explain`] of an already-lowered `plan` — the one a caller is about
/// to run: its cached plan, or one lowered against a view catalog — and
/// with a term-name resolver: `RangeScan` nodes additionally print the
/// decoded name of the class or property whose subtree interval they
/// scan. The store itself has no dictionary, so the resolver is
/// injected by the calling layer. Without a `plan`, an admitted `q` is
/// lowered here.
pub fn explain_plan(
    store: &Store,
    q: &StoreJucq,
    plan: Option<&Plan>,
    names: Option<&TermNameResolver<'_>>,
) -> String {
    let profile = store.profile();
    let stats = store.stats();
    let table = store.table();
    let mut out = String::new();

    let terms = q.union_terms();
    let _ = writeln!(out, "JUCQ: {} fragment(s), {} union term(s)", q.fragments.len(), terms);
    if terms > profile.max_union_terms {
        let _ = writeln!(
            out,
            "ADMISSION: REJECTED — union of {terms} terms exceeds the {} limit ({}) \
             (constraint: max_union_terms)",
            profile.max_union_terms, profile.name
        );
        return out;
    }
    let _ = writeln!(out, "ADMISSION: accepted under profile `{}`", profile.name);

    // The physical plan the executor will actually run (rewrite passes
    // applied, join orders fixed, shared scans factored). Every estimate
    // printed below is the plan's own.
    let lowered;
    let plan = match plan {
        Some(plan) => plan,
        None => {
            lowered = Planner::new(table, stats, profile).plan(q);
            &lowered
        }
    };
    let rows: Vec<f64> = (0..q.fragments.len()).map(|i| fragment_rows(plan, i)).collect();
    // Admission only checks the union width; the budget is enforced on
    // the tuples a run actually holds.
    let _ = writeln!(
        out,
        "  Memory: est. peak materialized intermediate {:.0} tuples \
         (budget {}, enforced on actual tuples at run time)",
        est_peak_materialized(&rows),
        profile.memory_budget_tuples
    );

    let volumes: Vec<f64> = q
        .fragments
        .iter()
        .map(|u| {
            u.cqs
                .iter()
                .flat_map(|cq| cq.patterns.iter())
                .map(|p| stats.pattern_card(table, p) as f64)
                .sum()
        })
        .collect();
    for (i, frag) in q.fragments.iter().enumerate() {
        let pipelined = Some(i) == plan.pipelined;
        let _ = writeln!(
            out,
            "  Fragment {i}: {} member CQ(s), head {:?}, scan volume {:.0}, est. rows {:.0}{}",
            frag.len(),
            frag.head,
            volumes[i],
            rows[i],
            if q.fragments.len() <= 1 {
                ""
            } else if pipelined {
                "  [pipelined]"
            } else {
                "  [materialized]"
            },
        );
        for (k, cq) in frag.cqs.iter().take(3).enumerate() {
            let shape: Vec<String> = cq.patterns.iter().map(ToString::to_string).collect();
            let _ = writeln!(out, "    member {k}: {}", shape.join(" ⋈ "));
        }
        if frag.len() > 3 {
            let _ = writeln!(out, "    … {} more members", frag.len() - 3);
        }
    }
    if q.fragments.len() > 1 {
        let _ = writeln!(out, "  Fragment join: {:?}", profile.fragment_join);
    }
    let _ = writeln!(
        out,
        "  Final: project {:?}, dedup; est. result {:.0} rows",
        q.head,
        plan.join_order.last().map_or(0.0, |step| step.est_rows)
    );
    let _ = writeln!(out, "  Internal cost estimate: {:.1}", internal_cost::estimate(store, q));
    out.push_str(&render_physical_plan(plan, names));
    out
}

/// The `Physical plan` section of [`explain_plan`]: the operator tree
/// with at most three members shown per union.
pub fn render_physical_plan(plan: &Plan, names: Option<&TermNameResolver<'_>>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "  Physical plan ({} node(s)):", plan.node_count());
    for line in plan.render_with(3, names).lines() {
        let _ = writeln!(out, "    {line}");
    }
    out
}

/// Format a nanosecond duration with a unit fitting its magnitude.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// `EXPLAIN ANALYZE` — run `q` with per-node profiling and render each
/// plan node's estimated vs. actual output rows with its Q-error
/// (`max(est/actual, actual/est)`, both clamped to ≥ 1 row). Errors
/// surface exactly as in [`Store::eval_jucq`] (rejection, timeout, …).
pub fn explain_analyze(store: &Store, q: &StoreJucq) -> Result<String, EngineError> {
    let (outcome, exec_profile) = store.eval_jucq_profiled(q)?;
    Ok(render_analyze_report(
        &store.profile().name,
        q.fragments.len(),
        q.union_terms(),
        outcome.relation.len(),
        outcome.elapsed.as_nanos() as u64,
        &outcome.counters,
        &exec_profile,
    ))
}

/// Render the `EXPLAIN ANALYZE` report from an already-collected
/// profiled run, without re-executing anything. Shared by
/// [`explain_analyze`] and the query log's slow-query path (which
/// already holds the [`crate::ExecProfile`] of the run that breached
/// the threshold).
pub fn render_analyze_report(
    profile_name: &str,
    fragments: usize,
    union_terms: usize,
    rows: usize,
    elapsed_ns: u64,
    counters: &crate::exec::Counters,
    exec_profile: &crate::ExecProfile,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "EXPLAIN ANALYZE under profile `{profile_name}` \
         ({fragments} fragment(s), {union_terms} union term(s))",
    );
    let _ = writeln!(
        out,
        "  {:<34} {:>12} {:>12} {:>8} {:>10} {:>6}  join: left × right → out",
        "node", "est. rows", "actual rows", "Q-error", "time", "calls"
    );
    for node in &exec_profile.nodes {
        let est = node.est_rows.map_or_else(|| "-".to_string(), |e| format!("{e:.0}"));
        let qerr = node.q_error().map_or_else(|| "-".to_string(), |e| format!("{e:.2}"));
        // A join row ends with what it was handed, so a step that
        // outputs more than both inputs shows without arithmetic.
        let inputs = node
            .inputs
            .map(|(l, r)| format!("  {l} × {r} → {}", node.actual_rows))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  {:<34} {:>12} {:>12} {:>8} {:>10} {:>6}{inputs}",
            node.label,
            est,
            node.actual_rows,
            qerr,
            fmt_ns(node.elapsed_ns),
            node.invocations
        );
    }
    let _ = writeln!(out, "  Total: {rows} row(s) in {}", fmt_ns(elapsed_ns));
    let _ = writeln!(
        out,
        "  Counters: scanned {}, joined {}, materialized {}, deduped {}, \
         sip probed {}, sip dropped {}",
        counters.tuples_scanned,
        counters.tuples_joined,
        counters.tuples_materialized,
        counters.tuples_deduped,
        counters.sip_probes,
        counters.sip_drops
    );
    let _ = writeln!(
        out,
        "  Ordering: sorts elided {}, gallop seeks {}, rows borrowed {}, rows reserved {}, \
         index probes {}, probe reseeks {}",
        counters.sorts_elided,
        counters.gallop_seeks,
        counters.scan_rows_borrowed,
        counters.rows_reserved,
        counters.index_probes,
        counters.probe_reseeks
    );
    if !exec_profile.sip.is_empty() {
        let _ = writeln!(out, "  SIP filters:");
        for f in &exec_profile.sip {
            let pct = if f.probes > 0 { 100.0 * f.drops as f64 / f.probes as f64 } else { 0.0 };
            let stages: Vec<String> =
                f.stages.iter().map(|(stage, members)| format!("{stage} ×{members}")).collect();
            let _ = writeln!(
                out,
                "    {}: probed {}, dropped {} ({pct:.0}% dropped before the join); ran {}",
                f.label,
                f.probes,
                f.drops,
                if stages.is_empty() { "nowhere".to_string() } else { stages.join(", ") }
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{PatternTerm, StoreCq, StorePattern, StoreUcq, VarId};
    use crate::profile::EngineProfile;
    use jucq_model::term::TermKind;
    use jucq_model::{TermId, TripleId};

    fn id(i: u32) -> TermId {
        TermId::new(TermKind::Uri, i)
    }

    fn store() -> Store {
        let triples: Vec<TripleId> =
            (0..20).map(|i| TripleId::new(id(i), id(100), id(i % 3))).collect();
        Store::from_triples(&triples, EngineProfile::pg_like())
    }

    fn v(i: VarId) -> PatternTerm {
        PatternTerm::Var(i)
    }

    fn sample_jucq(members: usize) -> StoreJucq {
        let member = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), PatternTerm::Const(id(100)), v(1))],
            vec![0, 1],
        );
        let fa = StoreUcq::new(vec![member; members], vec![0, 1]);
        let fb = StoreUcq::new(
            vec![StoreCq::with_var_head(
                vec![StorePattern::new(v(0), PatternTerm::Const(id(100)), v(2))],
                vec![0, 2],
            )],
            vec![0, 2],
        );
        StoreJucq::new(vec![fa, fb], vec![0, 1, 2])
    }

    #[test]
    fn explains_accepted_plans() {
        let s = store();
        let text = explain(&s, &sample_jucq(2));
        assert!(text.contains("ADMISSION: accepted"));
        assert!(text.contains("Fragment 0"));
        assert!(text.contains("Fragment join"));
        assert!(text.contains("Internal cost estimate"));
        assert!(text.contains("[pipelined]"));
        assert!(text.contains("[materialized]"));
        // The chosen fragment join order is printed once, with the key
        // and the estimate of each step (equal estimates: lower index).
        assert_eq!(text.matches("Fragment join order:").count(), 1, "{text}");
        assert!(text.contains("Fragment join order: f0 (est 20.0) ⋈[?0] f1 → est 20.0"), "{text}");
    }

    #[test]
    fn explain_renders_the_physical_plan_tree() {
        let s = store();
        let text = explain(&s, &sample_jucq(2));
        assert!(text.contains("Physical plan"), "{text}");
        assert!(text.contains("Dedup"), "{text}");
        assert!(text.contains("HashUnion fragment[0]"), "{text}");
        assert!(text.contains("IndexScan"), "{text}");
        // The duplicate member of fragment 0 was eliminated by the
        // dedup_members pass: the rendered union has a single member.
        assert!(text.contains("— 1 member"), "{text}");
    }

    #[test]
    fn explains_rejections() {
        let mut s = store();
        s.set_profile(EngineProfile::pg_like().with_max_union_terms(1));
        let text = explain(&s, &sample_jucq(5));
        assert!(text.contains("REJECTED"));
        assert!(text.contains("constraint: max_union_terms"), "{text}");
        assert!(!text.contains("Fragment 0"), "no plan detail after rejection");
    }

    #[test]
    fn explains_the_memory_budget_as_a_run_time_limit() {
        // Five copies of one member: their sum estimates 100 rows, but
        // the plan runs one member, estimated — and holding — 20 tuples.
        // Under a budget between the two, explain accepts the plan the
        // engine runs.
        let mut s = store();
        let member = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), PatternTerm::Const(id(100)), v(1))],
            vec![0, 1],
        );
        let q = StoreJucq::from_ucq(StoreUcq::new(vec![member; 5], vec![0, 1]));
        s.set_profile(EngineProfile::pg_like().with_memory_budget(50));
        let text = explain(&s, &q);
        assert!(text.contains("ADMISSION: accepted"), "{text}");
        assert!(!text.contains("REJECTED"), "{text}");
        assert!(text.contains("Memory: est. peak materialized intermediate 20 tuples"), "{text}");
        assert!(text.contains("est. rows 20"), "{text}");
        assert!(text.contains("est. result 20 rows"), "{text}");
        assert_eq!(s.eval_jucq(&q).unwrap().relation.len(), 20);
        // Below the actual peak the run fails; explain still only
        // estimates, because admission never looks at the budget.
        s.set_profile(EngineProfile::pg_like().with_memory_budget(3));
        let text = explain(&s, &q);
        assert!(text.contains("ADMISSION: accepted"), "{text}");
        assert!(text.contains("(budget 3, enforced on actual tuples at run time)"), "{text}");
        assert!(matches!(s.eval_jucq(&q), Err(EngineError::MemoryBudgetExceeded { .. })));
    }

    #[test]
    fn explain_analyze_reports_q_errors_per_node() {
        let s = store();
        let text = explain_analyze(&s, &sample_jucq(2)).unwrap();
        assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
        assert!(text.contains("Q-error"), "{text}");
        assert!(text.contains("fragment[0].union"), "{text}");
        assert!(text.contains("join[0].sort_merge_join"), "{text}");
        // The join row shows both input sizes next to its output.
        let join_row = text.lines().find(|l| l.contains("join[0].sort_merge_join")).unwrap();
        assert!(join_row.ends_with("20 × 20 → 20"), "{join_row}");
        assert!(text.contains("dedup"), "{text}");
        assert!(text.contains("Total:"), "{text}");
        assert!(text.contains("Counters: scanned"), "{text}");
        assert!(text.contains("sip probed"), "{text}");
        // The planner's merge elides both sorts and the driver borrows
        // the single-member fragments' scan rows straight through.
        assert!(text.contains("Ordering: sorts elided 2"), "{text}");
        assert!(text.contains("rows borrowed"), "{text}");
        // The two fragments join on ?0, so a SIP filter ran and its
        // selectivity is reported.
        assert!(text.contains("SIP filters:"), "{text}");
        assert!(text.contains(".sip_filter: probed"), "{text}");
        // Single-atom members bind the key in their leaf scan.
        assert!(text.contains("; ran at scan ×1"), "{text}");
        assert!(text.contains("index probes 0, probe reseeks 0"), "{text}");
    }

    #[test]
    fn explain_analyze_surfaces_rejections_as_errors() {
        let mut s = store();
        s.set_profile(EngineProfile::pg_like().with_max_union_terms(1));
        assert!(matches!(
            explain_analyze(&s, &sample_jucq(5)),
            Err(EngineError::UnionTooLarge { .. })
        ));
    }

    #[test]
    fn truncates_long_unions() {
        let s = store();
        let text = explain(&s, &sample_jucq(10));
        assert!(text.contains("… 7 more members"));
    }
}
