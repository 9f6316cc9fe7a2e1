//! The differential oracle.
//!
//! Theorem 3.1 says every valid cover of a CQ yields a JUCQ
//! reformulation with the same answers; §2 says reformulation over the
//! plain graph equals plain evaluation over the saturation. The oracle
//! makes both executable: saturation is ground truth, and UCQ, SCQ,
//! minimized UCQ, ECov, GCov, and explicitly enumerated fixed covers
//! must all reproduce it bit-for-bit on every engine profile under
//! test.
//!
//! Degenerate shapes are checked for *consistency* rather than skipped:
//! a disconnected (cartesian) body has no valid cover, so every
//! cover-based strategy must report a [`CoverError`] (never panic,
//! never return wrong rows); a zero-atom query has no answers under any
//! strategy.
//!
//! The cost model is held to its contract on the side: every enumerated
//! cover's estimate must be non-NaN and non-negative (infinity marks
//! infeasibility), and GCov may never return a cover it estimates worse
//! than the all-singletons cover it started from.

use std::time::Duration;

use jucq_core::{AnswerError, CostSource, RdfDatabase, Strategy};
use jucq_optimizer::{gcov, CoverSearch, PaperCostModel};
use jucq_reformulation::reformulate::ReformulationEnv;
use jucq_reformulation::{BgpQuery, Cover};
use jucq_store::{EngineProfile, PatternTerm, StorePattern};

use crate::gen::{GenCase, QTerm, QuerySpec};

/// Raise a profile's resource limits so only genuine engine behaviour
/// differences remain (join algorithms, materialization policy), never
/// budget-dependent refusals — the generated cases are tiny.
fn permissive(p: EngineProfile) -> EngineProfile {
    p.with_max_union_terms(2_000_000)
        .with_memory_budget(100_000_000)
        .with_timeout(Duration::from_secs(30))
}

/// The engine profiles a fuzz run exercises, by CLI name.
pub fn profiles_for(choice: &str) -> Option<Vec<EngineProfile>> {
    match choice {
        "all" => Some(EngineProfile::rdbms_trio().to_vec()),
        "pg" => Some(vec![EngineProfile::pg_like()]),
        "db2" => Some(vec![EngineProfile::db2_like()]),
        "mysql" => Some(vec![EngineProfile::mysql_like()]),
        _ => None,
    }
}

/// What one passing case actually exercised, for reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseStats {
    /// Strategy × profile answer runs compared.
    pub answers_checked: usize,
    /// Valid covers enumerated and run as `FixedCover`.
    pub covers_enumerated: usize,
    /// `RangeScan` / `RangeProbe` executions over the answers the
    /// named strategies and fixed covers returned: how much of the
    /// range-collapse kernels the case exercised.
    pub range_scans: u64,
}

/// The view-catalog tuple budget for the differential views leg, from
/// the `JUCQ_VIEWS` environment variable (the CI fuzz matrix sets it).
/// Absent, unparsable or `0` → the leg is skipped.
fn views_budget() -> Option<usize> {
    std::env::var("JUCQ_VIEWS").ok()?.trim().parse::<usize>().ok().filter(|b| *b > 0)
}

fn pattern_term(db: &mut RdfDatabase, t: &QTerm) -> PatternTerm {
    match t {
        QTerm::Var(v) => PatternTerm::Var(*v),
        QTerm::Term(t) => PatternTerm::Const(db.intern_term(t)),
    }
}

/// Encode the query spec against this database's dictionary. Constants
/// absent from the data are interned fresh (they then match nothing —
/// exactly the absent-vocabulary situation being tested).
fn build_query(db: &mut RdfDatabase, spec: &QuerySpec) -> BgpQuery {
    let atoms = spec
        .atoms
        .iter()
        .map(|a| {
            StorePattern::new(
                pattern_term(db, &a.s),
                pattern_term(db, &a.p),
                pattern_term(db, &a.o),
            )
        })
        .collect();
    BgpQuery::new(spec.head.clone(), atoms)
}

/// Decode and sort an answer relation into a canonical, dictionary-
/// independent form: databases built per profile need not agree on
/// term ids, only on terms.
fn canon_rows(db: &RdfDatabase, rows: &jucq_store::Relation) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> =
        db.decode_rows(rows).iter().map(|r| r.iter().map(|t| t.to_string()).collect()).collect();
    out.sort();
    out
}

/// All valid covers of `q`, by brute force over fragment families for
/// small queries (≤ 3 atoms: at most 2⁷ families) and a deterministic
/// sample of splits for 4-atom queries.
fn enumerate_covers(q: &BgpQuery) -> Vec<Cover> {
    let n = q.len();
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    if n <= 3 {
        let subsets: Vec<Vec<usize>> = (1u32..(1 << n))
            .map(|mask| (0..n).filter(|i| mask & (1 << i) != 0).collect())
            .collect();
        let m = subsets.len();
        for family_mask in 1u32..(1 << m) {
            let family: Vec<Vec<usize>> = (0..m)
                .filter(|j| family_mask & (1 << j) != 0)
                .map(|j| subsets[j].clone())
                .collect();
            if let Ok(c) = Cover::new(q, family) {
                out.push(c);
            }
        }
    } else {
        // 4 atoms: the trivial covers plus every two-way split.
        let mut candidates: Vec<Vec<Vec<usize>>> =
            vec![vec![(0..n).collect()], (0..n).map(|i| vec![i]).collect()];
        for mask in 1u32..(1 << (n - 1)) {
            let left: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            let right: Vec<usize> = (0..n).filter(|i| mask & (1 << i) == 0).collect();
            candidates.push(vec![left, right]);
        }
        for family in candidates {
            if let Ok(c) = Cover::new(q, family) {
                out.push(c);
            }
        }
    }
    out
}

fn named_strategies() -> Vec<Strategy> {
    vec![
        Strategy::Ucq,
        Strategy::Scq,
        Strategy::ECov { budget: Duration::from_secs(10), cost: CostSource::Paper },
        Strategy::GCov {
            budget: Duration::from_secs(10),
            max_moves: 10_000,
            cost: CostSource::Paper,
        },
    ]
}

/// Run the full differential matrix for one case over the default
/// engine-profile trio. `Err` carries a human-readable mismatch
/// description.
pub fn check_case(case: &GenCase) -> Result<CaseStats, String> {
    check_case_with(case, &EngineProfile::rdbms_trio())
}

/// [`check_case`] against an explicit profile list (the first profile's
/// saturation answer is ground truth).
pub fn check_case_with(case: &GenCase, profiles: &[EngineProfile]) -> Result<CaseStats, String> {
    let mut stats = CaseStats::default();
    let mut truth: Option<Vec<Vec<String>>> = None;

    for (pi, profile) in profiles.iter().enumerate() {
        let base = permissive(profile.clone());
        let mut db = RdfDatabase::with_profile(base.clone());
        db.extend(&case.triples);
        let q = build_query(&mut db, &case.query);

        // Ground truth: saturation.
        let sat = db
            .answer(&q, &Strategy::Saturation)
            .map_err(|e| format!("[{}] SAT failed: {e}", profile.name))?;
        let sat_rows = canon_rows(&db, &sat.rows);
        stats.answers_checked += 1;
        match &truth {
            None => truth = Some(sat_rows.clone()),
            Some(t) => {
                if *t != sat_rows {
                    return Err(format!(
                        "[{}] SAT disagrees across profiles: {} vs {} rows",
                        profile.name,
                        t.len(),
                        sat_rows.len()
                    ));
                }
            }
        }
        let truth_rows = truth.as_ref().expect("set above");

        // A body whose singleton fragments cannot form a cover is
        // disconnected (or empty-query, handled uniformly upstream):
        // cover strategies must consistently say so.
        let coverable = q.is_empty() || Cover::singletons(&q).is_ok();

        let covers = if coverable { enumerate_covers(&q) } else { Vec::new() };
        stats.covers_enumerated += covers.len();

        let run = |strategy: &Strategy,
                   label: &str,
                   db: &mut RdfDatabase,
                   stats: &mut CaseStats|
         -> Result<(), String> {
            let got = db.answer(&q, strategy);
            stats.answers_checked += 1;
            if coverable {
                let rep = got.map_err(|e| {
                    format!("[{}] {label} failed on a coverable query: {e}", profile.name)
                })?;
                stats.range_scans += rep.counters.range_scans;
                let rows = canon_rows(db, &rep.rows);
                if rows != *truth_rows {
                    return Err(format!(
                        "[{}] {label} answered {} rows, SAT answered {}:\n  {label}: {rows:?}\n  SAT: {truth_rows:?}",
                        profile.name,
                        rows.len(),
                        truth_rows.len()
                    ));
                }
            } else {
                match got {
                    Err(AnswerError::Cover(_)) => {}
                    Err(e) => {
                        return Err(format!(
                            "[{}] {label} on a disconnected query: expected a cover error, got {e}",
                            profile.name
                        ))
                    }
                    Ok(_) => {
                        return Err(format!(
                            "[{}] {label} on a disconnected query: expected a cover error, got an answer",
                            profile.name
                        ))
                    }
                }
            }
            Ok(())
        };

        for strategy in named_strategies() {
            run(&strategy, strategy.name(), &mut db, &mut stats)?;
        }

        // Theorem 3.1, literally: every enumerated valid cover answers
        // identically.
        for (ci, cover) in covers.iter().enumerate() {
            run(&Strategy::FixedCover(cover.clone()), &format!("Cover#{ci}"), &mut db, &mut stats)?;
        }

        // Materialized fragment views must be answer-invisible. With
        // `JUCQ_VIEWS=<budget>` in the environment (the CI fuzz matrix
        // dimension), load the case into a views-enabled database, pin
        // the query's cover fragments under each view-consulting
        // strategy, and demand the view-served answers still equal
        // ground truth. Once per case on the first profile.
        if pi == 0 {
            if let Some(budget) = views_budget() {
                let mut db_v = RdfDatabase::with_profile(base.clone());
                db_v.extend(&case.triples);
                db_v.enable_views(budget);
                let q_v = build_query(&mut db_v, &case.query);
                for strategy in [Strategy::Ucq, Strategy::gcov_default()] {
                    let label = format!("views/{}", strategy.name());
                    if coverable && !q_v.is_empty() {
                        db_v.pin_cover_fragments(&q_v, &strategy, None)
                            .map_err(|e| format!("[{}] {label} pin failed: {e}", profile.name))?;
                    }
                    let got = db_v.answer(&q_v, &strategy);
                    stats.answers_checked += 1;
                    if coverable {
                        let rep =
                            got.map_err(|e| format!("[{}] {label} failed: {e}", profile.name))?;
                        let rows = canon_rows(&db_v, &rep.rows);
                        if rows != *truth_rows {
                            return Err(format!(
                                "[{}] {label} answered {} rows, SAT answered {}:\n  {label}: {rows:?}\n  SAT: {truth_rows:?}",
                                profile.name,
                                rows.len(),
                                truth_rows.len()
                            ));
                        }
                    } else if !matches!(got, Err(AnswerError::Cover(_))) {
                        return Err(format!(
                            "[{}] {label} on a disconnected query: expected a cover error",
                            profile.name
                        ));
                    }
                }
            }
        }

        // Cost-model sanity, once per case on the first profile.
        if pi == 0 && coverable && !q.is_empty() {
            check_costs(&mut db, &q, &covers).map_err(|e| format!("[{}] {e}", profile.name))?;
        }
    }
    Ok(stats)
}

/// Assert the cost model's basic contract over every enumerated cover,
/// and that GCov's pick is estimated no worse than its all-singletons
/// starting point.
fn check_costs(db: &mut RdfDatabase, q: &BgpQuery, covers: &[Cover]) -> Result<(), String> {
    let constants = db.cost_constants();
    let closure = db.closure().clone();
    let rdf_type = db.rdf_type();
    let store = db.plain_store();
    let model = PaperCostModel::new(store.table(), store.stats(), constants);
    let env = ReformulationEnv { closure: &closure, rdf_type };
    let search = CoverSearch::new(q, env, &model);

    for (ci, cover) in covers.iter().enumerate() {
        let cost = search.cover_cost(cover);
        if cost.is_nan() {
            return Err(format!("cover #{ci} estimated NaN"));
        }
        if cost < 0.0 {
            return Err(format!("cover #{ci} estimated negative cost {cost}"));
        }
    }

    let singletons = Cover::singletons(q).map_err(|e| format!("singletons: {e:?}"))?;
    let baseline = search.cover_cost(&singletons);
    let picked =
        gcov(&search, Duration::from_secs(10), 10_000).map_err(|e| format!("gcov: {e:?}"))?;
    if picked.estimated_cost > baseline + 1e-9 {
        return Err(format!(
            "GCov chose a cover it estimates at {} — worse than the all-singletons baseline {}",
            picked.estimated_cost, baseline
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_case;

    #[test]
    fn enumerates_covers_of_a_two_atom_chain() {
        let case = GenCase::from_spec(
            &["i0 p0 i1", "i1 p1 i2"],
            &["?v0 p0 ?v1", "?v1 p1 ?v2"],
            &["?v0", "?v2"],
        );
        let mut db = RdfDatabase::new();
        db.extend(&case.triples);
        let q = build_query(&mut db, &case.query);
        let covers = enumerate_covers(&q);
        // Inclusion-free families only: {{0,1}} and {{0},{1}}.
        assert_eq!(covers.len(), 2);
    }

    #[test]
    fn oracle_accepts_a_handful_of_generated_cases() {
        for seed in 0..5u64 {
            let case = gen_case(seed);
            check_case_with(&case, &[EngineProfile::pg_like()])
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
