//! Calibration of the cost-model constants (§4.1, §5.1).
//!
//! "For each RDBMS, we instantiated the cost formulas introduced in
//! Section 4.1 with the proper coefficients, learned by running our
//! calibration queries on that system."
//!
//! The calibration workload measures, on the *actual* store under its
//! *actual* profile:
//!
//! 1. a no-match point query        → `c_db` (fixed overhead);
//! 2. two single-pattern scans of different sizes → the per-tuple
//!    scan+dedup slope, split between `c_t` and `c_l`;
//! 3. a two-atom join               → `c_j` (per input tuple);
//! 4. a two-fragment JUCQ           → `c_m` (per materialized tuple).
//!
//! `c_k` (disk-sort dedup) is derived from `c_l` — in-process sorting
//! is roughly log-factor-scaled hashing. The splits are heuristic;
//! what the optimizer needs is the *relative* order of cover costs,
//! which the slopes capture.

use std::time::Instant;

use jucq_store::{PatternTerm, Store, StoreCq, StoreJucq, StorePattern, StoreUcq};

use crate::cost::CostConstants;

/// Calibration predicates: the most and least frequent (well-separated
/// scan extents), plus a mid-size one (extent nearest 3 000) for the
/// fragment-join measurement — large enough for the join algorithms to
/// differ, small enough that even a quadratic join finishes promptly.
fn calibration_predicates(
    store: &Store,
) -> Option<(jucq_model::TermId, jucq_model::TermId, jucq_model::TermId)> {
    let table = store.table();
    let mut preds: Vec<(usize, jucq_model::TermId)> = Vec::new();
    let mut seen = jucq_model::FxHashSet::default();
    for t in table.all() {
        if seen.insert(t.p) {
            preds.push((table.count(&[None, Some(t.p), None]), t.p));
        }
    }
    preds.sort_unstable();
    let &(_, small) = preds.first()?;
    let &(_, large) = preds.last()?;
    let &(_, mid) = preds.iter().min_by_key(|(n, _)| n.abs_diff(3_000)).expect("non-empty");
    Some((large, small, mid))
}

fn time_jucq(store: &Store, q: &StoreJucq, repeats: u32) -> f64 {
    // Warm-up run, then the average of `repeats` (the paper averages
    // over 3 warm executions).
    let _ = store.eval_jucq(q);
    let started = Instant::now();
    for _ in 0..repeats {
        let _ = store.eval_jucq(q);
    }
    started.elapsed().as_secs_f64() / f64::from(repeats)
}

/// Learn cost constants for `store` under its current profile.
/// Falls back to [`CostConstants::default`] on degenerate stores
/// (empty, or a single predicate).
pub fn calibrate(store: &Store) -> CostConstants {
    let mut out = CostConstants::default();
    let Some((big_pred, small_pred, join_pred)) = calibration_predicates(store) else {
        return out;
    };
    let table = store.table();

    let scan_q = |p: jucq_model::TermId| -> StoreJucq {
        let cq = StoreCq::with_var_head(
            vec![StorePattern::new(
                PatternTerm::Var(0),
                PatternTerm::Const(p),
                PatternTerm::Var(1),
            )],
            vec![0, 1],
        );
        StoreJucq::from_ucq(StoreUcq::new(vec![cq], vec![0, 1]))
    };

    let n_big = table.count(&[None, Some(big_pred), None]) as f64;
    let n_small = table.count(&[None, Some(small_pred), None]) as f64;

    // (1) c_db: a query whose extent is empty in O(log n).
    let missing = {
        // A (s, p, o) combination guaranteed absent: swap a subject in
        // as the property of the small predicate's first triple.
        let cq = StoreCq::with_var_head(
            vec![StorePattern::new(
                PatternTerm::Var(0),
                PatternTerm::Const(big_pred),
                PatternTerm::Const(big_pred),
            )],
            vec![0],
        );
        StoreJucq::from_ucq(StoreUcq::new(vec![cq], vec![0]))
    };
    let t_db = time_jucq(store, &missing, 5);
    out.c_db = t_db.max(1e-9);

    // (2) per-tuple scan slope from two scans.
    if n_big > n_small && n_big > 0.0 {
        let t_big = time_jucq(store, &scan_q(big_pred), 3);
        let t_small = time_jucq(store, &scan_q(small_pred), 3);
        let slope = ((t_big - t_small) / (n_big - n_small)).max(1e-10);
        // The scan pipeline touches each tuple ~once for the scan and
        // ~twice for dedup (union + final); split accordingly.
        out.c_t = slope / 3.0;
        out.c_l = slope / 3.0;
        out.c_k = out.c_l / 8.0;
    }

    // (3) c_j from a *fragment-level* join of two big scans — the
    // operation where the emulated engines genuinely differ (hash vs
    // block-nested-loop, and the materialize-all-unions policy), run
    // with the profile's own join as every workload join is. This is
    // what makes the learned constants per-engine, as the paper
    // requires: a nested-loop engine calibrates a c_j orders of
    // magnitude larger, steering the optimizer toward covers with
    // small fragment results on that engine.
    {
        let scan_frag = |obj_var: u16| {
            StoreUcq::new(
                vec![StoreCq::with_var_head(
                    vec![StorePattern::new(
                        PatternTerm::Var(0),
                        PatternTerm::Const(join_pred),
                        PatternTerm::Var(obj_var),
                    )],
                    vec![0, obj_var],
                )],
                vec![0, obj_var],
            )
        };
        let n_join = table.count(&[None, Some(join_pred), None]) as f64;
        let t_scan = time_jucq(store, &StoreJucq::from_ucq(scan_frag(1)), 3);
        let q = StoreJucq::new(vec![scan_frag(1), scan_frag(2)], vec![0]);
        let t_join = time_jucq(store, &q, 3);
        let inputs = (2.0 * n_join).max(1.0);
        let extra = (t_join - 2.0 * t_scan - out.c_db).max(0.0);
        out.c_j = (extra / inputs).max(out.c_t * 0.1).max(1e-10);
    }
    // A collapsed range scan streams the same tuples without the
    // per-member union setup or dedup pressure — price it at a quarter
    // of the per-member rate, mirroring the defaults' ratio.
    out.c_range = (out.c_t + out.c_j) / 4.0;

    // (4) c_m from a two-fragment JUCQ of the same atoms, as the
    // *difference* to the single-CQ plan (the extra work is the
    // materialization of the smaller fragment plus per-fragment
    // dedup). The measurement is noisy at calibration scale, so the
    // result is clamped to a plausible multiple of the scan cost — a
    // materialized copy costs about as much as a scan.
    {
        let one_cq = StoreCq::with_var_head(
            vec![
                StorePattern::new(
                    PatternTerm::Var(0),
                    PatternTerm::Const(big_pred),
                    PatternTerm::Var(1),
                ),
                StorePattern::new(
                    PatternTerm::Var(0),
                    PatternTerm::Const(small_pred),
                    PatternTerm::Var(2),
                ),
            ],
            vec![0],
        );
        let q_one = StoreJucq::from_ucq(StoreUcq::new(vec![one_cq], vec![0]));
        let t_one = time_jucq(store, &q_one, 3);
        let fa = StoreUcq::new(
            vec![StoreCq::with_var_head(
                vec![StorePattern::new(
                    PatternTerm::Var(0),
                    PatternTerm::Const(big_pred),
                    PatternTerm::Var(1),
                )],
                vec![0],
            )],
            vec![0],
        );
        let fb = StoreUcq::new(
            vec![StoreCq::with_var_head(
                vec![StorePattern::new(
                    PatternTerm::Var(0),
                    PatternTerm::Const(small_pred),
                    PatternTerm::Var(2),
                )],
                vec![0],
            )],
            vec![0],
        );
        let q = StoreJucq::new(vec![fa, fb], vec![0]);
        let t_two = time_jucq(store, &q, 3);
        let extra_tuples = (n_big + n_small).max(1.0);
        let raw = (t_two - t_one).max(0.0) / extra_tuples;
        out.c_m = raw.clamp(out.c_t * 0.25, out.c_t * 3.0);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::term::TermKind;
    use jucq_model::{TermId, TripleId};
    use jucq_store::EngineProfile;

    fn id(i: u32) -> TermId {
        TermId::new(TermKind::Uri, i)
    }

    fn store() -> Store {
        let mut triples = Vec::new();
        for i in 0..5000u32 {
            triples.push(TripleId::new(id(i), id(1_000_000), id(i % 97)));
        }
        for i in 0..50u32 {
            triples.push(TripleId::new(id(i), id(1_000_001), id(7)));
        }
        Store::from_triples(&triples, EngineProfile::pg_like())
    }

    #[test]
    fn calibration_yields_positive_constants() {
        let c = calibrate(&store());
        assert!(c.c_db > 0.0);
        assert!(c.c_t > 0.0);
        assert!(c.c_j > 0.0);
        assert!(c.c_m > 0.0);
        assert!(c.c_l > 0.0);
        assert!(c.c_k > 0.0);
    }

    #[test]
    fn empty_store_falls_back_to_defaults() {
        let s = Store::from_triples(&[], EngineProfile::pg_like());
        assert_eq!(calibrate(&s), CostConstants::default());
    }

    #[test]
    fn predicates_picked_by_extent() {
        let s = store();
        let (big, small, _mid) = calibration_predicates(&s).unwrap();
        assert_eq!(big, id(1_000_000));
        assert_eq!(small, id(1_000_001));
    }
}
