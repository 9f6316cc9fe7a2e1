//! Joins of materialized relations (the ⋈ between JUCQ fragments).
//!
//! Two algorithms, selected by the engine profile: hash join (build on
//! the smaller side) and block-nested-loop join (the deliberately weak
//! algorithm of the MySQL-like profile). Both compute the natural join
//! on the variables shared by the two schemas; with no shared variable
//! they degrade to a cartesian product.

use jucq_model::{FxHashMap, TermId};

use crate::error::EngineError;
use crate::exec::{ExecContext, BATCH_ROWS};
use crate::ir::VarId;
use crate::profile::JoinAlgo;
use crate::relation::{hash_cols, Relation};

/// Rows of output capacity to reserve for a cardinality estimate,
/// clamped so a wild over-estimate cannot allocate unboundedly ahead of
/// the first memory check.
pub(crate) fn reserve_rows(est: Option<f64>) -> usize {
    const MAX_RESERVE: usize = 1 << 20;
    est.map(|e| (e.max(0.0) as usize).min(MAX_RESERVE)).unwrap_or(0)
}

/// An output relation pre-sized from the plan estimate, recording the
/// reservation so reserved-vs-actual can be compared downstream.
fn sized_output(vars: Vec<VarId>, est: Option<f64>, ctx: &mut ExecContext<'_>) -> Relation {
    let reserve = reserve_rows(est);
    ctx.counters.rows_reserved += reserve as u64;
    Relation::with_capacity(vars, reserve)
}

/// Join `left` and `right` with `algo` (the plan's fragment-join
/// algorithm, the profile's at planning time); `est` is the step's
/// estimated output rows, used to pre-size a hash join's result.
pub fn fragment_join(
    algo: JoinAlgo,
    left: &Relation,
    right: &Relation,
    est: Option<f64>,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    let op = ctx.op_start();
    let out = match algo {
        JoinAlgo::Hash => hash_join(left, right, est, ctx),
        JoinAlgo::BlockNestedLoop => block_nested_loop_join(left, right, ctx),
    }?;
    let inputs = (left.len() as u64, right.len() as u64);
    ctx.op_finish_join(op, op_name(algo), inputs, out.len() as u64);
    Ok(out)
}

/// Stable operator name for a join algorithm, used in node labels.
pub fn op_name(algo: JoinAlgo) -> &'static str {
    match algo {
        JoinAlgo::Hash => "hash_join",
        JoinAlgo::BlockNestedLoop => "block_nested_loop_join",
    }
}

/// The join plan shared by all algorithms: key columns on both sides and
/// the output schema (left columns ++ right non-key columns).
struct JoinPlan {
    left_key: Vec<usize>,
    right_key: Vec<usize>,
    right_carry: Vec<usize>,
    out_vars: Vec<VarId>,
}

fn plan(left: &Relation, right: &Relation) -> JoinPlan {
    let shared: Vec<VarId> =
        left.vars().iter().copied().filter(|v| right.column_of(*v).is_some()).collect();
    let left_key: Vec<usize> =
        shared.iter().map(|v| left.column_of(*v).expect("shared var")).collect();
    let right_key: Vec<usize> =
        shared.iter().map(|v| right.column_of(*v).expect("shared var")).collect();
    let right_carry: Vec<usize> = right
        .vars()
        .iter()
        .enumerate()
        .filter(|(_, v)| !shared.contains(v))
        .map(|(i, _)| i)
        .collect();
    let mut out_vars = left.vars().to_vec();
    out_vars.extend(right_carry.iter().map(|&i| right.vars()[i]));
    JoinPlan { left_key, right_key, right_carry, out_vars }
}

#[inline]
fn keys_equal(a: &[TermId], a_cols: &[usize], b: &[TermId], b_cols: &[usize]) -> bool {
    a_cols.iter().zip(b_cols).all(|(&ac, &bc)| a[ac] == b[bc])
}

/// Hash join: build a table on the smaller input, probe with the larger.
/// The build table is keyed by u64 key hashes (bucket entries verified
/// against the actual key columns on probe) instead of one allocated key
/// per row; bucket candidates are stored in build order, so each probe
/// row emits its matches in build order. Output is pre-sized from the
/// estimate `est` and flushed a batch at a time.
pub fn hash_join(
    left: &Relation,
    right: &Relation,
    est: Option<f64>,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    ctx.check_deadline()?;
    let p = plan(left, right);
    let mut out = sized_output(p.out_vars.clone(), est, ctx);
    if left.is_empty() || right.is_empty() {
        return Ok(out);
    }
    // Build on the smaller side; probe from the larger. We always emit
    // rows as (left ++ right-carry), so the build/probe choice only
    // affects which side is hashed.
    let build_left = left.len() <= right.len();
    let (build, probe) = if build_left { (left, right) } else { (right, left) };
    let (build_key, probe_key) =
        if build_left { (&p.left_key, &p.right_key) } else { (&p.right_key, &p.left_key) };
    let mut table: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    table.reserve(build.len());
    for (i, row) in build.rows().enumerate() {
        table.entry(hash_cols(row, build_key)).or_default().push(i as u32);
    }
    ctx.tick_n(build.len() as u64)?;
    ctx.counters.tuples_materialized += build.len() as u64;
    ctx.check_memory(build.len())?;

    let width = out.width();
    let zero_width = width == 0;
    let mut flat: Vec<TermId> = Vec::with_capacity(BATCH_ROWS * width);
    let mut pending: u64 = 0;
    for prow in probe.rows() {
        pending += 1;
        if let Some(cands) = table.get(&hash_cols(prow, probe_key)) {
            for &bi in cands {
                let brow = build.row(bi as usize);
                if !keys_equal(brow, build_key, prow, probe_key) {
                    continue;
                }
                pending += 1;
                ctx.counters.tuples_joined += 1;
                let (lrow, rrow) = if build_left { (brow, prow) } else { (prow, brow) };
                if zero_width {
                    out.push_row(&[]);
                } else {
                    flat.extend_from_slice(lrow);
                    flat.extend(p.right_carry.iter().map(|&i| rrow[i]));
                }
            }
        }
        if pending >= BATCH_ROWS as u64 {
            ctx.tick_n(pending)?;
            pending = 0;
            out.flush_from(&mut flat);
            ctx.check_memory(out.len())?;
        }
    }
    ctx.tick_n(pending)?;
    out.flush_from(&mut flat);
    ctx.check_memory(out.len())?;
    Ok(out)
}

/// Block-nested-loop join: compare every pair of rows. Quadratic by
/// design — the weak spot of the MySQL-like profile.
pub fn block_nested_loop_join(
    left: &Relation,
    right: &Relation,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    ctx.check_deadline()?;
    let p = plan(left, right);
    let mut out = Relation::empty(p.out_vars.clone());
    let width = out.width();
    let zero_width = width == 0;
    let mut flat: Vec<TermId> = Vec::with_capacity(BATCH_ROWS * width);
    let mut pending: u64 = 0;
    for lrow in left.rows() {
        for rrow in right.rows() {
            pending += 1;
            if keys_equal(lrow, &p.left_key, rrow, &p.right_key) {
                ctx.counters.tuples_joined += 1;
                if zero_width {
                    out.push_row(&[]);
                } else {
                    flat.extend_from_slice(lrow);
                    flat.extend(p.right_carry.iter().map(|&i| rrow[i]));
                }
            }
            if pending >= BATCH_ROWS as u64 {
                ctx.tick_n(pending)?;
                pending = 0;
                out.flush_from(&mut flat);
            }
        }
        // The budget is enforced once per outer row, counting the rows
        // still waiting in the batch buffer.
        ctx.check_memory(out.len() + flat.len() / width.max(1))?;
    }
    ctx.tick_n(pending)?;
    out.flush_from(&mut flat);
    ctx.check_memory(out.len())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::EngineProfile;
    use crate::table::gallop_to;
    use jucq_model::term::TermKind;
    use std::time::Duration;

    fn id(i: u32) -> TermId {
        TermId::new(TermKind::Uri, i)
    }

    fn rel(vars: Vec<VarId>, rows: &[&[u32]]) -> Relation {
        let mut r = Relation::empty(vars);
        for row in rows {
            let ids: Vec<TermId> = row.iter().map(|&x| id(x)).collect();
            r.push_row(&ids);
        }
        r
    }

    const ALGOS: [JoinAlgo; 2] = [JoinAlgo::Hash, JoinAlgo::BlockNestedLoop];

    fn all_algos(left: &Relation, right: &Relation) -> Vec<Relation> {
        let profile = EngineProfile::pg_like();
        let mut out = Vec::new();
        for algo in ALGOS {
            let mut ctx = ExecContext::new(&profile);
            let mut r = fragment_join(algo, left, right, None, &mut ctx).expect("join succeeds");
            r.sort();
            out.push(r);
        }
        out
    }

    #[test]
    fn natural_join_on_one_shared_var() {
        let l = rel(vec![0, 1], &[&[1, 10], &[2, 20], &[3, 30]]);
        let r = rel(vec![1, 2], &[&[10, 100], &[10, 101], &[30, 300]]);
        let results = all_algos(&l, &r);
        for res in &results {
            assert_eq!(res.vars(), &[0, 1, 2]);
            assert_eq!(
                res.to_rows(),
                vec![
                    vec![id(1), id(10), id(100)],
                    vec![id(1), id(10), id(101)],
                    vec![id(3), id(30), id(300)],
                ]
            );
        }
    }

    #[test]
    fn join_on_two_shared_vars() {
        let l = rel(vec![0, 1], &[&[1, 2], &[1, 3]]);
        let r = rel(vec![0, 1, 2], &[&[1, 2, 9], &[1, 4, 8]]);
        for res in all_algos(&l, &r) {
            assert_eq!(res.to_rows(), vec![vec![id(1), id(2), id(9)]]);
        }
    }

    #[test]
    fn disjoint_schemas_give_cartesian_product() {
        let l = rel(vec![0], &[&[1], &[2]]);
        let r = rel(vec![1], &[&[7], &[8]]);
        for res in all_algos(&l, &r) {
            assert_eq!(res.len(), 4);
        }
    }

    #[test]
    fn one_equal_key_run_spanning_batches() {
        // No shared variable: the whole product is one bucket of the hash
        // table — 3000 rows emitted without leaving it.
        let lrows: Vec<Vec<u32>> = (0..60).map(|i| vec![i]).collect();
        let rrows: Vec<Vec<u32>> = (0..50).map(|i| vec![100 + i]).collect();
        let l = rel(vec![0], &lrows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let r = rel(vec![1], &rrows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        assert!(l.len() * r.len() > 2 * BATCH_ROWS);
        let expect: Vec<Vec<TermId>> =
            (0..60).flat_map(|a| (0..50).map(move |b| vec![id(a), id(100 + b)])).collect();
        for res in all_algos(&l, &r) {
            assert_eq!(res.to_rows(), expect);
        }
    }

    #[test]
    fn zero_width_inputs_join_to_presence_markers() {
        // Boolean ⋈ boolean: no columns to gather, one marker per pair.
        let mut l = Relation::empty(vec![]);
        let mut r = Relation::empty(vec![]);
        for _ in 0..3 {
            l.push_row(&[]);
        }
        for _ in 0..2 {
            r.push_row(&[]);
        }
        for res in all_algos(&l, &r) {
            assert_eq!(res.width(), 0);
            assert_eq!(res.len(), 6);
        }
    }

    #[test]
    fn empty_inputs_give_empty_output() {
        let l = rel(vec![0, 1], &[]);
        let r = rel(vec![1], &[&[7]]);
        for res in all_algos(&l, &r) {
            assert!(res.is_empty());
            assert_eq!(res.vars(), &[0, 1]);
        }
    }

    #[test]
    fn duplicates_multiply() {
        let l = rel(vec![0], &[&[1], &[1]]);
        let r = rel(vec![0, 1], &[&[1, 5], &[1, 5]]);
        for res in all_algos(&l, &r) {
            assert_eq!(res.len(), 4, "bag semantics: 2×2 matches");
        }
    }

    #[test]
    fn counters_consistent_across_algorithms() {
        let l = rel(vec![0, 1], &[&[1, 10], &[2, 20], &[3, 30]]);
        let r = rel(vec![1, 2], &[&[10, 100], &[10, 101], &[30, 300], &[40, 400]]);
        let profile = EngineProfile::pg_like();
        let mut joined = Vec::new();
        let mut materialized = Vec::new();
        for algo in ALGOS {
            let mut ctx = ExecContext::new(&profile);
            let out = fragment_join(algo, &l, &r, None, &mut ctx).expect("join succeeds");
            assert_eq!(
                ctx.counters.tuples_joined,
                out.len() as u64,
                "tuples_joined counts emitted rows"
            );
            assert_eq!(ctx.counters.tuples_scanned, 0, "fragment joins scan no indexes");
            assert_eq!(ctx.counters.tuples_deduped, 0, "fragment joins do not dedup");
            joined.push(ctx.counters.tuples_joined);
            materialized.push(ctx.counters.tuples_materialized);
        }
        // The same logical join emits the same rows under every algorithm.
        assert!(joined.iter().all(|&j| j == joined[0]), "{joined:?}");
        // Materialization reflects each algorithm's working set: hash
        // builds on the smaller side, block-nested-loop streams both.
        assert_eq!(materialized[0], l.len().min(r.len()) as u64);
        assert_eq!(materialized[1], 0);
    }

    #[test]
    fn gallop_to_finds_first_true_index() {
        for n in [1usize, 2, 3, 7, 8, 9, 100] {
            for first_true in 1..=n {
                // pred true from `first_true` on (or never, when == n).
                let got = gallop_to(0, n, |x| x >= first_true);
                assert_eq!(got, first_true, "n={n}");
            }
        }
    }

    #[test]
    fn estimates_pre_size_join_outputs() {
        let l = rel(vec![0, 1], &[&[1, 10], &[2, 20]]);
        let r = rel(vec![1, 2], &[&[10, 100], &[20, 200]]);
        let profile = EngineProfile::pg_like();
        let mut ctx = ExecContext::new(&profile);
        hash_join(&l, &r, Some(2.0), &mut ctx).expect("hash join");
        assert_eq!(ctx.counters.rows_reserved, 2);
        // The clamp bounds pathological estimates.
        assert_eq!(reserve_rows(Some(f64::MAX)), 1 << 20);
        assert_eq!(reserve_rows(Some(-5.0)), 0);
        assert_eq!(reserve_rows(None), 0);
    }

    #[test]
    fn memory_budget_fails_large_builds() {
        let l = rel(vec![0], &[&[1], &[2], &[3]]);
        let r = rel(vec![0], &[&[1], &[2], &[3], &[4]]);
        let profile = EngineProfile::pg_like().with_memory_budget(2);
        let mut ctx = ExecContext::new(&profile);
        assert!(matches!(
            hash_join(&l, &r, None, &mut ctx),
            Err(EngineError::MemoryBudgetExceeded { .. })
        ));
    }

    #[test]
    fn timeout_aborts_block_nested_loop() {
        let rows: Vec<Vec<u32>> = (0..2000).map(|i| vec![i]).collect();
        let slices: Vec<&[u32]> = rows.iter().map(Vec::as_slice).collect();
        let l = rel(vec![0], &slices);
        let r = rel(vec![1], &slices);
        let profile = EngineProfile::mysql_like().with_timeout(Duration::from_millis(0));
        // Pre-expired backdated clock: deterministic without sleeping.
        let mut ctx = ExecContext::new(&profile);
        ctx.backdate(Duration::from_millis(1));
        assert!(matches!(
            block_nested_loop_join(&l, &r, &mut ctx),
            Err(EngineError::Timeout { .. })
        ));
    }
}
