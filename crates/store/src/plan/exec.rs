//! Driving a physical [`Plan`]: shared-scan materialization, the join
//! steps over the fragment unions, and the final projection and
//! duplicate elimination.
//!
//! The driver walks [`Plan::join_order`]: the seed fragment, then one
//! fragment per step, joined into the accumulated result with the
//! plan's algorithm. Every step's accumulated left side therefore
//! exists when the fragment it joins in starts, and a step with a key
//! publishes a Bloom filter over it ([`Plan::sip`]) that the fragment's
//! members test inside their own pipelines.
//!
//! A fragment may be view-served ([`FragmentPlan::view`]): the executor
//! resolves it through the supplied [`ViewSource`] — epoch-exact, so a
//! catalog entry computed at any other epoch never serves — and copies
//! the materialized rows through a scan-priced kernel. A miss, or
//! running with no view source at all, evaluates the fragment's
//! members; answers are identical either way.

use crate::error::EngineError;
use crate::exec::{cq, join, sip, union, ExecContext, BATCH_ROWS};
use crate::plan::join_order::JoinStep;
use crate::plan::node::{FragmentPlan, Plan};
use crate::relation::Relation;
use crate::table::TableStack;
use crate::views::ViewSource;

/// Copy a resolved view's rows into a fresh relation on `ctx`'s
/// counters: charged as a scan (`tuples_scanned`, one `view_hits`
/// resolution), a batch at a time with the same liveness-poll cadence
/// as any other scan.
///
/// The copy is **positional**: column `k` of the stored relation is the
/// pinning fragment's `k`-th head variable, and the head-aware canonical
/// [`ViewSignature`](crate::views::ViewSignature) numbers head variables
/// first in head order, so any fragment matching the signature binds the
/// same value at head position `k`. VarIds are per-query (the consuming
/// query's `head` generally differs from the pinning query's stored
/// schema), so realigning by VarId would be wrong — only the labels are
/// taken from `head`.
fn copy_view_rows(
    rows: &Relation,
    idx: usize,
    head: &[crate::ir::VarId],
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    let op = ctx.op_start();
    debug_assert_eq!(rows.vars().len(), head.len(), "view arity checked by resolve_view");
    let mut out = Relation::with_capacity(head.to_vec(), rows.len());
    let mut done = 0;
    while done < rows.len() {
        let n = BATCH_ROWS.min(rows.len() - done);
        for r in done..done + n {
            out.push_row(rows.row(r));
        }
        ctx.tick_n(n as u64)?;
        done += n;
    }
    ctx.counters.tuples_scanned += out.len() as u64;
    ctx.counters.view_hits += 1;
    ctx.check_memory(out.len())?;
    ctx.op_finish(op, &format!("fragment[{idx}].view_scan"), out.len() as u64);
    Ok(out)
}

/// Resolve fragment `idx`'s view binding, if it has one and the
/// request's epoch matches.
fn resolve_view(
    plan: &Plan,
    idx: usize,
    views: Option<&ViewSource<'_>>,
    ctx: &mut ExecContext<'_>,
) -> Result<Option<Relation>, EngineError> {
    let FragmentPlan { head, view: Some(view), .. } = &plan.fragments[idx] else {
        return Ok(None);
    };
    if let Some(rows) = views.and_then(|src| src.resolve(&plan.views[*view].signature)) {
        // An arity mismatch can only mean a signature collision (the
        // signature encodes the head arity); treat it as a miss and
        // evaluate the members rather than serve another fragment's
        // rows.
        if rows.vars().len() == head.len() {
            return Ok(Some(copy_view_rows(&rows, idx, head, ctx)?));
        }
    }
    Ok(None)
}

/// Execute `plan` against `tables`, resolving view-served fragments
/// through `views` (when given).
pub(crate) fn execute(
    tables: &TableStack,
    plan: &Plan,
    ctx: &mut ExecContext<'_>,
    views: Option<&ViewSource<'_>>,
) -> Result<Relation, EngineError> {
    let Some(seed) = plan.join_order.first() else {
        // Proven empty at plan time.
        return Ok(Relation::empty(plan.head.clone()));
    };

    // Materialize the plan-wide shared scans once: every member
    // referencing one borrows the same extent, so scan counters are
    // charged exactly once per distinct pattern however many members
    // use it. The extents are all held until the query completes, so
    // the memory budget is checked against their running sum.
    let mut shared: Vec<Relation> = Vec::with_capacity(plan.shared.len());
    let mut held = 0;
    for (i, def) in plan.shared.iter().enumerate() {
        let op = ctx.op_start();
        let rel = cq::scan_pattern(tables, &def.pattern, None, ctx)?;
        held += rel.len();
        ctx.check_memory(held)?;
        ctx.op_finish(op, &format!("shared_scan[{i}]"), rel.len() as u64);
        shared.push(rel);
    }

    let acc = execute_steps(tables, plan, seed, &shared, ctx, views)?;

    let op = ctx.op_start();
    let mut relation = acc.project(&plan.head);
    ctx.counters.tuples_deduped += relation.len() as u64;
    relation.dedup_in_place();
    ctx.op_finish(op, "dedup", relation.len() as u64);
    Ok(relation)
}

/// Evaluate the fragments one at a time in join order, joining each
/// into the accumulated result with the plan's algorithm. Before a step
/// with a key, the accumulated left side is hashed into a Bloom filter
/// and the step's fragment's members drop the rows it rejects as early
/// as they bind the key. A view-resolved fragment skips its filter (the filter
/// only prunes work the copy kernel does not do; the join itself
/// discards non-matching rows). All but the pipelined fragment are
/// charged as materialized (§4.1: "the largest-result sub-query ... is
/// the one pipelined"); a single-fragment plan has none to charge.
fn execute_steps(
    tables: &TableStack,
    plan: &Plan,
    seed: &JoinStep,
    shared: &[Relation],
    ctx: &mut ExecContext<'_>,
    views: Option<&ViewSource<'_>>,
) -> Result<Relation, EngineError> {
    let eval_fragment = |idx: usize,
                         filter: Option<&sip::SipFilter>,
                         ctx: &mut ExecContext<'_>|
     -> Result<Relation, EngineError> {
        let rel = match resolve_view(plan, idx, views, ctx)? {
            Some(rel) => rel,
            None => union::eval_union(tables, plan, idx, filter, shared, ctx)?,
        };
        if plan.pipelined.is_some_and(|p| p != idx) {
            ctx.counters.tuples_materialized += rel.len() as u64;
            ctx.check_memory(rel.len())?;
        }
        Ok(rel)
    };

    let mut acc = eval_fragment(seed.fragment, None, ctx)?;
    for (k, step) in plan.join_order[1..].iter().enumerate() {
        let filter = (!step.key.is_empty()).then(|| {
            let label = format!("fragment[{}].sip_filter", step.fragment);
            sip::SipFilter::build(&acc, &step.key, label)
        });
        let right = eval_fragment(step.fragment, filter.as_ref(), ctx)?;
        ctx.set_scope(format_args!("join[{k}]."));
        let out = join::fragment_join(plan.join, &acc, &right, Some(step.est_rows), ctx);
        ctx.clear_scope();
        acc = out?;
    }
    Ok(acc)
}
