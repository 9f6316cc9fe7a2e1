//! Union-member (CQ) operators: running one [`MemberPlan`] pipeline.
//!
//! A member is the access path the planner lowered from a CQ body: a
//! [`Leaf`] scan extended by index probes — each extends the current
//! binding set against the best permutation index — then projected onto
//! the member's head. This is how an RDBMS with all six `(s,p,o)`
//! indexes evaluates these queries; the store keeps five, since OPS
//! serves every object-led lookup OSP would.
//!
//! Leaf scans are either private index or range scans or references
//! into the plan's shared-scan table ([`Leaf::Shared`]), already
//! materialized by the driver; shared extents are borrowed, never
//! copied, and charge no scan counters here.

use std::borrow::Cow;

use jucq_model::{TermId, TripleId};

use crate::error::EngineError;
use crate::exec::sip::{MemberSip, SipFilter, SipStage, Source};
use crate::exec::{ExecContext, BATCH_ROWS};
use crate::ir::{PatternTerm, StorePattern, VarId};
use crate::plan::{Interval, Leaf, MemberPlan};
use crate::relation::Relation;
use crate::table::{RangePos, Runs, TableStack};

/// Evaluate one lowered union member against `tables` onto the fragment
/// head `out_vars`, with `shared` holding the plan's materialized shared
/// scans. Bag semantics: duplicates arising from the head projection are
/// *not* removed here (the union layer deduplicates). Rows that `filter`
/// (the fragment's SIP filter, if one was published) says cannot join
/// are dropped at the earliest stage of the member that binds the
/// filter's whole key: the leaf, the input of a probe, or the head.
pub(crate) fn eval_member(
    tables: &TableStack,
    member: &MemberPlan,
    out_vars: &[VarId],
    shared: &[Relation],
    filter: Option<&SipFilter>,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    let op = ctx.op_start();
    let out = eval_member_inner(tables, member, out_vars, shared, filter, ctx)?;
    ctx.op_finish(op, "cq", out.len() as u64);
    Ok(out)
}

fn eval_member_inner(
    tables: &TableStack,
    member: &MemberPlan,
    out_vars: &[VarId],
    shared: &[Relation],
    filter: Option<&SipFilter>,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    ctx.check_deadline()?;
    // A true row binds no key to test.
    let mut sip = filter
        .filter(|_| member.leaf != Leaf::TrueRow)
        .map(|f| MemberSip::new(f, &member.head, out_vars));
    let mut body: Cow<'_, Relation> = match &member.leaf {
        Leaf::Scan { pattern, .. } => Cow::Owned(scan_pattern(tables, pattern, sip.as_mut(), ctx)?),
        Leaf::Range { pattern, interval, .. } => {
            Cow::Owned(scan_range(tables, pattern, *interval, sip.as_mut(), ctx)?)
        }
        Leaf::Shared { id } => Cow::Borrowed(&shared[*id]),
        Leaf::TrueRow => {
            // An empty body denotes the always-true query with no
            // bindings.
            let mut r = Relation::empty(out_vars.to_vec());
            if out_vars.is_empty() {
                r.push_row(&[]);
            }
            return Ok(r);
        }
    };
    for (i, probe) in member.probes.iter().enumerate() {
        let sip = sip.as_mut().and_then(|s| s.claim_before_probe(&body));
        // A variable no later probe and not the head reads is dead: the
        // probe then only asks whether a match exists.
        let live = |v: VarId| {
            member.head.iter().any(|t| t.as_var() == Some(v))
                || member.probes[i + 1..].iter().any(|q| q.pattern.variables().contains(&v))
        };
        let exists =
            !probe.pattern.variables().into_iter().any(|v| body.column_of(v).is_none() && live(v));
        let p = &probe.pattern;
        body = Cow::Owned(probe_extend(tables, &body, p, probe.range, exists, sip, ctx)?);
    }
    let out = if body.is_empty() {
        // Pipelines short-circuit on an empty intermediate, so `body`
        // may lack columns for later atoms' variables; the projection of
        // nothing is nothing.
        Relation::empty(out_vars.to_vec())
    } else {
        project_head(&body, &member.head, out_vars, sip.as_mut(), ctx)?
    };
    if let Some(s) = sip {
        s.record(ctx);
    }
    Ok(out)
}

/// Project a body result onto a head of variables and constants: the
/// sources are resolved once, rows gathered a batch at a time. A SIP
/// filter no earlier stage could claim is tested here, before the row
/// is written.
fn project_head(
    body: &Relation,
    head: &[PatternTerm],
    out_vars: &[VarId],
    sip: Option<&mut MemberSip<'_>>,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    let sources: Vec<Source> = head
        .iter()
        .map(|t| match t {
            PatternTerm::Var(v) => {
                Source::Col(body.column_of(*v).expect("head variable bound by the body"))
            }
            PatternTerm::Const(c) => Source::Const(*c),
        })
        .collect();
    let mut out = Relation::with_capacity(out_vars.to_vec(), body.len());
    if out_vars.is_empty() {
        let n = body.len();
        ctx.tick_n(n as u64)?;
        for _ in 0..n {
            out.push_row(&[]);
        }
        return Ok(out);
    }
    let mut sip = sip.and_then(|s| s.claim(SipStage::Head, |v| body.column_of(v)));
    let mut flat: Vec<TermId> = Vec::with_capacity(BATCH_ROWS * out_vars.len());
    let mut in_batch = 0usize;
    for row in body.rows() {
        if sip.as_mut().is_none_or(|s| s.admits(row)) {
            flat.extend(sources.iter().map(|s| s.of(row)));
        }
        in_batch += 1;
        if in_batch == BATCH_ROWS {
            ctx.tick_n(in_batch as u64)?;
            out.flush_from(&mut flat);
            in_batch = 0;
        }
    }
    ctx.tick_n(in_batch as u64)?;
    out.flush_from(&mut flat);
    Ok(out)
}

/// A triple matches a pattern's variable structure iff repeated
/// variables bind equal values.
#[inline]
fn repeated_vars_consistent(p: &StorePattern, t: &TripleId) -> bool {
    let pos = p.positions();
    let val = [t.s, t.p, t.o];
    for i in 0..3 {
        for j in (i + 1)..3 {
            if let (PatternTerm::Var(a), PatternTerm::Var(b)) = (pos[i], pos[j]) {
                if a == b && val[i] != val[j] {
                    return false;
                }
            }
        }
    }
    true
}

/// The triple position (0 = s, 1 = p, 2 = o) of the first occurrence of
/// `v` in `p`.
fn var_position(p: &StorePattern, v: VarId) -> Option<usize> {
    p.positions().iter().position(|pt| pt.as_var() == Some(v))
}

/// [`var_position`] of each of `vars`, all of which occur in `p`.
fn var_positions(p: &StorePattern, vars: &[VarId]) -> Vec<usize> {
    vars.iter().map(|&v| var_position(p, v).expect("var occurs in pattern")).collect()
}

/// The triple position (1 = p, 2 = o) a value range applies to.
fn ranged_index(ranged: RangePos) -> usize {
    match ranged {
        RangePos::Predicate => 1,
        RangePos::Object => 2,
    }
}

/// Scan one pattern into a relation over its distinct variables, off
/// the permutation index whose key prefix covers its bound positions
/// (in every layer).
pub(crate) fn scan_pattern(
    tables: &TableStack,
    p: &StorePattern,
    sip: Option<&mut MemberSip<'_>>,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    scan_extent(p, tables.scan(&p.bound()), sip, ctx)
}

/// Scan one collapsed interval into a relation over the pattern
/// template's distinct variables: all triples matching the template with
/// its `ranged` position's constant replaced by any raw id in `[lo, hi)`.
/// Row-identical (and counter-identical) to unioning the point scans of
/// every id in the interval, since the underlying permutation index sorts
/// the interval contiguously.
fn scan_range(
    tables: &TableStack,
    p: &StorePattern,
    Interval { ranged, lo, hi, .. }: Interval,
    sip: Option<&mut MemberSip<'_>>,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    ctx.counters.range_scans += 1;
    let mut bound = p.bound();
    bound[ranged_index(ranged)] = None;
    scan_extent(p, tables.scan_value_range(&bound, ranged, lo, hi), sip, ctx)
}

/// The scan kernel: gather `p`'s variable positions out of every triple
/// of `extent` (a contiguous index run per layer, read one after the
/// other), a batch at a time — one liveness poll, one bulk append and
/// one memory check per batch. When `p` binds the whole key of the
/// member's SIP filter, a triple that cannot join is never copied.
fn scan_extent(
    p: &StorePattern,
    extent: Runs<'_>,
    sip: Option<&mut MemberSip<'_>>,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    let vars = p.variables();
    let var_pos = var_positions(p, &vars);
    let check_repeats = p.has_repeated_var();
    let mut sip = sip.and_then(|s| s.claim(SipStage::Scan, |v| var_position(p, v)));
    ctx.counters.rows_reserved += extent.len() as u64;
    let mut out = Relation::with_capacity(vars.to_vec(), extent.len());
    let zero_width = vars.is_empty();
    let mut flat: Vec<TermId> = Vec::with_capacity(BATCH_ROWS * vars.len());
    for chunk in extent.slices().iter().flat_map(|run| run.chunks(BATCH_ROWS)) {
        ctx.counters.tuples_scanned += chunk.len() as u64;
        ctx.tick_n(chunk.len() as u64)?;
        for t in chunk {
            if check_repeats && !repeated_vars_consistent(p, t) {
                continue;
            }
            let val = [t.s, t.p, t.o];
            if sip.as_mut().is_some_and(|s| !s.admits(&val)) {
                continue;
            }
            if zero_width {
                out.push_row(&[]);
            } else {
                flat.extend(var_pos.iter().map(|&i| val[i]));
            }
        }
        out.flush_from(&mut flat);
        ctx.check_memory(out.len())?;
    }
    ctx.check_memory(out.len())?;
    Ok(out)
}

/// What fills each probe-key position of an index-nested-loop step:
/// resolved once per operator instead of searched per row.
#[derive(Clone, Copy)]
enum ProbeSlot {
    /// A bound position: a pattern constant or a column of the
    /// accumulated binding relation.
    Bound(Source),
    /// A free variable (scan wildcard).
    Free,
}

/// One index-nested-loop step: extend the binding relation `acc` by
/// probing the best permutation index for `p` with the bound values of
/// each row. With `range = Some(interval)` the probed pattern's ranged
/// position matches any raw id in the interval — one contiguous
/// range lookup per input row where the uncollapsed union needed one
/// point probe per collapsed member (LiteMat's "the type check becomes
/// an interval membership test").
///
/// With `exists`, nothing after the probe reads the variables it would
/// bind: it is an *existence probe*, which emits each input row once,
/// unextended, when the index holds a match consistent with `p`'s
/// repeated variables, and stops reading at the first one.
///
/// Every lookup goes through one [`ProbeCursor`](crate::table::ProbeCursor)
/// owned by this invocation, one seek per layer: `acc` usually comes out
/// of an index scan sorted on (or correlated with) the probe key, so the
/// next run starts a few triples after the previous one. Input rows the
/// member's SIP filter rejects are not probed for.
fn probe_extend(
    tables: &TableStack,
    acc: &Relation,
    p: &StorePattern,
    range: Option<Interval>,
    exists: bool,
    mut sip: Option<&mut MemberSip<'_>>,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    let mut slots = p.positions().map(|pt| match pt {
        PatternTerm::Const(c) => ProbeSlot::Bound(Source::Const(c)),
        PatternTerm::Var(v) => match acc.column_of(v) {
            Some(col) => ProbeSlot::Bound(Source::Col(col)),
            None => ProbeSlot::Free,
        },
    });
    if let Some(iv) = range {
        ctx.counters.range_scans += 1;
        // The ranged position's template constant stands for the whole
        // interval: unbind it so the probe covers the contiguous index run.
        slots[ranged_index(iv.ranged)] = ProbeSlot::Free;
    }
    let mut cursor = tables
        .probe_cursor(slots.map(|s| matches!(s, ProbeSlot::Bound(_))), range.map(|iv| iv.ranged));
    let new_vars: Vec<VarId> = match exists {
        true => Vec::new(),
        false => p.variables().iter().copied().filter(|&v| acc.column_of(v).is_none()).collect(),
    };
    let new_pos = var_positions(p, &new_vars);
    let mut out_vars = acc.vars().to_vec();
    out_vars.extend(new_vars);
    let width = out_vars.len();
    let zero_width = width == 0;
    let check_repeats = p.has_repeated_var();
    let mut out = Relation::empty(out_vars);
    let mut flat: Vec<TermId> = Vec::with_capacity(BATCH_ROWS * width);
    let mut pending: u64 = 0;

    for arow in acc.rows() {
        pending += 1;
        if sip.as_mut().is_none_or(|s| s.admits(arow)) {
            let bound = slots.map(|s| match s {
                ProbeSlot::Bound(src) => Some(src.of(arow)),
                ProbeSlot::Free => None,
            });
            let matches = match range {
                Some(iv) => cursor.seek_range(&bound, iv.lo, iv.hi),
                None => cursor.seek(&bound),
            };
            ctx.counters.index_probes += 1;
            if exists {
                let mut read = 0u64;
                let found = matches.iter().any(|t| {
                    read += 1;
                    !check_repeats || repeated_vars_consistent(p, t)
                });
                ctx.counters.tuples_scanned += read;
                pending += read;
                if found {
                    ctx.counters.tuples_joined += 1;
                    if zero_width {
                        out.push_row(&[]);
                    } else {
                        flat.extend_from_slice(arow);
                    }
                }
            } else {
                ctx.counters.tuples_scanned += matches.len() as u64;
                pending += matches.len() as u64;
                for &run in matches.slices() {
                    for t in run {
                        if check_repeats && !repeated_vars_consistent(p, t) {
                            continue;
                        }
                        ctx.counters.tuples_joined += 1;
                        if zero_width {
                            out.push_row(&[]);
                        } else {
                            let val = [t.s, t.p, t.o];
                            flat.extend_from_slice(arow);
                            flat.extend(new_pos.iter().map(|&i| val[i]));
                        }
                    }
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
    ctx.counters.probe_reseeks += cursor.reseeks();
    ctx.tick_n(pending)?;
    out.flush_from(&mut flat);
    ctx.check_memory(out.len())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Store;
    use crate::ir::StoreCq;
    use crate::profile::EngineProfile;
    use jucq_model::term::TermKind;

    fn id(i: u32) -> TermId {
        TermId::new(TermKind::Uri, i)
    }

    fn t(s: u32, p: u32, o: u32) -> TripleId {
        TripleId::new(id(s), id(p), id(o))
    }

    fn c(i: u32) -> PatternTerm {
        PatternTerm::Const(id(i))
    }

    fn v(i: VarId) -> PatternTerm {
        PatternTerm::Var(i)
    }

    /// advisor edges: 1-\[10\]->2, 2-\[10\]->3, 3-\[10\]->1, plus names 1-\[11\]->100.
    fn sample_triples() -> Vec<TripleId> {
        vec![
            t(1, 10, 2),
            t(2, 10, 3),
            t(3, 10, 1),
            t(1, 11, 100),
            t(2, 11, 101),
            t(4, 10, 4), // self-loop
        ]
    }

    fn run(cq: &StoreCq) -> Relation {
        let s = Store::from_triples(&sample_triples(), EngineProfile::pg_like());
        let mut r = s.eval_cq(cq).expect("evaluation succeeds").relation;
        r.sort();
        r
    }

    #[test]
    fn single_pattern_scan() {
        let cq = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]);
        let r = run(&cq);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn two_hop_join() {
        // ?x -10-> ?y -10-> ?z
        let cq = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(1), c(10), v(2))],
            vec![0, 2],
        );
        let r = run(&cq);
        // 1->2->3, 2->3->1, 3->1->2, 4->4->4.
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn join_with_selective_constant() {
        // ?x -10-> ?y, ?x -11-> 100  ⇒ x=1, y=2.
        let cq = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(0), c(11), c(100))],
            vec![0, 1],
        );
        let r = run(&cq);
        assert_eq!(r.to_rows(), vec![vec![id(1), id(2)]]);
    }

    #[test]
    fn repeated_variable_selects_self_loops() {
        // ?x -10-> ?x  ⇒ only the 4-4 self loop.
        let cq = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(0))], vec![0]);
        let r = run(&cq);
        assert_eq!(r.to_rows(), vec![vec![id(4)]]);
    }

    #[test]
    fn empty_result_short_circuits() {
        let cq = StoreCq::with_var_head(
            vec![
                StorePattern::new(v(0), c(99), v(1)), // no matches
                StorePattern::new(v(1), c(10), v(2)),
            ],
            vec![0, 2],
        );
        assert!(run(&cq).is_empty());
    }

    #[test]
    fn cartesian_product_when_disconnected() {
        // ?x -11-> 100 (1 row) × ?a -11-> 101 (1 row).
        let cq = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(11), c(100)), StorePattern::new(v(1), c(11), c(101))],
            vec![0, 1],
        );
        let r = run(&cq);
        assert_eq!(r.to_rows(), vec![vec![id(1), id(2)]]);
    }

    #[test]
    fn projection_to_distinct_subset() {
        // Objects of predicate 10 are all distinct here, so the head
        // projection keeps all four rows even under set semantics.
        let cq = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![1]);
        let r = run(&cq);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn variable_in_property_position() {
        // ?x ?p 100 ⇒ (1, 11).
        let cq = StoreCq::with_var_head(vec![StorePattern::new(v(0), v(1), c(100))], vec![0, 1]);
        let r = run(&cq);
        assert_eq!(r.to_rows(), vec![vec![id(1), id(11)]]);
    }

    #[test]
    fn four_atom_cycle_query() {
        // 1-10->2-10->3-10->1 is a 3-cycle; query a 3-cycle shape.
        let cq = StoreCq::with_var_head(
            vec![
                StorePattern::new(v(0), c(10), v(1)),
                StorePattern::new(v(1), c(10), v(2)),
                StorePattern::new(v(2), c(10), v(0)),
            ],
            vec![0, 1, 2],
        );
        let r = run(&cq);
        // Rotations of (1,2,3) plus the self-loop (4,4,4).
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn all_constant_pattern_is_boolean_row() {
        let s = Store::from_triples(&sample_triples(), EngineProfile::pg_like());
        let cq = StoreCq::with_var_head(vec![StorePattern::new(c(1), c(10), c(2))], vec![]);
        let r = s.eval_cq(&cq).unwrap().relation;
        assert_eq!(r.len(), 1, "the triple exists");
        let missing = StoreCq::with_var_head(vec![StorePattern::new(c(1), c(10), c(99))], vec![]);
        let r = s.eval_cq(&missing).unwrap().relation;
        assert_eq!(r.len(), 0, "the triple does not exist");
    }

    #[test]
    fn mixed_star_and_chain_probes_answer_exactly() {
        // ?a -10-> ?b -10-> ?c, ?a -11-> ?n (mixed star/chain).
        let cq = StoreCq::with_var_head(
            vec![
                StorePattern::new(v(0), c(10), v(1)),
                StorePattern::new(v(1), c(10), v(2)),
                StorePattern::new(v(0), c(11), v(3)),
            ],
            vec![0, 2, 3],
        );
        // Only 1 and 2 have a p11 edge: 1→2→3 (100) and 2→3→1 (101).
        assert_eq!(
            run(&cq).to_rows(),
            vec![vec![id(1), id(3), id(100)], vec![id(2), id(1), id(101)]]
        );
    }

    #[test]
    fn empty_body_boolean_true() {
        let s = Store::from_triples(&sample_triples(), EngineProfile::pg_like());
        let cq = StoreCq::with_var_head(vec![], vec![]);
        let r = s.eval_cq(&cq).unwrap().relation;
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn probes_count_one_lookup_per_input_row() {
        let cq = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(1), c(11), v(2))],
            vec![0, 2],
        );
        let s = Store::from_triples(&sample_triples(), EngineProfile::pg_like());
        let out = s.eval_cq(&cq).unwrap();
        assert_eq!(out.relation.len(), 2);
        // The cheaper atom (two p11 triples) leads; its subjects 1, 2
        // probe p10's objects in ascending order: nothing goes backwards.
        assert_eq!((out.counters.index_probes, out.counters.probe_reseeks), (2, 0));
    }

    #[test]
    fn deadline_inside_a_filtered_scan_batch_surfaces() {
        use crate::exec::sip::{MemberSip, SipFilter};
        let n = 20 * BATCH_ROWS as u32;
        let triples: Vec<TripleId> = (0..n).map(|i| t(i, 10, i % 7)).collect();
        let table = TableStack::from(crate::table::TripleTable::build(&triples));
        let mut build = Relation::empty(vec![0]);
        for i in (0..n).step_by(4) {
            build.push_row(&[id(i)]);
        }
        let filter = SipFilter::build(&build, &[0], "fragment[1].sip_filter".to_string());
        let mut sip = MemberSip::new(&filter, &[v(0), v(1)], &[0, 1]);
        let profile = EngineProfile::pg_like().with_timeout(std::time::Duration::ZERO);
        let mut ctx = ExecContext::new(&profile);
        ctx.backdate(std::time::Duration::from_millis(2));
        let p = StorePattern::new(v(0), c(10), v(1));
        let err = scan_pattern(&table, &p, Some(&mut sip), &mut ctx).unwrap_err();
        assert!(matches!(err, EngineError::Timeout { .. }), "{err:?}");
        // Found by the liveness poll of the sixteenth batch: the fifteen
        // before it were scanned and tested.
        sip.record(&mut ctx);
        assert_eq!(ctx.counters.sip_probes, 15 * BATCH_ROWS as u64);
        assert!(ctx.counters.sip_drops > 0);
    }

    /// One member over `triples`: a scan of `leaf`, then `probes`,
    /// projected onto the head variables `head`.
    fn run_member(
        triples: &[TripleId],
        leaf: StorePattern,
        probes: Vec<crate::plan::Probe>,
        head: Vec<VarId>,
    ) -> (Relation, crate::exec::Counters) {
        let tables = TableStack::from(crate::table::TripleTable::build(triples));
        let member = MemberPlan {
            leaf: Leaf::Scan { pattern: leaf, est: 0.0 },
            probes,
            head: head.iter().map(|&x| v(x)).collect(),
        };
        let profile = EngineProfile::pg_like();
        let mut ctx = ExecContext::new(&profile);
        let out = eval_member(&tables, &member, &head, &[], None, &mut ctx).unwrap();
        (out, ctx.counters)
    }

    #[test]
    fn a_range_probe_with_no_new_variable_emits_its_row_once() {
        // 1 and 2 have three and one types in [30, 33); 3 has none.
        let triples =
            [t(1, 10, 5), t(2, 10, 6), t(3, 10, 7), t(1, 20, 30), t(1, 20, 31), t(1, 20, 32)]
                .into_iter()
                .chain([t(2, 20, 31), t(3, 20, 40)])
                .collect::<Vec<_>>();
        let range = Interval { ranged: RangePos::Object, lo: 30, hi: 33, members: 3 };
        let probe = crate::plan::Probe {
            pattern: StorePattern::new(v(0), c(20), c(30)),
            range: Some(range),
        };
        let leaf = StorePattern::new(v(0), c(10), v(1));
        let (mut out, counters) = run_member(&triples, leaf, vec![probe], vec![0, 1]);
        out.sort();
        assert_eq!(out.to_rows(), vec![vec![id(1), id(5)], vec![id(2), id(6)]]);
        // One joined row per row that has a type in the interval, and the
        // first match ends each lookup.
        assert_eq!((counters.index_probes, counters.tuples_joined), (3, 2));
        assert_eq!(counters.tuples_scanned, 3 + 2);
    }

    #[test]
    fn a_dead_repeated_variable_needs_a_consistent_match() {
        // The probe (?2 11 ?2) binds ?2, which nothing reads: a row passes
        // iff some p11 triple has equal subject and object.
        let leaf = StorePattern::new(v(0), c(10), v(1));
        let probe =
            crate::plan::Probe { pattern: StorePattern::new(v(2), c(11), v(2)), range: None };
        let without = [t(1, 10, 5), t(4, 11, 6), t(6, 11, 4)];
        let (out, _) = run_member(&without, leaf, vec![probe.clone()], vec![0]);
        assert!(out.is_empty(), "no p11 triple is a loop");
        let with = [t(1, 10, 5), t(4, 11, 6), t(6, 11, 4), t(7, 11, 7), t(8, 11, 8)];
        let (out, counters) = run_member(&with, leaf, vec![probe], vec![0]);
        assert_eq!(out.to_rows(), vec![vec![id(1)]], "two loops, one row");
        assert_eq!(counters.tuples_scanned, 1 + 3, "the leaf, then up to the first loop");
    }

    #[test]
    fn a_probe_whose_variable_a_later_probe_reads_extends_the_row() {
        // ?1 is read by the second probe, so the first binds it for every
        // match; ?2 is dead.
        let triples = [t(1, 10, 5), t(5, 11, 6), t(5, 11, 7), t(6, 12, 9), t(7, 12, 9)];
        let probes = vec![
            crate::plan::Probe { pattern: StorePattern::new(v(0), c(11), v(1)), range: None },
            crate::plan::Probe { pattern: StorePattern::new(v(1), c(12), v(2)), range: None },
        ];
        let leaf = StorePattern::new(v(3), c(10), v(0));
        let (out, counters) = run_member(&triples, leaf, probes, vec![3]);
        assert_eq!(out.to_rows(), vec![vec![id(1)], vec![id(1)]], "one row per ?1 binding");
        assert_eq!(counters.tuples_joined, 2 + 2);
    }
}
