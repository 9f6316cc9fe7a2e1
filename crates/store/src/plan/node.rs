//! The typed physical plan tree.
//!
//! A [`Plan`] is what the [`Planner`](crate::plan::Planner) lowers a
//! [`StoreJucq`](crate::ir::StoreJucq) into and what the executor
//! interprets: a tree of physical operators plus a plan-wide table of
//! factored [`SharedScanDef`]s. The same plan drives the sequential and
//! the parallel execution path, `explain` rendering, and the per-node
//! estimate column of `explain_analyze`.

use std::fmt::Write as _;

use crate::ir::{PatternTerm, StorePattern, VarId};
use crate::plan::join_order::JoinStep;
use crate::table::{Perm, RangePos};
use crate::views::ViewSignature;

/// One physical operator node.
///
/// Shape invariants maintained by the planner (the executor relies on
/// them):
/// * the root is [`PlanNode::Empty`], or [`PlanNode::Dedup`] over a
///   [`PlanNode::Project`] over a left-deep tree of fragment-level join
///   nodes whose leaves are [`PlanNode::HashUnion`]s (or
///   [`PlanNode::ViewScan`]s wrapping one);
/// * every union member is a [`PlanNode::Project`] (or
///   [`PlanNode::TrueRow`] for an empty body) over an access chain: one
///   leaf scan extended by [`PlanNode::Inlj`] / [`PlanNode::RangeProbe`]
///   probes.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Scan one triple pattern's extent off the best permutation index.
    IndexScan {
        /// The pattern scanned.
        pattern: StorePattern,
        /// The permutation index to scan, when the interesting-orders
        /// pass picked one deliberately (it must cover the pattern's
        /// bound positions); `None` scans [`Perm::for_bound`]'s default.
        /// Either way the extent is the same triple set — only the
        /// physical row order differs.
        perm: Option<Perm>,
        /// Exact extent cardinality (index lookup at plan time).
        est: Option<f64>,
    },
    /// Scan one *interval* of triple patterns off the permutation index
    /// that sorts the ranged component contiguously: all triples matching
    /// `pattern` with its ranged position's constant replaced by any raw
    /// URI id in `[lo, hi)`. Produced by the planner's collapse pass when
    /// `members` union members differ only in one constant whose ids the
    /// interval covers (typically a class or property subtree).
    RangeScan {
        /// The pattern template: the first collapsed member's pattern,
        /// with its original constant still at the ranged position (the
        /// variables, bound positions and repeated-variable structure are
        /// shared by every collapsed member).
        pattern: StorePattern,
        /// Which component the interval ranges over.
        ranged: RangePos,
        /// Inclusive lower raw URI id.
        lo: u32,
        /// Exclusive upper raw URI id.
        hi: u32,
        /// How many union members this one scan replaces.
        members: usize,
        /// Exact extent cardinality (index lookup at plan time).
        est: Option<f64>,
    },
    /// Reference entry `id` of the plan's shared-scan table: the extent
    /// is materialized once per query and reused by every referencing
    /// member.
    SharedScan {
        /// Index into [`Plan::shared`].
        id: usize,
        /// The pattern (duplicated here for rendering).
        pattern: StorePattern,
        /// Exact extent cardinality.
        est: Option<f64>,
    },
    /// Equality filter for a repeated-variable pattern (`?x p ?x`),
    /// fused into the scan beneath it at execution time.
    Filter {
        /// The repeated-variable pattern whose equality is enforced.
        pattern: StorePattern,
        /// The scan being filtered.
        input: Box<PlanNode>,
    },
    /// Index-nested-loop step: probe `pattern`'s best index once per
    /// input row, binding the pattern's variables already present in the
    /// input (repeated-variable consistency is checked in the probe).
    Inlj {
        /// The binding relation being extended.
        input: Box<PlanNode>,
        /// The probed pattern.
        pattern: StorePattern,
    },
    /// Index-nested-loop step over a collapsed interval: like
    /// [`PlanNode::Inlj`], but the probed pattern's `ranged` position
    /// matches any raw URI id in `[lo, hi)` — one contiguous index probe
    /// per input row where the uncollapsed union needed one probe per
    /// collapsed member. This is what lets a collapsed member keep a
    /// selective atom at the leaf instead of pinning the interval there.
    RangeProbe {
        /// The binding relation being extended.
        input: Box<PlanNode>,
        /// The probed pattern template (first collapsed member's pattern).
        pattern: StorePattern,
        /// Which component the interval ranges over.
        ranged: RangePos,
        /// Inclusive lower raw URI id.
        lo: u32,
        /// Exclusive upper raw URI id.
        hi: u32,
        /// How many union members this probe's interval replaces.
        members: usize,
    },
    /// Hash join of two fragment results.
    HashJoin {
        /// Left (accumulated) input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Fragment-level join step `k` (the `join[k].hash_join` node).
        step: usize,
        /// Estimated output rows.
        est: Option<f64>,
    },
    /// Sort-merge join of two fragment results.
    MergeJoin {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Fragment-level join step.
        step: usize,
        /// Estimated output rows.
        est: Option<f64>,
        /// Which inputs (left, right) already arrive sorted on the join
        /// key — their sort is elided at execution time. Set by the
        /// planner from the inputs' order properties; the kernels verify
        /// cheaply and fall back to sorting if an input turns out
        /// unsorted (e.g. a view-served fragment).
        sort_elided: (bool, bool),
    },
    /// Block-nested-loop join of two fragment results (the MySQL-like
    /// profile's deliberately weak algorithm).
    NestedLoopJoin {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Fragment-level join step.
        step: usize,
        /// Estimated output rows.
        est: Option<f64>,
    },
    /// Projection onto a head of variables and constants. At the top of
    /// every union member; also (all-variable) directly under the root
    /// [`PlanNode::Dedup`].
    Project {
        /// The projected input.
        input: Box<PlanNode>,
        /// Output terms, positionally aligned with `out_vars`.
        head: Vec<PatternTerm>,
        /// The output schema.
        out_vars: Vec<VarId>,
    },
    /// The always-true zero-pattern member: one empty row when the
    /// output schema is empty, no rows otherwise.
    TrueRow {
        /// The output schema.
        out_vars: Vec<VarId>,
    },
    /// A fragment whose union matched the materialized-view catalog at
    /// plan time. The node carries **no rows** — only an index into
    /// [`Plan::views`] naming the signature; the executor resolves the
    /// rows through the catalog with the *request's* epoch at
    /// evaluation time and evaluates the embedded `fallback` union
    /// subtree on any mismatch. Plans are therefore safe to cache and
    /// share across epochs: a stale entry simply stops resolving.
    ViewScan {
        /// The fragment index (same numbering as the fallback union).
        idx: usize,
        /// The output schema (the fragment head).
        head: Vec<VarId>,
        /// Index into [`Plan::views`].
        view: usize,
        /// Estimated output rows (the catalog entry's tuple count at
        /// plan time).
        est: Option<f64>,
        /// The full union subtree evaluated when the view does not
        /// resolve at the request's epoch.
        fallback: Box<PlanNode>,
    },
    /// Streaming hash-deduplicating union of member results — one per
    /// JUCQ fragment.
    HashUnion {
        /// The fragment index (drives the `fragment[i].` node scope).
        idx: usize,
        /// The union's output schema (the fragment head).
        head: Vec<VarId>,
        /// Member plans, in member order.
        members: Vec<PlanNode>,
        /// Estimated output rows.
        est: Option<f64>,
    },
    /// Final duplicate elimination (set semantics) over the projected
    /// join of fragments.
    Dedup {
        /// The input (a [`PlanNode::Project`]).
        input: Box<PlanNode>,
        /// Estimated output rows.
        est: Option<f64>,
    },
    /// A plan proven empty at plan time (a fragment lost every member to
    /// empty-extent pruning, or the query has no fragments).
    Empty {
        /// The output schema.
        head: Vec<VarId>,
    },
}

impl PlanNode {
    /// Number of nodes in this subtree (the rewrite passes' metric).
    pub fn node_count(&self) -> usize {
        1 + match self {
            PlanNode::Filter { input, .. }
            | PlanNode::Inlj { input, .. }
            | PlanNode::RangeProbe { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Dedup { input, .. } => input.node_count(),
            PlanNode::HashJoin { left, right, .. }
            | PlanNode::MergeJoin { left, right, .. }
            | PlanNode::NestedLoopJoin { left, right, .. } => {
                left.node_count() + right.node_count()
            }
            PlanNode::HashUnion { members, .. } => members.iter().map(PlanNode::node_count).sum(),
            PlanNode::ViewScan { fallback, .. } => fallback.node_count(),
            PlanNode::IndexScan { .. }
            | PlanNode::RangeScan { .. }
            | PlanNode::SharedScan { .. }
            | PlanNode::TrueRow { .. }
            | PlanNode::Empty { .. } => 0,
        }
    }

    /// The output variables of this node, in executor column order:
    /// mirrors how each operator actually lays out its result (scans
    /// bind a pattern's distinct variables, probes and joins append the
    /// right side's new variables after the left's).
    pub fn vars(&self) -> Vec<VarId> {
        match self {
            PlanNode::IndexScan { pattern, .. }
            | PlanNode::RangeScan { pattern, .. }
            | PlanNode::SharedScan { pattern, .. } => pattern.variables().to_vec(),
            PlanNode::Filter { input, .. } | PlanNode::Dedup { input, .. } => input.vars(),
            PlanNode::Inlj { input, pattern } | PlanNode::RangeProbe { input, pattern, .. } => {
                let mut out = input.vars();
                for v in pattern.variables() {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
                out
            }
            PlanNode::HashJoin { left, right, .. }
            | PlanNode::MergeJoin { left, right, .. }
            | PlanNode::NestedLoopJoin { left, right, .. } => {
                let mut out = left.vars();
                for v in right.vars() {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
                out
            }
            PlanNode::Project { out_vars, .. } | PlanNode::TrueRow { out_vars } => out_vars.clone(),
            PlanNode::ViewScan { head, .. }
            | PlanNode::HashUnion { head, .. }
            | PlanNode::Empty { head } => head.clone(),
        }
    }

    /// The physical order property: the variable sequence this node's
    /// rows are sorted by (non-decreasing under lexicographic comparison
    /// of those variables' values), or empty when no order is
    /// guaranteed. Seeded at scan leaves from the permutation index's
    /// key order restricted to variable positions; a node sorted by
    /// `[a, b, c]` is also sorted by any prefix.
    pub fn order(&self) -> Vec<VarId> {
        match self {
            PlanNode::IndexScan { pattern, perm, .. } => {
                let perm = perm.unwrap_or_else(|| Perm::for_bound(&pattern.bound()));
                scan_order(pattern, perm)
            }
            // A RangeScan's rows are sorted first by the *ranged*
            // component, which varies over `[lo, hi)` and is not an
            // output column — the variable positions are only sorted
            // within each run, so no global order survives.
            PlanNode::RangeScan { .. } => Vec::new(),
            PlanNode::SharedScan { pattern, .. } => {
                scan_order(pattern, Perm::for_bound(&pattern.bound()))
            }
            PlanNode::Filter { input, .. } | PlanNode::Dedup { input, .. } => input.order(),
            // A probe extends each input row in place, so the input's
            // order stays the major order of the output.
            PlanNode::Inlj { input, .. } | PlanNode::RangeProbe { input, .. } => input.order(),
            PlanNode::HashJoin { .. } | PlanNode::NestedLoopJoin { .. } => Vec::new(),
            // The merge emits key groups in ascending key order.
            PlanNode::MergeJoin { left, right, .. } => Self::join_key(left, right),
            PlanNode::Project { input, out_vars, .. } => {
                let mut ord = input.order();
                if let Some(cut) = ord.iter().position(|v| !out_vars.contains(v)) {
                    ord.truncate(cut);
                }
                ord
            }
            // View resolution order depends on the catalog entry, not
            // the fallback plan.
            PlanNode::TrueRow { .. } | PlanNode::Empty { .. } | PlanNode::ViewScan { .. } => {
                Vec::new()
            }
            // The streaming union concatenates members (dropping
            // duplicates, which preserves sortedness), so only a
            // single-member union keeps its member's order.
            PlanNode::HashUnion { members, .. } => {
                if members.len() == 1 {
                    members[0].order()
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// True when this member plan provably emits **distinct** rows, so
    /// a single-member union can skip its dedup accumulator and borrow
    /// the member result as-is (the zero-copy path, counted as
    /// `scan_rows_borrowed`).
    ///
    /// The proof obligation: a single-pattern scan binds every triple
    /// component to either a constant or an output variable, so two
    /// extent triples with equal variable bindings would be the *same*
    /// triple — scans emit distinct rows. A repeated-variable filter
    /// only drops rows; a projection keeps distinctness iff it keeps
    /// every input variable (it is then a column permutation). A
    /// [`PlanNode::RangeScan`] does **not** qualify: its ranged
    /// component is not an output column, so two triples in the
    /// interval can collapse onto one row.
    pub fn distinct_by_construction(&self) -> bool {
        match self {
            PlanNode::IndexScan { .. } | PlanNode::SharedScan { .. } => true,
            PlanNode::TrueRow { .. } => true,
            PlanNode::Filter { input, .. } => input.distinct_by_construction(),
            PlanNode::Project { input, out_vars, .. } => {
                input.distinct_by_construction()
                    && input.vars().iter().all(|v| out_vars.contains(v))
            }
            _ => false,
        }
    }

    /// The join-key variable sequence of a fragment join of `left` and
    /// `right`: their shared variables, in left-schema order — exactly
    /// the key [`join::plan`](crate::exec::join) derives at execution
    /// time, so an input whose order starts with this sequence can have
    /// its merge-sort elided.
    pub fn join_key(left: &PlanNode, right: &PlanNode) -> Vec<VarId> {
        let rv = right.vars();
        left.vars().into_iter().filter(|v| rv.contains(v)).collect()
    }

    /// The fragment-union view of a [`PlanNode::HashUnion`] node.
    pub fn as_union(&self) -> Option<(usize, &[VarId], &[PlanNode])> {
        match self {
            PlanNode::HashUnion { idx, head, members, .. } => Some((*idx, head, members)),
            _ => None,
        }
    }

    /// The union subtree a fragment leaf evaluates when no view
    /// resolves: the fallback for a [`PlanNode::ViewScan`], the node
    /// itself for a [`PlanNode::HashUnion`].
    pub fn fallback_union(&self) -> &PlanNode {
        match self {
            PlanNode::ViewScan { fallback, .. } => fallback,
            other => other,
        }
    }

    fn collect_unions<'a>(&'a self, out: &mut Vec<&'a PlanNode>) {
        match self {
            PlanNode::HashUnion { .. } => out.push(self),
            PlanNode::ViewScan { fallback, .. } => fallback.collect_unions(out),
            PlanNode::Filter { input, .. }
            | PlanNode::Inlj { input, .. }
            | PlanNode::RangeProbe { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Dedup { input, .. } => input.collect_unions(out),
            PlanNode::HashJoin { left, right, .. }
            | PlanNode::MergeJoin { left, right, .. }
            | PlanNode::NestedLoopJoin { left, right, .. } => {
                left.collect_unions(out);
                right.collect_unions(out);
            }
            _ => {}
        }
    }

    fn render_into(
        &self,
        out: &mut String,
        indent: usize,
        max_members: usize,
        names: Option<&TermNameResolver<'_>>,
    ) {
        let pad = "  ".repeat(indent);
        let est = |e: &Option<f64>| e.map(|e| format!(" (est {e:.1})")).unwrap_or_default();
        match self {
            PlanNode::IndexScan { pattern, perm, est: e } => {
                let via = perm.map(|p| format!(" via {p:?}")).unwrap_or_default();
                let _ = writeln!(out, "{pad}IndexScan {pattern}{via}{}", est(e));
            }
            PlanNode::RangeScan { pattern, ranged, lo, hi, members, est: e } => {
                let pos = match ranged {
                    RangePos::Predicate => 'p',
                    RangePos::Object => 'o',
                };
                let width = hi - lo;
                let name =
                    names.and_then(|f| f(*lo)).map(|n| format!(" ({n})")).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{pad}RangeScan {pattern} {pos}∈[#u{lo}, #u{lo}+{width}){name} — \
                     {members} members{}",
                    est(e)
                );
            }
            PlanNode::SharedScan { id, pattern, est: e } => {
                let _ = writeln!(out, "{pad}SharedScan #{id} {pattern}{}", est(e));
            }
            PlanNode::Filter { pattern, input } => {
                let _ = writeln!(out, "{pad}Filter repeated-vars {pattern}");
                input.render_into(out, indent + 1, max_members, names);
            }
            PlanNode::Inlj { input, pattern } => {
                let _ = writeln!(out, "{pad}Inlj probe {pattern}");
                input.render_into(out, indent + 1, max_members, names);
            }
            PlanNode::RangeProbe { input, pattern, ranged, lo, hi, members } => {
                let pos = match ranged {
                    RangePos::Predicate => 'p',
                    RangePos::Object => 'o',
                };
                let width = hi - lo;
                let name =
                    names.and_then(|f| f(*lo)).map(|n| format!(" ({n})")).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{pad}RangeProbe {pattern} {pos}∈[#u{lo}, #u{lo}+{width}){name} — \
                     {members} members"
                );
                input.render_into(out, indent + 1, max_members, names);
            }
            PlanNode::HashJoin { left, right, step, est: e } => {
                let _ = writeln!(out, "{pad}HashJoin join[{step}]{}", est(e));
                left.render_into(out, indent + 1, max_members, names);
                right.render_into(out, indent + 1, max_members, names);
            }
            PlanNode::MergeJoin { left, right, step, est: e, sort_elided } => {
                let mut notes: Vec<&str> = Vec::new();
                match sort_elided {
                    (true, true) => notes.push("sort elided"),
                    (true, false) => notes.push("sort elided: left"),
                    (false, true) => notes.push("sort elided: right"),
                    (false, false) => {}
                }
                // Gallop eligibility is decided at run time from actual
                // input sizes; annotate when the estimates already show
                // the ≥8× skew the kernel looks for.
                if let (Some(l), Some(r)) = (fragment_est(left), fragment_est(right)) {
                    if l >= 8.0 * r || r >= 8.0 * l {
                        notes.push("gallop");
                    }
                }
                let ann = if notes.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", notes.join(", "))
                };
                let _ = writeln!(out, "{pad}MergeJoin join[{step}]{ann}{}", est(e));
                left.render_into(out, indent + 1, max_members, names);
                right.render_into(out, indent + 1, max_members, names);
            }
            PlanNode::NestedLoopJoin { left, right, step, est: e } => {
                let _ = writeln!(out, "{pad}NestedLoopJoin join[{step}]{}", est(e));
                left.render_into(out, indent + 1, max_members, names);
                right.render_into(out, indent + 1, max_members, names);
            }
            PlanNode::Project { input, head, .. } => {
                let cols: Vec<String> = head.iter().map(|t| t.to_string()).collect();
                let _ = writeln!(out, "{pad}Project [{}]", cols.join(", "));
                input.render_into(out, indent + 1, max_members, names);
            }
            PlanNode::TrueRow { .. } => {
                let _ = writeln!(out, "{pad}TrueRow");
            }
            PlanNode::HashUnion { idx, members, est: e, .. } => {
                let _ = writeln!(
                    out,
                    "{pad}HashUnion fragment[{idx}] — {} member{}{}",
                    members.len(),
                    if members.len() == 1 { "" } else { "s" },
                    est(e)
                );
                for m in members.iter().take(max_members) {
                    m.render_into(out, indent + 1, max_members, names);
                }
                if members.len() > max_members {
                    let _ = writeln!(
                        out,
                        "{}… {} more members",
                        "  ".repeat(indent + 1),
                        members.len() - max_members
                    );
                }
            }
            PlanNode::ViewScan { idx, view, est: e, fallback, .. } => {
                let _ = writeln!(out, "{pad}ViewScan fragment[{idx}] view#{view}{}", est(e));
                let _ = writeln!(out, "{}fallback:", "  ".repeat(indent + 1));
                fallback.render_into(out, indent + 2, max_members, names);
            }
            PlanNode::Dedup { input, est: e } => {
                let _ = writeln!(out, "{pad}Dedup{}", est(e));
                input.render_into(out, indent + 1, max_members, names);
            }
            PlanNode::Empty { .. } => {
                let _ = writeln!(out, "{pad}Empty");
            }
        }
    }
}

/// The permutation key order of a scan, restricted to the pattern's
/// variable positions: the variable sequence the emitted relation's
/// rows are sorted by. Constants in the key prefix are equal across the
/// slice (skipped); a repeated variable contributes once — after the
/// repeated-variable filter its occurrences are equal, so sorting by
/// the first key occurrence is sorting by the variable.
pub(crate) fn scan_order(pattern: &StorePattern, perm: Perm) -> Vec<VarId> {
    let positions = pattern.positions();
    let mut out = Vec::new();
    for i in perm.key_positions() {
        if let Some(v) = positions[i].as_var() {
            if !out.contains(&v) {
                out.push(v);
            }
        }
    }
    out
}

/// A node's row estimate, when it carries one (fragment leaves and
/// joins do).
fn fragment_est(node: &PlanNode) -> Option<f64> {
    match node {
        PlanNode::IndexScan { est, .. }
        | PlanNode::RangeScan { est, .. }
        | PlanNode::SharedScan { est, .. }
        | PlanNode::HashJoin { est, .. }
        | PlanNode::MergeJoin { est, .. }
        | PlanNode::NestedLoopJoin { est, .. }
        | PlanNode::ViewScan { est, .. }
        | PlanNode::HashUnion { est, .. }
        | PlanNode::Dedup { est, .. } => *est,
        _ => None,
    }
}

/// Resolves a raw term id to a printable name for plan rendering.
///
/// The store has no dictionary, so decoded names (e.g. the class behind
/// a `RangeScan` interval) are injected by the layer that owns one; the
/// store-only renderer prints raw `#uN` ids.
pub type TermNameResolver<'a> = dyn Fn(u32) -> Option<String> + 'a;

/// One factored common scan: a distinct [`StorePattern`] access path
/// referenced by two or more scan positions across the plan's union
/// members. The executor materializes it once (charging `tuples_scanned`
/// once) before fragment evaluation begins.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedScanDef {
    /// The factored pattern.
    pub pattern: StorePattern,
    /// How many scan positions reference it.
    pub uses: usize,
    /// Exact extent cardinality.
    pub est: Option<f64>,
}

/// One sideways-information-passing filter of a plan: after fragment
/// join step `step`'s left (accumulated) input is complete, a Bloom
/// filter over `keys` is built from it and fragment `target`'s union
/// members are probed against it before they reach the join. Every join
/// step with a key has one (see [`Plan::sip`]); a cartesian step has
/// none.
#[derive(Debug, Clone, PartialEq)]
pub struct SipFilterDef {
    /// The fragment join step whose accumulated left side feeds the
    /// filter.
    pub step: usize,
    /// The fragment whose members probe the filter.
    pub target: usize,
    /// The join-key variables the filter covers.
    pub keys: Vec<VarId>,
}

/// One view binding of a plan: the canonical signature a
/// [`PlanNode::ViewScan`] resolves through the catalog at evaluation
/// time, plus the entry's tuple count at plan time (estimate only —
/// resolution is epoch-exact regardless).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewBindingDef {
    /// The canonical fragment signature.
    pub signature: ViewSignature,
    /// The matched entry's tuple count when the plan was lowered.
    pub tuples: usize,
}

/// A complete physical plan for one [`StoreJucq`](crate::ir::StoreJucq).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The operator tree (see [`PlanNode`] for the shape invariants).
    pub root: PlanNode,
    /// The plan-wide table of factored common scans.
    pub shared: Vec<SharedScanDef>,
    /// The query's output variables.
    pub head: Vec<VarId>,
    /// The fragment index whose union result is pipelined into the first
    /// join (every other fragment is charged as materialized); `None`
    /// with fewer than two fragments.
    pub pipelined: Option<usize>,
    /// Per-node cardinality estimates keyed by the executor's node
    /// labels (`fragment[i].union`, `join[k].hash_join`, `dedup`,
    /// `shared_scan[i]`), paired with measured rows by
    /// `explain_analyze`.
    pub estimates: Vec<(String, f64)>,
    /// The fragment join order the tree was built from (seed first);
    /// empty for a constant-empty plan. The plan's SIP filters are read
    /// off it ([`Plan::sip`]).
    pub join_order: Vec<JoinStep>,
    /// How many fragments had at least one collapsible run of members
    /// (consecutive-id constants), whether or not the profile's
    /// `range_scans` knob let the planner rewrite them. Feeds the query
    /// log's range-eligibility field.
    pub range_eligible: usize,
    /// How many [`PlanNode::RangeScan`] nodes the plan contains (one per
    /// collapsed member).
    pub range_scans: usize,
    /// The plan's view bindings, indexed by
    /// [`PlanNode::ViewScan`]`::view`. Empty unless the planner matched
    /// fragments against a catalog.
    pub views: Vec<ViewBindingDef>,
}

impl Plan {
    /// True iff the plan was proven empty at plan time.
    pub fn is_const_empty(&self) -> bool {
        matches!(self.root, PlanNode::Empty { .. })
    }

    /// The fragment [`PlanNode::HashUnion`] nodes, in fragment order
    /// (descending through [`PlanNode::ViewScan`] fallbacks).
    pub fn unions(&self) -> Vec<&PlanNode> {
        let mut out = Vec::new();
        self.root.collect_unions(&mut out);
        out.sort_by_key(|n| n.as_union().map(|(i, _, _)| i).unwrap_or(usize::MAX));
        out
    }

    /// The plan's sideways-information-passing filters, in join-step
    /// order: one per join step with a key, built from the step's
    /// accumulated left side and probed by the fragment it joins in.
    pub fn sip(&self) -> Vec<SipFilterDef> {
        let steps = self.join_order.iter().skip(1).enumerate();
        steps
            .filter(|(_, next)| !next.key.is_empty())
            .map(|(step, next)| SipFilterDef {
                step,
                target: next.fragment,
                keys: next.key.clone(),
            })
            .collect()
    }

    /// How many fragments the plan serves as [`PlanNode::ViewScan`]s.
    pub fn view_scans(&self) -> usize {
        self.views.len()
    }

    /// Total plan size: tree nodes plus shared-scan table entries.
    pub fn node_count(&self) -> usize {
        self.root.node_count() + self.shared.len()
    }

    /// Render the plan as an indented operator tree, truncating each
    /// union to its first `max_members` members.
    pub fn render(&self, max_members: usize) -> String {
        self.render_with(max_members, None)
    }

    /// [`Plan::render`] with a term-name resolver: `RangeScan` nodes
    /// additionally print the decoded name of their interval's low
    /// endpoint (the subtree root, e.g. `(Student)`).
    pub fn render_with(&self, max_members: usize, names: Option<&TermNameResolver<'_>>) -> String {
        let mut out = String::new();
        if !self.shared.is_empty() {
            out.push_str("Shared scans:\n");
            for (i, def) in self.shared.iter().enumerate() {
                let est = def.est.map(|e| format!(", est {e:.1}")).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "  [{i}] {} — {} use{}{est}",
                    def.pattern,
                    def.uses,
                    if def.uses == 1 { "" } else { "s" }
                );
            }
        }
        if let Some(i) = self.pipelined {
            let _ = writeln!(out, "Pipelined fragment: {i}");
        }
        if self.join_order.len() > 1 {
            out.push_str("Fragment join order:");
            for (k, step) in self.join_order.iter().enumerate() {
                let (f, est) = (step.fragment, step.est_rows);
                if k == 0 {
                    let _ = write!(out, " f{f} (est {est:.1})");
                } else {
                    let key: Vec<String> = step.key.iter().map(|v| format!("?{v}")).collect();
                    let _ = write!(out, " ⋈[{}] f{f} → est {est:.1}", key.join(","));
                }
            }
            out.push('\n');
        }
        let sip = self.sip();
        if !sip.is_empty() {
            out.push_str("SIP filters:\n");
            for def in &sip {
                let keys: Vec<String> = def.keys.iter().map(|v| format!("?{v}")).collect();
                let _ = writeln!(
                    out,
                    "  join[{}] build → fragment[{}] probe on [{}]",
                    def.step,
                    def.target,
                    keys.join(", ")
                );
            }
        }
        self.root.render_into(&mut out, 0, max_members, names);
        out
    }
}
