//! The physical plan: §4.1's evaluation of a JUCQ, as data.
//!
//! A [`Plan`] is what the [`Planner`](crate::plan::Planner) lowers a
//! [`StoreJucq`](crate::ir::StoreJucq) into and what the executor
//! drives: a plan-wide table of factored [`SharedScanDef`]s, one
//! [`FragmentPlan`] per fragment — a union of [`MemberPlan`] pipelines,
//! each a [`Leaf`] extended by index [`Probe`]s and projected onto its
//! head — and the fragment join order, one [`JoinStep`] per fragment
//! (seed first), every step after the seed joined with the plan's one
//! [`JoinAlgo`]. The same plan drives execution, `explain` (which
//! renders it as the nested operator tree `Dedup` / `Project` / joins /
//! `HashUnion` it describes), and the estimate column of
//! `explain_analyze`.

use std::fmt::Write as _;

use crate::exec::join;
use crate::ir::{PatternTerm, StorePattern, VarId};
use crate::plan::join_order::JoinStep;
use crate::profile::JoinAlgo;
use crate::table::RangePos;
use crate::views::ViewSignature;

/// A collapsed interval: the constant at one position of a pattern
/// replaced by any raw URI id in `[lo, hi)`. Produced by the planner's
/// collapse pass when `members` union members differed only in that
/// constant and the interval covers exactly their ids (typically a class
/// or property subtree).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Which component the interval ranges over.
    pub ranged: RangePos,
    /// Inclusive lower raw URI id.
    pub lo: u32,
    /// Exclusive upper raw URI id.
    pub hi: u32,
    /// How many union members the interval replaces.
    pub members: usize,
}

/// Where a union member's pipeline starts.
#[derive(Debug, Clone, PartialEq)]
pub enum Leaf {
    /// Scan one triple pattern's extent off a permutation index.
    Scan {
        /// The pattern scanned.
        pattern: StorePattern,
        /// Exact extent cardinality (index lookup at plan time).
        est: f64,
    },
    /// Scan an interval of patterns off the permutation index that sorts
    /// the ranged component contiguously. `pattern` is the first
    /// collapsed member's, its constant still at the ranged position (the
    /// variables, bound positions and repeated-variable structure are
    /// shared by every collapsed member).
    Range {
        /// The pattern template.
        pattern: StorePattern,
        /// The interval its ranged constant stands for.
        interval: Interval,
        /// Exact extent cardinality of the whole interval.
        est: f64,
    },
    /// Entry `id` of [`Plan::shared`]: the extent is materialized once
    /// per query and borrowed by every member referencing it.
    Shared {
        /// Index into [`Plan::shared`].
        id: usize,
    },
    /// The always-true empty body: one empty row when the fragment head
    /// is empty, no rows otherwise.
    TrueRow,
}

/// One index-nested-loop step of a member: probe `pattern`'s best index
/// once per input row, binding the pattern's variables the row already
/// holds (repeated-variable consistency is checked in the probe).
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// The probed pattern (a collapsed probe's template).
    pub pattern: StorePattern,
    /// With an interval, the pattern's ranged position matches any id in
    /// it — one contiguous lookup per input row where the uncollapsed
    /// union needed one per collapsed member.
    pub range: Option<Interval>,
}

/// One union member: a leaf, extended by its probes in order, projected
/// onto `head` (variables and constants, positionally aligned with the
/// fragment head).
#[derive(Debug, Clone, PartialEq)]
pub struct MemberPlan {
    /// The pipeline's start.
    pub leaf: Leaf,
    /// Index probes, in execution order.
    pub probes: Vec<Probe>,
    /// The member's output terms.
    pub head: Vec<PatternTerm>,
}

/// One fragment: the streaming hash-deduplicating union of its members'
/// results, or the materialized view that serves it.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentPlan {
    /// The union's output schema.
    pub head: Vec<VarId>,
    /// The member pipelines, in member order.
    pub members: Vec<MemberPlan>,
    /// The union's estimated rows: the summary of its rewritten members.
    pub est: f64,
    /// Index into [`Plan::views`] when the fragment matched the view
    /// catalog at plan time. The plan carries **no rows**: the executor
    /// resolves the signature with the *request's* epoch and evaluates
    /// `members` on any mismatch, so plans stay safe to cache across
    /// epochs.
    pub view: Option<usize>,
}

impl Leaf {
    /// The pattern the leaf scans (a shared scan's, resolved through
    /// `shared`); `None` for the true row.
    fn pattern<'a>(&'a self, shared: &'a [SharedScanDef]) -> Option<&'a StorePattern> {
        match self {
            Leaf::Scan { pattern, .. } | Leaf::Range { pattern, .. } => Some(pattern),
            Leaf::Shared { id } => Some(&shared[*id].pattern),
            Leaf::TrueRow => None,
        }
    }

    /// The repeated-variable pattern whose equality a private scan
    /// enforces inline (`?x p ?x`); rendered as a `Filter` node.
    fn filtered(&self) -> Option<&StorePattern> {
        match self {
            Leaf::Scan { pattern, .. } | Leaf::Range { pattern, .. } => {
                pattern.has_repeated_var().then_some(pattern)
            }
            Leaf::Shared { .. } | Leaf::TrueRow => None,
        }
    }
}

impl MemberPlan {
    /// True when the member provably emits **distinct** rows. A
    /// single-pattern scan binds every triple component to a constant or
    /// a variable, so two extent triples with equal bindings would be the
    /// *same* triple; the repeated-variable filter only drops rows; and a
    /// projection keeps distinctness iff it keeps every scanned variable.
    /// A range scan does **not** qualify (its ranged component is not an
    /// output column, so two triples in the interval can collapse onto
    /// one row), nor does a member with probes.
    pub fn distinct_by_construction(&self, out_vars: &[VarId], shared: &[SharedScanDef]) -> bool {
        match (&self.leaf, self.probes.is_empty()) {
            (Leaf::TrueRow, _) => true,
            (Leaf::Range { .. }, _) | (_, false) => false,
            (leaf, true) => leaf
                .pattern(shared)
                .is_some_and(|p| p.variables().iter().all(|v| out_vars.contains(v))),
        }
    }

    /// Operator nodes the member renders as: its projection, probes,
    /// inline filter and leaf (a true row is one node).
    fn node_count(&self) -> usize {
        match self.leaf {
            Leaf::TrueRow => 1,
            _ => 2 + self.probes.len() + usize::from(self.leaf.filtered().is_some()),
        }
    }
}

impl FragmentPlan {
    /// True when the union is one member that emits distinct rows, so
    /// the executor can skip the dedup accumulator and borrow the
    /// member's result as-is (the zero-copy path, counted as
    /// `scan_rows_borrowed`).
    pub fn distinct_by_construction(&self, shared: &[SharedScanDef]) -> bool {
        matches!(self.members.as_slice(), [only] if only.distinct_by_construction(&self.head, shared))
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

/// One view binding of a plan: the canonical signature a view-served
/// [`FragmentPlan`] resolves through the catalog at evaluation time,
/// plus the entry's tuple count at plan time (estimate only —
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
    /// The plan-wide table of factored common scans.
    pub shared: Vec<SharedScanDef>,
    /// One entry per JUCQ fragment, in fragment order; empty for a plan
    /// proven empty at plan time (a fragment lost every member to
    /// empty-extent pruning, or the query has no fragments).
    pub fragments: Vec<FragmentPlan>,
    /// The fragment join order (seed first); empty exactly when
    /// `fragments` is. The plan's SIP filters are read off it
    /// ([`Plan::sip`]).
    pub join_order: Vec<JoinStep>,
    /// The algorithm every step after the seed joins with: the
    /// profile's when the plan was lowered, so a cached plan runs the
    /// join it was planned for.
    pub join: JoinAlgo,
    /// The query's output variables.
    pub head: Vec<VarId>,
    /// The fragment index whose union result is pipelined into the first
    /// join (every other fragment is charged as materialized); `None`
    /// with fewer than two fragments.
    pub pipelined: Option<usize>,
    /// How many fragments had at least one collapsible run of members
    /// (consecutive-id constants), whether or not the profile's
    /// `range_scans` knob let the planner rewrite them. Feeds the query
    /// log's range-eligibility field.
    pub range_eligible: usize,
    /// How many collapsed intervals (range-scan leaves and range probes)
    /// the plan contains.
    pub range_scans: usize,
    /// The plan's view bindings, indexed by [`FragmentPlan::view`].
    /// Empty unless the planner matched fragments against a catalog.
    pub views: Vec<ViewBindingDef>,
}

impl Plan {
    /// True iff the plan was proven empty at plan time.
    pub fn is_const_empty(&self) -> bool {
        self.fragments.is_empty()
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

    /// How many fragments the plan serves from views.
    pub fn view_scans(&self) -> usize {
        self.views.len()
    }

    /// The rows fragment `i` is estimated to join with: its view's
    /// stored tuples when a view serves it, its union's estimate
    /// otherwise.
    fn served_est(&self, i: usize) -> f64 {
        let f = &self.fragments[i];
        f.view.map_or(f.est, |v| self.views[v].tuples as f64)
    }

    /// The plan's cardinality estimates keyed by the executor's node
    /// labels (`shared_scan[i]`, `fragment[i].union`,
    /// `fragment[i].view_scan`, `join[k].<algo>`, `dedup`), in that
    /// order; `explain_analyze` pairs them with measured rows.
    pub fn estimates(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for (i, def) in self.shared.iter().enumerate() {
            out.push((format!("shared_scan[{i}]"), def.est.unwrap_or(0.0)));
        }
        for (i, f) in self.fragments.iter().enumerate() {
            out.push((format!("fragment[{i}].union"), f.est));
        }
        for (i, f) in self.fragments.iter().enumerate() {
            if f.view.is_some() {
                out.push((format!("fragment[{i}].view_scan"), self.served_est(i)));
            }
        }
        for (k, step) in self.join_order.iter().skip(1).enumerate() {
            out.push((format!("join[{k}].{}", join::op_name(self.join)), step.est_rows));
        }
        if let Some(last) = self.join_order.last() {
            out.push(("dedup".to_string(), last.est_rows));
        }
        out
    }

    /// Total plan size: the operator nodes [`Plan::render`] prints plus
    /// the shared-scan table entries.
    pub fn node_count(&self) -> usize {
        if self.fragments.is_empty() {
            return 1;
        }
        let unions: usize = self
            .fragments
            .iter()
            .map(|f| {
                let members: usize = f.members.iter().map(MemberPlan::node_count).sum();
                1 + usize::from(f.view.is_some()) + members
            })
            .sum();
        2 + (self.join_order.len() - 1) + unions + self.shared.len()
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
        let Some(last) = self.join_order.last() else {
            out.push_str("Empty\n");
            return out;
        };
        let tree = Tree { plan: self, max_members, names };
        let _ = writeln!(out, "Dedup (est {:.1})", last.est_rows);
        let cols: Vec<String> =
            self.head.iter().map(|&v| PatternTerm::Var(v).to_string()).collect();
        let _ = writeln!(out, "  Project [{}]", cols.join(", "));
        tree.joins(&mut out, self.join_order.len() - 1, 2);
        out
    }
}

/// Renders a plan's fragment joins, unions and members as the left-deep
/// operator tree they execute as.
struct Tree<'p, 'n> {
    plan: &'p Plan,
    max_members: usize,
    names: Option<&'n TermNameResolver<'n>>,
}

impl Tree<'_, '_> {
    /// Join order steps `0..=k`: the join of step `k` over the steps
    /// before it (left) and step `k`'s fragment (right); step 0 is the
    /// seed fragment alone.
    fn joins(&self, out: &mut String, k: usize, indent: usize) {
        let plan = self.plan;
        let step = &plan.join_order[k];
        if k == 0 {
            return self.fragment(out, step.fragment, indent);
        }
        let name = match plan.join {
            JoinAlgo::Hash => "HashJoin",
            JoinAlgo::BlockNestedLoop => "NestedLoopJoin",
        };
        let pad = "  ".repeat(indent);
        let _ = writeln!(out, "{pad}{name} join[{}] (est {:.1})", k - 1, step.est_rows);
        self.joins(out, k - 1, indent + 1);
        self.fragment(out, step.fragment, indent + 1);
    }

    /// Fragment `i`: its union, under the view scan that serves it when
    /// one does.
    fn fragment(&self, out: &mut String, i: usize, mut indent: usize) {
        let f = &self.plan.fragments[i];
        if let Some(view) = f.view {
            let pad = "  ".repeat(indent);
            let est = self.plan.served_est(i);
            let _ = writeln!(out, "{pad}ViewScan fragment[{i}] view#{view} (est {est:.1})");
            let _ = writeln!(out, "{pad}  fallback:");
            indent += 2;
        }
        let n = f.members.len();
        let _ = writeln!(
            out,
            "{}HashUnion fragment[{i}] — {n} member{} (est {:.1})",
            "  ".repeat(indent),
            if n == 1 { "" } else { "s" },
            f.est
        );
        for m in f.members.iter().take(self.max_members) {
            self.member(out, m, indent + 1);
        }
        if n > self.max_members {
            let _ =
                writeln!(out, "{}… {} more members", "  ".repeat(indent + 1), n - self.max_members);
        }
    }

    /// One member: its projection over the probes, outermost first, over
    /// the (filtered) leaf.
    fn member(&self, out: &mut String, m: &MemberPlan, mut indent: usize) {
        let mut line = |indent: usize, text: String| {
            let _ = writeln!(out, "{}{text}", "  ".repeat(indent));
        };
        let leaf = match &m.leaf {
            Leaf::Scan { pattern, est } => format!("IndexScan {pattern} (est {est:.1})"),
            Leaf::Range { pattern, interval, est } => {
                format!("RangeScan {pattern} {} (est {est:.1})", self.interval(interval))
            }
            Leaf::Shared { id } => {
                let def = &self.plan.shared[*id];
                let est = def.est.map(|e| format!(" (est {e:.1})")).unwrap_or_default();
                format!("SharedScan #{id} {}{est}", def.pattern)
            }
            Leaf::TrueRow => return line(indent, "TrueRow".to_string()),
        };
        let cols: Vec<String> = m.head.iter().map(ToString::to_string).collect();
        line(indent, format!("Project [{}]", cols.join(", ")));
        for p in m.probes.iter().rev() {
            indent += 1;
            line(
                indent,
                match &p.range {
                    Some(iv) => format!("RangeProbe {} {}", p.pattern, self.interval(iv)),
                    None => format!("Inlj probe {}", p.pattern),
                },
            );
        }
        indent += 1;
        if let Some(pattern) = m.leaf.filtered() {
            line(indent, format!("Filter repeated-vars {pattern}"));
            indent += 1;
        }
        line(indent, leaf);
    }

    /// `o∈[#u18, #u18+5) (FullProfessor) — 4 members`.
    fn interval(&self, iv: &Interval) -> String {
        let pos = match iv.ranged {
            RangePos::Predicate => 'p',
            RangePos::Object => 'o',
        };
        let name = self.names.and_then(|f| f(iv.lo)).map(|n| format!(" ({n})")).unwrap_or_default();
        format!("{pos}∈[#u{}, #u{}+{}){name} — {} members", iv.lo, iv.lo, iv.hi - iv.lo, iv.members)
    }
}
