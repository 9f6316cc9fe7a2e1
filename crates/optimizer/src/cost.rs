//! The analytic cost model of §4.1.
//!
//! For a JUCQ `q(x̄):- q^UCQ₁ ⋈ … ⋈ q^UCQₘ`:
//!
//! ```text
//! c(q) = c_db                                   (i)   connection overhead
//!      + Σᵢ c_eval(q^UCQᵢ)                      (ii)  fragment evaluation
//!        └ c_unique(q^UCQᵢ) + Σ_CQ c_eval(CQ)   (iii) incl. per-fragment dedup
//!      + c_join(q^UCQ₁..ₘ)                      (iv)  fragment joins
//!      + c_mat(q^UCQᵢ, i ≠ k)                   (v)   materialization, largest
//!                                                     fragment k pipelined
//!      + c_unique(q)                            (vi)  final dedup
//! ```
//!
//! with `c_eval(CQ) = (c_t + c_j)·Σ_tᵢ |CQ_{tᵢ}|` (scan + linear join,
//! equation 2), `c_join = c_j · Σ` over fragment input volumes
//! (equation 3), `c_mat = c_m · Σ` over the same volumes excluding the
//! largest fragment (equation 4), and `c_unique(q) = c_l·|q|` for
//! in-memory hashing or `c_k·|q|·log|q|` once `|q|` exceeds the
//! disk-sort threshold. The `|·|` cardinalities come from the
//! statistics layer (`jucq_store::stats`), the same code that sizes the
//! fragments the planner joins: exact per-triple extents, member
//! estimates and pipeline volumes from `Statistics`, and one
//! `FragmentSummary` per fragment, which `combine` folds into the JUCQ's
//! join cardinality. This module only decides *which* extents a summary
//! is built from (a cover query's unioned extents, or the union's
//! members) and prices the result.

use std::cell::RefCell;

use jucq_model::FxHashMap;
use jucq_store::{
    collapsible_runs, EstScratch, FragmentSummary, Statistics, StoreCq, StoreJucq, StorePattern,
    StoreUcq, TripleTable, ViewCatalog, ViewSignature,
};
use serde::{Deserialize, Serialize};

/// The system-dependent constants of the model, "which we determine by
/// running a set of simple calibration queries on the RDBMS being used"
/// (§4.1). Units: seconds (per tuple where applicable).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostConstants {
    /// Fixed overhead of connecting to the engine (`c_db`).
    pub c_db: f64,
    /// Cost of retrieving one tuple by scan (`c_t`).
    pub c_t: f64,
    /// Per-input-tuple join effort (`c_j`).
    pub c_j: f64,
    /// Per-tuple materialization effort (`c_m`).
    pub c_m: f64,
    /// Per-tuple in-memory duplicate-elimination effort (`c_l`).
    pub c_l: f64,
    /// Per-tuple·log(tuple) disk-sort dedup effort (`c_k`).
    pub c_k: f64,
    /// Result size beyond which dedup switches from hashing (`c_l`) to
    /// disk merge sort (`c_k n log n`).
    pub sort_threshold: f64,
    /// Per-tuple cost of streaming one contiguous dictionary interval
    /// (`c_range`): a collapsed union member's tuples arrive from a
    /// single index range scan, skipping the per-member lookup setup and
    /// union-dedup pressure that `c_t + c_j` prices. Term ids never
    /// remap, so an interval priced here is the one the planner scans.
    /// Defaulted on deserialization so constants documents written
    /// before range collapse existed still load.
    #[serde(default = "default_c_range")]
    pub c_range: f64,
    /// Per-tuple cost of copying one tuple out of a materialized
    /// fragment view (`c_view`): a view-backed fragment skips member
    /// scans, joins and union dedup entirely — its price is a single
    /// sequential copy of the stored result. Defaulted on
    /// deserialization so constants documents written before the view
    /// catalog existed still load.
    #[serde(default = "default_c_view")]
    pub c_view: f64,
}

/// `c_range` for constants documents serialized before the range-scan
/// collapse existed (and the [`Default`] value): a quarter of the
/// default `c_t + c_j` — a streamed interval tuple skips the member's
/// own scan setup and join bookkeeping.
fn default_c_range() -> f64 {
    2.5e-8
}

/// `c_view` for constants documents serialized before the view catalog
/// existed (and the [`Default`] value): below even `c_range` — a view
/// tuple is a plain copy of an already-deduplicated stored row, with no
/// index traversal at all.
fn default_c_view() -> f64 {
    1.5e-8
}

impl Default for CostConstants {
    /// Plausible laptop-scale defaults; experiments calibrate real ones.
    fn default() -> Self {
        CostConstants {
            c_db: 1e-3,
            c_t: 4e-8,
            c_j: 6e-8,
            c_m: 3e-8,
            c_l: 8e-8,
            c_k: 2e-8,
            sort_threshold: 5e6,
            c_range: default_c_range(),
            c_view: default_c_view(),
        }
    }
}

/// How `c_eval(CQ)` measures a member CQ's evaluation input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalModel {
    /// Equation 2 verbatim: every atom's full extent is scanned —
    /// faithful to the paper's RDBMS plans, which scan each union arm's
    /// inputs.
    ScanVolume,
    /// The substrate-aware refinement: our engine evaluates member CQs
    /// with index-nested-loop pipelines, so the input volume is the
    /// first (smallest) extent plus the estimated intermediate sizes of
    /// the greedy pipeline prefixes. DESIGN.md documents this
    /// substitution; `ScanVolume` remains available as an ablation.
    IndexPipeline,
}

/// Cached per-fragment cost ingredients: everything `combine` needs,
/// computable once per fragment and reused across the many covers that
/// share it.
#[derive(Debug, Clone)]
pub struct FragComponents {
    /// Σ member `c_eval` (scan + linear join effort).
    pub eval: f64,
    /// Σ member scan volumes (the input-size proxy of equations 3–4).
    pub volume: f64,
    /// Estimated result rows of the fragment UCQ and the
    /// join-selectivity domains of its variables.
    pub summary: FragmentSummary,
}

impl FragComponents {
    /// Debug-mode sanity check: every ingredient must be finite and
    /// non-negative, or cover comparison silently corrupts (NaN breaks
    /// `<`; negative costs invert the greedy search's preferences).
    pub fn debug_check(&self) {
        let domains = self.summary.domains.iter().map(|d| d.1);
        debug_assert!(
            [self.eval, self.volume, self.summary.rows]
                .into_iter()
                .chain(domains)
                .all(|x| x.is_finite() && x >= 0.0),
            "fragment cost ingredient not finite/non-negative: {self:?}"
        );
    }
}

/// Member-sampling threshold: fragments beyond this many member CQs are
/// estimated on an evenly-strided sample, scaled back up.
const MEMBER_SAMPLE_CAP: usize = 4096;

/// Stride of the evenly spaced member sample of an `n`-member union,
/// and the factor scaling sample sums back up to the whole union.
fn member_sample(n: usize) -> (usize, f64) {
    if n <= MEMBER_SAMPLE_CAP {
        (1, 1.0)
    } else {
        let stride = n.div_ceil(MEMBER_SAMPLE_CAP / 2);
        (stride, n as f64 / n.div_ceil(stride) as f64)
    }
}

/// What one pass over a reformulated union's members yields: the sums
/// every estimate of the union is assembled from.
#[derive(Debug, Clone, Copy)]
pub struct MemberSums {
    /// Σ member `c_eval`, range-collapse discount applied.
    pub eval: f64,
    /// Σ member scan volumes.
    pub volume: f64,
    /// Σ member result estimates — the union's cardinality when no
    /// cover-query template is at hand (it overcounts the overlap
    /// between members).
    pub card: f64,
}

/// The model's mutable side: the extent memo and the buffers one
/// member (or one `combine`) is costed in, reused so that costing a
/// member allocates nothing.
#[derive(Debug, Default)]
struct Workspace {
    /// Exact extent per distinct pattern. The members of a fragment's
    /// union share a few hundred patterns among tens of thousands of
    /// atoms, and each extent is an index lookup.
    extents: FxHashMap<StorePattern, f64>,
    /// The current member's per-atom extents.
    member: Vec<f64>,
    /// The estimator's buffers.
    scratch: EstScratch,
    /// The fragment-join accumulator of `combine`.
    join: FragmentSummary,
}

impl Workspace {
    fn extent(&mut self, model: &PaperCostModel<'_>, p: &StorePattern) -> f64 {
        *self.extents.entry(*p).or_insert_with(|| model.stats.pattern_card(model.table, p) as f64)
    }

    /// One member's `(scan volume, evaluated input volume, result
    /// estimate)`.
    fn member(&mut self, model: &PaperCostModel<'_>, cq: &StoreCq) -> (f64, f64, f64) {
        self.member.clear();
        for p in &cq.patterns {
            let e = self.extent(model, p);
            self.member.push(e);
        }
        let scan: f64 = self.member.iter().sum();
        let card = model.stats.est_with_extents(&cq.patterns, &self.member, &mut self.scratch);
        if cq.patterns.len() <= 1 || model.eval_model == EvalModel::ScanVolume {
            return (scan, scan, card);
        }
        let input = model.stats.pipeline_volume(&cq.patterns, &self.member, &mut self.scratch);
        (scan, input, card)
    }
}

/// The §4.1 model bound to a dataset's statistics.
#[derive(Debug)]
pub struct PaperCostModel<'a> {
    table: &'a TripleTable,
    stats: &'a Statistics,
    constants: CostConstants,
    eval_model: EvalModel,
    /// Price range-collapse opportunities: a fragment whose members form
    /// consecutive-constant runs evaluates the collapsed share of its
    /// volume at `c_range` per tuple instead of `c_t + c_j`. Enabled by
    /// the engine when the profile's `range_scans` knob is on, so the
    /// cover search favors collapsible fragments exactly when the
    /// planner will actually collapse them.
    price_ranges: bool,
    /// Price view-backed fragments: a candidate fragment whose *body*
    /// signature has a current-epoch catalog entry costs `c_view` per
    /// stored tuple instead of its member scans and joins — so the
    /// cover search gravitates toward covers the catalog can serve.
    /// The body signature is head-agnostic (candidate heads are not
    /// final during search); a false positive only skews an estimate,
    /// never an answer.
    price_views: Option<&'a ViewCatalog>,
    work: RefCell<Workspace>,
}

impl<'a> PaperCostModel<'a> {
    /// Bind the model to a dataset and a set of calibrated constants.
    pub fn new(table: &'a TripleTable, stats: &'a Statistics, constants: CostConstants) -> Self {
        PaperCostModel {
            table,
            stats,
            constants,
            eval_model: EvalModel::IndexPipeline,
            price_ranges: false,
            price_views: None,
            work: RefCell::default(),
        }
    }

    /// Select the member-evaluation model (ablation hook).
    pub fn with_eval_model(mut self, eval_model: EvalModel) -> Self {
        self.eval_model = eval_model;
        self
    }

    /// Enable or disable range-collapse pricing (see
    /// [`CostConstants::c_range`]); callers pass the profile's
    /// `range_scans` knob.
    pub fn with_range_pricing(mut self, enabled: bool) -> Self {
        self.price_ranges = enabled;
        self
    }

    /// Enable view-backed fragment pricing (see
    /// [`CostConstants::c_view`]); callers pass the snapshot's
    /// catalog, if one is attached. The cover
    /// search memoizes what it is told per fragment, so bind the
    /// catalog before the first scoring call.
    pub fn with_view_pricing(mut self, catalog: Option<&'a ViewCatalog>) -> Self {
        self.price_views = catalog;
        self
    }

    /// The constants in use.
    pub fn constants(&self) -> &CostConstants {
        &self.constants
    }

    /// `c_unique`: duplicate elimination over `n` tuples.
    ///
    /// Degenerate cardinalities are guarded: a NaN or negative estimate
    /// (which would otherwise poison every comparison downstream — NaN
    /// breaks `<` ordering in the cover search) is treated as an empty
    /// input, and the `n·log n` branch clamps `n` to 2 before the log so
    /// `n ≤ 1` cannot produce a negative or `-inf` factor.
    pub fn c_unique(&self, n: f64) -> f64 {
        debug_assert!(!n.is_nan(), "c_unique over NaN cardinality");
        let n = if n.is_nan() { 0.0 } else { n.max(0.0) };
        if n <= self.constants.sort_threshold {
            self.constants.c_l * n
        } else {
            self.constants.c_k * n * n.max(2.0).log2()
        }
    }

    /// Total scan volume of one CQ: `Σ_tᵢ |CQ_{tᵢ}|` (exact extents).
    pub fn cq_scan_volume(&self, cq: &StoreCq) -> f64 {
        let work = &mut *self.work.borrow_mut();
        cq.patterns.iter().map(|p| work.extent(self, p)).sum()
    }

    /// Total scan volume of a UCQ (the input-size proxy of equations
    /// 3–4).
    pub fn ucq_scan_volume(&self, ucq: &StoreUcq) -> f64 {
        ucq.cqs.iter().map(|cq| self.cq_scan_volume(cq)).sum()
    }

    /// `c_eval(UCQ) = c_unique(UCQ) + Σ_CQ c_eval(CQ)`.
    pub fn c_eval_ucq(&self, ucq: &StoreUcq) -> f64 {
        let comps = self.fragment_components(ucq);
        comps.eval + self.c_unique(comps.summary.rows)
    }

    /// The single pass over a union's (sampled) members: per member,
    /// `c_eval(CQ) = (c_t + c_j)·V` (equation 2) with `V` its input
    /// volume under the configured [`EvalModel`], its scan volume and
    /// its result estimate.
    pub fn member_sums(&self, ucq: &StoreUcq) -> MemberSums {
        let n = ucq.cqs.len();
        let (stride, scale) = member_sample(n);
        let per_tuple = self.constants.c_t + self.constants.c_j;
        let (mut eval, mut volume, mut card) = (0.0, 0.0, 0.0);
        {
            let work = &mut *self.work.borrow_mut();
            for cq in ucq.cqs.iter().step_by(stride) {
                let (scan, input, est) = work.member(self, cq);
                eval += per_tuple * input;
                volume += scan;
                card += est;
            }
        }
        eval *= scale;
        volume *= scale;
        card *= scale;

        // Range-collapse discount: the share of members a planner
        // collapse would eliminate streams its volume at `c_range` per
        // tuple instead of paying per-member scan + join setup.
        // Detection only runs below the sampling cap — a strided sample
        // destroys id-consecutiveness, so larger unions conservatively
        // keep the undiscounted price.
        if self.price_ranges && n > 1 && n <= MEMBER_SAMPLE_CAP {
            let runs = collapsible_runs(ucq.cqs.iter());
            let collapsed: usize = runs.iter().map(|r| r.members.len() - 1).sum();
            if collapsed > 0 {
                let f = collapsed as f64 / n as f64;
                eval = eval * (1.0 - f) + self.constants.c_range * volume * f;
            }
        }
        MemberSums { eval, volume, card }
    }

    /// A fragment's cost ingredients given its *cover query* — its
    /// original atoms plus each atom's unioned reformulation extent:
    /// the result cardinality is the overlap-aware join estimate over
    /// unioned extents instead of the member sum, which overcounts
    /// badly (all members of a reformulated union return overlapping
    /// answers).
    pub fn template_components(
        &self,
        sums: MemberSums,
        ucq: &StoreUcq,
        atoms: &[StorePattern],
        extents: &[f64],
    ) -> FragComponents {
        debug_assert_eq!(atoms.len(), extents.len());
        // The cover query is summarized as one member (its head holds no
        // constants) under a head of *all* its variables, not just this
        // head's: `combine` only reads the domains two fragments share,
        // which every head exposes, so the ingredients serve the fragment
        // under whichever head it is scored with next.
        let cover = StoreCq::with_var_head(atoms.to_vec(), Vec::new());
        let head = cover.body_variables();
        let summary = self.stats.summarize(&head, [(&cover, extents.iter().copied())]);
        self.finish(FragComponents { eval: sums.eval, volume: sums.volume, summary }, ucq)
    }

    /// The §4.1 cost of the one-fragment JUCQ `ucq` with no cover query
    /// at hand (the redundancy-pruning order of GCov): `combine` never
    /// reads a lone fragment's variable domains, so none are derived.
    pub fn standalone_cost(&self, sums: MemberSums, ucq: &StoreUcq) -> f64 {
        let summary = FragmentSummary { rows: sums.card, domains: Vec::new() };
        let comps = FragComponents { eval: sums.eval, volume: sums.volume, summary };
        self.combine(&[&self.finish(comps, ucq)])
    }

    /// View-backed pricing: if the catalog holds this fragment body at
    /// the current epoch, the fragment's true cost is one sequential
    /// copy of the stored result — and its stored tuple count is the
    /// *exact* result cardinality, better than any estimate.
    fn finish(&self, mut comps: FragComponents, ucq: &StoreUcq) -> FragComponents {
        if let Some(catalog) = self.price_views {
            if let Some(tuples) = catalog.body_tuples(&ViewSignature::body_of(ucq)) {
                let t = tuples as f64;
                comps.eval = self.constants.c_view * t;
                comps.volume = t;
                comps.summary.set_rows(t);
            }
        }
        comps.debug_check();
        comps
    }

    /// A fragment's cost ingredients from its union alone: the member
    /// sum for cardinality, and the summary of the (sampled) members for
    /// the head-variable domains. Past the sampling cap the domains are
    /// the sample's, capped by its rows.
    pub fn fragment_components(&self, ucq: &StoreUcq) -> FragComponents {
        let sums = self.member_sums(ucq);
        let (stride, _) = member_sample(ucq.cqs.len());
        // `member_sums` just memoized every extent of the sample.
        let work = self.work.borrow();
        let extent = |p: &StorePattern| work.extents[p];
        let members = ucq.cqs.iter().step_by(stride).map(|cq| (cq, cq.patterns.iter().map(extent)));
        let mut summary = self.stats.summarize(&ucq.head, members);
        summary.set_rows(sums.card);
        self.finish(FragComponents { eval: sums.eval, volume: sums.volume, summary }, ucq)
    }

    /// Equation 1: assemble a JUCQ's cost from its fragments'
    /// ingredients.
    ///
    /// Join and materialization inputs (equations 3–4) are measured per
    /// the configured [`EvalModel`]: the literal `ScanVolume` variant
    /// uses the paper's scan-volume proxy for fragment result sizes,
    /// while `IndexPipeline` uses the estimated fragment cardinalities —
    /// the engine joins and materializes *results*, and the
    /// overlap-aware estimates make that quantity available (the scan
    /// proxy overstates a selective fragment's join input by orders of
    /// magnitude).
    pub fn combine(&self, frags: &[&FragComponents]) -> f64 {
        let c = &self.constants;
        let eval: f64 = frags.iter().map(|f| f.eval + self.c_unique(f.summary.rows)).sum();
        let total_volume: f64 = frags.iter().map(|f| f.volume).sum();
        let join_measure = |f: &&FragComponents| match self.eval_model {
            EvalModel::ScanVolume => f.volume,
            EvalModel::IndexPipeline => f.summary.rows,
        };
        let (join, mat) = if frags.len() > 1 {
            let total: f64 = frags.iter().map(join_measure).sum();
            let largest = frags.iter().map(join_measure).fold(f64::NEG_INFINITY, f64::max);
            (c.c_j * total, c.c_m * (total - largest).max(0.0))
        } else {
            (0.0, 0.0)
        };
        // Fragment-join cardinality: the summaries joined into one, from
        // a unit row (per shared variable, every domain but the smallest
        // divides the product of the fragments' rows).
        let est = {
            let join = &mut self.work.borrow_mut().join;
            join.rows = 1.0;
            join.domains.clear();
            for f in frags {
                join.join(&f.summary);
            }
            join.rows
        };
        // Clamp by the plan's total input: independence estimates can
        // explode on many-fragment covers, and every JUCQ of one query
        // has the same true result anyway.
        let final_card = est.min(total_volume.max(1.0));
        let total = c.c_db + eval + join + mat + self.c_unique(final_card);
        debug_assert!(
            total.is_finite() && total >= 0.0,
            "combined JUCQ cost not finite/non-negative: {total}"
        );
        total
    }

    /// Full JUCQ cost (equation 1 with equations 2–4 injected),
    /// computed from per-fragment components without template
    /// information (used when only the compiled JUCQ is at hand; the
    /// cover search supplies templates through
    /// [`PaperCostModel::template_components`]).
    pub fn cost(&self, jucq: &StoreJucq) -> f64 {
        let comps: Vec<FragComponents> =
            jucq.fragments.iter().map(|u| self.fragment_components(u)).collect();
        self.combine(&comps.iter().collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::term::TermKind;
    use jucq_model::{TermId, TripleId};
    use jucq_store::{PatternTerm, StorePattern, VarId};

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

    fn setup() -> (TripleTable, Statistics) {
        let triples: Vec<TripleId> =
            (0..50).map(|i| t(i, 10, i % 5)).chain((0..10).map(|i| t(i, 11, 100 + i))).collect();
        let table = TripleTable::build(&triples);
        let stats = Statistics::build(&table);
        (table, stats)
    }

    fn frag(patterns: Vec<StorePattern>, head: Vec<VarId>) -> StoreUcq {
        StoreUcq::new(vec![StoreCq::with_var_head(patterns, head.clone())], head)
    }

    #[test]
    fn unique_switches_regimes() {
        let (table, stats) = setup();
        let constants = CostConstants { sort_threshold: 100.0, ..CostConstants::default() };
        let m = PaperCostModel::new(&table, &stats, constants);
        let small = m.c_unique(100.0);
        let large = m.c_unique(101.0);
        assert!((small - constants.c_l * 100.0).abs() < 1e-12);
        assert!((large - constants.c_k * 101.0 * 101f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn scan_volume_uses_exact_extents() {
        let (table, stats) = setup();
        let m = PaperCostModel::new(&table, &stats, CostConstants::default());
        let cq = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(0), c(11), v(2))],
            vec![0],
        );
        assert_eq!(m.cq_scan_volume(&cq), 60.0);
    }

    #[test]
    fn single_fragment_has_no_join_or_mat_cost() {
        let (table, stats) = setup();
        let constants = CostConstants::default();
        let m = PaperCostModel::new(&table, &stats, constants);
        let f = frag(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]);
        let jucq = StoreJucq::from_ucq(f.clone());
        let expected =
            constants.c_db + m.c_eval_ucq(&f) + m.c_unique(stats.summarize_ucq(&table, &f).rows);
        assert!((m.cost(&jucq) - expected).abs() < 1e-12);
    }

    #[test]
    fn multi_fragment_adds_join_and_materialization() {
        let (table, stats) = setup();
        let m = PaperCostModel::new(&table, &stats, CostConstants::default());
        let fa = frag(vec![StorePattern::new(v(0), c(10), v(1))], vec![0]);
        let fb = frag(vec![StorePattern::new(v(0), c(11), v(2))], vec![0]);
        let joint = StoreJucq::new(vec![fa.clone(), fb.clone()], vec![0]);
        let single_costs = m.c_eval_ucq(&fa) + m.c_eval_ucq(&fb);
        assert!(m.cost(&joint) > single_costs, "join + mat + dedup add cost");
    }

    #[test]
    fn materialization_skips_largest_fragment() {
        let (table, stats) = setup();
        let constants = CostConstants {
            c_db: 0.0,
            c_t: 0.0,
            c_j: 0.0,
            c_l: 0.0,
            c_k: 0.0,
            c_m: 1.0,
            sort_threshold: f64::MAX,
            c_range: 0.0,
            c_view: 0.0,
        };
        let m = PaperCostModel::new(&table, &stats, constants);
        // Volumes: fragment a = 50, fragment b = 10 ⇒ mat cost = 10.
        let fa = frag(vec![StorePattern::new(v(0), c(10), v(1))], vec![0]);
        let fb = frag(vec![StorePattern::new(v(0), c(11), v(2))], vec![0]);
        let joint = StoreJucq::new(vec![fa, fb], vec![0]);
        assert!((m.cost(&joint) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn range_pricing_discounts_collapsible_fragments() {
        let (table, stats) = setup();
        let m_off = PaperCostModel::new(&table, &stats, CostConstants::default());
        let m_on =
            PaperCostModel::new(&table, &stats, CostConstants::default()).with_range_pricing(true);
        // Members differing only in a consecutive object constant
        // (objects 0..5 of predicate 10 — the planner would collapse
        // them into one RangeScan).
        let consecutive = StoreUcq::new(
            (0..5)
                .map(|o| {
                    StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), c(o))], vec![0])
                })
                .collect(),
            vec![0],
        );
        let priced = m_on.fragment_components(&consecutive);
        let plain = m_off.fragment_components(&consecutive);
        assert!(
            priced.eval < plain.eval,
            "collapsible fragment not discounted: {} vs {}",
            priced.eval,
            plain.eval
        );
        // Gapped constants form no run: both models price identically.
        let gapped = StoreUcq::new(
            [0u32, 2, 4]
                .iter()
                .map(|&o| {
                    StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), c(o))], vec![0])
                })
                .collect(),
            vec![0],
        );
        let priced = m_on.fragment_components(&gapped);
        let plain = m_off.fragment_components(&gapped);
        assert_eq!(priced.eval, plain.eval, "non-collapsible fragment must not be discounted");
    }

    #[test]
    fn view_pricing_discounts_catalog_backed_fragments() {
        use jucq_store::{Relation, ViewCatalog, ViewFootprint, ViewSignature};

        let (table, stats) = setup();
        let f = frag(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(0), c(11), v(2))],
            vec![0],
        );

        // Materialize a stand-in result for the fragment and register it.
        let mut rows = Relation::empty(vec![0]);
        for i in 0..10u32 {
            rows.push_row(&[id(i)]);
        }
        let catalog = ViewCatalog::new(1_000);
        assert!(catalog.insert(
            ViewSignature::of(&f),
            ViewSignature::body_of(&f),
            rows,
            ViewFootprint::of(&f, id(9999)),
        ));

        let plain = PaperCostModel::new(&table, &stats, CostConstants::default());
        let priced = PaperCostModel::new(&table, &stats, CostConstants::default())
            .with_view_pricing(Some(&catalog));
        let without = plain.fragment_components(&f);
        let with = priced.fragment_components(&f);
        assert!(
            with.eval < without.eval,
            "view-backed fragment not discounted: {} vs {}",
            with.eval,
            without.eval
        );
        assert_eq!(with.summary.rows, 10.0, "stored tuple count is the exact cardinality");
        assert_eq!(with.volume, 10.0);

        // A fragment the catalog does not hold prices identically.
        let other = frag(vec![StorePattern::new(v(0), c(11), v(1))], vec![0]);
        assert_eq!(
            plain.fragment_components(&other).eval,
            priced.fragment_components(&other).eval,
            "non-catalog fragment must not be discounted"
        );
    }

    #[test]
    fn bigger_scan_volume_costs_more() {
        let (table, stats) = setup();
        let m = PaperCostModel::new(&table, &stats, CostConstants::default());
        let big = StoreJucq::from_ucq(frag(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]));
        let small =
            StoreJucq::from_ucq(frag(vec![StorePattern::new(v(0), c(11), v(1))], vec![0, 1]));
        assert!(m.cost(&big) > m.cost(&small));
    }
}
