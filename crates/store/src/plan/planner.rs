//! Lowering `StoreJucq → Plan` through an ordered rewrite-pass pipeline.
//!
//! Passes run in a fixed order, each wrapped in a `jucq-obs` span and
//! reporting before/after node counts to the metrics registry:
//!
//! 1. **prune_empty** — drop union members containing a pattern with an
//!    empty extent (exact index cardinality); a fragment that loses all
//!    members proves the whole JUCQ empty (`∅ ⋈ X = ∅`).
//! 2. **dedup_members** — [`minimize_union`] on each fragment: every
//!    member becomes its core (an atom goes when the member maps into
//!    itself without it, head fixed), then exact-duplicate members go,
//!    then members contained in a sibling (a homomorphism from the
//!    sibling maps its head onto theirs): reformulation stamps all
//!    three out routinely.
//! 3. **factor_scans** — count how often each distinct [`StorePattern`]
//!    is scanned across all members of all fragments (each member's leaf
//!    atom is its one scan; later atoms are index probes); patterns
//!    scanned twice or more become [`SharedScanDef`]s computed once per
//!    query.
//! 4. **join_order** — greedy per-member atom ordering (cheapest exact
//!    extent first, then always a join-connected atom), baked into the
//!    plan instead of re-derived at execution time.
//! 5. **lower** — each fragment becomes a [`FragmentPlan`] whose members
//!    are a leaf scan (private, shared or ranged) extended by index
//!    probes; every join step after the seed takes the profile's
//!    algorithm (hash / block-nested-loop); plus the pipelined-fragment
//!    choice (largest estimate, §4.1) and the fragment join order.
//!
//! The join order is cost-based and decided once per plan by
//! [`fragment_join_order`](crate::plan::fragment_join_order): each
//! fragment is first reduced to a
//! [`FragmentSummary`](crate::stats::FragmentSummary) — estimated rows
//! from the exact per-atom counts the passes already hold (a
//! range-collapsed atom counts its whole interval; a view-backed
//! fragment counts its stored tuples) and one join-selectivity domain
//! per head variable. The smallest fragment seeds the order; every
//! later step takes, among the fragments sharing a variable with what
//! is joined so far, the one whose join is estimated to *output* the
//! fewest rows — ties to the smaller fragment, then the lower index —
//! and a disconnected fragment only when nothing connected is left. The
//! plan's join steps, their estimates and keys and the SIP filter
//! definitions (one per step with a key) are all that one result, as is
//! the internal cost model's join pricing. A step estimate is the
//! summaries' join formula folded one fragment further
//! (`FragmentSummary::join_rows`), which is arithmetic: lowering walks
//! each member once, for its summary.

use std::hash::{Hash, Hasher};

use jucq_model::hash::FxHasher;
use jucq_model::FxHashMap;

use crate::containment::{minimize_union, UnionMember};
use crate::ir::{PatternTerm, StoreCq, StoreJucq, StorePattern, VarId};
use crate::plan::join_order::fragment_join_order;
use crate::plan::node::{
    FragmentPlan, Interval, Leaf, MemberPlan, Plan, Probe, SharedScanDef, ViewBindingDef,
};
use crate::profile::EngineProfile;
use crate::stats::{FragmentSummary, Statistics};
use crate::table::{RangePos, TableStack};
use crate::views::{ViewCatalog, ViewSignature};

/// Lowers logical [`StoreJucq`]s to physical [`Plan`]s for one store.
pub struct Planner<'a> {
    tables: &'a TableStack,
    stats: &'a Statistics,
    profile: &'a EngineProfile,
    views: Option<&'a ViewCatalog>,
}

/// One union member mid-rewrite: the CQ plus its exact per-atom extents
/// and (after the join-order pass) its scan/probe order.
struct DraftMember {
    cq: StoreCq,
    counts: Vec<usize>,
    order: Vec<usize>,
    /// Set by the range-collapse pass: this member stands in for a whole
    /// grid of members whose only differences were the constants at
    /// these atoms' ranged positions. At most one entry per atom.
    ranges: Vec<RangeAtom>,
}

/// One collapsed-interval atom: atom `atom`'s constant at the interval's
/// ranged position is replaced by the raw-id interval, which covers
/// exactly its `members` original constants — consecutive raw ids, or
/// runs of them separated by gaps whose extent the index proved empty,
/// so the interval matches no triple the original constants did not.
struct RangeAtom {
    atom: usize,
    interval: Interval,
}

/// Fixpoint-collapse scratch state for one surviving union member.
struct Scratch {
    ranges: Vec<RangeAtom>,
    alive: bool,
}

/// One fragment mid-rewrite.
struct DraftFragment {
    head: Vec<VarId>,
    members: Vec<DraftMember>,
}

/// Logical node count of the draft (fragments + members + atoms), the
/// unit of the per-pass before/after metrics.
fn draft_nodes(draft: &[DraftFragment]) -> usize {
    draft.iter().map(|f| 1 + f.members.iter().map(|m| 1 + m.cq.patterns.len()).sum::<usize>()).sum()
}

/// First index of the minimum value (ties keep the earliest atom, the
/// same rule `Iterator::min_by_key` applies in the join-order pass).
fn cheapest_atom(counts: &[usize]) -> usize {
    let mut best = 0;
    for (i, &c) in counts.iter().enumerate() {
        if c < counts[best] {
            best = i;
        }
    }
    best
}

/// One collapsible run over a union member list: the members at
/// `members` (indices into the input, ascending by the constant's raw
/// id) differ only in the constant at atom `atom`'s `pos` position, and
/// those constants are exactly the consecutive raw ids `[lo, hi)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollapsibleRun {
    /// Atom index within each member's pattern list.
    pub atom: usize,
    /// Which position of that atom holds the running constant.
    pub pos: RangePos,
    /// Inclusive lower raw id of the run.
    pub lo: u32,
    /// Exclusive upper raw id of the run.
    pub hi: u32,
    /// Indices of the collapsed members, ascending by raw id.
    pub members: Vec<usize>,
}

/// A member as the signature grouping sees it: its head, its body, and
/// the intervals already collapsed into it (none for a union member as
/// reformulation produced it).
#[derive(Clone, Copy)]
struct SigMember<'m> {
    head: &'m [PatternTerm],
    patterns: &'m [StorePattern],
    ranges: &'m [RangeAtom],
}

/// The index of `pos` among an atom's `(s, p, o)` positions.
fn position_index(pos: RangePos) -> usize {
    match pos {
        RangePos::Predicate => 1,
        RangePos::Object => 2,
    }
}

impl SigMember<'_> {
    /// The interval collapsed into atom `atom`, if any.
    fn range_at(&self, atom: usize) -> Option<&Interval> {
        self.ranges.iter().find(|r| r.atom == atom).map(|r| &r.interval)
    }

    /// Position `k` of atom `atom` in the signature of the candidate slot
    /// `(slot, pos)`: masked out at the slot itself and at every other
    /// atom's ranged position (its template constant is arbitrary; the
    /// interval stands in the signature instead), the term elsewhere.
    fn masked(&self, slot: usize, pos: RangePos, atom: usize, k: usize) -> PatternTerm {
        let masked = if atom == slot {
            k == position_index(pos)
        } else {
            self.range_at(atom).is_some_and(|iv| k == position_index(iv.ranged))
        };
        if masked {
            PatternTerm::Var(VarId::MAX)
        } else {
            self.patterns[atom].positions()[k]
        }
    }

    /// The signature of the candidate slot `(slot, pos)`, streamed into
    /// a hash: the head, the slot, the masked body and the other atoms'
    /// intervals in atom order.
    fn signature_hash(&self, slot: usize, pos: RangePos) -> u64 {
        let mut h = FxHasher::default();
        self.head.hash(&mut h);
        (slot, pos, self.patterns.len()).hash(&mut h);
        for atom in 0..self.patterns.len() {
            for k in 0..3 {
                self.masked(slot, pos, atom, k).hash(&mut h);
            }
        }
        for atom in (0..self.patterns.len()).filter(|&a| a != slot) {
            if let Some(iv) = self.range_at(atom) {
                (atom, iv.ranged, iv.lo, iv.hi).hash(&mut h);
            }
        }
        h.finish()
    }

    /// Do the candidate slots `(slot, pos)` of `self` and of `other`
    /// have the same signature? The two members then differ only at
    /// that slot.
    fn same_signature(&self, other: &SigMember<'_>, slot: usize, pos: RangePos) -> bool {
        let n = self.patterns.len();
        let same_range = |a: usize| {
            let key = |iv: &Interval| (iv.ranged, iv.lo, iv.hi);
            self.range_at(a).map(key) == other.range_at(a).map(key)
        };
        self.head == other.head
            && n == other.patterns.len()
            && (0..n).filter(|&a| a != slot).all(same_range)
            && (0..n).all(|a| {
                (0..3).all(|k| self.masked(slot, pos, a, k) == other.masked(slot, pos, a, k))
            })
    }
}

/// Candidate slots grouped by signature: the groups in the order their
/// first candidate came, each a contiguous run of `entries` in
/// candidate order.
struct SlotGroups<E> {
    /// Per group: the slot `(atom, position)` and its entries' range.
    groups: Vec<(usize, RangePos, std::ops::Range<usize>)>,
    entries: Vec<E>,
}

/// Group candidate slots `(member, atom, position, entry)` by the
/// signature that masks the slot out of the member: two candidates
/// share a group iff their members differ only at that slot. A
/// candidate's signature is hashed in place and confirmed against the
/// first candidate of each group with that hash, so no signature is
/// ever built; the entries are then bucketed stably by group.
fn group_slots<'m, E: Copy>(
    candidates: impl IntoIterator<Item = (SigMember<'m>, usize, RangePos, E)>,
) -> SlotGroups<E> {
    const NO_GROUP: usize = usize::MAX;
    // Per group: its first candidate and the previous group whose
    // signature has the same hash.
    let mut firsts: Vec<(SigMember<'m>, usize, RangePos, usize)> = Vec::new();
    let mut latest: FxHashMap<u64, usize> = FxHashMap::default();
    let mut tagged: Vec<(usize, E)> = Vec::new();
    for (member, atom, pos, entry) in candidates {
        let slot = latest.entry(member.signature_hash(atom, pos)).or_insert(NO_GROUP);
        let mut group = *slot;
        while group != NO_GROUP {
            let (first, first_atom, first_pos, prev) = &firsts[group];
            if (*first_atom, *first_pos) == (atom, pos) && first.same_signature(&member, atom, pos)
            {
                break;
            }
            group = *prev;
        }
        if group == NO_GROUP {
            group = firsts.len();
            firsts.push((member, atom, pos, *slot));
            *slot = group;
        }
        tagged.push((group, entry));
    }
    let mut sizes = vec![0usize; firsts.len()];
    for &(group, _) in &tagged {
        sizes[group] += 1;
    }
    // Stable: a group's entries stay in candidate order.
    tagged.sort_by_key(|&(group, _)| group);
    let mut end = 0;
    let groups = (firsts.iter().zip(sizes))
        .map(|(&(_, atom, pos, _), size)| {
            end += size;
            (atom, pos, end - size..end)
        })
        .collect();
    SlotGroups { groups, entries: tagged.into_iter().map(|(_, entry)| entry).collect() }
}

/// Find member runs collapsible into single range atoms: maximal groups
/// of ≥ 2 members that share head and body except for one constant — at
/// some atom's predicate or object position — whose raw ids are
/// consecutive. Greedy and non-overlapping (a member joins at most one
/// run), in the planner's deterministic candidate order. This is the
/// *first pass* of [`Planner::plan`]'s fixpoint collapse: the planner
/// performs at least these merges and usually more (later passes treat
/// already-collapsed intervals as mergeable values and bridge raw-id
/// gaps whose index extent is provably empty), so the result is a lower
/// bound. Public so the cost model can price a fragment's collapse
/// opportunity without lowering it.
pub fn collapsible_runs<'c>(members: impl IntoIterator<Item = &'c StoreCq>) -> Vec<CollapsibleRun> {
    let members: Vec<&StoreCq> = members.into_iter().collect();
    // A (member, slot) candidate per constant predicate or object; two
    // candidates share a signature iff their members differ only in
    // that constant.
    let candidates = members.iter().enumerate().flat_map(|(mi, cq)| {
        let member = SigMember { head: &cq.head, patterns: &cq.patterns, ranges: &[] };
        cq.patterns.iter().enumerate().flat_map(move |(ai, pat)| {
            [(RangePos::Predicate, pat.p), (RangePos::Object, pat.o)].into_iter().filter_map(
                move |(pos, term)| Some((member, ai, pos, (mi, term.as_const()?.raw()))),
            )
        })
    });
    let grouped = group_slots(candidates);
    let mut consumed = vec![false; members.len()];
    let mut runs = Vec::new();
    let mut entries: Vec<(usize, u32)> = Vec::new();
    for (atom, pos, range) in grouped.groups {
        entries.clear();
        entries.extend(grouped.entries[range].iter().copied().filter(|&(mi, _)| !consumed[mi]));
        if entries.len() < 2 {
            continue;
        }
        entries.sort_unstable_by_key(|&(_, raw)| raw);
        let mut start = 0;
        while start < entries.len() {
            let mut end = start + 1;
            while end < entries.len() && entries[end].1 == entries[end - 1].1 + 1 {
                end += 1;
            }
            if end - start >= 2 {
                for &(mi, _) in &entries[start..end] {
                    consumed[mi] = true;
                }
                runs.push(CollapsibleRun {
                    atom,
                    pos,
                    lo: entries[start].1,
                    hi: entries[end - 1].1 + 1,
                    members: entries[start..end].iter().map(|&(mi, _)| mi).collect(),
                });
            }
            start = end;
        }
    }
    runs
}

impl UnionMember for DraftMember {
    fn cq(&self) -> &StoreCq {
        &self.cq
    }

    fn remove_atom(&mut self, atom: usize) {
        self.cq.patterns.remove(atom);
        self.counts.remove(atom);
    }
}

impl<'a> Planner<'a> {
    /// Bind a planner to a store's tables, statistics and profile.
    pub fn new(tables: &'a TableStack, stats: &'a Statistics, profile: &'a EngineProfile) -> Self {
        Planner { tables, stats, profile, views: None }
    }

    /// Attach a materialized-view catalog: `lower` will match each
    /// fragment's *logical* (pre-rewrite) UCQ signature against it and
    /// bind matched fragments to their views ([`FragmentPlan::view`]).
    /// A `None` catalog plans exactly as before.
    pub fn with_views(mut self, views: Option<&'a ViewCatalog>) -> Self {
        self.views = views;
        self
    }

    /// Lower `q` through the full rewrite pipeline. Infallible:
    /// admission control (union-term limits) happens before planning,
    /// resource limits during execution.
    pub fn plan(&self, q: &StoreJucq) -> Plan {
        jucq_obs::span!("physical_planning");
        let mut draft: Vec<DraftFragment> = q
            .fragments
            .iter()
            .map(|f| DraftFragment {
                head: f.head.clone(),
                members: f
                    .cqs
                    .iter()
                    .map(|cq| DraftMember {
                        counts: cq.patterns.iter().map(|p| self.tables.count(&p.bound())).collect(),
                        cq: cq.clone(),
                        order: Vec::new(),
                        ranges: Vec::new(),
                    })
                    .collect(),
            })
            .collect();

        self.prune_empty_members(&mut draft);
        self.dedup_members(&mut draft);
        let range_eligible = self.collapse_ranges(&mut draft);
        let shared = self.factor_common_scans(&draft);
        self.select_join_orders(&mut draft);
        self.lower(q, &draft, shared, range_eligible)
    }

    /// Pass 1: a member containing a zero-extent pattern can never
    /// produce a row — drop it. Fragments are never removed: a fragment
    /// left without members makes the whole plan constant-empty.
    fn prune_empty_members(&self, draft: &mut [DraftFragment]) {
        jucq_obs::span!("plan.prune_empty");
        let before = draft_nodes(draft);
        for frag in draft.iter_mut() {
            frag.members.retain(|m| !m.counts.contains(&0));
        }
        let after = draft_nodes(draft);
        jucq_obs::metrics::counter_add("planner.prune_empty.nodes_before", before as u64);
        jucq_obs::metrics::counter_add("planner.prune_empty.nodes_after", after as u64);
    }

    /// Pass 2: [`minimize_union`] on every fragment — each member becomes
    /// its core (an atom it maps into itself without is neither scanned
    /// nor probed for), then exact duplicates and members contained in
    /// a sibling go. Under set semantics the fragment answers the same.
    fn dedup_members(&self, draft: &mut [DraftFragment]) {
        jucq_obs::span!("plan.dedup_members");
        let before = draft_nodes(draft);
        for frag in draft.iter_mut() {
            minimize_union(&mut frag.members);
        }
        let after = draft_nodes(draft);
        jucq_obs::metrics::counter_add("planner.dedup_members.nodes_before", before as u64);
        jucq_obs::metrics::counter_add("planner.dedup_members.nodes_after", after as u64);
    }

    /// Pass 2b: collapse union members that differ only in constants with
    /// contiguous raw ids into single members carrying [`RangeAtom`]
    /// intervals, iterated to a *fixpoint*:
    ///
    /// * every constant is a degenerate interval `[c, c+1)` and every
    ///   already-collapsed slot is its interval, so a second pass can
    ///   merge along another atom once a first pass made the members
    ///   textually equal (a k×m grid of members — a class subtree times a
    ///   property subtree — collapses to *one* member with two intervals);
    /// * two intervals also merge across a raw-id gap when the index
    ///   proves the gap empty for the member's atom template (a
    ///   zero-count `count_value_range` over the gap): ids in the gap
    ///   match no triple, so widening the interval over them adds no row.
    ///   Classes without direct instances no longer split a subtree run.
    ///
    /// The half-open intervals then match exactly the triples the
    /// collapsed constants did, so the rewrite is correct over any id
    /// numbering. Over plain first-seen ids the gap bridging is what
    /// makes a class or property subtree one interval: its ids are
    /// interleaved with instance ids no `rdf:type` or property atom
    /// matches (DESIGN.md §4g). An atom carries at most one interval (a
    /// scan ranges over one component).
    ///
    /// Always *detects* eligibility (the returned count of fragments the
    /// fixpoint would shrink feeds telemetry); only *rewrites* when the
    /// profile's `range_scans` knob is on.
    fn collapse_ranges(&self, draft: &mut [DraftFragment]) -> usize {
        jucq_obs::span!("plan.range_collapse");
        let before = draft_nodes(draft);
        let apply = self.profile.range_scans;
        let mut eligible = 0usize;
        let mut collapsed = 0u64;
        for frag in draft.iter_mut() {
            let mut scratch: Vec<Scratch> =
                frag.members.iter().map(|_| Scratch { ranges: Vec::new(), alive: true }).collect();
            if !self.collapse_fixpoint(&frag.members, &mut scratch) {
                continue;
            }
            eligible += 1;
            if !apply {
                continue;
            }
            let orig_len = frag.members.len();
            let old = std::mem::take(&mut frag.members);
            let mut kept: Vec<DraftMember> = Vec::with_capacity(old.len());
            for (s, mut m) in scratch.into_iter().zip(old) {
                if !s.alive {
                    continue;
                }
                for r in &s.ranges {
                    let Interval { ranged, lo, hi, .. } = r.interval;
                    let mut bound = m.cq.patterns[r.atom].bound();
                    match ranged {
                        RangePos::Predicate => bound[1] = None,
                        RangePos::Object => bound[2] = None,
                    }
                    m.counts[r.atom] = self.tables.count_value_range(&bound, ranged, lo, hi);
                }
                m.ranges = s.ranges;
                kept.push(m);
            }
            collapsed += (orig_len - kept.len()) as u64;
            frag.members = kept;
        }
        let after = draft_nodes(draft);
        jucq_obs::metrics::counter_add("planner.range_collapse.nodes_before", before as u64);
        jucq_obs::metrics::counter_add("planner.range_collapse.nodes_after", after as u64);
        jucq_obs::metrics::counter_add("planner.range_collapse.members_collapsed", collapsed);
        eligible
    }

    /// Run the interval-merge passes over `scratch` until nothing merges;
    /// returns whether any merge happened. Each pass groups the alive
    /// members' candidate slots (constant or already-ranged predicate /
    /// object positions) by a signature masking the slot out of the body
    /// — head, slot coordinates, masked patterns, and the *other* slots'
    /// intervals, grouped by [`group_slots`] — then merges every chain of
    /// ≥ 2 interval-adjacent (or provably-empty-gap-separated) entries into
    /// the lowest-id member.
    fn collapse_fixpoint(&self, members: &[DraftMember], scratch: &mut [Scratch]) -> bool {
        let mut merged_any = false;
        let mut entries: Vec<(usize, u32, u32, usize)> = Vec::new();
        loop {
            let mut changed = false;
            // A candidate's entry: (scratch index, lo, hi, constants in the
            // slot's interval so far).
            let candidates =
                scratch.iter().enumerate().filter(|(_, s)| s.alive).flat_map(|(si, s)| {
                    let cq = &members[si].cq;
                    let member =
                        SigMember { head: &cq.head, patterns: &cq.patterns, ranges: &s.ranges };
                    cq.patterns.iter().enumerate().flat_map(move |(ai, pat)| {
                        [RangePos::Predicate, RangePos::Object].into_iter().filter_map(move |pos| {
                            let (lo, hi, slot_members) = match member.range_at(ai) {
                                Some(iv) if iv.ranged == pos => (iv.lo, iv.hi, iv.members),
                                // One interval per atom: the other position of
                                // an already-ranged atom is not a candidate.
                                Some(_) => return None,
                                None => {
                                    let id = pat.positions()[position_index(pos)].as_const()?;
                                    (id.raw(), id.raw() + 1, 1)
                                }
                            };
                            Some((member, ai, pos, (si, lo, hi, slot_members)))
                        })
                    })
                });
            let grouped = group_slots(candidates);
            let mut consumed = vec![false; scratch.len()];
            for (ai, pos, range) in grouped.groups {
                entries.clear();
                entries.extend(
                    grouped.entries[range]
                        .iter()
                        .copied()
                        .filter(|&(si, ..)| scratch[si].alive && !consumed[si]),
                );
                if entries.len() < 2 {
                    continue;
                }
                entries.sort_unstable_by_key(|&(_, lo, hi, _)| (lo, hi));
                let mut start = 0;
                while start < entries.len() {
                    let template = &members[entries[start].0].cq.patterns[ai];
                    let mut end = start + 1;
                    while end < entries.len() {
                        let prev_hi = entries[end - 1].2;
                        let next_lo = entries[end].1;
                        let joins = next_lo == prev_hi
                            || (next_lo > prev_hi
                                && self.gap_is_empty(template, pos, prev_hi, next_lo));
                        if !joins {
                            break;
                        }
                        end += 1;
                    }
                    if end - start >= 2 {
                        let keep = entries[start].0;
                        let (lo, hi) = (entries[start].1, entries[end - 1].2);
                        let total: usize = entries[start..end].iter().map(|e| e.3).sum();
                        for &(si, ..) in &entries[start + 1..end] {
                            scratch[si].alive = false;
                            consumed[si] = true;
                        }
                        consumed[keep] = true;
                        scratch[keep].ranges.retain(|r| r.atom != ai);
                        let interval = Interval { ranged: pos, lo, hi, members: total };
                        scratch[keep].ranges.push(RangeAtom { atom: ai, interval });
                        changed = true;
                        merged_any = true;
                    }
                    start = end;
                }
            }
            if !changed {
                break;
            }
        }
        merged_any
    }

    /// Does the index hold *no* triple matching `pat`'s template with its
    /// `pos` component in `[lo, hi)`? Variables (and the ranged slot
    /// itself) relax to unbound, so a zero count is conservative: the gap
    /// is empty for every binding the member could produce.
    fn gap_is_empty(&self, pat: &StorePattern, pos: RangePos, lo: u32, hi: u32) -> bool {
        let mut bound = pat.bound();
        match pos {
            RangePos::Predicate => bound[1] = None,
            RangePos::Object => bound[2] = None,
        }
        self.tables.count_value_range(&bound, pos, lo, hi) == 0
    }

    /// Pass 3: factor the scans several members share. A member's scan
    /// is its leaf atom (later atoms are index probes, not extent
    /// scans); the leaf prediction uses the same first-minimum rule as
    /// the join-order pass, so the factored set matches the lowered plan
    /// exactly.
    fn factor_common_scans(&self, draft: &[DraftFragment]) -> Vec<SharedScanDef> {
        jucq_obs::span!("plan.factor_scans");
        let before = draft_nodes(draft);
        let mut uses: FxHashMap<StorePattern, usize> = FxHashMap::default();
        let mut order: Vec<StorePattern> = Vec::new();
        for m in draft.iter().flat_map(|f| &f.members) {
            if m.cq.patterns.is_empty() {
                continue;
            }
            // A ranged leaf is a RangeScan (never shareable as a plain
            // extent).
            let leaf = cheapest_atom(&m.counts);
            if m.ranges.iter().any(|r| r.atom == leaf) {
                continue;
            }
            let p = m.cq.patterns[leaf];
            let n = uses.entry(p).or_insert(0);
            if *n == 0 {
                order.push(p);
            }
            *n += 1;
        }
        let defs: Vec<SharedScanDef> = order
            .into_iter()
            .filter(|p| uses[p] >= 2)
            .map(|p| SharedScanDef {
                pattern: p,
                uses: uses[&p],
                est: Some(self.tables.count(&p.bound()) as f64),
            })
            .collect();
        let saved: usize = defs.iter().map(|d| d.uses - 1).sum();
        jucq_obs::metrics::counter_add("planner.factor_scans.nodes_before", before as u64);
        jucq_obs::metrics::counter_add(
            "planner.factor_scans.nodes_after",
            (before + defs.len()) as u64,
        );
        jucq_obs::metrics::counter_add("planner.factor_scans.shared_defs", defs.len() as u64);
        jucq_obs::metrics::counter_add("planner.factor_scans.scan_uses_saved", saved as u64);
        defs
    }

    /// Pass 4: greedy per-member atom order — cheapest exact extent
    /// first, then repeatedly the connected atom (sharing a variable
    /// with the bound set) of smallest extent, falling back to the
    /// globally smallest remaining atom for disconnected bodies.
    fn select_join_orders(&self, draft: &mut [DraftFragment]) {
        jucq_obs::span!("plan.join_order");
        let before = draft_nodes(draft);
        for frag in draft.iter_mut() {
            for m in &mut frag.members {
                // Ranged atoms need no special seeding: an interval can
                // be the leaf (RangeScan) *or* probed per binding row
                // (RangeProbe), so the cheapest atom leads as usual.
                m.order = atom_order(&m.cq.patterns, &m.counts);
            }
        }
        jucq_obs::metrics::counter_add("planner.join_order.nodes_before", before as u64);
        jucq_obs::metrics::counter_add("planner.join_order.nodes_after", before as u64);
    }

    /// Pass 5: physical lowering — see the module docs for the choices
    /// made here.
    fn lower(
        &self,
        q: &StoreJucq,
        draft: &[DraftFragment],
        shared: Vec<SharedScanDef>,
        range_eligible: usize,
    ) -> Plan {
        jucq_obs::span!("plan.lower");
        let before = draft_nodes(draft) + shared.len();

        let plan = if draft.is_empty() || draft.iter().any(|f| f.members.is_empty()) {
            Plan {
                shared: Vec::new(),
                fragments: Vec::new(),
                join_order: Vec::new(),
                join: self.profile.fragment_join,
                head: q.head.clone(),
                pipelined: None,
                range_eligible,
                range_scans: 0,
                views: Vec::new(),
            }
        } else {
            self.lower_fragments(q, draft, shared, range_eligible)
        };
        jucq_obs::metrics::counter_add("planner.lower.nodes_before", before as u64);
        jucq_obs::metrics::counter_add("planner.lower.nodes_after", plan.node_count() as u64);
        plan
    }

    /// [`Planner::lower`] for a draft whose every fragment kept a
    /// member.
    fn lower_fragments(
        &self,
        q: &StoreJucq,
        draft: &[DraftFragment],
        shared: Vec<SharedScanDef>,
        range_eligible: usize,
    ) -> Plan {
        // One summary per fragment, over the *rewritten* members (what
        // actually runs) and from the exact per-atom counts the passes
        // above already hold — a range-collapsed atom's count covers its
        // whole interval. Every estimate below is arithmetic on these.
        let mut summaries: Vec<FragmentSummary> = draft
            .iter()
            .map(|f| {
                self.stats.summarize(
                    &f.head,
                    f.members.iter().map(|m| (&m.cq, m.counts.iter().map(|&c| c as f64))),
                )
            })
            .collect();
        let frag_est: Vec<f64> = summaries.iter().map(|s| s.rows).collect();

        // §4.1: the largest-result fragment is the one pipelined.
        let pipelined = if draft.len() > 1 {
            frag_est.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i)
        } else {
            None
        };

        // View matching: a fragment whose *logical* (pre-rewrite) UCQ —
        // the same shape the materializer keyed its entry by — has a
        // current-epoch catalog entry is served from the view, its
        // lowered union kept as the fallback, and joins at its stored
        // size. The signature travels in the plan; the rows never do
        // (resolution is epoch-exact at evaluation time).
        let mut views: Vec<ViewBindingDef> = Vec::new();
        let mut view_of: Vec<Option<usize>> = vec![None; draft.len()];
        if let Some(catalog) = self.views {
            for (i, frag) in q.fragments.iter().enumerate() {
                let signature = ViewSignature::of(frag);
                if let Some(tuples) = catalog.contains_current(&signature) {
                    summaries[i].set_rows(tuples as f64);
                    view_of[i] = Some(views.len());
                    views.push(ViewBindingDef { signature, tuples });
                }
            }
        }

        // The fragment join order, decided once (see `join_order`): the
        // plan's join steps and its SIP filters are this one result.
        let heads: Vec<&[VarId]> = draft.iter().map(|f| f.head.as_slice()).collect();
        let join_order = fragment_join_order(&summaries, &heads);

        let shared_ix: FxHashMap<StorePattern, usize> =
            shared.iter().enumerate().map(|(i, d)| (d.pattern, i)).collect();
        let fragments: Vec<FragmentPlan> = draft
            .iter()
            .enumerate()
            .map(|(i, f)| FragmentPlan {
                head: f.head.clone(),
                members: f.members.iter().map(|m| lower_member(m, &shared_ix)).collect(),
                est: frag_est[i],
                view: view_of[i],
            })
            .collect();

        Plan {
            shared,
            fragments,
            join_order,
            join: self.profile.fragment_join,
            head: q.head.clone(),
            pipelined,
            range_eligible,
            range_scans: draft.iter().flat_map(|f| &f.members).map(|m| m.ranges.len()).sum(),
            views,
        }
    }
}

/// Lower one union member: its first atom becomes the leaf scan (ranged,
/// shared or private), every later atom an index probe (ranged when
/// collapsed), topped by the member's head.
fn lower_member(m: &DraftMember, shared_ix: &FxHashMap<StorePattern, usize>) -> MemberPlan {
    let range = |atom: usize| m.ranges.iter().find(|r| r.atom == atom).map(|r| r.interval);
    let leaf = match m.order.first() {
        None => Leaf::TrueRow,
        Some(&pi) => {
            let (pattern, est) = (m.cq.patterns[pi], m.counts[pi] as f64);
            match (range(pi), shared_ix.get(&pattern)) {
                (Some(interval), _) => Leaf::Range { pattern, interval, est },
                (None, Some(&id)) => Leaf::Shared { id },
                (None, None) => Leaf::Scan { pattern, est },
            }
        }
    };
    let probes = m.order.iter().skip(1);
    MemberPlan {
        leaf,
        probes: probes.map(|&pi| Probe { pattern: m.cq.patterns[pi], range: range(pi) }).collect(),
        head: m.cq.head.clone(),
    }
}

/// Greedy atom ordering over precomputed exact extents: start from the
/// smallest atom; repeatedly append the connected atom (sharing a
/// variable with the bound set) of smallest extent; fall back to the
/// globally smallest remaining atom when the body is disconnected.
fn atom_order(patterns: &[StorePattern], counts: &[usize]) -> Vec<usize> {
    if patterns.is_empty() {
        return Vec::new();
    }
    let mut remaining: Vec<usize> = (0..patterns.len()).collect();
    let mut order = Vec::with_capacity(patterns.len());
    let mut bound_vars: Vec<VarId> = Vec::new();

    let first = remaining.iter().copied().min_by_key(|&i| counts[i]).expect("non-empty body");
    order.push(first);
    bound_vars.extend(patterns[first].variables());
    remaining.retain(|&i| i != first);

    while !remaining.is_empty() {
        let connected = remaining
            .iter()
            .copied()
            .filter(|&i| patterns[i].variables().iter().any(|v| bound_vars.contains(v)))
            .min_by_key(|&i| counts[i]);
        let next = connected.unwrap_or_else(|| {
            remaining.iter().copied().min_by_key(|&i| counts[i]).expect("remaining non-empty")
        });
        order.push(next);
        for v in patterns[next].variables() {
            if !bound_vars.contains(&v) {
                bound_vars.push(v);
            }
        }
        remaining.retain(|&i| i != next);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::redundant_atom;
    use crate::ir::StoreUcq;
    use crate::profile::JoinAlgo;
    use crate::table::TripleTable;
    use jucq_model::term::TermKind;
    use jucq_model::{TermId, TripleId};

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

    fn table() -> TableStack {
        TableStack::from(TripleTable::build(&[
            t(1, 10, 2),
            t(2, 10, 3),
            t(3, 10, 1),
            t(1, 11, 100),
            t(2, 11, 101),
            t(4, 10, 4),
        ]))
    }

    fn plan_of(q: &StoreJucq, profile: &EngineProfile) -> Plan {
        let table = table();
        let stats = Statistics::build(&table);
        Planner::new(&table, &stats, profile).plan(q)
    }

    fn one_pattern_member(p: StorePattern, head: Vec<VarId>) -> StoreCq {
        StoreCq::with_var_head(vec![p], head)
    }

    #[test]
    fn order_starts_from_cheapest_atom() {
        let patterns = vec![
            StorePattern::new(v(0), c(10), v(1)),   // 4 matches
            StorePattern::new(v(0), c(11), c(100)), // 1 match
        ];
        let counts = vec![4, 1];
        let order = atom_order(&patterns, &counts);
        assert_eq!(order[0], 1);
    }

    #[test]
    fn order_prefers_connected_atoms() {
        // The connected atom (?0 10 ?1, 4 matches) beats the cheaper
        // but disconnected (?2 11 101, 1 match): connectivity trumps
        // extent size once a variable is bound.
        let patterns = vec![
            StorePattern::new(v(0), c(11), c(100)), // 1 match, binds ?0
            StorePattern::new(v(0), c(10), v(1)),   // 4 matches, connected
            StorePattern::new(v(2), c(11), c(101)), // 1 match, disconnected
        ];
        let counts = vec![1, 4, 1];
        let order = atom_order(&patterns, &counts);
        assert_eq!(order, vec![0, 1, 2], "connected beats cheaper disconnected");
    }

    #[test]
    fn empty_extent_member_is_pruned_to_const_empty_plan() {
        let frag = StoreUcq::new(
            vec![one_pattern_member(StorePattern::new(v(0), c(99), v(1)), vec![0])],
            vec![0],
        );
        let plan = plan_of(&StoreJucq::new(vec![frag], vec![0]), &EngineProfile::pg_like());
        assert!(plan.is_const_empty());
        assert!(plan.estimates().is_empty());
    }

    #[test]
    fn duplicate_and_subsumed_members_are_dropped() {
        let narrow = one_pattern_member(StorePattern::new(v(0), c(10), v(1)), vec![0, 1]);
        let superset = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(0), c(11), c(100))],
            vec![0, 1],
        );
        let frag = StoreUcq::new(vec![narrow.clone(), narrow.clone(), superset], vec![0, 1]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        let members = &plan.fragments[0].members;
        assert_eq!(members.len(), 1, "duplicate and subsumed members dropped");
    }

    #[test]
    fn implied_atoms_are_found_and_blockers_respected() {
        let cq = |body: Vec<StorePattern>, head: Vec<VarId>| StoreCq::with_var_head(body, head);
        let tc = |s, o| StorePattern::new(s, c(10), o);
        // Q06's shape: both atoms imply each other; the later one goes.
        assert_eq!(redundant_atom(&cq(vec![tc(v(0), v(1)), tc(v(0), v(2))], vec![0])), Some(1));
        // A head variable is an output, not a don't-care.
        assert_eq!(redundant_atom(&cq(vec![tc(v(0), v(1)), tc(v(0), v(2))], vec![0, 1, 2])), None);
        assert_eq!(redundant_atom(&cq(vec![tc(v(0), v(1)), tc(v(0), v(2))], vec![0, 2])), Some(0));
        // So is a variable another atom joins on…
        let joined = vec![tc(v(0), v(1)), tc(v(0), v(2)), StorePattern::new(v(2), c(11), v(3))];
        assert_eq!(redundant_atom(&cq(joined, vec![0])), Some(0));
        // …or one the atom itself repeats: `?1 p ?1` asks for a loop.
        assert_eq!(redundant_atom(&cq(vec![tc(v(0), v(2)), tc(v(1), v(1))], vec![0])), None);
        // A constant, or a loop, is implied by nothing weaker but
        // implies the atom with a don't-care in its place.
        assert_eq!(redundant_atom(&cq(vec![tc(v(0), v(1)), tc(v(0), c(3))], vec![0])), Some(0));
        assert_eq!(redundant_atom(&cq(vec![tc(v(0), v(0)), tc(v(0), v(1))], vec![0])), Some(1));
        // Different constants, different predicates: nothing to drop.
        assert_eq!(redundant_atom(&cq(vec![tc(v(0), c(2)), tc(v(0), c(3))], vec![0])), None);
        let other = StorePattern::new(v(0), c(11), v(2));
        assert_eq!(redundant_atom(&cq(vec![tc(v(0), v(1)), other], vec![0])), None);
        assert_eq!(redundant_atom(&cq(vec![tc(v(0), v(1))], vec![0])), None);
    }

    #[test]
    fn implied_atoms_are_not_lowered() {
        // `(?0 10 ?1) ⋈ (?0 10 ?2)` with head [?0] is `(?0 10 ?1)`, which
        // the fragment's other member already is: one scan, no probe.
        let twice = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(0), c(10), v(2))],
            vec![0],
        );
        let once = one_pattern_member(StorePattern::new(v(0), c(10), v(1)), vec![0]);
        let q = StoreJucq::from_ucq(StoreUcq::new(vec![twice.clone(), once], vec![0]));
        let plan = plan_of(&q, &EngineProfile::pg_like());
        let members = &plan.fragments[0].members;
        assert_eq!(members.len(), 1, "the reduced member duplicates the other");
        assert!(members[0].probes.is_empty(), "{:?}", members[0]);
        assert!(matches!(members[0].leaf, Leaf::Scan { .. }), "{:?}", members[0]);
        // Same answers as the body evaluated as written.
        let store = crate::Store::from_triples(
            &[t(1, 10, 2), t(1, 10, 3), t(4, 10, 4), t(5, 11, 6)],
            EngineProfile::pg_like(),
        );
        let mut rows = store.eval_cq(&twice).unwrap().relation;
        rows.sort();
        assert_eq!(rows.to_rows(), vec![vec![id(1)], vec![id(4)]]);
    }

    #[test]
    fn subsumption_requires_the_head_to_map() {
        let a = one_pattern_member(StorePattern::new(v(0), c(10), v(1)), vec![0, 1]);
        // Same body superset but a constant head: `?1 ↦ #7` would need
        // `(?0 10 #7)`, which the body does not hold.
        let b = StoreCq::new(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(0), c(11), c(100))],
            vec![PatternTerm::Var(0), PatternTerm::Const(id(7))],
        );
        let frag = StoreUcq::new(vec![a, b], vec![0, 1]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        let members = &plan.fragments[0].members;
        assert_eq!(members.len(), 2, "a head that does not map blocks subsumption");
    }

    #[test]
    fn common_leaf_scans_are_factored() {
        // Two members whose cheapest atom is the same pattern.
        let shared_leaf = StorePattern::new(v(0), c(11), c(100)); // 1 match
        let a = StoreCq::with_var_head(
            vec![shared_leaf, StorePattern::new(v(0), c(10), v(1))],
            vec![0, 1],
        );
        let b = StoreCq::with_var_head(
            vec![shared_leaf, StorePattern::new(v(1), c(10), v(0))],
            vec![0, 1],
        );
        let frag = StoreUcq::new(vec![a, b], vec![0, 1]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        assert_eq!(plan.shared.len(), 1);
        assert_eq!(plan.shared[0].pattern, shared_leaf);
        assert_eq!(plan.shared[0].uses, 2);
        assert!(plan.estimates().iter().any(|(l, _)| l == "shared_scan[0]"));
    }

    #[test]
    fn fragment_join_algo_follows_profile() {
        let fa = StoreUcq::new(
            vec![
                one_pattern_member(StorePattern::new(v(0), c(10), v(1)), vec![0, 1]),
                one_pattern_member(StorePattern::new(v(1), c(10), v(0)), vec![0, 1]),
            ],
            vec![0, 1],
        );
        let fb = StoreUcq::new(
            vec![one_pattern_member(StorePattern::new(v(0), c(11), v(2)), vec![0, 2])],
            vec![0, 2],
        );
        let q = StoreJucq::new(vec![fa, fb], vec![0, 1, 2]);
        let hash = plan_of(&q, &EngineProfile::pg_like());
        let bnl = plan_of(&q, &EngineProfile::mysql_like());
        assert_eq!(hash.join, JoinAlgo::Hash);
        assert_eq!(bnl.join, JoinAlgo::BlockNestedLoop);
        assert!(hash.pipelined.is_some());
        assert!(hash.estimates().iter().any(|(l, _)| l == "join[0].hash_join"));
        assert!(bnl.estimates().iter().any(|(l, _)| l == "join[0].block_nested_loop_join"));
    }

    #[test]
    fn repeated_var_scan_gets_a_filter_node() {
        let frag = StoreUcq::new(
            vec![one_pattern_member(StorePattern::new(v(0), c(10), v(0)), vec![0])],
            vec![0],
        );
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        let members = &plan.fragments[0].members;
        assert!(
            matches!(&members[0].leaf, Leaf::Scan { pattern, .. } if pattern.has_repeated_var())
        );
        assert!(plan.render(1).contains("Filter repeated-vars (?0 #u10 ?0)"), "{}", plan.render(1));
    }

    #[test]
    fn consecutive_object_constants_collapse_into_a_range_scan() {
        // Members (?0 #u10 #uC) for C ∈ {1, 2, 3}: same head, same shape,
        // consecutive object ids ⇒ one RangeScan o∈[1, 4).
        let members: Vec<StoreCq> = [1u32, 2, 3]
            .iter()
            .map(|&o| one_pattern_member(StorePattern::new(v(0), c(10), c(o)), vec![0]))
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        assert_eq!(plan.range_eligible, 1);
        assert_eq!(plan.range_scans, 1);
        let members = &plan.fragments[0].members;
        assert_eq!(members.len(), 1, "three members collapsed into one");
        match &members[0].leaf {
            Leaf::Range { interval, .. } => {
                assert_eq!(interval.ranged, crate::table::RangePos::Object);
                assert_eq!((interval.lo, interval.hi), (1, 4));
                assert_eq!(interval.members, 3);
            }
            other => panic!("expected a range leaf, got {other:?}"),
        }
    }

    #[test]
    fn non_consecutive_constants_do_not_collapse() {
        // Objects 1 and 3 are not adjacent raw ids: no run, no rewrite.
        let members: Vec<StoreCq> = [1u32, 3]
            .iter()
            .map(|&o| one_pattern_member(StorePattern::new(v(0), c(10), c(o)), vec![0]))
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        assert_eq!(plan.range_eligible, 0);
        assert_eq!(plan.range_scans, 0);
        let members = &plan.fragments[0].members;
        assert_eq!(members.len(), 2);
    }

    #[test]
    fn range_knob_off_keeps_the_union_but_reports_eligibility() {
        let members: Vec<StoreCq> = [1u32, 2, 3]
            .iter()
            .map(|&o| one_pattern_member(StorePattern::new(v(0), c(10), c(o)), vec![0]))
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let profile = EngineProfile::pg_like().with_range_scans(false);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &profile);
        assert_eq!(plan.range_eligible, 1, "eligibility is detected even when off");
        assert_eq!(plan.range_scans, 0);
        let members = &plan.fragments[0].members;
        assert_eq!(members.len(), 3, "knob off: plain UCQ member per constant");
    }

    #[test]
    fn consecutive_predicate_constants_collapse_in_predicate_position() {
        // Members (?0 #uP ?1) for P ∈ {10, 11}: consecutive predicates.
        let members: Vec<StoreCq> = [10u32, 11]
            .iter()
            .map(|&p| one_pattern_member(StorePattern::new(v(0), c(p), v(1)), vec![0, 1]))
            .collect();
        let frag = StoreUcq::new(members, vec![0, 1]);
        let q = StoreJucq::from_ucq(frag);
        let plan = plan_of(&q, &EngineProfile::pg_like());
        assert_eq!(plan.range_scans, 1);
        // The collapsed member is estimated over its whole interval —
        // the 4 + 2 triples of both predicates, not the first one's 4 —
        // which is what the members it replaced summed to.
        let union_est = |p: &Plan| p.fragments[0].est;
        assert_eq!(union_est(&plan), 6.0);
        let uncollapsed = plan_of(&q, &EngineProfile::pg_like().with_range_scans(false));
        assert_eq!(union_est(&uncollapsed), 6.0);
        let members = &plan.fragments[0].members;
        match &members[0].leaf {
            Leaf::Range { interval, .. } => {
                assert_eq!(interval.ranged, crate::table::RangePos::Predicate);
                assert_eq!((interval.lo, interval.hi), (10, 12));
            }
            other => panic!("expected a range leaf, got {other:?}"),
        }
    }

    #[test]
    fn ranged_atoms_off_the_leaf_become_range_probes() {
        // Two-atom members differing in the first atom's object const:
        // the second atom's 1-row extent leads, and the collapsed
        // interval is probed per binding row instead of being pinned at
        // the leaf (the old behavior, which conserved all probe work).
        let members: Vec<StoreCq> = [2u32, 3]
            .iter()
            .map(|&o| {
                StoreCq::with_var_head(
                    vec![
                        StorePattern::new(v(0), c(10), c(o)),
                        StorePattern::new(v(0), c(11), c(100)), // 1 match
                    ],
                    vec![0],
                )
            })
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        assert_eq!(plan.range_scans, 1);
        let members = &plan.fragments[0].members;
        assert_eq!(members.len(), 1);
        let member = &members[0];
        assert!(matches!(member.leaf, Leaf::Scan { .. }), "the selective atom stays the leaf");
        match member.probes.as_slice() {
            [Probe { range: Some(interval), .. }] => {
                assert_eq!(interval.ranged, crate::table::RangePos::Object);
                assert_eq!((interval.lo, interval.hi), (2, 4));
                assert_eq!(interval.members, 2);
            }
            other => panic!("expected one range probe, got {other:?}"),
        }
    }

    #[test]
    fn single_atom_grids_collapse_one_slot_per_atom() {
        // Members (?0 #uP #uO) for P ∈ {10, 11}, O ∈ {2, 3}: the
        // predicate runs merge (one per object), and since an atom
        // carries at most one interval the object slot of the merged
        // atoms stays constant — 4 members become 2, each p∈[10, 12).
        let table = TableStack::from(TripleTable::build(&[
            t(1, 10, 2),
            t(2, 10, 3),
            t(3, 11, 2),
            t(4, 11, 3),
        ]));
        let members: Vec<StoreCq> = [(10u32, 2u32), (10, 3), (11, 2), (11, 3)]
            .iter()
            .map(|&(p, o)| one_pattern_member(StorePattern::new(v(0), c(p), c(o)), vec![0]))
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let q = StoreJucq::from_ucq(frag);
        let stats = Statistics::build(&table);
        let profile = EngineProfile::pg_like();
        let plan = Planner::new(&table, &stats, &profile).plan(&q);
        let members = &plan.fragments[0].members;
        assert_eq!(members.len(), 2, "one member per object, predicates collapsed");
        assert_eq!(plan.range_scans, 2);
    }

    #[test]
    fn fixpoint_collapses_a_grid_across_two_atoms() {
        // Q23's shape: (?0 #uP #u100) ⋈ (?0 #u11 #uC) for P ∈ {10, 11}...
        // predicates here must not overlap the type predicate, so use
        // P ∈ {10, 11} on atom 0 and objects C ∈ {100, 101} on a second
        // atom with fixed predicate. 2×2 = 4 members fix down to ONE
        // member with an interval on each atom.
        let table = TableStack::from(TripleTable::build(&[
            t(1, 10, 5),
            t(2, 11, 5),
            t(1, 12, 100),
            t(2, 12, 101),
        ]));
        let members: Vec<StoreCq> = [(10u32, 100u32), (10, 101), (11, 100), (11, 101)]
            .iter()
            .map(|&(p, o)| {
                StoreCq::with_var_head(
                    vec![StorePattern::new(v(0), c(p), c(5)), StorePattern::new(v(0), c(12), c(o))],
                    vec![0],
                )
            })
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let q = StoreJucq::from_ucq(frag);
        let stats = Statistics::build(&table);
        let profile = EngineProfile::pg_like();
        let plan = Planner::new(&table, &stats, &profile).plan(&q);
        let members = &plan.fragments[0].members;
        assert_eq!(members.len(), 1, "2x2 grid fixes down to one member");
        assert_eq!(plan.range_scans, 2, "one interval per atom");
    }

    #[test]
    fn empty_gaps_between_interval_runs_are_bridged() {
        // Objects 5 and 7 are not adjacent, but no triple matches
        // (?s #u10 #u6): the gap is provably empty, so the interval
        // widens over it — o∈[5, 8) — without adding a row.
        let table = TableStack::from(TripleTable::build(&[t(1, 10, 5), t(2, 10, 7), t(3, 11, 6)]));
        let members: Vec<StoreCq> = [5u32, 7]
            .iter()
            .map(|&o| one_pattern_member(StorePattern::new(v(0), c(10), c(o)), vec![0]))
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let q = StoreJucq::from_ucq(frag);
        let stats = Statistics::build(&table);
        let profile = EngineProfile::pg_like();
        let plan = Planner::new(&table, &stats, &profile).plan(&q);
        assert_eq!(plan.range_eligible, 1);
        assert_eq!(plan.range_scans, 1);
        let members = &plan.fragments[0].members;
        assert_eq!(members.len(), 1);
        match &members[0].leaf {
            Leaf::Range { interval, .. } => {
                assert_eq!((interval.lo, interval.hi), (5, 8));
                assert_eq!(interval.members, 2);
            }
            other => panic!("expected a range leaf, got {other:?}"),
        }
    }

    #[test]
    fn range_probe_plans_return_the_same_rows_as_ucq() {
        use crate::engine::Store;
        // Two-atom members where the collapsed interval rides a probe:
        // knob on and off must agree row-for-row.
        let members: Vec<StoreCq> = [1u32, 2, 3]
            .iter()
            .map(|&o| {
                StoreCq::with_var_head(
                    vec![
                        StorePattern::new(v(0), c(10), c(o)),
                        StorePattern::new(v(0), c(11), v(1)),
                    ],
                    vec![0, 1],
                )
            })
            .collect();
        let frag = StoreUcq::new(members, vec![0, 1]);
        let q = StoreJucq::from_ucq(frag);
        let triples: Vec<TripleId> =
            vec![t(1, 10, 2), t(2, 10, 3), t(3, 10, 1), t(1, 11, 100), t(2, 11, 101), t(4, 10, 4)];
        let mut rows_by_mode = Vec::new();
        for on in [true, false] {
            let profile = EngineProfile::pg_like().with_range_scans(on);
            let s = Store::from_triples(&triples, profile);
            let out = s.eval_jucq(&q).expect("evaluation succeeds");
            let mut r = out.relation;
            r.sort();
            if on {
                assert!(out.counters.range_scans > 0, "collapsed plan takes a range probe");
            }
            rows_by_mode.push(r.to_rows());
        }
        for w in rows_by_mode.windows(2) {
            assert_eq!(w[0], w[1], "range-probe and UCQ plans are row-identical");
        }
    }

    #[test]
    fn collapsed_plans_return_the_same_rows() {
        use crate::engine::Store;
        let members: Vec<StoreCq> = [1u32, 2, 3]
            .iter()
            .map(|&o| one_pattern_member(StorePattern::new(v(0), c(10), c(o)), vec![0]))
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let q = StoreJucq::from_ucq(frag);
        let triples: Vec<TripleId> =
            vec![t(1, 10, 2), t(2, 10, 3), t(3, 10, 1), t(1, 11, 100), t(2, 11, 101), t(4, 10, 4)];
        let mut rows_by_mode = Vec::new();
        for on in [true, false] {
            let profile = EngineProfile::pg_like().with_range_scans(on);
            let s = Store::from_triples(&triples, profile);
            let out = s.eval_jucq(&q).expect("evaluation succeeds");
            let mut r = out.relation;
            r.sort();
            assert_eq!(
                out.counters.range_scans,
                u64::from(on),
                "range_scans counter tracks the knob"
            );
            rows_by_mode.push(r.to_rows());
        }
        for w in rows_by_mode.windows(2) {
            assert_eq!(w[0], w[1], "range and UCQ plans are row-identical");
        }
    }

    #[test]
    fn render_shows_shared_table_and_tree() {
        let shared_leaf = StorePattern::new(v(0), c(11), c(100));
        let a = StoreCq::with_var_head(
            vec![shared_leaf, StorePattern::new(v(0), c(10), v(1))],
            vec![0, 1],
        );
        let b = StoreCq::with_var_head(
            vec![shared_leaf, StorePattern::new(v(1), c(10), v(0))],
            vec![0, 1],
        );
        let frag = StoreUcq::new(vec![a, b], vec![0, 1]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        let text = plan.render(3);
        assert!(text.contains("Shared scans:"), "{text}");
        assert!(text.contains("SharedScan #0"), "{text}");
        assert!(text.contains("Dedup"), "{text}");
        assert!(text.contains("HashUnion fragment[0]"), "{text}");
        assert!(text.contains("Inlj probe"), "{text}");
    }
}
