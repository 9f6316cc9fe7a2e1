//! The cold planning path's kernels as they were before they stopped
//! allocating per member, kept as oracles: the hash-set canonicalization
//! and member dedup of reformulation, and the clone-per-candidate
//! signature grouping of `collapsible_runs` and of the planner's
//! collapse fixpoint (with the two planner passes that run before it).
//! Only the cold-path tests (`cold_path_identity`, `product_isomorphism`)
//! use them.

use std::collections::VecDeque;

use jucq_model::{FxHashMap, FxHashSet, SchemaClosure, TermId};
use jucq_reformulation::{BgpQuery, ReformulationEnv};
use jucq_store::containment::{minimize_union, UnionMember};
use jucq_store::{
    CollapsibleRun, Interval, PatternTerm, RangePos, StoreCq, StorePattern, StoreUcq, TripleTable,
    VarId,
};

/// A CQ under construction: head terms (variables, or constants after
/// variable instantiation) plus body atoms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct WorkCq {
    head: Vec<PatternTerm>,
    atoms: Vec<StorePattern>,
}

impl WorkCq {
    fn head_vars(&self) -> FxHashSet<VarId> {
        self.head.iter().filter_map(|t| t.as_var()).collect()
    }

    fn max_var(&self) -> Option<VarId> {
        let body = self.atoms.iter().flat_map(StorePattern::variables).max();
        let head = self.head.iter().filter_map(|t| t.as_var()).max();
        body.max(head)
    }
}

/// Canonicalize: sort atoms with a head-variable-stable key, rename
/// non-head (existential) variables in first-occurrence order, re-sort,
/// and drop duplicate atoms (idempotent in a join).
fn normalize(mut cq: WorkCq) -> WorkCq {
    let head_vars = cq.head_vars();
    let base: VarId = head_vars.iter().copied().max().map_or(0, |m| m + 1);

    let pre_key = |t: &PatternTerm| -> (u8, u32) {
        match t {
            PatternTerm::Const(c) => (0, c.raw()),
            PatternTerm::Var(v) if head_vars.contains(v) => (1, u32::from(*v)),
            PatternTerm::Var(_) => (2, 0),
        }
    };
    cq.atoms.sort_by_key(|a| [pre_key(&a.s), pre_key(&a.p), pre_key(&a.o)]);

    let mut rename: FxHashMap<VarId, VarId> = FxHashMap::default();
    let mut next = base;
    let mut mapped = |v: VarId, rename: &mut FxHashMap<VarId, VarId>| -> VarId {
        if head_vars.contains(&v) {
            return v;
        }
        *rename.entry(v).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        })
    };
    for a in &mut cq.atoms {
        for pos in [&mut a.s, &mut a.p, &mut a.o] {
            if let PatternTerm::Var(v) = pos {
                *pos = PatternTerm::Var(mapped(*v, &mut rename));
            }
        }
    }
    cq.atoms.sort();
    cq.atoms.dedup();
    cq
}

/// Apply a single-variable substitution to the whole CQ (head + body).
fn substitute(cq: &WorkCq, var: VarId, value: TermId) -> WorkCq {
    let subst = |t: &PatternTerm| -> PatternTerm {
        match t {
            PatternTerm::Var(v) if *v == var => PatternTerm::Const(value),
            other => *other,
        }
    };
    WorkCq {
        head: cq.head.iter().map(subst).collect(),
        atoms: cq
            .atoms
            .iter()
            .map(|a| StorePattern::new(subst(&a.s), subst(&a.p), subst(&a.o)))
            .collect(),
    }
}

/// Replace atom `ai` with `new_atom`.
fn replace_atom(cq: &WorkCq, ai: usize, new_atom: StorePattern) -> WorkCq {
    let mut atoms = cq.atoms.clone();
    atoms[ai] = new_atom;
    WorkCq { head: cq.head.clone(), atoms }
}

/// All one-step reformulations of `cq`.
fn successors(cq: &WorkCq, env: &ReformulationEnv<'_>) -> Vec<WorkCq> {
    let mut out = Vec::new();
    let mut next_fresh: VarId = cq.max_var().map_or(0, |m| m + 1);
    let closure: &SchemaClosure = env.closure;

    for (ai, atom) in cq.atoms.iter().enumerate() {
        match atom.p {
            PatternTerm::Const(p) if p == env.rdf_type => match atom.o {
                // Class atom (e, τ, C).
                PatternTerm::Const(c) => {
                    if !c.is_uri() {
                        continue;
                    }
                    // R1: subclasses.
                    for &sub in closure.sub_classes(c) {
                        if sub != c {
                            out.push(replace_atom(
                                cq,
                                ai,
                                StorePattern::new(atom.s, atom.p, PatternTerm::Const(sub)),
                            ));
                        }
                    }
                    // R2: properties whose domain entails C.
                    for &p in closure.properties_with_domain(c) {
                        let fresh = PatternTerm::Var(next_fresh);
                        next_fresh += 1;
                        out.push(replace_atom(
                            cq,
                            ai,
                            StorePattern::new(atom.s, PatternTerm::Const(p), fresh),
                        ));
                    }
                    // R3: properties whose range entails C.
                    for &p in closure.properties_with_range(c) {
                        let fresh = PatternTerm::Var(next_fresh);
                        next_fresh += 1;
                        out.push(replace_atom(
                            cq,
                            ai,
                            StorePattern::new(fresh, PatternTerm::Const(p), atom.s),
                        ));
                    }
                }
                // Class-variable atom (e, τ, y): R5 instantiation.
                PatternTerm::Var(y) => {
                    for &c in closure.classes() {
                        out.push(substitute(cq, y, c));
                    }
                }
            },
            // Property atom (s, p, o), p ≠ τ: R4 subproperties.
            PatternTerm::Const(p) => {
                for &sub in closure.sub_properties(p) {
                    if sub != p {
                        out.push(replace_atom(
                            cq,
                            ai,
                            StorePattern::new(atom.s, PatternTerm::Const(sub), atom.o),
                        ));
                    }
                }
            }
            // Property-variable atom (s, y, o): R6 instantiation.
            PatternTerm::Var(y) => {
                for &p in closure.properties() {
                    out.push(substitute(cq, y, p));
                }
                out.push(substitute(cq, y, env.rdf_type));
            }
        }
    }
    out
}

/// The variables of an atom that the instantiation rules (R5/R6) may
/// substitute throughout the query: a property-position variable, and
/// the object variable of a (present or R6-producible) `rdf:type` atom.
fn instantiable_vars(atom: &StorePattern, rdf_type: TermId) -> Vec<VarId> {
    let mut out = Vec::new();
    match atom.p {
        PatternTerm::Var(y) => {
            out.push(y);
            // R6 can turn `y` into rdf:type, making the object a class
            // variable.
            if let PatternTerm::Var(o) = atom.o {
                if !out.contains(&o) {
                    out.push(o);
                }
            }
        }
        PatternTerm::Const(p) if p == rdf_type => {
            if let PatternTerm::Var(o) = atom.o {
                out.push(o);
            }
        }
        PatternTerm::Const(_) => {}
    }
    out
}

/// True iff the per-atom product decomposition is exact: no atom's
/// instantiable variable occurs in any other atom, so no rule
/// application ever rewrites two atoms at once.
pub fn atoms_independent(q: &BgpQuery, rdf_type: TermId) -> bool {
    for (i, atom) in q.atoms.iter().enumerate() {
        for v in instantiable_vars(atom, rdf_type) {
            for (j, other) in q.atoms.iter().enumerate() {
                if i != j && other.variables().contains(&v) {
                    return false;
                }
            }
        }
    }
    true
}

/// Fast path: reformulate each atom independently and take the
/// cartesian product of the member sets. Exact when
/// [`atoms_independent`] holds; reformulation sizes then multiply
/// across atoms, which is exactly the paper's arithmetic (q1: 188 × 4
/// × 3 = 2256).
fn reformulate_product(
    q: &BgpQuery,
    env: &ReformulationEnv<'_>,
    limit: usize,
) -> Result<StoreUcq, usize> {
    let global_max: VarId = q.max_var().map_or(0, |m| m + 1);
    // Per-atom member lists: (rewritten atom, substitution of the
    // atom's original head vars).
    type Member = (StorePattern, Vec<(VarId, PatternTerm)>);
    let mut per_atom: Vec<Vec<Member>> = Vec::new();
    let mut total: usize = 1;
    for (ai, atom) in q.atoms.iter().enumerate() {
        let atom_vars = atom.variables();
        let sub_q = BgpQuery { head: atom_vars.to_vec(), atoms: vec![*atom], limit: None };
        let ucq = reformulate_fixpoint(&sub_q, env, limit)?;
        let mut members = Vec::with_capacity(ucq.len());
        for m in &ucq.cqs {
            debug_assert_eq!(m.patterns.len(), 1);
            let mut rewritten = m.patterns[0];
            // Remap the member's fresh (non-original) variable, if any,
            // into a range unique to this atom so members of different
            // atoms never accidentally join.
            let fresh_slot = global_max + 1 + (ai as VarId);
            for pos in [&mut rewritten.s, &mut rewritten.p, &mut rewritten.o] {
                if let PatternTerm::Var(v) = pos {
                    if !atom_vars.contains(v) {
                        *pos = PatternTerm::Var(fresh_slot);
                    }
                }
            }
            let subst: Vec<(VarId, PatternTerm)> = atom_vars
                .iter()
                .zip(&m.head)
                .filter(|(v, t)| PatternTerm::Var(**v) != **t)
                .map(|(v, t)| (*v, *t))
                .collect();
            members.push((rewritten, subst));
        }
        total = total.saturating_mul(members.len());
        if total > limit {
            return Err(total);
        }
        per_atom.push(members);
    }

    // Cartesian product.
    let head_terms: Vec<PatternTerm> = q.head.iter().map(|&v| PatternTerm::Var(v)).collect();
    let mut seen: FxHashSet<WorkCq> = FxHashSet::default();
    let mut result: Vec<StoreCq> = Vec::with_capacity(total);
    let mut indices = vec![0usize; per_atom.len()];
    loop {
        let mut head = head_terms.clone();
        let mut atoms = Vec::with_capacity(per_atom.len());
        for (ai, &k) in indices.iter().enumerate() {
            let (atom, subst) = &per_atom[ai][k];
            atoms.push(*atom);
            for (v, t) in subst {
                for h in &mut head {
                    if *h == PatternTerm::Var(*v) {
                        *h = *t;
                    }
                }
            }
        }
        let n = normalize(WorkCq { head, atoms });
        if seen.insert(n.clone()) {
            result.push(StoreCq::new(n.atoms, n.head));
            if result.len() > limit {
                return Err(result.len());
            }
        }
        // Advance the mixed-radix counter.
        let mut pos = indices.len();
        loop {
            if pos == 0 {
                return Ok(StoreUcq::new(result, q.head.clone()));
            }
            pos -= 1;
            indices[pos] += 1;
            if indices[pos] < per_atom[pos].len() {
                break;
            }
            indices[pos] = 0;
        }
    }
}

/// Like `reformulate` but aborting once more than `limit` member CQs
/// have been produced; `Err(n)` reports the lower bound `n > limit`
/// reached. Lets callers detect "union too large for any engine"
/// without materializing millions of members.
pub fn reformulate_with_limit(
    q: &BgpQuery,
    env: &ReformulationEnv<'_>,
    limit: usize,
) -> Result<StoreUcq, usize> {
    if q.atoms.len() > 1 && atoms_independent(q, env.rdf_type) {
        return reformulate_product(q, env, limit);
    }
    reformulate_fixpoint(q, env, limit)
}

/// The general breadth-first fixpoint.
fn reformulate_fixpoint(
    q: &BgpQuery,
    env: &ReformulationEnv<'_>,
    limit: usize,
) -> Result<StoreUcq, usize> {
    let start = normalize(WorkCq {
        head: q.head.iter().map(|&v| PatternTerm::Var(v)).collect(),
        atoms: q.atoms.clone(),
    });
    let mut seen: FxHashSet<WorkCq> = FxHashSet::default();
    seen.insert(start.clone());
    let mut queue: VecDeque<WorkCq> = VecDeque::new();
    queue.push_back(start);
    let mut result: Vec<StoreCq> = Vec::new();

    while let Some(cq) = queue.pop_front() {
        result.push(StoreCq::new(cq.atoms.clone(), cq.head.clone()));
        if result.len() + queue.len() > limit {
            return Err(result.len() + queue.len());
        }
        for succ in successors(&cq, env) {
            let n = normalize(succ);
            if seen.insert(n.clone()) {
                queue.push_back(n);
            }
        }
    }
    Ok(StoreUcq::new(result, q.head.clone()))
}

/// Find member runs collapsible into single range atoms: maximal groups
/// of ≥ 2 members that share head and body except for one constant — at
/// some atom's predicate or object position — whose raw ids are
/// consecutive. Greedy and non-overlapping (a member joins at most one
/// run), in the planner's deterministic candidate order. This is the
/// *first pass* of the planner's fixpoint collapse, so the result is a
/// lower bound of what the planner merges.
pub fn collapsible_runs<'c>(members: impl IntoIterator<Item = &'c StoreCq>) -> Vec<CollapsibleRun> {
    let members: Vec<&StoreCq> = members.into_iter().collect();
    // Signature of a (member, slot) candidate: the head, the slot, and
    // the body with the slot's constant masked out. Two members share
    // a signature iff they differ only in that constant.
    type Sig = (Vec<PatternTerm>, usize, RangePos, Vec<StorePattern>);
    let mut groups: FxHashMap<Sig, Vec<(usize, u32)>> = FxHashMap::default();
    let mut order: Vec<Sig> = Vec::new();
    for (mi, cq) in members.iter().enumerate() {
        for (ai, pat) in cq.patterns.iter().enumerate() {
            for (pos, term) in [(RangePos::Predicate, pat.p), (RangePos::Object, pat.o)] {
                let PatternTerm::Const(id) = term else { continue };
                let mut masked = cq.patterns.clone();
                match pos {
                    RangePos::Predicate => masked[ai].p = PatternTerm::Var(VarId::MAX),
                    RangePos::Object => masked[ai].o = PatternTerm::Var(VarId::MAX),
                }
                let sig = (cq.head.clone(), ai, pos, masked);
                let entry = groups.entry(sig.clone()).or_default();
                if entry.is_empty() {
                    order.push(sig);
                }
                entry.push((mi, id.raw()));
            }
        }
    }
    let mut consumed = vec![false; members.len()];
    let mut runs = Vec::new();
    for sig in &order {
        let mut entries: Vec<(usize, u32)> =
            groups[sig].iter().copied().filter(|&(mi, _)| !consumed[mi]).collect();
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
                    atom: sig.1,
                    pos: sig.2,
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

/// One union member mid-rewrite: the CQ and its exact per-atom extents.
struct DraftMember {
    cq: StoreCq,
    counts: Vec<usize>,
}

/// One collapsed-interval atom.
struct RangeAtom {
    atom: usize,
    interval: Interval,
}

/// Fixpoint-collapse scratch state for one surviving union member.
struct Scratch {
    ranges: Vec<RangeAtom>,
    alive: bool,
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

/// The members the planner's collapse pass receives: `ucq`'s members
/// after pass 1 (prune empty extents) and pass 2, the store's own
/// [`minimize_union`] (cores, duplicates, contained members).
fn collapse_input(table: &TripleTable, ucq: &StoreUcq) -> Vec<DraftMember> {
    let mut members: Vec<DraftMember> = (ucq.cqs.iter())
        .map(|cq| DraftMember {
            counts: cq.patterns.iter().map(|p| table.count(&p.bound())).collect(),
            cq: cq.clone(),
        })
        .collect();
    members.retain(|m| !m.counts.contains(&0));
    minimize_union(&mut members);
    members
}

/// Does the index hold *no* triple matching `pat`'s template with its
/// `pos` component in `[lo, hi)`?
fn gap_is_empty(table: &TripleTable, pat: &StorePattern, pos: RangePos, lo: u32, hi: u32) -> bool {
    let mut bound = pat.bound();
    match pos {
        RangePos::Predicate => bound[1] = None,
        RangePos::Object => bound[2] = None,
    }
    table.count_value_range(&bound, pos, lo, hi) == 0
}

/// A one-fragment plan's collapsed atoms: per member, its ranged atoms
/// as `(pattern, ranged, lo, hi, members)`, sorted.
pub type Collapse = Vec<Vec<(StorePattern, RangePos, u32, u32, usize)>>;

/// The planner's collapse of `ucq` as a one-fragment plan, for each
/// member that survives passes 1–2 and the collapse.
pub fn planner_collapse(table: &TripleTable, ucq: &StoreUcq) -> Collapse {
    let members = collapse_input(table, ucq);
    let mut scratch: Vec<Scratch> =
        members.iter().map(|_| Scratch { ranges: Vec::new(), alive: true }).collect();
    collapse_fixpoint(table, &members, &mut scratch);
    (members.iter().zip(&scratch))
        .filter(|(_, s)| s.alive)
        .map(|(m, s)| {
            let mut ranges: Vec<_> = (s.ranges.iter())
                .map(|r| {
                    let iv = r.interval;
                    (m.cq.patterns[r.atom], iv.ranged, iv.lo, iv.hi, iv.members)
                })
                .collect();
            ranges.sort_unstable();
            ranges
        })
        .collect()
}

/// The planner's interval-merge passes, run until nothing merges.
fn collapse_fixpoint(
    table: &TripleTable,
    members: &[DraftMember],
    scratch: &mut [Scratch],
) -> bool {
    type Sig =
        (Vec<PatternTerm>, usize, RangePos, Vec<StorePattern>, Vec<(usize, RangePos, u32, u32)>);
    fn mask(pats: &mut [StorePattern], atom: usize, pos: RangePos) {
        match pos {
            RangePos::Predicate => pats[atom].p = PatternTerm::Var(VarId::MAX),
            RangePos::Object => pats[atom].o = PatternTerm::Var(VarId::MAX),
        }
    }
    let mut merged_any = false;
    loop {
        let mut changed = false;
        // Entries per signature: (scratch index, lo, hi, constants in
        // the slot's interval so far).
        let mut groups: FxHashMap<Sig, Vec<(usize, u32, u32, usize)>> = FxHashMap::default();
        let mut order: Vec<Sig> = Vec::new();
        for (si, s) in scratch.iter().enumerate() {
            if !s.alive {
                continue;
            }
            let cq = &members[si].cq;
            for (ai, pat) in cq.patterns.iter().enumerate() {
                for pos in [RangePos::Predicate, RangePos::Object] {
                    let existing = s.ranges.iter().find(|r| r.atom == ai);
                    let (lo, hi, slot_members) = match existing {
                        Some(r) if r.interval.ranged == pos => {
                            (r.interval.lo, r.interval.hi, r.interval.members)
                        }
                        // One interval per atom: the other position of
                        // an already-ranged atom is not a candidate.
                        Some(_) => continue,
                        None => {
                            let term = match pos {
                                RangePos::Predicate => pat.p,
                                RangePos::Object => pat.o,
                            };
                            let PatternTerm::Const(id) = term else { continue };
                            (id.raw(), id.raw() + 1, 1)
                        }
                    };
                    let mut masked = cq.patterns.clone();
                    mask(&mut masked, ai, pos);
                    let mut others: Vec<(usize, RangePos, u32, u32)> = Vec::new();
                    for r in &s.ranges {
                        if r.atom == ai {
                            continue;
                        }
                        // Other ranged slots: mask the (arbitrary)
                        // template constant, carry the interval in the
                        // signature instead.
                        let iv = r.interval;
                        mask(&mut masked, r.atom, iv.ranged);
                        others.push((r.atom, iv.ranged, iv.lo, iv.hi));
                    }
                    others.sort_unstable();
                    let sig = (cq.head.clone(), ai, pos, masked, others);
                    let entry = groups.entry(sig.clone()).or_default();
                    if entry.is_empty() {
                        order.push(sig);
                    }
                    entry.push((si, lo, hi, slot_members));
                }
            }
        }
        let mut consumed = vec![false; scratch.len()];
        for sig in &order {
            let (ai, pos) = (sig.1, sig.2);
            let mut entries: Vec<(usize, u32, u32, usize)> = groups[sig]
                .iter()
                .copied()
                .filter(|&(si, ..)| scratch[si].alive && !consumed[si])
                .collect();
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
                            && gap_is_empty(table, template, pos, prev_hi, next_lo));
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
