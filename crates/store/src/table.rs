//! The `Triples(s,p,o)` table and its five permutation indexes, and the
//! stack of disjoint tables a store reads as one.
//!
//! Follows the paper's storage layout (§5.1): one dictionary-encoded
//! triples table, each index a clustered copy of it sorted by one column
//! permutation, so every triple-pattern scan is a binary-search prefix
//! range over a contiguous slice — and every triple-pattern
//! **cardinality is exact** in O(log n), which the statistics layer
//! exploits. The paper's RDBMSs keep all six permutations; here OSP is
//! left out, because every lookup it could serve binds or ranges over
//! the object alone, and that is a prefix of OPS as well.
//!
//! A store reads a [`TableStack`]: one table, or several tables that
//! hold disjoint sets of triples. A lookup on the stack is one lookup
//! per layer, its [`Runs`] one sorted run per layer; counts add, because
//! no triple is in two layers. The saturated store is the plain store's
//! table (shared, not copied) under a layer of what saturation adds.

use std::sync::Arc;

use jucq_model::{TermId, TripleId};

/// The five column permutations of `(s, p, o)` the table keeps: all
/// but OSP, whose object-led lookups OPS answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Perm {
    /// subject, property, object
    Spo,
    /// subject, object, property
    Sop,
    /// property, subject, object
    Pso,
    /// property, object, subject
    Pos,
    /// object, property, subject
    Ops,
}

impl Perm {
    /// All five permutations.
    pub const ALL: [Perm; 5] = [Perm::Spo, Perm::Sop, Perm::Pso, Perm::Pos, Perm::Ops];

    /// The sort key of a triple under this permutation.
    #[inline]
    pub fn key(self, t: &TripleId) -> [u32; 3] {
        let (s, p, o) = (t.s.raw(), t.p.raw(), t.o.raw());
        match self {
            Perm::Spo => [s, p, o],
            Perm::Sop => [s, o, p],
            Perm::Pso => [p, s, o],
            Perm::Pos => [p, o, s],
            Perm::Ops => [o, p, s],
        }
    }

    /// Pick the permutation whose key prefix covers exactly the bound
    /// positions of a pattern `[s?, p?, o?]`.
    pub fn for_bound(bound: &[Option<TermId>; 3]) -> Perm {
        Perm::for_mask(bound.map(|c| c.is_some()))
    }

    /// [`Perm::for_bound`] over a bound-position mask.
    fn for_mask(bound: [bool; 3]) -> Perm {
        match (bound[0], bound[1], bound[2]) {
            (false, false, false) => Perm::Spo,
            (true, false, false) => Perm::Spo,
            (false, true, false) => Perm::Pso,
            (false, false, true) => Perm::Ops,
            (true, true, false) => Perm::Spo,
            (true, false, true) => Perm::Sop,
            (false, true, true) => Perm::Pos,
            (true, true, true) => Perm::Spo,
        }
    }

    /// The triple positions (0 = s, 1 = p, 2 = o) in this permutation's
    /// key order — e.g. `Pos` sorts by property, then object, then
    /// subject, so its key positions are `[1, 2, 0]`.
    #[inline]
    pub fn key_positions(self) -> [usize; 3] {
        match self {
            Perm::Spo => [0, 1, 2],
            Perm::Sop => [0, 2, 1],
            Perm::Pso => [1, 0, 2],
            Perm::Pos => [1, 2, 0],
            Perm::Ops => [2, 1, 0],
        }
    }
}

/// The triple position a [`TripleTable::scan_value_range`] ranges over
/// (the two positions hierarchy intervals apply to: class objects of
/// `rdf:type` atoms and predicates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RangePos {
    /// Range over the property column.
    Predicate,
    /// Range over the object column.
    Object,
}

impl Perm {
    /// Pick the permutation whose key puts the bound positions first and
    /// the ranged position immediately after — so a value range on that
    /// position is one contiguous slice of the index.
    pub fn for_range(bound: &[Option<TermId>; 3], ranged: RangePos) -> Perm {
        Perm::for_range_mask(bound.map(|c| c.is_some()), ranged)
    }

    /// [`Perm::for_range`] over a bound-position mask.
    fn for_range_mask(bound: [bool; 3], ranged: RangePos) -> Perm {
        match ranged {
            RangePos::Object => match (bound[0], bound[1]) {
                (false, false) => Perm::Ops,
                (true, false) => Perm::Sop,
                (false, true) => Perm::Pos,
                (true, true) => Perm::Spo,
            },
            RangePos::Predicate => match (bound[0], bound[2]) {
                (false, false) => Perm::Pso,
                (true, false) => Perm::Spo,
                (false, true) => Perm::Ops,
                (true, true) => Perm::Sop,
            },
        }
    }
}

/// First index in `[lo, hi)` satisfying `pred`, assuming `pred` is
/// monotone (false…false, then true…true) and `pred(lo)` is false:
/// probe at exponentially growing offsets from `lo`, then binary-search
/// the crossed window. Returns `hi` when no index satisfies `pred`.
pub(crate) fn gallop_to(lo: usize, hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    let mut prev = lo;
    let mut step = 1usize;
    let mut top = hi;
    loop {
        let cand = match lo.checked_add(step) {
            Some(c) if c < hi => c,
            _ => break,
        };
        if pred(cand) {
            top = cand;
            break;
        }
        prev = cand;
        step <<= 1;
    }
    // First true index in (prev, top], or `hi` when all remain false.
    let (mut a, mut b) = (prev + 1, top);
    while a < b {
        let m = a + (b - a) / 2;
        if pred(m) {
            b = m;
        } else {
            a = m + 1;
        }
    }
    a
}

/// The key interval of one lookup under a permutation: the run of
/// matching triples starts at the first key `>= lo` and ends before the
/// first key past `hi`.
struct Span {
    lo: [u32; 3],
    hi: [u32; 3],
    /// Whether a key equal to `hi` still matches: a prefix lookup pads
    /// `hi` with `u32::MAX`, a value range ends at an exclusive bound.
    closed: bool,
}

impl Span {
    /// The bound positions of `bound` in `perm`'s key order, which must
    /// form a key prefix, and how many there are.
    fn bound_prefix(perm: Perm, bound: &[Option<TermId>; 3]) -> ([u32; 3], usize) {
        let pos = perm.key_positions();
        let k = pos.iter().take_while(|&&i| bound[i].is_some()).count();
        debug_assert_eq!(
            k,
            bound.iter().filter(|c| c.is_some()).count(),
            "chosen permutation must put all bound positions first"
        );
        (pos.map(|i| bound[i].map_or(0, TermId::raw)), k)
    }

    /// Every triple matching the bound positions: the prefix padded with
    /// the extreme values of the free tail.
    fn prefix(perm: Perm, bound: &[Option<TermId>; 3]) -> Span {
        let (lo, k) = Span::bound_prefix(perm, bound);
        let mut hi = lo;
        hi[k..].fill(u32::MAX);
        Span { lo, hi, closed: true }
    }

    /// Every triple matching the bound positions whose next key
    /// component lies in `[lo, hi)`: the tail is padded with 0 and the
    /// upper bound compared strictly, so `hi` stays exclusive.
    fn value_range(perm: Perm, bound: &[Option<TermId>; 3], lo: u32, hi: u32) -> Span {
        let (mut lo_key, k) = Span::bound_prefix(perm, bound);
        let mut hi_key = lo_key;
        lo_key[k] = lo;
        // An empty or inverted range ends where it starts.
        hi_key[k] = hi.max(lo);
        Span { lo: lo_key, hi: hi_key, closed: false }
    }

    #[inline]
    fn past(&self, key: [u32; 3]) -> bool {
        if self.closed {
            key > self.hi
        } else {
            key >= self.hi
        }
    }
}

/// How a [`TripleTable`] answers lookups against one permutation index —
/// a single scan, or a *stream* of lookups with one shape (same bound
/// positions, changing values): the permutation and index slice are
/// resolved once, and each lookup starts where the previous one did.
///
/// A lookup's run starts at the first key `>= lo`: found by bisection
/// the first time, afterwards by galloping forward from the previous
/// start (the hint) — O(log distance), a few triples when the keys
/// ascend, as they do for rows out of an index scan probing on their
/// sort column — or, when the key went backwards, by bisecting only the
/// part of the index before the hint (a *reseek*). The run's end is
/// found by galloping from its start, not by a second bisection: runs
/// are short next to the index. Any hint is correct — it decides what a
/// lookup costs, never what it returns.
struct LayerCursor<'t> {
    idx: &'t [TripleId],
    perm: Perm,
    /// Where the previous lookup's run started (`None` before the first).
    hint: Option<usize>,
    reseeks: u64,
}

impl<'t> LayerCursor<'t> {
    fn new(idx: &'t [TripleId], perm: Perm) -> Self {
        LayerCursor { idx, perm, hint: None, reseeks: 0 }
    }

    fn seek_span(&mut self, span: &Span) -> &'t [TripleId] {
        let (idx, perm) = (self.idx, self.perm);
        let below = |i: usize| perm.key(&idx[i]) < span.lo;
        let past = |i: usize| span.past(perm.key(&idx[i]));
        let start = match self.hint {
            None => idx.partition_point(|t| perm.key(t) < span.lo),
            Some(h) if h < idx.len() && below(h) => gallop_to(h, idx.len(), |i| !below(i)),
            Some(h) if h == 0 || below(h - 1) => h,
            Some(h) => {
                self.reseeks += 1;
                idx[..h - 1].partition_point(|t| perm.key(t) < span.lo)
            }
        };
        self.hint = Some(start);
        let end = if start == idx.len() || past(start) {
            start
        } else {
            gallop_to(start, idx.len(), past)
        };
        &idx[start..end]
    }
}

/// Bits of one radix digit: a column's 32-bit raw id is two digits.
const DIGIT_BITS: u32 = 16;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// `src` stably sorted by one column: an LSD radix sort over the
/// column's two 16-bit digits, low digit into `scratch`, high digit out
/// of it. A digit every triple shares orders nothing and is skipped, so
/// a column of small ids (the predicates, say) costs one pass. On an
/// input already sorted on the other two columns, stability makes the
/// result sorted on all three, with the column leading.
fn sort_by_column(
    src: &[TripleId],
    column: impl Fn(&TripleId) -> TermId,
    scratch: &mut Vec<TripleId>,
) -> Vec<TripleId> {
    let Some(first) = src.first() else { return Vec::new() };
    let mut low = vec![0usize; BUCKETS];
    let mut high = vec![0usize; BUCKETS];
    for t in src {
        let k = column(t).raw() as usize;
        low[k & (BUCKETS - 1)] += 1;
        high[k >> DIGIT_BITS] += 1;
    }
    let k = column(first).raw() as usize;
    let low_orders = low[k & (BUCKETS - 1)] < src.len();
    let high_orders = high[k >> DIGIT_BITS] < src.len();
    let mut out = Vec::new();
    match (low_orders, high_orders) {
        (false, false) => out.extend_from_slice(src),
        (true, false) => scatter(src, &mut out, &column, &mut low, 0),
        (false, true) => scatter(src, &mut out, &column, &mut high, DIGIT_BITS),
        (true, true) => {
            scatter(src, scratch, &column, &mut low, 0);
            scatter(scratch, &mut out, &column, &mut high, DIGIT_BITS);
        }
    }
    out
}

/// One counting pass: `dst` becomes `src` stably ordered by the digit
/// of `column` at `shift`, whose per-bucket counts are `counts`.
fn scatter(
    src: &[TripleId],
    dst: &mut Vec<TripleId>,
    column: impl Fn(&TripleId) -> TermId,
    counts: &mut [usize],
    shift: u32,
) {
    // Each bucket's count becomes the slot its first triple goes to.
    let mut next = 0;
    for c in counts.iter_mut() {
        next += std::mem::replace(c, next);
    }
    dst.clear();
    dst.resize(src.len(), src[0]);
    for t in src {
        let slot = &mut counts[(column(t).raw() >> shift) as usize & (BUCKETS - 1)];
        dst[*slot] = *t;
        *slot += 1;
    }
}

/// The triples table plus five clustered permutation indexes.
#[derive(Debug, Default, Clone)]
pub struct TripleTable {
    indexes: [Vec<TripleId>; 5],
}

impl TripleTable {
    /// Build the table (and all indexes) from a set of triples.
    /// Duplicates in the input are kept; callers deduplicate upstream
    /// (graphs are sets).
    pub fn build(triples: &[TripleId]) -> Self {
        TripleTable::from_vec(triples.to_vec())
    }

    /// [`TripleTable::build`] taking ownership of `triples`, which is
    /// sorted in place into the SPO index: no copy of the input is held.
    pub fn from_vec(mut spo: Vec<TripleId>) -> Self {
        spo.sort_unstable_by_key(|t| Perm::Spo.key(t));
        TripleTable::from_spo(spo)
    }

    /// The table over `spo`, a run sorted in SPO order. Every other index
    /// is one stable radix sort of an index already sorted on the other
    /// two columns, by the column it leads with: PSO from SPO, OPS from
    /// PSO, SOP and POS from OPS.
    fn from_spo(spo: Vec<TripleId>) -> Self {
        let mut scratch = Vec::new();
        let pso = sort_by_column(&spo, |t| t.p, &mut scratch);
        let ops = sort_by_column(&pso, |t| t.o, &mut scratch);
        let sop = sort_by_column(&ops, |t| t.s, &mut scratch);
        // Freed before the last sort: predicate ids rarely need their
        // high digit, so POS takes one pass without scratch and the
        // build never holds more copies of the triples than the finished
        // table does, its input included.
        drop(scratch);
        let pos = sort_by_column(&ops, |t| t.p, &mut Vec::new());
        TripleTable { indexes: [spo, sop, pso, pos, ops] }
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.indexes[0].len()
    }

    /// True iff the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every triple, sorted by `perm`'s key order.
    pub fn sorted_by(&self, perm: Perm) -> &[TripleId] {
        // `Perm`'s declaration order is `Perm::ALL`'s, which `from_spo`
        // fills the array in.
        &self.indexes[perm as usize]
    }

    /// The contiguous slice of triples matching the bound positions of a
    /// pattern, sorted by [`Perm::for_bound`]'s key order. This is the σ
    /// of the engine: an index-range scan.
    pub fn scan(&self, bound: &[Option<TermId>; 3]) -> &[TripleId] {
        let perm = Perm::for_bound(bound);
        let idx = self.sorted_by(perm);
        if bound.iter().all(Option::is_none) {
            return idx;
        }
        LayerCursor::new(idx, perm).seek_span(&Span::prefix(perm, bound))
    }

    /// Exact number of triples matching the bound positions (O(log n)).
    pub fn count(&self, bound: &[Option<TermId>; 3]) -> usize {
        self.scan(bound).len()
    }

    /// The contiguous slice of triples whose `ranged` position has a raw
    /// id in `[lo, hi)` and whose other positions match `bound` — the σ
    /// of a hierarchy-collapsed reformulation: one clustered range scan
    /// instead of one prefix scan per union member.
    ///
    /// The ranged position must not itself be bound.
    pub fn scan_value_range(
        &self,
        bound: &[Option<TermId>; 3],
        ranged: RangePos,
        lo: u32,
        hi: u32,
    ) -> &[TripleId] {
        debug_assert!(
            match ranged {
                RangePos::Predicate => bound[1].is_none(),
                RangePos::Object => bound[2].is_none(),
            },
            "ranged position must be free"
        );
        let perm = Perm::for_range(bound, ranged);
        LayerCursor::new(self.sorted_by(perm), perm)
            .seek_span(&Span::value_range(perm, bound, lo, hi))
    }

    /// Exact number of triples a [`TripleTable::scan_value_range`] would
    /// return (O(log n); feeds the cost model).
    pub fn count_value_range(
        &self,
        bound: &[Option<TermId>; 3],
        ranged: RangePos,
        lo: u32,
        hi: u32,
    ) -> usize {
        self.scan_value_range(bound, ranged, lo, hi).len()
    }

    /// All triples, in SPO order.
    pub fn all(&self) -> &[TripleId] {
        self.sorted_by(Perm::Spo)
    }

    /// A new table with `inserts` merged in and `deletes` filtered out
    /// (a triple in both ends absent): one merge of the sorted inserts
    /// into the SPO index (O(n + d·log d) instead of a full O(n·log n)
    /// comparison sort), from which the other indexes are derived as
    /// [`TripleTable::build`] derives them. `inserts` is sorted in place;
    /// into an empty table it becomes the SPO index itself, so a first
    /// load holds no second copy of its triples.
    pub fn apply_delta(
        &self,
        mut inserts: Vec<TripleId>,
        deletes: &jucq_model::FxHashSet<TripleId>,
    ) -> TripleTable {
        if !deletes.is_empty() {
            inserts.retain(|t| !deletes.contains(t));
        }
        // `TripleId` orders by (s, p, o): the SPO key order. The sort is
        // stable, so sorted runs (a sorted batch with a tail appended)
        // cost one merge each.
        inserts.sort();
        inserts.dedup();
        let old = self.all();
        if old.is_empty() {
            return TripleTable::from_spo(inserts);
        }
        let mut spo = Vec::with_capacity(old.len() + inserts.len());
        let mut ins = inserts.into_iter().peekable();
        for t in old.iter().filter(|t| !deletes.contains(t)) {
            while let Some(new) = ins.next_if(|new| new < t) {
                spo.push(new);
            }
            // Insert of an already-present triple: keep one.
            ins.next_if_eq(t);
            spo.push(*t);
        }
        spo.extend(ins);
        TripleTable::from_spo(spo)
    }
}

/// The most layers a [`TableStack`] holds: the plain store has one, the
/// saturated store two (the plain store's table, then the entailed
/// layer).
pub const MAX_LAYERS: usize = 2;

/// Disjoint triple tables read as one: the table a [`crate::Store`]
/// answers from. Every read — scans, value-range scans, counts, cursor
/// seeks, the merged index walks statistics take — covers every layer;
/// a one-layer stack is a single table.
///
/// No triple is in two layers, so the runs of one lookup are disjoint
/// and their lengths add. The constructors do not check this (it would
/// cost a merge of the layers); whoever stacks a table on others makes
/// it disjoint from them, as the saturated store's builders do.
#[derive(Debug, Clone)]
pub struct TableStack {
    layers: Vec<Arc<TripleTable>>,
}

impl From<TripleTable> for TableStack {
    fn from(table: TripleTable) -> Self {
        TableStack::new(vec![Arc::new(table)])
    }
}

impl TableStack {
    /// The stack of `layers`, bottom first, which must be disjoint.
    ///
    /// # Panics
    ///
    /// With no layer, or more than [`MAX_LAYERS`].
    pub fn new(layers: Vec<Arc<TripleTable>>) -> Self {
        assert!(
            (1..=MAX_LAYERS).contains(&layers.len()),
            "a table stack holds 1 to {MAX_LAYERS} layers, not {}",
            layers.len()
        );
        TableStack { layers }
    }

    /// The layers, bottom first.
    pub fn layers(&self) -> &[Arc<TripleTable>] {
        &self.layers
    }

    /// Number of stored triples, over every layer.
    pub fn len(&self) -> usize {
        self.layers.iter().map(|t| t.len()).sum()
    }

    /// True iff no layer holds a triple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The triples matching the bound positions of a pattern, one run
    /// per layer, each sorted by [`Perm::for_bound`]'s key order.
    pub fn scan(&self, bound: &[Option<TermId>; 3]) -> Runs<'_> {
        Runs::of(&self.layers, |t| t.scan(bound))
    }

    /// Exact number of triples matching the bound positions.
    pub fn count(&self, bound: &[Option<TermId>; 3]) -> usize {
        self.layers.iter().map(|t| t.count(bound)).sum()
    }

    /// [`TripleTable::scan_value_range`] over every layer.
    pub fn scan_value_range(
        &self,
        bound: &[Option<TermId>; 3],
        ranged: RangePos,
        lo: u32,
        hi: u32,
    ) -> Runs<'_> {
        Runs::of(&self.layers, |t| t.scan_value_range(bound, ranged, lo, hi))
    }

    /// Exact number of triples a [`TableStack::scan_value_range`] would
    /// return.
    pub fn count_value_range(
        &self,
        bound: &[Option<TermId>; 3],
        ranged: RangePos,
        lo: u32,
        hi: u32,
    ) -> usize {
        self.layers.iter().map(|t| t.count_value_range(bound, ranged, lo, hi)).sum()
    }

    /// A cursor for a stream of lookups that all bind the positions set
    /// in `bound` (to values that change from one lookup to the next)
    /// and, with `ranged`, range over that position.
    pub fn probe_cursor(&self, bound: [bool; 3], ranged: Option<RangePos>) -> ProbeCursor<'_> {
        let perm = match ranged {
            Some(ranged) => Perm::for_range_mask(bound, ranged),
            None => Perm::for_mask(bound),
        };
        let layers = std::array::from_fn(|i| {
            LayerCursor::new(self.layers.get(i).map_or(&[][..], |t| t.sorted_by(perm)), perm)
        });
        ProbeCursor { layers, n: self.layers.len(), perm }
    }

    /// Every triple in `perm`'s key order, as the sorted segments of the
    /// layers' indexes that a merge of them visits one after another.
    /// One layer is one segment.
    pub fn merged(&self, perm: Perm) -> Merged<'_> {
        Merged { heads: Runs::of(&self.layers, |t| t.sorted_by(perm)), perm }
    }
}

/// The matches of one lookup on a [`TableStack`]: a run from each
/// layer, in layer order, each sorted by the lookup's permutation.
/// Layers are disjoint, so the runs are too.
#[derive(Debug, Clone, Copy)]
pub struct Runs<'t> {
    runs: [&'t [TripleId]; MAX_LAYERS],
    n: usize,
}

impl<'t> Runs<'t> {
    fn of(
        layers: &'t [Arc<TripleTable>],
        mut run: impl FnMut(&'t TripleTable) -> &'t [TripleId],
    ) -> Self {
        let mut runs = [&[][..]; MAX_LAYERS];
        for (slot, table) in runs.iter_mut().zip(layers) {
            *slot = run(table);
        }
        Runs { runs, n: layers.len() }
    }

    /// The runs, one per layer.
    #[inline]
    pub fn slices(&self) -> &[&'t [TripleId]] {
        &self.runs[..self.n]
    }

    /// Number of matching triples, over every run.
    #[inline]
    pub fn len(&self) -> usize {
        self.slices().iter().map(|r| r.len()).sum()
    }

    /// True iff no triple matches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slices().iter().all(|r| r.is_empty())
    }

    /// Every matching triple, run after run.
    pub fn iter(&self) -> impl Iterator<Item = &'t TripleId> + '_ {
        self.slices().iter().flat_map(|r| r.iter())
    }
}

/// A stream of lookups of one shape on a [`TableStack`]: one
/// [`TripleTable`] cursor per layer, each keeping its own hint, so a
/// lookup costs what it costs on each table alone.
pub struct ProbeCursor<'t> {
    layers: [LayerCursor<'t>; MAX_LAYERS],
    /// Layers in use.
    n: usize,
    perm: Perm,
}

impl<'t> ProbeCursor<'t> {
    /// The triples matching `bound` (which binds the cursor's positions).
    #[inline]
    pub fn seek(&mut self, bound: &[Option<TermId>; 3]) -> Runs<'t> {
        self.seek_span(&Span::prefix(self.perm, bound))
    }

    /// The triples matching `bound` whose ranged position has a raw id
    /// in `[lo, hi)`.
    #[inline]
    pub fn seek_range(&mut self, bound: &[Option<TermId>; 3], lo: u32, hi: u32) -> Runs<'t> {
        self.seek_span(&Span::value_range(self.perm, bound, lo, hi))
    }

    /// Lookups so far that could not continue forward from the previous
    /// one's position, summed over the layers.
    pub fn reseeks(&self) -> u64 {
        self.layers[..self.n].iter().map(|c| c.reseeks).sum()
    }

    #[inline]
    fn seek_span(&mut self, span: &Span) -> Runs<'t> {
        let mut runs = [&[][..]; MAX_LAYERS];
        for (slot, cursor) in runs.iter_mut().zip(&mut self.layers[..self.n]) {
            *slot = cursor.seek_span(span);
        }
        Runs { runs, n: self.n }
    }
}

/// [`TableStack::merged`]: the layers' indexes merged into one key
/// order, a segment at a time.
pub struct Merged<'t> {
    /// What remains of each layer's index.
    heads: Runs<'t>,
    perm: Perm,
}

impl<'t> Iterator for Merged<'t> {
    type Item = &'t [TripleId];

    fn next(&mut self) -> Option<&'t [TripleId]> {
        let perm = self.perm;
        let heads = &mut self.heads.runs[..self.heads.n];
        // The layer whose next triple sorts first, and the first key of
        // every other layer: its segment ends before that key. Layers are
        // disjoint, so no two keys are equal.
        let mut first: Option<(usize, [u32; 3])> = None;
        let mut stop: Option<[u32; 3]> = None;
        for (i, head) in heads.iter().enumerate() {
            let Some(t) = head.first() else { continue };
            let key = perm.key(t);
            match first {
                Some((_, k)) if k < key => stop = Some(stop.map_or(key, |s| s.min(key))),
                _ => {
                    if let Some((_, k)) = first {
                        stop = Some(stop.map_or(k, |s| s.min(k)));
                    }
                    first = Some((i, key));
                }
            }
        }
        let (i, _) = first?;
        let run = heads[i];
        let end = match stop {
            None => run.len(),
            Some(stop) => gallop_to(0, run.len(), |j| perm.key(&run[j]) > stop),
        };
        heads[i] = &run[end..];
        Some(&run[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::term::TermKind;

    fn id(i: u32) -> TermId {
        TermId::new(TermKind::Uri, i)
    }

    fn t(s: u32, p: u32, o: u32) -> TripleId {
        TripleId::new(id(s), id(p), id(o))
    }

    fn sample() -> TripleTable {
        TripleTable::build(&[
            t(1, 10, 100),
            t(1, 10, 101),
            t(1, 11, 100),
            t(2, 10, 100),
            t(2, 11, 102),
            t(3, 12, 103),
        ])
    }

    #[test]
    fn full_scan_returns_everything() {
        let tbl = sample();
        assert_eq!(tbl.scan(&[None, None, None]).len(), 6);
        assert_eq!(tbl.len(), 6);
    }

    #[test]
    fn scan_by_subject() {
        let tbl = sample();
        let hits = tbl.scan(&[Some(id(1)), None, None]);
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|x| x.s == id(1)));
    }

    #[test]
    fn scan_by_property() {
        let tbl = sample();
        assert_eq!(tbl.count(&[None, Some(id(10)), None]), 3);
        assert_eq!(tbl.count(&[None, Some(id(11)), None]), 2);
        assert_eq!(tbl.count(&[None, Some(id(99)), None]), 0);
    }

    #[test]
    fn scan_by_object() {
        let tbl = sample();
        assert_eq!(tbl.count(&[None, None, Some(id(100))]), 3);
        assert_eq!(tbl.count(&[None, None, Some(id(103))]), 1);
    }

    #[test]
    fn scan_by_two_positions() {
        let tbl = sample();
        assert_eq!(tbl.count(&[Some(id(1)), Some(id(10)), None]), 2);
        assert_eq!(tbl.count(&[Some(id(1)), None, Some(id(100))]), 2);
        assert_eq!(tbl.count(&[None, Some(id(10)), Some(id(100))]), 2);
    }

    #[test]
    fn scan_fully_bound() {
        let tbl = sample();
        assert_eq!(tbl.count(&[Some(id(2)), Some(id(11)), Some(id(102))]), 1);
        assert_eq!(tbl.count(&[Some(id(2)), Some(id(11)), Some(id(999))]), 0);
    }

    #[test]
    fn scans_are_contiguous_and_sorted() {
        let tbl = sample();
        let hits = tbl.scan(&[None, Some(id(10)), None]);
        let mut keys: Vec<[u32; 3]> = hits.iter().map(|x| Perm::Pso.key(x)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        keys.dedup();
        assert_eq!(keys.len(), hits.len());
    }

    #[test]
    fn perm_selection_covers_bound_positions() {
        // For every bound combination, the chosen permutation must have
        // the bound positions as a key prefix.
        for mask in 0u8..8 {
            let bound: [Option<TermId>; 3] =
                std::array::from_fn(|i| if mask & (1 << i) != 0 { Some(id(7)) } else { None });
            let perm = Perm::for_bound(&bound);
            let k = perm.key_positions().iter().take_while(|&&i| bound[i].is_some()).count();
            assert_eq!(
                k,
                bound.iter().filter(|c| c.is_some()).count(),
                "mask {mask:#b} perm {perm:?}"
            );
        }
    }

    /// A small deterministic LCG so the property sweep is reproducible.
    fn lcg(seed: &mut u64) -> u32 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*seed >> 33) as u32
    }

    #[test]
    fn value_range_scans_are_sorted_under_their_key_order() {
        let mut seed = 0x5eed_cafe_u64;
        let mut triples = Vec::new();
        for _ in 0..300 {
            triples.push(t(lcg(&mut seed) % 9, 10 + lcg(&mut seed) % 5, 100 + lcg(&mut seed) % 11));
        }
        let tbl = TripleTable::build(&triples);
        for (bound, ranged) in [
            ([None, None, None], RangePos::Object),
            ([Some(id(2)), None, None], RangePos::Object),
            ([None, Some(id(11)), None], RangePos::Object),
            ([None, None, None], RangePos::Predicate),
            ([Some(id(4)), None, None], RangePos::Predicate),
            ([None, None, Some(id(103))], RangePos::Predicate),
        ] {
            let perm = Perm::for_range(&bound, ranged);
            for (lo, hi) in [(0, u32::MAX), (101, 106), (11, 13)] {
                let hits = tbl.scan_value_range(&bound, ranged, lo, hi);
                let keys: Vec<[u32; 3]> = hits.iter().map(|x| perm.key(x)).collect();
                assert!(
                    keys.windows(2).all(|w| w[0] <= w[1]),
                    "{bound:?} {ranged:?} [{lo},{hi}): not sorted under {perm:?}"
                );
            }
        }
    }

    #[test]
    fn discriminants_index_the_permutation_array() {
        // `TripleTable::sorted_by` reads `indexes[perm as usize]`, filled in
        // `Perm::ALL` order.
        for (i, perm) in Perm::ALL.into_iter().enumerate() {
            assert_eq!(perm as usize, i, "{perm:?}");
        }
        let tbl = sample();
        for perm in Perm::ALL {
            let keys: Vec<[u32; 3]> = tbl.sorted_by(perm).iter().map(|x| perm.key(x)).collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{perm:?} holds another order");
        }
    }

    /// The lookup streams a cursor must answer like a fresh scan: values
    /// around (below, inside, above) the stored ids, in every order.
    fn lookup_streams(seed: &mut u64, values: std::ops::Range<u32>) -> Vec<Vec<u32>> {
        let ascending: Vec<u32> = (values.start.saturating_sub(2)..values.end + 3).collect();
        let descending: Vec<u32> = ascending.iter().rev().copied().collect();
        let random: Vec<u32> =
            (0..60).map(|_| values.start + lcg(seed) % (values.end - values.start + 2)).collect();
        let constant = vec![values.start + 1; 5];
        let mut clustered = random.clone();
        clustered.sort_unstable();
        let outside = vec![0, u32::MAX >> 2, 0, values.start, u32::MAX >> 2];
        vec![ascending, descending, random, constant, clustered, outside]
    }

    #[test]
    fn cursor_returns_exactly_the_scanned_slice() {
        let mut seed = 0xc0ff_ee00_u64;
        for round in 0..6 {
            // Sparse ids (so lookups fall between keys), heavy
            // duplication of every component; round 0 is the empty table.
            let n = [0, 1, 7, 60, 300, 300][round];
            let triples: Vec<TripleId> = (0..n)
                .map(|_| {
                    t(
                        10 + 2 * (lcg(&mut seed) % 9),
                        10 + 2 * (lcg(&mut seed) % 5),
                        10 + 2 * (lcg(&mut seed) % 11),
                    )
                })
                .collect();
            let stack = TableStack::from(TripleTable::build(&triples));
            let tbl = &*stack.layers()[0];
            let same = |got: Runs<'_>, want: &[TripleId], what: &dyn std::fmt::Debug| {
                let got = got.slices()[0];
                assert_eq!(got.as_ptr(), want.as_ptr(), "{what:?}: another start");
                assert_eq!(got.len(), want.len(), "{what:?}: another length");
            };
            let streams = lookup_streams(&mut seed, 10..32);
            for mask in 0u8..8 {
                let shape: [bool; 3] = std::array::from_fn(|i| mask & (1 << i) != 0);
                let bind = |x: u32, salt: u32| -> [Option<TermId>; 3] {
                    // Positions move at different rates, so multi-column
                    // keys ascend, repeat and fall back.
                    let vals = [x, 10 + (x / 2 + salt) % 12, 10 + (x + salt) % 24];
                    std::array::from_fn(|i| shape[i].then(|| id(vals[i])))
                };
                for (si, stream) in streams.iter().enumerate() {
                    let mut cursor = stack.probe_cursor(shape, None);
                    for (n, &x) in stream.iter().enumerate() {
                        if si % 2 == 1 && n % 3 == 0 {
                            // Any position is a valid hint.
                            cursor.layers[0].hint = Some(lcg(&mut seed) as usize % (tbl.len() + 1));
                        }
                        let bound = bind(x, si as u32);
                        same(cursor.seek(&bound), tbl.scan(&bound), &(round, mask, si, x));
                    }
                    for ranged in [RangePos::Predicate, RangePos::Object] {
                        let free = if ranged == RangePos::Predicate { 1 } else { 2 };
                        if shape[free] {
                            continue;
                        }
                        let mut cursor = stack.probe_cursor(shape, Some(ranged));
                        for (n, &x) in stream.iter().enumerate() {
                            if si % 2 == 0 && n % 4 == 1 {
                                cursor.layers[0].hint =
                                    Some(lcg(&mut seed) as usize % (tbl.len() + 1));
                            }
                            let bound = bind(x, si as u32);
                            // Empty, inverted, point, wide and unbounded ranges.
                            let lo = 8 + lcg(&mut seed) % 20;
                            let hi = [lo, lo - 1, lo + 1, lo + 7, u32::MAX][n % 5];
                            same(
                                cursor.seek_range(&bound, lo, hi),
                                tbl.scan_value_range(&bound, ranged, lo, hi),
                                &(round, mask, ranged, si, x, lo, hi),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cursor_counts_only_backward_lookups_as_reseeks() {
        let triples: Vec<TripleId> = (0..200).map(|i| t(i, 10, 1000 - i)).collect();
        let tbl = TableStack::from(TripleTable::build(&triples));
        let shape = [true, false, false];
        let mut cursor = tbl.probe_cursor(shape, None);
        for s in [3, 3, 4, 50, 50, 199, 500] {
            cursor.seek(&[Some(id(s)), None, None]);
        }
        assert_eq!(cursor.reseeks(), 0, "first, repeated and ascending keys go forward");
        cursor.seek(&[Some(id(7)), None, None]);
        cursor.seek(&[Some(id(8)), None, None]);
        cursor.seek(&[Some(id(2)), None, None]);
        assert_eq!(cursor.reseeks(), 2);
    }

    #[test]
    fn key_positions_agree_with_key() {
        let x = t(5, 6, 7);
        let raw = [x.s.raw(), x.p.raw(), x.o.raw()];
        for perm in Perm::ALL {
            let pos = perm.key_positions();
            let via_pos: [u32; 3] = std::array::from_fn(|i| raw[pos[i]]);
            assert_eq!(via_pos, perm.key(&x), "{perm:?}");
        }
    }

    #[test]
    fn value_range_scan_equals_union_of_point_scans() {
        let tbl = sample();
        // Object range [100, 102) with predicate 10 bound: the union of
        // o=100 and o=101 point scans.
        let ranged = tbl.scan_value_range(&[None, Some(id(10)), None], RangePos::Object, 100, 102);
        assert_eq!(ranged.len(), 3);
        assert!(ranged.iter().all(|x| x.p == id(10) && (100..102).contains(&x.o.raw())));
        // Unbound variant ranges over the whole table.
        let all_o = tbl.scan_value_range(&[None, None, None], RangePos::Object, 100, u32::MAX);
        assert_eq!(all_o.len(), 6);
        // Predicate range with subject bound.
        let preds = tbl.scan_value_range(&[Some(id(1)), None, None], RangePos::Predicate, 10, 12);
        assert_eq!(preds.len(), 3);
        // Empty and inverted ranges.
        assert_eq!(tbl.count_value_range(&[None, None, None], RangePos::Object, 104, 200), 0);
        assert_eq!(tbl.count_value_range(&[None, None, None], RangePos::Object, 102, 102), 0);
        assert_eq!(tbl.count_value_range(&[None, None, None], RangePos::Object, 103, 100), 0);
    }

    #[test]
    fn range_scans_are_sorted_and_contiguous() {
        let tbl = sample();
        for (bound, ranged) in [
            ([None, None, None], RangePos::Object),
            ([Some(id(1)), None, None], RangePos::Object),
            ([None, Some(id(10)), None], RangePos::Object),
            ([None, None, None], RangePos::Predicate),
            ([Some(id(2)), None, None], RangePos::Predicate),
            ([None, None, Some(id(100))], RangePos::Predicate),
        ] {
            let perm = Perm::for_range(&bound, ranged);
            let hits = tbl.scan_value_range(&bound, ranged, 0, u32::MAX);
            let keys: Vec<[u32; 3]> = hits.iter().map(|x| perm.key(x)).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted, "{bound:?} {ranged:?}");
        }
    }

    #[test]
    fn apply_delta_inserts_and_deletes() {
        let tbl = sample();
        let mut deletes = jucq_model::FxHashSet::default();
        deletes.insert(t(1, 10, 100));
        let inserts = vec![t(9, 10, 100), t(9, 12, 104)];
        let updated = tbl.apply_delta(inserts, &deletes);
        assert_eq!(updated.len(), tbl.len() + 2 - 1);
        assert_eq!(updated.count(&[Some(id(1)), Some(id(10)), Some(id(100))]), 0);
        assert_eq!(updated.count(&[Some(id(9)), None, None]), 2);
        // All indexes stay consistent: the same count from any side.
        assert_eq!(updated.count(&[None, Some(id(10)), None]), 3);
        assert_eq!(updated.count(&[None, None, Some(id(100))]), 3);
    }

    #[test]
    fn apply_delta_is_idempotent_for_duplicates() {
        let tbl = sample();
        let updated = tbl.apply_delta(vec![t(1, 10, 100), t(1, 10, 100)], &Default::default());
        assert_eq!(updated.len(), tbl.len(), "existing + duplicate inserts collapse");
    }

    #[test]
    fn apply_delta_into_an_empty_table_is_a_build() {
        let tbl = sample();
        let mut triples = tbl.all().to_vec();
        triples.reverse();
        triples.push(triples[0]);
        let loaded = TripleTable::build(&[]).apply_delta(triples, &Default::default());
        for perm in Perm::ALL {
            assert_eq!(loaded.sorted_by(perm), tbl.sorted_by(perm), "{perm:?}");
        }
    }

    #[test]
    fn apply_delta_equals_rebuild() {
        let tbl = sample();
        let mut deletes = jucq_model::FxHashSet::default();
        deletes.insert(t(3, 12, 103));
        let inserts = vec![t(7, 7, 7)];
        let merged = tbl.apply_delta(inserts.clone(), &deletes);
        let mut full: Vec<TripleId> =
            tbl.all().iter().filter(|x| !deletes.contains(x)).copied().collect();
        full.extend(&inserts);
        let rebuilt = TripleTable::build(&full);
        for perm in Perm::ALL {
            assert_eq!(merged.sorted_by(perm), rebuilt.sorted_by(perm), "{perm:?}");
        }
    }

    #[test]
    fn empty_table() {
        let tbl = TripleTable::build(&[]);
        assert!(tbl.is_empty());
        assert!(tbl.scan(&[None, None, None]).is_empty());
        assert_eq!(tbl.count(&[Some(id(1)), None, None]), 0);
    }

    /// `triples` split at random into two disjoint layers.
    fn two_layers(triples: &[TripleId], seed: &mut u64) -> TableStack {
        let (mut low, mut high) = (Vec::new(), Vec::new());
        for &x in triples {
            if lcg(seed).is_multiple_of(3) {
                high.push(x);
            } else {
                low.push(x);
            }
        }
        TableStack::new(vec![
            Arc::new(TripleTable::from_vec(low)),
            Arc::new(TripleTable::from_vec(high)),
        ])
    }

    #[test]
    fn layers_read_as_the_table_of_their_union() {
        let mut seed = 0x1a7e_55ed_u64;
        for n in [0usize, 1, 9, 80, 400] {
            let mut triples: Vec<TripleId> = (0..n)
                .map(|_| {
                    t(10 + lcg(&mut seed) % 9, 10 + lcg(&mut seed) % 4, 10 + lcg(&mut seed) % 12)
                })
                .collect();
            triples.sort_unstable();
            triples.dedup();
            let whole = TripleTable::build(&triples);
            let stack = two_layers(&triples, &mut seed);
            assert_eq!(stack.len(), whole.len());
            let as_set = |runs: Runs<'_>| {
                let mut v: Vec<TripleId> = runs.iter().copied().collect();
                v.sort_unstable();
                v
            };
            let sorted = |x: &[TripleId]| {
                let mut v = x.to_vec();
                v.sort_unstable();
                v
            };
            for perm in Perm::ALL {
                let merged: Vec<TripleId> = stack.merged(perm).flatten().copied().collect();
                assert_eq!(merged, whole.sorted_by(perm), "{perm:?}");
            }
            for mask in 0u8..8 {
                let shape: [bool; 3] = std::array::from_fn(|i| mask & (1 << i) != 0);
                let mut cursor = stack.probe_cursor(shape, None);
                for x in 8..24u32 {
                    let vals = [x / 2 + 1, 10 + x % 4, x];
                    let bound: [Option<TermId>; 3] =
                        std::array::from_fn(|i| shape[i].then(|| id(vals[i])));
                    let want = whole.scan(&bound);
                    assert_eq!(stack.count(&bound), want.len());
                    assert_eq!(as_set(stack.scan(&bound)), sorted(want));
                    assert_eq!(as_set(cursor.seek(&bound)), sorted(want), "{mask} {x}");
                }
                for ranged in [RangePos::Predicate, RangePos::Object] {
                    if shape[if ranged == RangePos::Predicate { 1 } else { 2 }] {
                        continue;
                    }
                    let mut cursor = stack.probe_cursor(shape, Some(ranged));
                    for x in 8..24u32 {
                        let vals = [x / 2 + 1, 10 + x % 4, x];
                        let bound: [Option<TermId>; 3] =
                            std::array::from_fn(|i| shape[i].then(|| id(vals[i])));
                        let (lo, hi) = (x / 2, x / 2 + x % 5);
                        let want = whole.scan_value_range(&bound, ranged, lo, hi);
                        assert_eq!(stack.count_value_range(&bound, ranged, lo, hi), want.len());
                        let got = stack.scan_value_range(&bound, ranged, lo, hi);
                        assert_eq!(as_set(got), sorted(want));
                        assert_eq!(as_set(cursor.seek_range(&bound, lo, hi)), sorted(want));
                    }
                }
            }
        }
    }
}
