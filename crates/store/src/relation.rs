//! Materialized relations: the tuples flowing between operators.

use jucq_model::TermId;

use crate::ir::VarId;

/// Multiplier of the rotate-xor-multiply row hash (the Fx constant).
pub(crate) const HASH_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn mix(h: u64, t: TermId) -> u64 {
    (h.rotate_left(5) ^ u64::from(t.raw())).wrapping_mul(HASH_SEED)
}

/// Position-sensitive hash of `n` terms: the one row hash of the
/// executor, whatever the terms are gathered from.
#[inline]
pub(crate) fn hash_terms(n: usize, terms: impl Iterator<Item = TermId>) -> u64 {
    terms.fold(n as u64, mix)
}

/// [`hash_terms`] of a whole row (final dedup, union accumulator).
#[inline]
pub(crate) fn hash_row(row: &[TermId]) -> u64 {
    hash_terms(row.len(), row.iter().copied())
}

/// [`hash_row`] over the selected columns only (hash-join keys, SIP
/// filter keys): equal to `hash_row` of the gathered key.
#[inline]
pub(crate) fn hash_cols(row: &[TermId], cols: &[usize]) -> u64 {
    hash_terms(cols.len(), cols.iter().map(|&c| row[c]))
}

/// A materialized relation: a flat row-major buffer of [`TermId`]s with
/// a variable-name schema. Flattening keeps rows contiguous (one
/// allocation instead of one per row) — the hot representation the
/// perf-book guidance asks for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Relation {
    vars: Vec<VarId>,
    data: Vec<TermId>,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(vars: Vec<VarId>) -> Self {
        Relation { vars, data: Vec::new() }
    }

    /// An empty relation with pre-reserved row capacity.
    pub fn with_capacity(vars: Vec<VarId>, rows: usize) -> Self {
        let width = vars.len();
        Relation { vars, data: Vec::with_capacity(rows * width) }
    }

    /// The schema: one variable per column.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.vars.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        if self.vars.is_empty() {
            // Zero-width relations encode boolean results: we store the
            // row count out-of-band as data length (0 or 1 sentinel per
            // row would be invisible with width 0), so treat data len as
            // the count directly.
            self.data.len()
        } else {
            self.data.len() / self.vars.len()
        }
    }

    /// True iff the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics (debug) if the row width does not match the schema. For
    /// zero-width relations, pushes a presence marker.
    pub fn push_row(&mut self, row: &[TermId]) {
        debug_assert_eq!(row.len(), self.vars.len());
        if self.vars.is_empty() {
            // Presence marker for boolean relations.
            self.data.push(TermId::from_raw(0));
        } else {
            self.data.extend_from_slice(row);
        }
    }

    /// Iterate over rows as slices. Zero-width (boolean) relations yield
    /// one empty slice per presence marker.
    pub fn rows(&self) -> impl Iterator<Item = &[TermId]> + '_ {
        let zero_width = self.vars.is_empty();
        let width = if zero_width { 1 } else { self.vars.len() };
        self.data.chunks_exact(width).map(move |chunk| if zero_width { &chunk[..0] } else { chunk })
    }

    /// Row access by index. Zero-width (boolean) relations yield empty
    /// slices.
    pub fn row(&self, i: usize) -> &[TermId] {
        if self.vars.is_empty() {
            debug_assert!(i < self.data.len());
            return &[];
        }
        let w = self.vars.len();
        &self.data[i * w..(i + 1) * w]
    }

    /// The column position of a variable, if present.
    pub fn column_of(&self, var: VarId) -> Option<usize> {
        self.vars.iter().position(|&v| v == var)
    }

    /// Project onto `head` (reordering/dropping columns).
    ///
    /// # Panics
    /// Panics if a head variable is missing from the schema.
    pub fn project(&self, head: &[VarId]) -> Relation {
        if head == self.vars {
            return self.clone();
        }
        let cols: Vec<usize> =
            head.iter().map(|v| self.column_of(*v).expect("projection variable present")).collect();
        let mut out = Relation::with_capacity(head.to_vec(), self.len());
        let mut row_buf: Vec<TermId> = Vec::with_capacity(head.len());
        for row in self.rows() {
            row_buf.clear();
            row_buf.extend(cols.iter().map(|&c| row[c]));
            out.push_row(&row_buf);
        }
        out
    }

    /// Remove duplicate rows (set semantics), keeping first occurrences
    /// in order. Returns the number of rows removed. Open-addressing
    /// over row indices into the already-compacted prefix: kept rows sit
    /// at or before the candidate, so probing only ever reads settled
    /// data and no copy of the rows is taken.
    pub fn dedup_in_place(&mut self) -> usize {
        if self.vars.is_empty() {
            let before = self.data.len();
            self.data.truncate(1.min(before));
            return before - self.data.len();
        }
        let width = self.vars.len();
        let n = self.len();
        if n == 0 {
            return 0;
        }
        // ≤ 50% load factor; slot 0 = empty, else kept-row index + 1.
        let mut slots: Vec<u32> = vec![0; (n * 2).next_power_of_two()];
        let mask = slots.len() - 1;
        let mut write = 0usize;
        let mut removed = 0usize;
        for i in 0..n {
            let start = i * width;
            let mut slot = hash_row(&self.data[start..start + width]) as usize & mask;
            let mut dup = false;
            loop {
                match slots[slot] {
                    0 => {
                        slots[slot] = write as u32 + 1;
                        break;
                    }
                    idx => {
                        let j = (idx as usize - 1) * width;
                        if self.data[j..j + width] == self.data[start..start + width] {
                            dup = true;
                            break;
                        }
                        slot = (slot + 1) & mask;
                    }
                }
            }
            if dup {
                removed += 1;
            } else {
                if write != i {
                    self.data.copy_within(start..start + width, write * width);
                }
                write += 1;
            }
        }
        self.data.truncate(write * width);
        removed
    }

    /// Move a kernel's batch buffer of width-aligned row data into the
    /// relation in one bulk copy, leaving the buffer empty for the next
    /// batch. An empty buffer is a no-op (zero-width rows are presence
    /// markers pushed directly, so their kernels never fill one).
    ///
    /// # Panics
    /// Panics (debug) if the data length is not a multiple of the width.
    pub(crate) fn flush_from(&mut self, flat: &mut Vec<TermId>) {
        debug_assert!(flat.len().is_multiple_of(self.vars.len()));
        self.data.extend_from_slice(flat);
        flat.clear();
    }

    /// Concatenate another relation with the same schema.
    ///
    /// # Panics
    /// Panics (debug) if the schemas differ.
    pub fn append(&mut self, other: &Relation) {
        debug_assert_eq!(self.vars, other.vars);
        self.data.extend_from_slice(&other.data);
    }

    /// Sort rows lexicographically (for deterministic comparisons).
    pub fn sort(&mut self) {
        if self.vars.is_empty() {
            return;
        }
        let width = self.vars.len();
        let mut rows: Vec<Vec<TermId>> =
            self.data.chunks_exact(width).map(<[TermId]>::to_vec).collect();
        rows.sort_unstable();
        self.data.clear();
        for r in rows {
            self.data.extend_from_slice(&r);
        }
    }

    /// Keep only the first `n` rows (SPARQL `LIMIT`).
    pub fn truncate(&mut self, n: usize) {
        let w = if self.vars.is_empty() { 1 } else { self.vars.len() };
        self.data.truncate(n.saturating_mul(w));
    }

    /// Collect rows as owned vectors (test/diagnostic helper).
    pub fn to_rows(&self) -> Vec<Vec<TermId>> {
        self.rows().map(<[TermId]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::term::TermKind;

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

    #[test]
    fn push_and_iterate() {
        let r = rel(vec![0, 1], &[&[1, 2], &[3, 4]]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(1), &[id(3), id(4)]);
        assert_eq!(r.rows().count(), 2);
    }

    #[test]
    fn projection_reorders_and_drops() {
        let r = rel(vec![0, 1, 2], &[&[1, 2, 3], &[4, 5, 6]]);
        let p = r.project(&[2, 0]);
        assert_eq!(p.vars(), &[2, 0]);
        assert_eq!(p.to_rows(), vec![vec![id(3), id(1)], vec![id(6), id(4)]]);
    }

    #[test]
    fn projection_identity_is_cheap_copy() {
        let r = rel(vec![0, 1], &[&[1, 2]]);
        assert_eq!(r.project(&[0, 1]), r);
    }

    #[test]
    fn dedup_removes_duplicates_keeping_first_occurrence_order() {
        let mut r = rel(vec![0], &[&[1], &[2], &[1], &[3], &[2]]);
        let removed = r.dedup_in_place();
        assert_eq!(removed, 2);
        assert_eq!(r.to_rows(), vec![vec![id(1)], vec![id(2)], vec![id(3)]]);
    }

    #[test]
    fn dedup_on_empty_is_noop() {
        let mut r = Relation::empty(vec![0, 1]);
        assert_eq!(r.dedup_in_place(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn dedup_matches_a_hash_set_on_colliding_rows() {
        // 280 distinct (i % 40, i % 7) pairs, the first 20 repeated at
        // the end: duplicates are found across a full table of survivors.
        let mut r = Relation::empty(vec![0, 1]);
        for i in 0..300u32 {
            r.push_row(&[id(i % 40), id(i % 7)]);
        }
        let mut seen = std::collections::HashSet::new();
        let expect: Vec<Vec<TermId>> =
            r.to_rows().into_iter().filter(|row| seen.insert(row.clone())).collect();
        assert_eq!(r.dedup_in_place(), 300 - expect.len());
        assert_eq!(r.to_rows(), expect, "first occurrences, in order");
    }

    #[test]
    fn hash_cols_equals_hash_row_of_the_gathered_key() {
        let row = [id(7), id(3), id(9)];
        assert_eq!(hash_cols(&row, &[2, 0]), hash_row(&[id(9), id(7)]));
        assert_eq!(hash_cols(&row, &[0, 1, 2]), hash_row(&row));
        assert_ne!(hash_cols(&row, &[0, 2]), hash_cols(&row, &[2, 0]), "position-sensitive");
    }

    #[test]
    fn flush_from_moves_the_buffer_and_empties_it() {
        let mut r = rel(vec![0, 1], &[&[1, 2]]);
        let mut flat = vec![id(3), id(4), id(5), id(6)];
        r.flush_from(&mut flat);
        assert!(flat.is_empty(), "the buffer is ready for the next batch");
        assert_eq!(r.to_rows(), vec![vec![id(1), id(2)], vec![id(3), id(4)], vec![id(5), id(6)]]);
        // Zero-width kernels push presence markers and never fill the
        // buffer: flushing it must leave their row count alone.
        let mut boolean = Relation::empty(vec![]);
        boolean.push_row(&[]);
        boolean.flush_from(&mut flat);
        assert_eq!(boolean.len(), 1);
    }

    #[test]
    fn append_concatenates() {
        let mut a = rel(vec![0], &[&[1]]);
        let b = rel(vec![0], &[&[2], &[3]]);
        a.append(&b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn sort_orders_rows() {
        let mut r = rel(vec![0, 1], &[&[3, 1], &[1, 2], &[2, 0]]);
        r.sort();
        assert_eq!(r.to_rows(), vec![vec![id(1), id(2)], vec![id(2), id(0)], vec![id(3), id(1)]]);
    }

    #[test]
    fn zero_width_boolean_relation() {
        let mut r = Relation::empty(vec![]);
        assert!(r.is_empty());
        r.push_row(&[]);
        r.push_row(&[]);
        assert_eq!(r.len(), 2);
        r.dedup_in_place();
        assert_eq!(r.len(), 1, "boolean TRUE collapses to one row");
    }

    #[test]
    fn truncate_keeps_prefix() {
        let mut r = rel(vec![0, 1], &[&[1, 2], &[3, 4], &[5, 6]]);
        r.truncate(2);
        assert_eq!(r.to_rows(), vec![vec![id(1), id(2)], vec![id(3), id(4)]]);
        r.truncate(10);
        assert_eq!(r.len(), 2, "over-truncation is a no-op");
    }

    #[test]
    fn column_lookup() {
        let r = rel(vec![4, 7], &[]);
        assert_eq!(r.column_of(7), Some(1));
        assert_eq!(r.column_of(9), None);
    }
}
