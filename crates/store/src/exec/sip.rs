//! Sideways information passing (SIP): a Bloom filter over join keys.
//!
//! When the staged plan driver (see `plan/exec.rs`) finishes the
//! accumulated left side of a fragment join step, it publishes a
//! [`SipFilter`] over the join-key columns; the next fragment's union
//! members probe it a whole member result at a time
//! ([`apply_sip_filter`]) and drop tuples that cannot join before they
//! are merged or joined. False positives only let a non-joining tuple
//! through to the join (which discards it), so answers are unchanged;
//! drops are counted per filter for `explain_analyze`.

use crate::error::EngineError;
use crate::exec::ExecContext;
use crate::ir::VarId;
use crate::relation::{hash_cols, Relation, HASH_SEED};

/// A Bloom filter over join-key tuples, published by a completed
/// fragment-join build side and probed by downstream fragments' union
/// members. Sized at ~10 bits per key (two probe positions), so the
/// false-positive rate stays in the low percent range; false positives
/// are harmless (the join discards them), false negatives impossible.
pub(crate) struct SipFilter {
    /// The join-key variables the filter covers.
    pub(crate) keys: Vec<VarId>,
    /// The filter's node label (`fragment[target].sip_filter`).
    pub(crate) label: String,
    bits: Vec<u64>,
    mask: u64,
}

impl SipFilter {
    /// Build the filter from the key columns of `source` (the join's
    /// accumulated left side).
    pub(crate) fn build(source: &Relation, keys: &[VarId], label: String) -> Self {
        let cols: Vec<usize> = keys
            .iter()
            .map(|&v| source.column_of(v).expect("SIP key bound by the build side"))
            .collect();
        let nbits = source.len().saturating_mul(10).next_power_of_two().max(1024);
        let mut bits = vec![0u64; nbits / 64];
        let mask = (nbits - 1) as u64;
        for row in source.rows() {
            let h = hash_cols(row, &cols);
            for b in Self::probe_bits(h, mask) {
                bits[(b / 64) as usize] |= 1 << (b % 64);
            }
        }
        SipFilter { keys: keys.to_vec(), label, bits, mask }
    }

    #[inline]
    fn probe_bits(h: u64, mask: u64) -> [u64; 2] {
        // Double hashing: derive the second position from the high bits
        // so the two probes are decorrelated.
        let g = (h >> 32) | 1;
        [h & mask, h.wrapping_add(g.wrapping_mul(HASH_SEED)) & mask]
    }

    /// Whether a row whose key columns hash to `h` may join (no = never).
    #[inline]
    fn may_contain(&self, h: u64) -> bool {
        Self::probe_bits(h, self.mask)
            .iter()
            .all(|&b| self.bits[(b / 64) as usize] & (1 << (b % 64)) != 0)
    }

    /// The number of distinct keys this filter was sized for — the
    /// build-side row count rounded into bits (diagnostic only).
    #[cfg(test)]
    pub(crate) fn bit_len(&self) -> usize {
        self.bits.len() * 64
    }
}

/// Probe every row of `rel` against `filter`, dropping rows whose join
/// key cannot be present on the build side. Counts probes/drops into
/// the context's counters and per-filter stats and records the
/// `sip_filter` operator node (under the caller's `fragment[i].` scope).
pub(crate) fn apply_sip_filter(
    rel: &mut Relation,
    filter: &SipFilter,
    ctx: &mut ExecContext<'_>,
) -> Result<(), EngineError> {
    if rel.width() == 0 {
        // Boolean member results carry no key columns to probe.
        return Ok(());
    }
    let cols: Vec<usize> = filter
        .keys
        .iter()
        .map(|&v| rel.column_of(v).expect("SIP key bound by the member head"))
        .collect();
    let probes = rel.len() as u64;
    let op = ctx.op_start();
    ctx.tick_n(probes)?;
    let kept = rel.retain_rows(|row| filter.may_contain(hash_cols(row, &cols))) as u64;
    ctx.counters.sip_probes += probes;
    ctx.counters.sip_drops += probes - kept;
    ctx.record_sip(&filter.label, probes, probes - kept);
    ctx.op_finish(op, "sip_filter", kept);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::EngineProfile;
    use jucq_model::term::TermKind;
    use jucq_model::TermId;

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
    fn bloom_filter_has_no_false_negatives() {
        let mut source = Relation::empty(vec![0, 1]);
        for i in 0..1000u32 {
            source.push_row(&[id(i), id(i % 13)]);
        }
        let f = SipFilter::build(&source, &[0], "fragment[1].sip_filter".to_string());
        assert!(f.bit_len() >= 1024);
        let cols = [0usize];
        for i in 0..1000u32 {
            let row = [id(i), id(0)];
            assert!(f.may_contain(hash_cols(&row, &cols)), "present key {i} must pass");
        }
        // Far-away keys are mostly rejected (probabilistic, but with
        // 10 bits/key the miss rate on 1000 foreign keys is tiny — well
        // under half even with margin for unlucky seeds).
        let rejected =
            (100_000..101_000u32).filter(|&i| !f.may_contain(hash_cols(&[id(i)], &[0]))).count();
        assert!(rejected > 500, "only {rejected}/1000 foreign keys rejected");
    }

    #[test]
    fn apply_sip_filter_drops_only_non_joining_rows() {
        let build = rel(vec![0], &[&[1], &[2], &[3]]);
        let f = SipFilter::build(&build, &[0], "fragment[1].sip_filter".to_string());
        let mut member = rel(vec![0, 1], &[&[1, 10], &[50, 20], &[3, 30], &[60, 40]]);
        let profile = EngineProfile::pg_like();
        let mut ctx = ExecContext::new(&profile);
        apply_sip_filter(&mut member, &f, &mut ctx).unwrap();
        // Keys 1 and 3 must survive (no false negatives); 50 and 60 are
        // *allowed* to survive as false positives but the counters must
        // reconcile either way.
        assert!(member.to_rows().contains(&vec![id(1), id(10)]));
        assert!(member.to_rows().contains(&vec![id(3), id(30)]));
        assert_eq!(ctx.counters.sip_probes, 4);
        assert_eq!(ctx.counters.sip_drops, 4 - member.len() as u64);
        let stats = ctx.take_sip_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].probes, 4);
    }

    #[test]
    fn zero_width_member_is_never_filtered() {
        let build = rel(vec![0], &[&[1]]);
        let f = SipFilter::build(&build, &[0], "fragment[1].sip_filter".to_string());
        let mut boolean = Relation::empty(vec![]);
        boolean.push_row(&[]);
        let profile = EngineProfile::pg_like();
        let mut ctx = ExecContext::new(&profile);
        apply_sip_filter(&mut boolean, &f, &mut ctx).unwrap();
        assert_eq!(boolean.len(), 1);
        assert_eq!(ctx.counters.sip_probes, 0);
    }
}
