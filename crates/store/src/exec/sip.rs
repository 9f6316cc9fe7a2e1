//! Sideways information passing (SIP): a Bloom filter over join keys.
//!
//! When the staged plan driver (see `plan/exec.rs`) finishes the
//! accumulated left side of a fragment join step, it publishes a
//! [`SipFilter`] over the join-key columns. Every union member of the
//! next fragment tests it **inside** its own pipeline ([`MemberSip`]),
//! at the earliest stage whose rows bind the whole key — so a tuple that
//! cannot join is dropped before it is copied out of the index, probed
//! for, or written to the member result. False positives only let a
//! non-joining tuple through to the join (which discards it), so
//! answers are unchanged; tests and drops are counted per filter for
//! `explain_analyze`.

use std::fmt;

use jucq_model::TermId;

use crate::exec::ExecContext;
use crate::ir::{PatternTerm, VarId};
use crate::relation::{hash_cols, hash_terms, Relation, HASH_SEED};

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

/// The stage of a member's pipeline that tested a SIP filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SipStage {
    /// Inside a leaf scan, before a triple is copied out of the index.
    Scan,
    /// On the input rows of the member's `k`-th index probe, before
    /// they are probed for.
    BeforeProbe(usize),
    /// Inside the head projection, before the row is written.
    Head,
}

impl fmt::Display for SipStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SipStage::Scan => f.write_str("at scan"),
            SipStage::BeforeProbe(k) => write!(f, "before probe {k}"),
            SipStage::Head => f.write_str("at head"),
        }
    }
}

/// What fills one column of a row a kernel assembles or tests: a column
/// of its input row, or a constant.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source {
    /// A column of the input row.
    Col(usize),
    /// A constant.
    Const(TermId),
}

impl Source {
    #[inline]
    pub(crate) fn of(self, row: &[TermId]) -> TermId {
        match self {
            Source::Col(c) => row[c],
            Source::Const(t) => t,
        }
    }
}

/// A fragment's [`SipFilter`] as one union member applies it. Each key
/// column is mapped through the member's head to the body variable or
/// constant behind it; the first stage of the member's pipeline whose
/// rows bind every such variable [claims](MemberSip::claim) the test,
/// and later stages leave it alone.
pub(crate) struct MemberSip<'f> {
    filter: &'f SipFilter,
    /// What fills each key column: a body variable or a head constant.
    key: Vec<PatternTerm>,
    /// The key resolved against the claiming stage's row layout.
    slots: Vec<Source>,
    stage: Option<SipStage>,
    /// Index probes the member has started so far.
    probes_started: usize,
    tested: u64,
    dropped: u64,
}

impl<'f> MemberSip<'f> {
    /// Map `filter`'s key through a member's `head` (whose `k`-th term
    /// fills the fragment's `k`-th output variable).
    pub(crate) fn new(filter: &'f SipFilter, head: &[PatternTerm], out_vars: &[VarId]) -> Self {
        let key = filter
            .keys
            .iter()
            .map(|k| {
                let col = out_vars.iter().position(|v| v == k);
                head[col.expect("SIP key bound by the member head")]
            })
            .collect();
        MemberSip {
            filter,
            key,
            slots: Vec::new(),
            stage: None,
            probes_started: 0,
            tested: 0,
            dropped: 0,
        }
    }

    /// Take the test for `stage` if no earlier stage did and the stage's
    /// rows bind the whole key, `column_of` saying where. The claiming
    /// kernel then asks [`MemberSip::admits`] about every row.
    pub(crate) fn claim(
        &mut self,
        stage: SipStage,
        column_of: impl Fn(VarId) -> Option<usize>,
    ) -> Option<&mut Self> {
        if self.stage.is_some() {
            return None;
        }
        let slots: Option<Vec<Source>> = self
            .key
            .iter()
            .map(|t| match t {
                PatternTerm::Const(c) => Some(Source::Const(*c)),
                PatternTerm::Var(v) => column_of(*v).map(Source::Col),
            })
            .collect();
        self.slots = slots?;
        self.stage = Some(stage);
        Some(self)
    }

    /// [`MemberSip::claim`] for the input rows of the member's next
    /// index probe.
    pub(crate) fn claim_before_probe(&mut self, input: &Relation) -> Option<&mut Self> {
        let k = self.probes_started;
        self.probes_started += 1;
        self.claim(SipStage::BeforeProbe(k), |v| input.column_of(v))
    }

    /// Whether a row of the claiming stage may join (no = never).
    #[inline]
    pub(crate) fn admits(&mut self, row: &[TermId]) -> bool {
        let key = self.slots.iter().map(|s| s.of(row));
        let ok = self.filter.may_contain(hash_terms(self.slots.len(), key));
        self.tested += 1;
        self.dropped += u64::from(!ok);
        ok
    }

    /// Add the member's tests and drops, and where they ran, to the
    /// context's counters and per-filter statistics.
    pub(crate) fn record(self, ctx: &mut ExecContext<'_>) {
        ctx.counters.sip_probes += self.tested;
        ctx.counters.sip_drops += self.dropped;
        ctx.record_sip(&self.filter.label, self.tested, self.dropped, self.stage);
    }
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
    fn member_sip_drops_only_non_joining_rows() {
        let build = rel(vec![0], &[&[1], &[2], &[3]]);
        let f = SipFilter::build(&build, &[0], "fragment[1].sip_filter".to_string());
        // The member's head fills key variable 0 from body variable 7.
        let head = [PatternTerm::Var(7), PatternTerm::Var(8)];
        let mut sip = MemberSip::new(&f, &head, &[0, 1]);
        // A stage that does not bind ?7 cannot take the test…
        assert!(sip.claim(SipStage::Scan, |v| (v == 8).then_some(0)).is_none());
        // …the first one that does takes it, and later ones are refused.
        assert!(sip.claim_before_probe(&rel(vec![8], &[])).is_none());
        assert!(sip.claim_before_probe(&rel(vec![8, 7], &[])).is_some());
        assert!(sip.claim(SipStage::Head, |_| Some(0)).is_none());
        let rows = [[10, 1], [20, 50], [30, 3], [40, 60]];
        let kept: Vec<u32> =
            rows.iter().filter(|r| sip.admits(&[id(r[0]), id(r[1])])).map(|r| r[1]).collect();
        // Keys 1 and 3 must survive (no false negatives); 50 and 60 are
        // *allowed* to survive as false positives but the counters must
        // reconcile either way.
        assert!(kept.contains(&1) && kept.contains(&3), "{kept:?}");
        let profile = EngineProfile::pg_like();
        let mut ctx = ExecContext::new(&profile);
        sip.record(&mut ctx);
        assert_eq!(ctx.counters.sip_probes, 4);
        assert_eq!(ctx.counters.sip_drops, 4 - kept.len() as u64);
        let stats = ctx.take_sip_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].probes, 4);
        assert_eq!(stats[0].stages, vec![(SipStage::BeforeProbe(1), 1)]);
    }

    #[test]
    fn zero_width_member_is_never_filtered() {
        // A boolean member carries no key columns to test.
        let build = rel(vec![0], &[&[1]]);
        let f = SipFilter::build(&build, &[0], "fragment[1].sip_filter".to_string());
        let table = crate::table::TableStack::from(crate::table::TripleTable::build(&[]));
        let member = crate::plan::MemberPlan {
            leaf: crate::plan::Leaf::TrueRow,
            probes: vec![],
            head: vec![],
        };
        let profile = EngineProfile::pg_like();
        let mut ctx = ExecContext::new(&profile);
        let boolean = crate::exec::cq::eval_member(&table, &member, &[], &[], Some(&f), &mut ctx);
        assert_eq!(boolean.unwrap().len(), 1);
        assert_eq!(ctx.counters.sip_probes, 0);
        assert!(ctx.take_sip_stats().is_empty());
    }
}
