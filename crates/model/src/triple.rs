//! Dictionary-encoded term ids and triples.

use std::fmt;

use crate::term::TermKind;

/// A compact, kind-tagged identifier for a dictionary-encoded [`crate::Term`].
///
/// The two high bits carry the [`TermKind`] so kind checks never touch
/// the dictionary; the low 30 bits are a per-kind sequence number. This
/// allows ~1 billion distinct values per kind, far beyond the scales the
/// paper's experiments (≤ 100M triples) require, in half the footprint
/// of a `u64`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

const KIND_SHIFT: u32 = 30;
const INDEX_MASK: u32 = (1 << KIND_SHIFT) - 1;
const KIND_URI: u32 = 0;
const KIND_LITERAL: u32 = 1;
const KIND_BLANK: u32 = 2;

impl TermId {
    /// Build an id from a kind and a per-kind index.
    ///
    /// # Panics
    /// Panics if `index` exceeds the 30-bit per-kind capacity.
    pub fn new(kind: TermKind, index: u32) -> Self {
        assert!(index <= INDEX_MASK, "dictionary overflow for kind {kind:?}");
        let tag = match kind {
            TermKind::Uri => KIND_URI,
            TermKind::Literal => KIND_LITERAL,
            TermKind::Blank => KIND_BLANK,
        };
        TermId((tag << KIND_SHIFT) | index)
    }

    /// The syntactic category encoded in the tag bits.
    pub fn kind(self) -> TermKind {
        match self.0 >> KIND_SHIFT {
            KIND_URI => TermKind::Uri,
            KIND_LITERAL => TermKind::Literal,
            KIND_BLANK => TermKind::Blank,
            other => unreachable!("invalid term id tag {other}"),
        }
    }

    /// The per-kind sequence number.
    pub fn index(self) -> u32 {
        self.0 & INDEX_MASK
    }

    /// The raw tagged representation (stable ordering key).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuild from a raw tagged representation.
    ///
    /// # Panics
    /// Panics if the tag bits are not a valid kind.
    pub fn from_raw(raw: u32) -> Self {
        assert!(raw >> KIND_SHIFT <= KIND_BLANK, "invalid term id tag");
        TermId(raw)
    }

    /// True iff the id denotes a URI.
    pub fn is_uri(self) -> bool {
        self.0 >> KIND_SHIFT == KIND_URI
    }

    /// True iff the id denotes a literal.
    pub fn is_literal(self) -> bool {
        self.0 >> KIND_SHIFT == KIND_LITERAL
    }

    /// True iff the id denotes a blank node.
    pub fn is_blank(self) -> bool {
        self.0 >> KIND_SHIFT == KIND_BLANK
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind() {
            TermKind::Uri => "u",
            TermKind::Literal => "l",
            TermKind::Blank => "b",
        };
        write!(f, "#{k}{}", self.index())
    }
}

/// A dictionary-encoded triple `(s, p, o)` — one row of the
/// `Triples(s,p,o)` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TripleId {
    /// Subject.
    pub s: TermId,
    /// Property (predicate).
    pub p: TermId,
    /// Object.
    pub o: TermId,
}

impl TripleId {
    /// Build a triple from its three components.
    pub fn new(s: TermId, p: TermId, o: TermId) -> Self {
        TripleId { s, p, o }
    }
}

/// A decoded triple of owned [`crate::Term`]s; the human-readable twin of
/// [`TripleId`], used at the parsing/printing edges.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject.
    pub s: crate::Term,
    /// Property (predicate).
    pub p: crate::Term,
    /// Object.
    pub o: crate::Term,
}

impl Triple {
    /// Build a triple from its three components.
    pub fn new(s: crate::Term, p: crate::Term, o: crate::Term) -> Self {
        Triple { s, p, o }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.s, self.p, self.o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    #[test]
    fn id_round_trips_kind_and_index() {
        for kind in [TermKind::Uri, TermKind::Literal, TermKind::Blank] {
            for idx in [0u32, 1, 17, INDEX_MASK] {
                let id = TermId::new(kind, idx);
                assert_eq!(id.kind(), kind);
                assert_eq!(id.index(), idx);
                assert_eq!(TermId::from_raw(id.raw()), id);
            }
        }
    }

    #[test]
    #[should_panic(expected = "dictionary overflow")]
    fn id_overflow_panics() {
        let _ = TermId::new(TermKind::Uri, INDEX_MASK + 1);
    }

    #[test]
    fn kind_predicates() {
        assert!(TermId::new(TermKind::Uri, 0).is_uri());
        assert!(TermId::new(TermKind::Literal, 0).is_literal());
        assert!(TermId::new(TermKind::Blank, 0).is_blank());
    }

    #[test]
    fn ids_of_different_kinds_differ() {
        assert_ne!(TermId::new(TermKind::Uri, 5), TermId::new(TermKind::Literal, 5));
    }

    #[test]
    fn decoded_triple_display() {
        let t = Triple::new(Term::uri("s"), Term::uri("p"), Term::literal("o"));
        assert_eq!(t.to_string(), "<s> <p> \"o\" .");
    }

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", TermId::new(TermKind::Uri, 3)), "#u3");
        assert_eq!(format!("{:?}", TermId::new(TermKind::Blank, 9)), "#b9");
    }
}
