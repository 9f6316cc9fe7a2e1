//! RDF terms: URIs, literals and blank nodes.

use std::fmt;
use std::sync::Arc;

/// The three syntactic categories of RDF values (Section 2.1 of the
/// paper: "uniform resource identifiers (URIs), typed or un-typed
/// literals (constants) and blank nodes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TermKind {
    /// A resource identifier, e.g. `http://example.org/Book`.
    Uri,
    /// A constant, e.g. `"Game of Thrones"` or `"1996"`.
    Literal,
    /// An unknown URI/literal token, e.g. `_:b1`. Blank nodes behave
    /// like the variables of incomplete relational V-tables.
    Blank,
}

/// An RDF term (value). Human-readable representation; the engine
/// works on dictionary-encoded [`crate::TermId`]s instead.
///
/// The lexeme is a shared handle: cloning a term, interning it and
/// decoding it again (see [`crate::Dictionary`]) bump a reference count
/// and copy no bytes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A URI reference.
    Uri(Arc<str>),
    /// A literal constant (the lexical form; we do not distinguish
    /// datatypes, which play no role in the DB fragment).
    Literal(Arc<str>),
    /// A blank node with a graph-local label.
    Blank(Arc<str>),
}

impl Term {
    /// Convenience constructor for URIs. Like its siblings it copies the
    /// string once, into the shared lexeme; wrap an existing `Arc<str>`
    /// with the variant or [`Term::new`] instead.
    pub fn uri(s: impl AsRef<str>) -> Self {
        Term::Uri(s.as_ref().into())
    }

    /// Convenience constructor for literals.
    pub fn literal(s: impl AsRef<str>) -> Self {
        Term::Literal(s.as_ref().into())
    }

    /// Convenience constructor for blank nodes.
    pub fn blank(s: impl AsRef<str>) -> Self {
        Term::Blank(s.as_ref().into())
    }

    /// A term of `kind` over an existing lexeme handle.
    pub fn new(kind: TermKind, lexeme: Arc<str>) -> Self {
        match kind {
            TermKind::Uri => Term::Uri(lexeme),
            TermKind::Literal => Term::Literal(lexeme),
            TermKind::Blank => Term::Blank(lexeme),
        }
    }

    /// The syntactic category of this term.
    pub fn kind(&self) -> TermKind {
        match self {
            Term::Uri(_) => TermKind::Uri,
            Term::Literal(_) => TermKind::Literal,
            Term::Blank(_) => TermKind::Blank,
        }
    }

    /// The lexical form, without any kind decoration.
    pub fn lexical(&self) -> &str {
        self.lexeme()
    }

    /// The shared handle behind [`Term::lexical`].
    pub(crate) fn lexeme(&self) -> &Arc<str> {
        match self {
            Term::Uri(s) | Term::Literal(s) | Term::Blank(s) => s,
        }
    }

    /// This term, borrowed.
    pub fn as_term_ref(&self) -> TermRef<'_> {
        TermRef { kind: self.kind(), lexical: self.lexeme() }
    }

    /// True iff the term is a URI.
    pub fn is_uri(&self) -> bool {
        matches!(self, Term::Uri(_))
    }

    /// True iff the term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// True iff the term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }
}

impl fmt::Display for Term {
    /// Turtle-ish rendering, see [`TermRef`]'s `Display`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_term_ref().fmt(f)
    }
}

/// A term borrowed from whatever holds its lexeme — a [`Term`] or a
/// [`crate::Dictionary`] slot: what the answer edges print from, with
/// no allocation and no reference count touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermRef<'a> {
    /// The syntactic category.
    pub kind: TermKind,
    /// The lexical form, without any kind decoration.
    pub lexical: &'a str,
}

impl fmt::Display for TermRef<'_> {
    /// Turtle-ish rendering: URIs in angle brackets, literals quoted and
    /// escaped as `str`'s `Debug` does, blank nodes with the `_:` prefix.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.lexical;
        match self.kind {
            TermKind::Uri => {
                f.write_str("<")?;
                f.write_str(s)?;
                f.write_str(">")
            }
            // `str`'s `Debug` leaves printable ASCII other than `"` and
            // `\` as it is, so such a literal (nearly all of them) skips
            // the escaper's walk over its characters.
            TermKind::Literal if s.bytes().all(is_plain) => {
                f.write_str("\"")?;
                f.write_str(s)?;
                f.write_str("\"")
            }
            TermKind::Literal => write!(f, "{s:?}"),
            TermKind::Blank => {
                f.write_str("_:")?;
                f.write_str(s)
            }
        }
    }
}

fn is_plain(byte: u8) -> bool {
    matches!(byte, b' '..=b'~') && byte != b'"' && byte != b'\\'
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Short strings drawn mostly from what the writer treats specially:
    /// quotes, backslashes, control characters, DEL, and non-ASCII
    /// (the first range holds combining marks, which `Debug` escapes).
    fn lexemes() -> impl Strategy<Value = String> {
        let character = prop_oneof![
            4 => 0x20u32..0x7f,
            1 => Just(u32::from(b'"')),
            1 => Just(u32::from(b'\\')),
            1 => 0u32..0x20,
            1 => Just(0x7fu32),
            1 => 0x80u32..0x3000,
            1 => 0x1f300u32..0x1f700,
        ];
        prop::collection::vec(character, 0..12)
            .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
    }

    proptest! {
        #[test]
        fn display_writes_what_the_format_strings_it_replaced_wrote(s in lexemes()) {
            let mut dict = crate::Dictionary::new();
            for (term, want) in [
                (Term::uri(&s), format!("<{s}>")),
                (Term::literal(&s), format!("{s:?}")),
                (Term::blank(&s), format!("_:{s}")),
            ] {
                prop_assert_eq!(term.to_string(), want.clone());
                let id = dict.encode(&term);
                prop_assert_eq!(dict.term_ref(id).to_string(), want);
            }
        }
    }

    #[test]
    fn a_term_is_a_tag_and_a_handle() {
        assert!(std::mem::size_of::<Term>() <= 24);
    }

    #[test]
    fn kinds() {
        assert_eq!(Term::uri("u").kind(), TermKind::Uri);
        assert_eq!(Term::literal("l").kind(), TermKind::Literal);
        assert_eq!(Term::blank("b").kind(), TermKind::Blank);
    }

    #[test]
    fn predicates() {
        assert!(Term::uri("u").is_uri());
        assert!(Term::literal("l").is_literal());
        assert!(Term::blank("b").is_blank());
        assert!(!Term::uri("u").is_literal());
    }

    #[test]
    fn lexical_strips_kind() {
        assert_eq!(Term::uri("http://x/y").lexical(), "http://x/y");
        assert_eq!(Term::blank("b1").lexical(), "b1");
    }

    #[test]
    fn display_formats() {
        assert_eq!(Term::uri("http://x").to_string(), "<http://x>");
        assert_eq!(Term::literal("1996").to_string(), "\"1996\"");
        assert_eq!(Term::blank("b1").to_string(), "_:b1");
    }

    #[test]
    fn same_lexical_different_kind_are_distinct() {
        assert_ne!(Term::uri("x"), Term::literal("x"));
        assert_ne!(Term::literal("x"), Term::blank("x"));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [Term::blank("b"), Term::uri("a"), Term::literal("c")];
        v.sort();
        // Uri < Literal < Blank by enum declaration order.
        assert!(v[0].is_uri() && v[1].is_literal() && v[2].is_blank());
    }
}
