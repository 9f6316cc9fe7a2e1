//! The value dictionary: bidirectional `Term` ↔ [`TermId`] encoding.
//!
//! Mirrors the paper's experimental setup: "the `Triples(s,p,o)` table's
//! data are dictionary-encoded, using a unique integer for each distinct
//! value (URIs and literals). The dictionary is stored as a separate
//! table, indexed both by the code and by the encoded value."

use std::sync::Arc;

use crate::hash::FxHashMap;
use crate::term::{Term, TermKind, TermRef};
use crate::triple::TermId;

/// The lexemes of one term kind, indexed both ways. Each lexeme is one
/// allocation: `by_id[i]` and the key of `ids` that maps to `i` are
/// handles to the same `str`.
#[derive(Debug, Default, Clone)]
struct Lexemes {
    by_id: Vec<Arc<str>>,
    ids: FxHashMap<Arc<str>, u32>,
}

impl Lexemes {
    /// Append a lexeme known to be new; its index.
    fn push(&mut self, handle: Arc<str>) -> u32 {
        let index = self.by_id.len() as u32;
        self.by_id.push(Arc::clone(&handle));
        self.ids.insert(handle, index);
        index
    }

    fn reserve(&mut self, additional: usize) {
        self.by_id.reserve(additional);
        self.ids.reserve(additional);
    }
}

/// Interns terms and hands out dense per-kind [`TermId`]s.
///
/// Encoding is append-only; ids are stable for the lifetime of the
/// dictionary. Lookup by value uses a per-kind hash index keyed by the
/// lexeme, so it hashes a borrowed `str`; lookup by id is a direct
/// vector access (the "indexed both by the code and by the encoded
/// value" of the paper). Terms going in and coming out share the stored
/// lexeme: [`Dictionary::encode`] keeps a handle to the term's own
/// allocation, and [`Dictionary::decode`] hands one out.
///
/// A clone shares the three tables with its original (a published
/// epoch's dictionary next to the writer's), and stays shared for as
/// long as neither learns a term: the first *new* term of a kind copies
/// that kind's table — handles, not strings — on the side that interns
/// it; looking up or re-encoding a known term never does.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    uris: Arc<Lexemes>,
    literals: Arc<Lexemes>,
    blanks: Arc<Lexemes>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// A dictionary pre-sized for roughly `terms` distinct terms (the
    /// bulk-load path: one hash-table resize instead of log₂ n of them).
    pub fn with_capacity(terms: usize) -> Self {
        let mut d = Dictionary::default();
        d.reserve(terms);
        d
    }

    /// Reserve room for `additional` further distinct terms. The kinds
    /// split the hint evenly, which is close enough for amortization.
    pub fn reserve(&mut self, additional: usize) {
        let per_kind = additional / 3 + 1;
        for kind in [TermKind::Uri, TermKind::Literal, TermKind::Blank] {
            self.lexemes_mut(kind).reserve(per_kind);
        }
    }

    fn lexemes(&self, kind: TermKind) -> &Lexemes {
        match kind {
            TermKind::Uri => &self.uris,
            TermKind::Literal => &self.literals,
            TermKind::Blank => &self.blanks,
        }
    }

    /// The table of `kind`, for writing: un-shared from any clone first.
    fn lexemes_mut(&mut self, kind: TermKind) -> &mut Lexemes {
        Arc::make_mut(match kind {
            TermKind::Uri => &mut self.uris,
            TermKind::Literal => &mut self.literals,
            TermKind::Blank => &mut self.blanks,
        })
    }

    /// The id of `lexeme`, interning it through `handle` if it is new.
    fn intern_with(
        &mut self,
        kind: TermKind,
        lexeme: &str,
        handle: impl FnOnce() -> Arc<str>,
    ) -> TermId {
        if let Some(&index) = self.lexemes(kind).ids.get(lexeme) {
            return TermId::new(kind, index);
        }
        TermId::new(kind, self.lexemes_mut(kind).push(handle()))
    }

    fn intern(&mut self, kind: TermKind, lexeme: &str) -> TermId {
        self.intern_with(kind, lexeme, || Arc::from(lexeme))
    }

    /// Intern `term`, returning its (possibly pre-existing) id. A new
    /// term's lexeme is shared with `term`, not copied.
    pub fn encode(&mut self, term: &Term) -> TermId {
        let lexeme = term.lexeme();
        self.intern_with(term.kind(), lexeme, || Arc::clone(lexeme))
    }

    /// Shorthand: intern a URI by its string form.
    pub fn encode_uri(&mut self, uri: &str) -> TermId {
        self.intern(TermKind::Uri, uri)
    }

    /// Shorthand: intern a literal by its lexical form.
    pub fn encode_literal(&mut self, lex: &str) -> TermId {
        self.intern(TermKind::Literal, lex)
    }

    /// Shorthand: intern a blank node by its label.
    pub fn encode_blank(&mut self, label: &str) -> TermId {
        self.intern(TermKind::Blank, label)
    }

    fn find(&self, kind: TermKind, lexeme: &str) -> Option<TermId> {
        self.lexemes(kind).ids.get(lexeme).map(|&index| TermId::new(kind, index))
    }

    /// Look up an already-interned term without interning it.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.find(term.kind(), term.lexical())
    }

    /// Look up an already-interned URI by its string form.
    pub fn lookup_uri(&self, uri: &str) -> Option<TermId> {
        self.find(TermKind::Uri, uri)
    }

    /// Decode an id back to its term: a handle to the stored lexeme.
    ///
    /// # Panics
    /// Panics if the id was not produced by this dictionary.
    pub fn decode(&self, id: TermId) -> Term {
        let kind = id.kind();
        Term::new(kind, Arc::clone(&self.lexemes(kind).by_id[id.index() as usize]))
    }

    /// Decode an id to its lexical form, borrowed.
    ///
    /// # Panics
    /// Panics if the id was not produced by this dictionary.
    pub fn lexical(&self, id: TermId) -> &str {
        &self.lexemes(id.kind()).by_id[id.index() as usize]
    }

    /// Decode an id to a borrowed term, which `Display`s as the decoded
    /// [`Term`] would.
    ///
    /// # Panics
    /// Panics if the id was not produced by this dictionary.
    pub fn term_ref(&self, id: TermId) -> TermRef<'_> {
        TermRef { kind: id.kind(), lexical: self.lexical(id) }
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.uris.by_id.len() + self.literals.by_id.len() + self.blanks.by_id.len()
    }

    /// Number of interned terms of one kind (ids of that kind are the
    /// dense range `0..kind_len`).
    pub fn kind_len(&self, kind: TermKind) -> usize {
        self.lexemes(kind).by_id.len()
    }

    /// True iff `id` was produced by this dictionary.
    pub fn contains_id(&self, id: TermId) -> bool {
        (id.index() as usize) < self.kind_len(id.kind())
    }

    /// True iff no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.encode_uri("http://x/a");
        let b = d.encode_uri("http://x/a");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn a_clone_shares_its_tables_until_one_side_learns_a_term() {
        let mut writer = Dictionary::new();
        let a = writer.encode_uri("a");
        writer.encode_literal("one");
        let epoch = writer.clone();
        // Known terms, however they arrive, leave the tables shared.
        assert_eq!(writer.encode_uri("a"), a);
        assert_eq!(
            writer.encode(&Term::literal("one")),
            epoch.lookup(&Term::literal("one")).unwrap()
        );
        assert!(Arc::ptr_eq(&writer.uris, &epoch.uris));
        assert!(Arc::ptr_eq(&writer.literals, &epoch.literals));
        // A new URI copies the URI table on the writer's side only.
        let b = writer.encode_uri("b");
        assert!(!Arc::ptr_eq(&writer.uris, &epoch.uris));
        assert!(Arc::ptr_eq(&writer.literals, &epoch.literals));
        assert_eq!(writer.lexical(b), "b");
        assert_eq!(writer.lexical(a), "a");
        assert!(!epoch.contains_id(b), "the published epoch never sees it");
        assert_eq!(epoch.lookup_uri("b"), None);
        assert_eq!((epoch.len(), writer.len()), (2, 3));
    }

    #[test]
    fn kinds_do_not_collide() {
        let mut d = Dictionary::new();
        let u = d.encode_uri("x");
        let l = d.encode_literal("x");
        let b = d.encode_blank("x");
        assert_ne!(u, l);
        assert_ne!(l, b);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn decode_round_trip() {
        let mut d = Dictionary::new();
        for t in [Term::uri("u1"), Term::literal("l1"), Term::blank("b1")] {
            let id = d.encode(&t);
            assert_eq!(d.decode(id), t);
            assert_eq!(d.lexical(id), t.lexical());
        }
    }

    #[test]
    fn every_lexeme_is_one_allocation() {
        let mut d = Dictionary::new();
        let term = Term::literal("shared");
        let id = d.encode(&term);
        let (Term::Literal(given), Term::Literal(first), Term::Literal(second)) =
            (&term, d.decode(id), d.decode(id))
        else {
            panic!("a literal id decodes to a literal");
        };
        let (key, _) = d.literals.ids.get_key_value("shared").unwrap();
        assert!(Arc::ptr_eq(&first, &second), "two decodes of one id");
        assert!(Arc::ptr_eq(&first, key), "decode and the index key");
        assert!(Arc::ptr_eq(&first, given), "decode and the term that was encoded");
        // A clone (what every serving epoch publishes) copies handles.
        let Term::Literal(from_clone) = d.clone().decode(id) else { unreachable!() };
        assert!(Arc::ptr_eq(&first, &from_clone));
        // A lexeme interned from a `&str` is shared the same way.
        let uri = d.encode_uri("u");
        let (key, _) = d.uris.ids.get_key_value("u").unwrap();
        assert!(matches!(d.decode(uri), Term::Uri(s) if Arc::ptr_eq(&s, key)));
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut d = Dictionary::new();
        assert_eq!(d.lookup(&Term::uri("nope")), None);
        assert_eq!(d.lookup_uri("nope"), None);
        assert!(d.is_empty());
        let id = d.encode_uri("yes");
        assert_eq!(d.lookup_uri("yes"), Some(id));
    }

    #[test]
    fn ids_are_dense_per_kind() {
        let mut d = Dictionary::new();
        let a = d.encode_uri("a");
        let b = d.encode_uri("b");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        let l = d.encode_literal("a");
        assert_eq!(l.index(), 0);
    }

    #[test]
    fn kind_len_and_contains_id() {
        let mut d = Dictionary::new();
        let u = d.encode_uri("u");
        d.encode_literal("l");
        assert_eq!(d.kind_len(TermKind::Uri), 1);
        assert_eq!(d.kind_len(TermKind::Literal), 1);
        assert_eq!(d.kind_len(TermKind::Blank), 0);
        assert!(d.contains_id(u));
        assert!(!d.contains_id(TermId::new(TermKind::Uri, 1)));
        assert!(!d.contains_id(TermId::new(TermKind::Blank, 0)));
    }

    #[test]
    fn with_capacity_and_reserve_do_not_change_semantics() {
        let mut d = Dictionary::with_capacity(100);
        assert!(d.is_empty());
        let a = d.encode_uri("a");
        d.reserve(1000);
        assert_eq!(d.lookup_uri("a"), Some(a));
        assert_eq!(d.encode_uri("a"), a, "reserve keeps interned ids");
    }
}
