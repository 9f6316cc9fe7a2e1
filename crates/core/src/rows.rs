//! The answer edge: an answer [`Relation`] holds ids, and these are the
//! two ways to read it against the [`Dictionary`] that encoded it.
//!
//! [`term_rows`] borrows: each cell is a [`TermRef`] into the
//! dictionary, built when the cursor reaches it, so a caller that
//! prints the first `n` rows (`jucq query`, the server's `?limit=`)
//! `take(n)`s first and touches the dictionary for nothing else, and
//! printing allocates nothing. [`decode_rows`] is for callers that keep
//! the terms: every cell becomes an owned [`Term`], which costs one
//! reference-count bump on the dictionary's lexeme and no copy.

use jucq_model::{Dictionary, Term, TermRef};
use jucq_store::Relation;

/// The rows of `rows` as borrowed terms, in relation order. A cell
/// `Display`s exactly as the [`Term`] that [`decode_rows`] builds for it.
///
/// # Panics
/// The cursor panics on an id that `dict` did not produce.
pub fn term_rows<'a>(
    dict: &'a Dictionary,
    rows: &'a Relation,
) -> impl Iterator<Item = impl Iterator<Item = TermRef<'a>> + 'a> + 'a {
    rows.rows().map(move |row| row.iter().map(move |&id| dict.term_ref(id)))
}

/// The rows of `rows` as owned terms, in relation order.
///
/// # Panics
/// Panics on an id that `dict` did not produce.
pub fn decode_rows(dict: &Dictionary, rows: &Relation) -> Vec<Vec<Term>> {
    rows.rows().map(|row| row.iter().map(|&id| dict.decode(id)).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::TermId;

    fn fixture() -> (Dictionary, Relation) {
        let mut dict = Dictionary::new();
        let ids: Vec<TermId> = [
            Term::uri("http://e/a"),
            Term::literal("say \"hi\"\t\\ naïve"),
            Term::blank("b0"),
            Term::literal("plain"),
        ]
        .iter()
        .map(|t| dict.encode(t))
        .collect();
        let mut rows = Relation::empty(vec![0, 1]);
        rows.push_row(&[ids[0], ids[1]]);
        rows.push_row(&[ids[2], ids[3]]);
        rows.push_row(&[ids[0], ids[3]]);
        (dict, rows)
    }

    #[test]
    fn borrowed_cells_display_as_the_owned_terms_do() {
        let (dict, rows) = fixture();
        let owned: Vec<Vec<String>> = decode_rows(&dict, &rows)
            .iter()
            .map(|row| row.iter().map(Term::to_string).collect())
            .collect();
        let borrowed: Vec<Vec<String>> =
            term_rows(&dict, &rows).map(|row| row.map(|t| t.to_string()).collect()).collect();
        assert_eq!(borrowed, owned);
        assert_eq!(owned[0], ["<http://e/a>", "\"say \\\"hi\\\"\\t\\\\ naïve\""]);
        assert_eq!(owned[1], ["_:b0", "\"plain\""]);
    }

    #[test]
    fn owned_cells_share_the_dictionary_s_lexemes() {
        let (dict, rows) = fixture();
        let decoded = decode_rows(&dict, &rows);
        let (Term::Uri(first), Term::Uri(again)) = (&decoded[0][0], &decoded[2][0]) else {
            panic!("column 0 of rows 0 and 2 is the URI");
        };
        assert!(std::sync::Arc::ptr_eq(first, again));
    }

    #[test]
    fn a_truncated_cursor_never_resolves_the_rows_it_skips() {
        let (dict, mut rows) = fixture();
        // An id no dictionary produced: resolving it panics.
        let dangling = TermId::new(jucq_model::TermKind::Uri, 99);
        rows.push_row(&[dangling, dangling]);
        let printed: Vec<String> =
            term_rows(&dict, &rows).take(3).flatten().map(|t| t.to_string()).collect();
        assert_eq!(printed.len(), 6);
    }
}
