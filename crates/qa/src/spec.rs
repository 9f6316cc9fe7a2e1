//! Compact textual specs for generated cases.
//!
//! A case is written as three string lists — triples, query atoms, and
//! head variables — small enough to paste into a regression test:
//!
//! ```text
//! triples: "C1 sc C0"   "p1 sp p0"   "p1 dom C0"   "i0 a C1"
//!          "i0 p1 i2"   "i0 p1 \"v0\""
//! atoms:   "?v0 p0 ?v1" "?v0 a C1"   "?v0 ?v2 \"v0\""
//! head:    "?v0"
//! ```
//!
//! Predicate shorthands: `a` → `rdf:type`, `sc` → `rdfs:subClassOf`,
//! `sp` → `rdfs:subPropertyOf`, `dom` → `rdfs:domain`, `rng` →
//! `rdfs:range`. `?vN` is variable `N`; a double-quoted token is a
//! literal; anything else is a URI.

use jucq_model::{vocab, Term, Triple};

use crate::gen::{AtomSpec, GenCase, QTerm, QuerySpec};

fn expand_predicate(tok: &str) -> Option<&'static str> {
    match tok {
        "a" => Some(vocab::RDF_TYPE),
        "sc" => Some(vocab::RDFS_SUBCLASS_OF),
        "sp" => Some(vocab::RDFS_SUBPROPERTY_OF),
        "dom" => Some(vocab::RDFS_DOMAIN),
        "rng" => Some(vocab::RDFS_RANGE),
        _ => None,
    }
}

fn shorten_predicate(uri: &str) -> Option<&'static str> {
    match uri {
        vocab::RDF_TYPE => Some("a"),
        vocab::RDFS_SUBCLASS_OF => Some("sc"),
        vocab::RDFS_SUBPROPERTY_OF => Some("sp"),
        vocab::RDFS_DOMAIN => Some("dom"),
        vocab::RDFS_RANGE => Some("rng"),
        _ => None,
    }
}

/// Parse one token into a constant term; `predicate` enables the
/// schema shorthands.
fn parse_term(tok: &str, predicate: bool) -> Term {
    if predicate {
        if let Some(uri) = expand_predicate(tok) {
            return Term::uri(uri);
        }
    }
    if let Some(stripped) = tok.strip_prefix('"') {
        return Term::literal(stripped.strip_suffix('"').unwrap_or(stripped));
    }
    Term::uri(tok)
}

/// Parse `?vN` to `N`. Panics on malformed input — specs are authored
/// by `to_spec`, not end users.
fn parse_var(tok: &str) -> u16 {
    tok.strip_prefix("?v")
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("malformed variable token {tok:?} (expected ?v<N>)"))
}

fn parse_qterm(tok: &str, predicate: bool) -> QTerm {
    if tok.starts_with('?') {
        QTerm::Var(parse_var(tok))
    } else {
        QTerm::Term(parse_term(tok, predicate))
    }
}

fn term_token(t: &Term, predicate: bool) -> String {
    match t {
        Term::Uri(u) => {
            if predicate {
                if let Some(short) = shorten_predicate(u) {
                    return short.to_string();
                }
            }
            u.to_string()
        }
        Term::Literal(l) => format!("\"{l}\""),
        Term::Blank(b) => format!("_:{b}"),
    }
}

fn qterm_token(t: &QTerm, predicate: bool) -> String {
    match t {
        QTerm::Var(v) => format!("?v{v}"),
        QTerm::Term(t) => term_token(t, predicate),
    }
}

fn split3(line: &str) -> (&str, &str, &str) {
    let mut it = line.split_whitespace();
    match (it.next(), it.next(), it.next(), it.next()) {
        (Some(s), Some(p), Some(o), None) => (s, p, o),
        _ => panic!("spec line {line:?} is not exactly three tokens"),
    }
}

impl GenCase {
    /// Build a case from its textual spec (the inverse of
    /// [`GenCase::to_spec`]).
    pub fn from_spec(triples: &[&str], atoms: &[&str], head: &[&str]) -> GenCase {
        let triples = triples
            .iter()
            .map(|line| {
                let (s, p, o) = split3(line);
                Triple::new(parse_term(s, false), parse_term(p, true), parse_term(o, false))
            })
            .collect();
        let atoms = atoms
            .iter()
            .map(|line| {
                let (s, p, o) = split3(line);
                AtomSpec {
                    s: parse_qterm(s, false),
                    p: parse_qterm(p, true),
                    o: parse_qterm(o, false),
                }
            })
            .collect();
        let head = head.iter().map(|tok| parse_var(tok)).collect();
        GenCase { triples, query: QuerySpec { head, atoms } }
    }

    /// Render the case as (triples, atoms, head) spec lines.
    pub fn to_spec(&self) -> (Vec<String>, Vec<String>, Vec<String>) {
        let triples = self
            .triples
            .iter()
            .map(|t| {
                format!(
                    "{} {} {}",
                    term_token(&t.s, false),
                    term_token(&t.p, true),
                    term_token(&t.o, false)
                )
            })
            .collect();
        let atoms = self
            .query
            .atoms
            .iter()
            .map(|a| {
                format!(
                    "{} {} {}",
                    qterm_token(&a.s, false),
                    qterm_token(&a.p, true),
                    qterm_token(&a.o, false)
                )
            })
            .collect();
        let head = self.query.head.iter().map(|v| format!("?v{v}")).collect();
        (triples, atoms, head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_case;

    #[test]
    fn spec_round_trips_generated_cases() {
        for seed in 0..200u64 {
            let case = gen_case(seed);
            let (t, a, h) = case.to_spec();
            let t: Vec<&str> = t.iter().map(String::as_str).collect();
            let a: Vec<&str> = a.iter().map(String::as_str).collect();
            let h: Vec<&str> = h.iter().map(String::as_str).collect();
            let back = GenCase::from_spec(&t, &a, &h);
            assert_eq!(back, case, "seed {seed} round-trips through its spec");
        }
    }

    #[test]
    fn shorthands_expand() {
        let case = GenCase::from_spec(
            &["C1 sc C0", "p0 dom C0", "i0 a C1", "i0 p0 \"v0\""],
            &["?v0 a C0", "?v0 p0 ?v1"],
            &["?v0"],
        );
        assert_eq!(case.triples.len(), 4);
        assert_eq!(case.triples[0].p, Term::uri(vocab::RDFS_SUBCLASS_OF));
        assert_eq!(case.triples[2].p, Term::uri(vocab::RDF_TYPE));
        assert_eq!(case.triples[3].o, Term::literal("v0"));
        assert_eq!(case.query.head, vec![0]);
    }
}
