//! Binary graph snapshots: persist a loaded RDF graph (dictionary,
//! schema, data) and reload it without re-parsing — the difference
//! between re-tokenizing megabytes of Turtle and one sequential read.
//! (A file on disk; the in-memory, epoch-stamped state queries are
//! answered against is [`crate::epoch::Snapshot`].)
//!
//! The format is a simple length-prefixed little-endian layout:
//!
//! ```text
//! magic  "JUCQSNAP"            8 bytes
//! version u16                  currently 1
//! uris    u32 count, then (u32 len, bytes)*     — ids are assigned
//! literals u32 count, then (u32 len, bytes)*      densely per kind in
//! blanks  u32 count, then (u32 len, bytes)*       file order
//! schema  4 × (u32 count, then (u32 raw, u32 raw)*)
//! data    u64 count, then (u32 s, u32 p, u32 o)*
//! ```
//!
//! Everything is validated on load; corrupt or truncated input yields a
//! typed [`SnapshotError`], never a panic.

use std::fmt;

use jucq_model::term::TermKind;
use jucq_model::{Dictionary, Graph, Schema, Term, TermId, TripleId};

/// Snapshot format magic.
const MAGIC: &[u8; 8] = b"JUCQSNAP";
/// Current format version.
const VERSION: u16 = 1;

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The magic bytes are wrong (not a snapshot file).
    BadMagic,
    /// The version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The input ended before the declared content.
    Truncated {
        /// What was being read.
        reading: &'static str,
    },
    /// A string is not valid UTF-8.
    BadString,
    /// A term id references a dictionary slot that does not exist.
    DanglingId(u32),
    /// A dictionary entry repeats an earlier entry of the same kind, so
    /// every later id of that kind would name another term.
    RepeatedTerm,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a jucq snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated { reading } => {
                write!(f, "truncated snapshot while reading {reading}")
            }
            SnapshotError::BadString => write!(f, "snapshot contains invalid UTF-8"),
            SnapshotError::DanglingId(raw) => {
                write!(f, "snapshot references unknown term id {raw:#x}")
            }
            SnapshotError::RepeatedTerm => write!(f, "snapshot dictionary repeats a term"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Serialize a graph to the snapshot format. (A prepared database's
/// graph holds no data triples: save it with
/// [`crate::RdfDatabase::save_snapshot`].)
pub fn save(graph: &Graph) -> Vec<u8> {
    write(graph, graph.len(), graph.data().iter())
}

/// Serialize `graph`'s dictionary and schema with the `len` data
/// triples of `data`, wherever they are kept.
pub(crate) fn write<'a>(
    graph: &Graph,
    len: usize,
    data: impl Iterator<Item = &'a TripleId>,
) -> Vec<u8> {
    let dict = graph.dict();
    let mut buf = Vec::with_capacity(64 + len * 12);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());

    // Dictionary sections, per kind, in dense id order.
    for kind in [TermKind::Uri, TermKind::Literal, TermKind::Blank] {
        let count = dict.kind_len(kind);
        put_u32(&mut buf, count as u32);
        for idx in 0..count as u32 {
            put_str(&mut buf, dict.lexical(TermId::new(kind, idx)));
        }
    }

    // Schema sections.
    let schema = graph.schema();
    for list in [&schema.subclass, &schema.subproperty, &schema.domain, &schema.range] {
        put_u32(&mut buf, list.len() as u32);
        for &(a, b) in list.iter() {
            put_u32(&mut buf, a.raw());
            put_u32(&mut buf, b.raw());
        }
    }

    // Data triples.
    buf.extend_from_slice(&(len as u64).to_le_bytes());
    let start = buf.len();
    for t in data {
        put_u32(&mut buf, t.s.raw());
        put_u32(&mut buf, t.p.raw());
        put_u32(&mut buf, t.o.raw());
    }
    assert_eq!(buf.len() - start, len * 12, "the data count written must match the data");
    buf
}

fn get_slice<'a>(
    buf: &mut &'a [u8],
    n: usize,
    what: &'static str,
) -> Result<&'a [u8], SnapshotError> {
    if buf.len() < n {
        return Err(SnapshotError::Truncated { reading: what });
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Reads the next `N` bytes as an array, for `from_le_bytes`.
fn get_array<const N: usize>(
    buf: &mut &[u8],
    what: &'static str,
) -> Result<[u8; N], SnapshotError> {
    Ok(get_slice(buf, N, what)?.try_into().expect("get_slice returns N bytes"))
}

fn get_u32(buf: &mut &[u8], what: &'static str) -> Result<u32, SnapshotError> {
    get_array(buf, what).map(u32::from_le_bytes)
}

fn get_u64(buf: &mut &[u8], what: &'static str) -> Result<u64, SnapshotError> {
    get_array(buf, what).map(u64::from_le_bytes)
}

fn get_str<'a>(buf: &mut &'a [u8], what: &'static str) -> Result<&'a str, SnapshotError> {
    let len = get_u32(buf, what)? as usize;
    let bytes = get_slice(buf, len, what)?;
    std::str::from_utf8(bytes).map_err(|_| SnapshotError::BadString)
}

/// Deserialize a snapshot back into a graph.
pub fn load(data: &[u8]) -> Result<Graph, SnapshotError> {
    let mut buf = data;
    let magic = get_slice(&mut buf, 8, "magic")?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u16::from_le_bytes(get_array(&mut buf, "version")?);
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }

    let mut dict = Dictionary::new();
    for kind in [TermKind::Uri, TermKind::Literal, TermKind::Blank] {
        let count = get_u32(&mut buf, "dictionary count")? as usize;
        for i in 0..count {
            let lex = get_str(&mut buf, "dictionary entry")?;
            let id = dict.encode(&Term::new(kind, lex.into()));
            if id.index() as usize != i {
                return Err(SnapshotError::RepeatedTerm);
            }
        }
    }
    let check = |raw: u32| -> Result<TermId, SnapshotError> {
        let id = TermId::from_raw(raw);
        if dict.contains_id(id) {
            Ok(id)
        } else {
            Err(SnapshotError::DanglingId(raw))
        }
    };

    let mut schema = Schema::new();
    for list in
        [&mut schema.subclass, &mut schema.subproperty, &mut schema.domain, &mut schema.range]
    {
        let count = get_u32(&mut buf, "schema count")? as usize;
        for _ in 0..count {
            let a = check(get_u32(&mut buf, "schema pair")?)?;
            let b = check(get_u32(&mut buf, "schema pair")?)?;
            list.push((a, b));
        }
    }

    // The count is unchecked input: reserve no more triples than the
    // bytes left can hold (12 each), so a corrupt count ends in
    // `Truncated`, not in a failed allocation.
    let n = get_u64(&mut buf, "data count")?;
    let mut triples = Vec::with_capacity((n as usize).min(buf.len() / 12));
    for _ in 0..n {
        let s = check(get_u32(&mut buf, "triple")?)?;
        let p = check(get_u32(&mut buf, "triple")?)?;
        let o = check(get_u32(&mut buf, "triple")?)?;
        triples.push(TripleId::new(s, p, o));
    }
    Ok(Graph::assemble(dict, schema, triples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::vocab;

    fn sample() -> Graph {
        let mut g = Graph::new();
        crate::turtle::load(
            &mut g,
            r#"
            @prefix ex: <http://example.org/> .
            ex:Book rdfs:subClassOf ex:Publication .
            ex:writtenBy rdfs:domain ex:Book .
            ex:doi1 ex:writtenBy _:b1 .
            ex:doi1 ex:hasTitle "Game of Thrones" .
            ex:doi1 a ex:Book .
            "#,
        )
        .unwrap();
        g
    }

    #[test]
    fn round_trip_preserves_everything() {
        let g = sample();
        let bytes = save(&g);
        let g2 = load(&bytes).expect("loads");
        assert_eq!(g.len(), g2.len());
        assert_eq!(g.schema(), g2.schema());
        assert_eq!(g.data(), g2.data(), "dense ids are reproduced exactly");
        assert_eq!(g.dict().len(), g2.dict().len());
        // The dictionaries are equal, by code and by value.
        for kind in [TermKind::Uri, TermKind::Literal, TermKind::Blank] {
            assert_eq!(g.dict().kind_len(kind), g2.dict().kind_len(kind));
            for index in 0..g.dict().kind_len(kind) {
                let id = TermId::new(kind, index as u32);
                let term = g.dict().decode(id);
                assert_eq!(g2.dict().decode(id), term);
                assert_eq!(g2.dict().lookup(&term), Some(id));
            }
        }
        // Decoded views agree.
        for (a, b) in g.data().iter().zip(g2.data()) {
            assert_eq!(g.decode(a), g2.decode(b));
        }
    }

    #[test]
    fn round_trip_answers_identically() {
        use crate::{RdfDatabase, Strategy};
        let g = sample();
        let bytes = save(&g);
        let g2 = load(&bytes).unwrap();
        let mut db1 = RdfDatabase::from_graph(g, Default::default());
        let mut db2 = RdfDatabase::from_graph(g2, Default::default());
        db1.set_cost_constants(Default::default());
        db2.set_cost_constants(Default::default());
        let text = "SELECT ?x WHERE { ?x a <http://example.org/Publication> }";
        let q1 = db1.parse_query(text).unwrap();
        let q2 = db2.parse_query(text).unwrap();
        let a = db1.answer(&q1, &Strategy::Ucq).unwrap().rows.len();
        let b = db2.answer(&q2, &Strategy::Ucq).unwrap().rows.len();
        assert_eq!(a, b);
        assert_eq!(a, 1);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(load(b"NOTASNAP\x01\x00").err(), Some(SnapshotError::BadMagic));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = save(&sample());
        bytes[8] = 0xFF;
        bytes[9] = 0xFF;
        assert_eq!(load(&bytes).err(), Some(SnapshotError::UnsupportedVersion(0xFFFF)));
    }

    #[test]
    fn truncation_detected_everywhere() {
        let bytes = save(&sample());
        for cut in [0, 5, 9, 11, 20, bytes.len() - 1] {
            let r = load(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_triple_count_is_truncation_not_an_abort() {
        let g = sample();
        let mut bytes = save(&g);
        let at = bytes.len() - 12 * g.data().len() - 8;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(load(&bytes).err(), Some(SnapshotError::Truncated { reading: "triple" }));
    }

    #[test]
    fn repeated_dictionary_lexeme_is_rejected() {
        let mut g = Graph::new();
        crate::turtle::load(&mut g, "<http://x/a> <http://x/p> <http://x/b> .").unwrap();
        let mut bytes = save(&g);
        let at = bytes.windows(10).position(|w| w == b"http://x/b").expect("lexeme saved");
        bytes[at..at + 10].copy_from_slice(b"http://x/a");
        assert_eq!(load(&bytes).err(), Some(SnapshotError::RepeatedTerm));
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Graph::new();
        let bytes = save(&g);
        let g2 = load(&bytes).unwrap();
        assert!(g2.is_empty());
        assert_eq!(g2.schema().len(), 0);
    }

    #[test]
    fn rdf_type_survives() {
        let mut g = Graph::new();
        g.insert(&jucq_model::Triple::new(
            Term::uri("a"),
            Term::uri(vocab::RDF_TYPE),
            Term::uri("C"),
        ));
        let g2 = load(&save(&g)).unwrap();
        assert!(g2.rdf_type_id().is_some());
    }

    /// FNV-1a, 64-bit.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// Pins the byte layout, not just the round trip: a snapshot written
    /// by any earlier build of format version 1 must load in this one.
    #[test]
    fn sample_layout_is_pinned() {
        let bytes = save(&sample());
        // Magic, version 1, then six URIs; the first is 23 bytes long.
        assert_eq!(&bytes[..18], b"JUCQSNAP\x01\x00\x06\x00\x00\x00\x17\x00\x00\x00");
        assert_eq!(bytes.len(), 325);
        assert_eq!(fnv1a(&bytes), 0x6a6f_07d6_5e55_e78c);
    }
}
