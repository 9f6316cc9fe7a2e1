//! The DBLP-like data generator.
//!
//! Produces a bibliography graph with the statistical shape of the DBLP
//! RDF export: publications typed with their most specific class,
//! heavy-tailed authorship (a few prolific authors, a long tail of
//! occasional ones), venue collections (`publishedInJournal` /
//! `inProceedings` — both `⊑ partOf`), publication years as literals,
//! and a citation graph.

use jucq_model::{Graph, Term, TermId, TripleId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::ontology::{Ontology, NS};

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DblpConfig {
    /// Number of authors (publications scale at ≈4× this).
    pub authors: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DblpConfig {
    /// A scale of `authors` with the default seed.
    pub fn new(authors: usize) -> Self {
        DblpConfig { authors, seed: 0xdb19 }
    }
}

struct V {
    rdf_type: TermId,
    journal_article: TermId,
    magazine_article: TermId,
    in_proceedings: TermId,
    in_collection: TermId,
    book: TermId,
    phd_thesis: TermId,
    masters_thesis: TermId,
    web_document: TermId,
    journal: TermId,
    proceedings: TermId,
    series: TermId,
    author_class: TermId,
    editor_class: TermId,
    author: TermId,
    editor: TermId,
    published_in_journal: TermId,
    in_proceedings_prop: TermId,
    in_series: TermId,
    cites: TermId,
    year: TermId,
    title: TermId,
    person_name: TermId,
}

impl V {
    fn intern(graph: &mut Graph) -> V {
        let mut u = |n: &str| graph.dict_mut().encode_uri(&format!("{NS}{n}"));
        V {
            journal_article: u("JournalArticle"),
            magazine_article: u("MagazineArticle"),
            in_proceedings: u("InProceedings"),
            in_collection: u("InCollection"),
            book: u("Book"),
            phd_thesis: u("PhdThesis"),
            masters_thesis: u("MastersThesis"),
            web_document: u("WebDocument"),
            journal: u("Journal"),
            proceedings: u("Proceedings"),
            series: u("Series"),
            author_class: u("Author"),
            editor_class: u("Editor"),
            author: u("author"),
            editor: u("editor"),
            published_in_journal: u("publishedInJournal"),
            in_proceedings_prop: u("inProceedings"),
            in_series: u("inSeries"),
            cites: u("cites"),
            year: u("year"),
            title: u("title"),
            person_name: u("personName"),
            rdf_type: graph.rdf_type(),
        }
    }
}

/// The URI of author `i`.
pub fn author_uri(i: usize) -> String {
    format!("http://dblp.jucq.org/person/a{i}")
}

/// The URI of journal `i`.
pub fn journal_uri(i: usize) -> String {
    format!("http://dblp.jucq.org/journal/j{i}")
}

/// The URI of proceedings `i`.
pub fn proceedings_uri(i: usize) -> String {
    format!("http://dblp.jucq.org/proc/p{i}")
}

/// Generate a DBLP-like graph (ontology + data) for `config`.
pub fn generate(config: &DblpConfig) -> Graph {
    assert!(config.authors >= 10, "at least ten authors");
    let mut graph = Graph::new();
    Ontology::declare(&mut graph);
    let v = V::intern(&mut graph);
    let mut rng = StdRng::seed_from_u64(config.seed);

    let add = |graph: &mut Graph, s: TermId, p: TermId, o: TermId| {
        graph.insert_data_encoded(TripleId::new(s, p, o));
    };

    // People. Heavy-tailed prolificness: author i gets a weight
    // proportional to 1/(1+rank)^0.8.
    let mut people: Vec<TermId> = Vec::with_capacity(config.authors);
    for i in 0..config.authors {
        let person = graph.dict_mut().encode_uri(&author_uri(i));
        let name = graph.dict_mut().encode(&Term::literal(format!("Author {i}")));
        add(&mut graph, person, v.person_name, name);
        people.push(person);
    }
    // Note: Author/Editor types are *implicit* via the ranges of
    // `author`/`editor` — matching DBLP, where person typing is sparse.
    // A small fraction get explicit types.
    for (i, &p) in people.iter().enumerate() {
        if i % 20 == 0 {
            add(&mut graph, p, v.rdf_type, v.author_class);
        }
    }

    // Venues.
    let n_journals = (config.authors / 50).max(3);
    let mut journals = Vec::with_capacity(n_journals);
    for i in 0..n_journals {
        let j = graph.dict_mut().encode_uri(&journal_uri(i));
        add(&mut graph, j, v.rdf_type, v.journal);
        journals.push(j);
    }
    let n_procs = (config.authors / 20).max(3);
    let mut procs = Vec::with_capacity(n_procs);
    for i in 0..n_procs {
        let p = graph.dict_mut().encode_uri(&proceedings_uri(i));
        add(&mut graph, p, v.rdf_type, v.proceedings);
        procs.push(p);
        // Proceedings have editors.
        for _ in 0..rng.gen_range(1..=3) {
            let e = people[rng.gen_range(0..people.len())];
            add(&mut graph, p, v.editor, e);
            if rng.gen_bool(0.2) {
                add(&mut graph, e, v.rdf_type, v.editor_class);
            }
        }
    }
    let n_series = (n_procs / 10).max(1);
    let mut series = Vec::with_capacity(n_series);
    for i in 0..n_series {
        let s = graph.dict_mut().encode_uri(&format!("http://dblp.jucq.org/series/s{i}"));
        add(&mut graph, s, v.rdf_type, v.series);
        series.push(s);
    }

    // Publications.
    let n_pubs = config.authors * 4;
    let mut pubs: Vec<TermId> = Vec::with_capacity(n_pubs);
    for i in 0..n_pubs {
        let publication = graph.dict_mut().encode_uri(&format!("http://dblp.jucq.org/pub/pub{i}"));
        let class = match rng.gen_range(0..100) {
            0..=44 => v.in_proceedings,
            45..=74 => v.journal_article,
            75..=79 => v.magazine_article,
            80..=84 => v.in_collection,
            85..=87 => v.book,
            88..=90 => v.phd_thesis,
            91..=92 => v.masters_thesis,
            _ => v.web_document,
        };
        add(&mut graph, publication, v.rdf_type, class);
        // Venue linkage through the partOf hierarchy.
        if class == v.journal_article || class == v.magazine_article {
            let j = journals[rng.gen_range(0..journals.len())];
            add(&mut graph, publication, v.published_in_journal, j);
        } else if class == v.in_proceedings {
            let p = procs[rng.gen_range(0..procs.len())];
            add(&mut graph, publication, v.in_proceedings_prop, p);
        } else if class == v.book && rng.gen_bool(0.5) {
            let s = series[rng.gen_range(0..series.len())];
            add(&mut graph, publication, v.in_series, s);
        }
        // Authors: 1–5, biased toward the low ranks (prolific heads).
        let n_authors = rng.gen_range(1..=5usize);
        for _ in 0..n_authors {
            let r: f64 = rng.gen::<f64>();
            let idx = ((r * r) * people.len() as f64) as usize;
            let a = people[idx.min(people.len() - 1)];
            add(&mut graph, publication, v.author, a);
        }
        // Year and title.
        let year =
            graph.dict_mut().encode(&Term::literal(format!("{}", 1970 + rng.gen_range(0..45))));
        add(&mut graph, publication, v.year, year);
        let title = graph.dict_mut().encode(&Term::literal(format!("Title of pub{i}")));
        add(&mut graph, publication, v.title, title);
        // Citations to earlier publications.
        if !pubs.is_empty() {
            for _ in 0..rng.gen_range(0..=3usize) {
                let cited = pubs[rng.gen_range(0..pubs.len())];
                add(&mut graph, publication, v.cites, cited);
            }
        }
        pubs.push(publication);
    }

    graph
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = generate(&DblpConfig::new(100));
        let b = generate(&DblpConfig::new(100));
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn triple_count_scales_with_authors() {
        let g = generate(&DblpConfig::new(200));
        // ~32 triples per author.
        assert!((3_000..=15_000).contains(&g.len()), "got {}", g.len());
    }

    #[test]
    fn heavy_tail_authorship() {
        let mut g = generate(&DblpConfig::new(300));
        let author = g.dict().lookup(&Term::uri(Ontology::uri("author"))).unwrap();
        let mut counts: std::collections::HashMap<TermId, usize> = std::collections::HashMap::new();
        for t in g.data() {
            if t.p == author {
                *counts.entry(t.o).or_default() += 1;
            }
        }
        let max = counts.values().copied().max().unwrap();
        let mean = counts.values().sum::<usize>() as f64 / counts.len() as f64;
        assert!(max as f64 > 3.0 * mean, "head {max} vs mean {mean:.1}");
        let _ = g.rdf_type();
    }

    #[test]
    fn venue_links_respect_publication_type() {
        let mut g = generate(&DblpConfig::new(200));
        let ty = g.rdf_type();
        let d = g.dict();
        let in_proc = d.lookup(&Term::uri(Ontology::uri("inProceedings"))).unwrap();
        let journal_article = d.lookup(&Term::uri(Ontology::uri("JournalArticle"))).unwrap();
        // No journal article uses inProceedings.
        let ja: std::collections::HashSet<TermId> =
            g.data().iter().filter(|t| t.p == ty && t.o == journal_article).map(|t| t.s).collect();
        assert!(!ja.is_empty());
        for t in g.data() {
            if t.p == in_proc {
                assert!(!ja.contains(&t.s));
            }
        }
    }

    #[test]
    fn years_are_literals() {
        let g = generate(&DblpConfig::new(50));
        let year = g.dict().lookup(&Term::uri(Ontology::uri("year"))).unwrap();
        for t in g.data() {
            if t.p == year {
                assert!(t.o.is_literal());
            }
        }
    }
}
