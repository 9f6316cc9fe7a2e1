//! Stateful equivalence: one seeded history of updates, view pins,
//! profile switches and queries, driven through a bare [`RdfDatabase`]
//! (the `&mut self` API), through a [`ServingDb`] whose epoch-0
//! snapshot is held for the whole run, and against a database rebuilt
//! from scratch from the triples of the moment (no plan cache, no
//! views). After every step: decoded rows equal across
//! all three under SAT / UCQ / SCQ / GCov, executor `Counters` equal
//! between the first two (they answer through the same snapshot code,
//! so they must do the same work), and every query-log record re-parses
//! and replays to the rows it recorded. At the end the epoch-0 snapshot
//! still returns its epoch-0 answers.

use std::collections::BTreeSet;

use jucq_core::{RdfDatabase, ServingDb, Snapshot, Strategy};
use jucq_model::{vocab, Term, Triple};
use jucq_optimizer::CostConstants;
use jucq_store::exec::Counters;
use jucq_store::EngineProfile;

const NS: &str = "http://history.example/";
const CLASSES: [&str; 5] = ["Work", "Publication", "Book", "Novel", "Article"];

/// A triple over `NS` local names; `p` may also be a full vocabulary URI.
fn t(s: &str, p: &str, o: &str) -> Triple {
    let uri = |local: &str| Term::uri(format!("{NS}{local}"));
    let p = if p.starts_with("http") { Term::uri(p) } else { uri(p) };
    Triple::new(uri(s), p, uri(o))
}

/// xorshift64*: the history is a function of the seed alone.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }

    /// `n` data triples over the base vocabulary.
    fn batch(&mut self, n: usize) -> Vec<Triple> {
        let mut one = || {
            let doc = format!("doc{}", self.below(25));
            match self.below(3) {
                0 => t(&doc, vocab::RDF_TYPE, CLASSES[self.below(CLASSES.len())]),
                1 => {
                    let p = ["hasAuthor", "writtenBy"][self.below(2)];
                    t(&doc, p, &format!("author{}", self.below(8)))
                }
                _ => t(&doc, "cites", &format!("doc{}", self.below(25))),
            }
        };
        (0..n).map(|_| one()).collect()
    }

    fn some_of(&mut self, triples: &[Triple], n: usize) -> Vec<Triple> {
        (0..n).map(|_| triples[self.below(triples.len())].clone()).collect()
    }
}

fn schema() -> Vec<Triple> {
    vec![
        t("Publication", vocab::RDFS_SUBCLASS_OF, "Work"),
        t("Book", vocab::RDFS_SUBCLASS_OF, "Publication"),
        t("Novel", vocab::RDFS_SUBCLASS_OF, "Book"),
        t("Article", vocab::RDFS_SUBCLASS_OF, "Publication"),
        t("writtenBy", vocab::RDFS_SUBPROPERTY_OF, "hasAuthor"),
        t("writtenBy", vocab::RDFS_DOMAIN, "Publication"),
        t("cites", vocab::RDFS_RANGE, "Work"),
    ]
}

/// The queries checked after every step: hierarchy and subproperty
/// reformulation, a three-atom join, two constants no epoch has seen,
/// an isomorphic pair that numbers its variables differently (one
/// canonical plan-cache key, two physical plans), and a property that
/// joins the vocabulary mid-history.
fn queries() -> Vec<String> {
    let a = vocab::RDF_TYPE;
    vec![
        format!("SELECT ?x WHERE {{ ?x <{a}> <{NS}Work> }}"),
        format!("SELECT ?x ?y WHERE {{ ?x <{NS}hasAuthor> ?y }}"),
        format!(
            "SELECT ?x ?z WHERE {{ ?x <{NS}hasAuthor> ?y . ?x <{NS}cites> ?z . ?z <{a}> <{NS}Book> }}"
        ),
        format!("SELECT ?x WHERE {{ ?x <{NS}hasAuthor> <{NS}nobody> . ?x <{a}> <{NS}Ghost> }}"),
        format!("SELECT ?a ?b WHERE {{ ?a <{NS}cites> ?b . ?b <{a}> <{NS}Publication> }}"),
        format!("SELECT ?n ?m WHERE {{ ?m <{a}> <{NS}Publication> . ?n <{NS}cites> ?m }}"),
        format!("SELECT ?x ?y WHERE {{ ?x <{NS}reviewedBy> ?y }}"),
    ]
}

fn strategies() -> [Strategy; 4] {
    [Strategy::Saturation, Strategy::Ucq, Strategy::Scq, Strategy::gcov_default()]
}

fn profile(mysql: bool) -> EngineProfile {
    if mysql {
        EngineProfile::mysql_like()
    } else {
        EngineProfile::pg_like()
    }
}

enum Step {
    Update { inserts: Vec<Triple>, deletes: Vec<Triple>, incremental: bool },
    Pin { query: usize, strategy: Strategy },
    Profile { mysql: bool },
}

fn history(rng: &mut Rng, data: &[Triple]) -> Vec<Step> {
    let update = |inserts, deletes, incremental| Step::Update { inserts, deletes, incremental };
    vec![
        update(rng.batch(12), vec![], true),
        Step::Pin { query: 1, strategy: Strategy::Ucq },
        Step::Pin { query: 4, strategy: Strategy::gcov_default() },
        update(vec![], rng.some_of(data, 10), true),
        // New vocabulary: a property and a class the closure has never
        // seen force a rebuild.
        update(
            vec![t("doc1", "reviewedBy", "author1"), t("doc2", vocab::RDF_TYPE, "Thesis")],
            vec![],
            false,
        ),
        Step::Profile { mysql: true },
        // A new subclass edge: rebuild. Thesis keeps the id the step
        // before gave it; ids never move.
        update(
            vec![
                t("Thesis", vocab::RDFS_SUBCLASS_OF, "Publication"),
                t("reviewedBy", vocab::RDFS_RANGE, "Work"),
                t("doc3", vocab::RDF_TYPE, "Thesis"),
            ],
            rng.some_of(data, 3),
            false,
        ),
        update(rng.batch(12), rng.some_of(data, 5), true),
        Step::Profile { mysql: false },
        update(vec![], rng.some_of(data, 8), true),
    ]
}

fn fingerprint(rows: Vec<Vec<Term>>) -> Vec<String> {
    let cells = |row: &Vec<Term>| row.iter().map(ToString::to_string).collect::<Vec<_>>();
    let mut out: Vec<String> = rows.iter().map(|row| cells(row).join("\t")).collect();
    out.sort();
    out
}

fn configured(triples: &[Triple]) -> RdfDatabase {
    let mut db = RdfDatabase::with_profile(profile(false));
    db.extend(triples);
    db.set_cost_constants(CostConstants::default());
    db.enable_plan_cache(64);
    db.enable_views(100_000);
    db
}

/// One system's answers at one point of the history: per (query,
/// strategy), the decoded rows and the work counters.
type Answers = Vec<(Vec<String>, Counters)>;

/// Through `Snapshot`'s recorded path; each record's text must replay
/// to the rows it recorded.
fn answers_of(snapshot: &Snapshot) -> Answers {
    let mut out = Vec::new();
    for sparql in queries() {
        for strategy in strategies() {
            let q = snapshot.parse_query(&sparql).expect("history queries parse");
            let (result, record) = snapshot.answer_recorded(&q, &strategy, None);
            let report = result.expect("history queries answer");
            let record = record.expect("non-empty queries are recorded");
            assert_eq!(record.rows, report.rows.len() as u64);
            let again = snapshot.parse_query(&record.query).expect("a record's text re-parses");
            let replayed = snapshot.answer(&again, &strategy).expect("and answers");
            assert_eq!(replayed.rows.len() as u64, record.rows, "replay of `{}`", record.query);
            out.push((fingerprint(snapshot.decode_rows(&report.rows)), report.counters));
        }
    }
    out
}

/// Through the bare database's own `&mut self` methods.
fn answers_of_db(db: &mut RdfDatabase) -> Answers {
    let mut out = Vec::new();
    for sparql in queries() {
        for strategy in strategies() {
            let q = db.parse_query(&sparql).expect("history queries parse");
            let (result, record) = db.answer_recorded(&q, &strategy);
            let report = result.expect("history queries answer");
            assert_eq!(record.expect("recorded").rows, report.rows.len() as u64);
            out.push((fingerprint(db.decode_rows(&report.rows)), report.counters));
        }
    }
    out
}

/// Saturation over a database built from `live` alone, per query.
fn oracle(live: &BTreeSet<Triple>) -> Vec<Vec<String>> {
    let mut db = RdfDatabase::with_profile(profile(false));
    db.extend(live);
    let truth = |sparql: String| {
        let q = db.parse_query(&sparql).unwrap();
        let report = db.answer(&q, &Strategy::Saturation).expect("saturation answers");
        fingerprint(db.decode_rows(&report.rows))
    };
    queries().into_iter().map(truth).collect()
}

#[test]
fn one_history_three_ways() {
    let mut rng = Rng(0x5eed_0019);
    let data = rng.batch(60);
    let steps = history(&mut rng, &data);
    let base: Vec<Triple> = schema().into_iter().chain(data).collect();
    let mut live: BTreeSet<Triple> = base.iter().cloned().collect();

    let mut bare = configured(&base);
    let serving = ServingDb::new(configured(&base));
    let epoch0 = serving.snapshot();
    assert_eq!(epoch0.epoch(), 0);
    let epoch0_answers = answers_of(&epoch0);
    let mut pins: Vec<(String, Strategy)> = Vec::new();
    let mut epoch = 0;

    let labels: Vec<String> = queries()
        .iter()
        .flat_map(|q| strategies().map(|s| format!("{} of `{q}`", s.name())))
        .collect();
    let check = |step: usize, bare: &mut RdfDatabase, live: &BTreeSet<Triple>| {
        let (from_bare, from_serving) = (answers_of_db(bare), answers_of(&serving.snapshot()));
        let truth = oracle(live);
        for (i, label) in labels.iter().enumerate() {
            let want = &truth[i / strategies().len()];
            assert_eq!(&from_bare[i].0, want, "step {step}: bare database, {label}");
            assert_eq!(&from_serving[i].0, want, "step {step}: serving database, {label}");
            assert_eq!(from_bare[i].1, from_serving[i].1, "step {step}: counters, {label}");
        }
    };

    check(0, &mut bare, &live);
    for (i, step) in steps.iter().enumerate() {
        let at = i + 1;
        match step {
            Step::Update { inserts, deletes, incremental } => {
                // The bare database re-pins its views after an update,
                // as the serving layer does.
                let a = bare.apply_data_updates(inserts, deletes);
                for (sparql, strategy) in &pins {
                    let q = bare.parse_query(sparql).unwrap();
                    bare.pin_cover_fragments(&q, strategy, None).unwrap();
                }
                let b = serving.apply_data_updates(inserts, deletes);
                assert_eq!(a, b, "step {at}: update reports");
                assert_eq!(a.incremental, *incremental, "step {at}");
                epoch += 1;
                live.extend(inserts.iter().cloned());
                live.retain(|t| !deletes.contains(t));
            }
            Step::Pin { query, strategy } => {
                let sparql = queries()[*query].clone();
                let q = bare.parse_query(&sparql).unwrap();
                let a = bare.pin_cover_fragments(&q, strategy, None).unwrap();
                let b = serving.pin_views(&sparql, strategy).unwrap();
                assert_eq!(a, b, "step {at}: fragments pinned");
                assert!(a > 0, "step {at}: the pin materializes something");
                pins.push((sparql, strategy.clone()));
            }
            Step::Profile { mysql } => {
                bare.set_profile(profile(*mysql));
                serving.set_profile(profile(*mysql));
            }
        }
        assert_eq!(serving.epoch(), epoch, "step {at}: one epoch per update");
        check(at, &mut bare, &live);
    }

    // The views were used, and the rebuilds did not lose the pins.
    let stats = serving.view_stats().expect("views enabled");
    assert!(stats.hits > 0 && stats.entries > 0, "{stats:?}");
    assert_eq!(stats.epoch, epoch, "the catalog moves with the published epoch");

    // Ten steps later, the epoch-0 snapshot is what it was.
    let again = answers_of(&epoch0);
    for (i, label) in labels.iter().enumerate() {
        assert_eq!(again[i].0, epoch0_answers[i].0, "epoch 0 at the end: {label}");
    }
}
