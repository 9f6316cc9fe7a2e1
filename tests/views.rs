//! End-to-end materialized-view tests: pin cover fragments, answer
//! through the catalog, and check that incremental maintenance
//! invalidates *exactly* the fragments whose footprint the delta
//! touches — with answers identical to a view-free database at every
//! step.

use jucq_core::{RdfDatabase, ServingDb, Strategy};
use jucq_model::{Term, Triple};

/// Sorted, decoded rows — the dictionary-independent answer fingerprint.
fn fingerprint(rows: Vec<Vec<Term>>) -> Vec<String> {
    let mut out: Vec<String> = rows
        .into_iter()
        .map(|row| row.iter().map(ToString::to_string).collect::<Vec<_>>().join("\t"))
        .collect();
    out.sort();
    out
}

/// Two disjoint sub-property hierarchies, so `knows`-rooted and
/// `employs`-rooted fragments have non-overlapping footprints.
const TTL: &str = r#"
    @prefix ex: <http://example.org/> .
    ex:advises rdfs:subPropertyOf ex:knows .
    ex:teaches rdfs:subPropertyOf ex:employs .
    ex:a1 ex:advises ex:s1 .
    ex:a2 ex:knows ex:s2 .
    ex:t1 ex:teaches ex:c1 .
    ex:t2 ex:employs ex:c2 .
"#;

const Q_KNOWS: &str = "SELECT ?x ?y WHERE { ?x <http://example.org/knows> ?y . }";
const Q_EMPLOYS: &str = "SELECT ?x ?y WHERE { ?x <http://example.org/employs> ?y . }";

fn views_db() -> RdfDatabase {
    let mut db = RdfDatabase::new();
    db.load_turtle(TTL).expect("schema + data load");
    db.enable_views(10_000);
    db
}

fn answer(db: &mut RdfDatabase, sparql: &str) -> Vec<String> {
    let q = db.parse_query(sparql).expect("query parses");
    let r = db.answer(&q, &Strategy::Ucq).expect("query answers");
    fingerprint(db.decode_rows(&r.rows))
}

#[test]
fn pinned_views_serve_identical_answers_and_count_hits() {
    let mut db = views_db();
    let baseline_knows = answer(&mut db, Q_KNOWS);
    let baseline_employs = answer(&mut db, Q_EMPLOYS);
    assert_eq!(baseline_knows.len(), 2, "knows ∪ advises");
    let before = db.view_stats().expect("views enabled");
    assert_eq!(before.entries, 0);

    let q = db.parse_query(Q_KNOWS).unwrap();
    let pinned = db.pin_cover_fragments(&q, &Strategy::Ucq, None).expect("pin succeeds");
    assert_eq!(pinned, 1, "a UCQ plan is one fragment");
    // Re-pinning the same fragment is a no-op.
    assert_eq!(db.pin_cover_fragments(&q, &Strategy::Ucq, None).unwrap(), 0);

    let hits_before = db.view_stats().unwrap().hits;
    assert_eq!(answer(&mut db, Q_KNOWS), baseline_knows, "view-served answer identical");
    let after = db.view_stats().unwrap();
    assert!(after.hits > hits_before, "the pinned fragment resolved from the catalog");
    assert_eq!(after.entries, 1);

    // The unpinned query is unaffected and hits nothing new.
    assert_eq!(answer(&mut db, Q_EMPLOYS), baseline_employs);

    // The report surfaces the catalog size for the query log.
    let q = db.parse_query(Q_KNOWS).unwrap();
    let r = db.answer(&q, &Strategy::Ucq).unwrap();
    assert_eq!(r.view_catalog_size, 1);
}

/// `explain` and `explain analyze` describe the run `answer` makes:
/// the plan lowered against the view catalog (and kept in the plan
/// cache), cut at the query's `LIMIT`.
#[test]
fn explain_and_explain_analyze_show_the_plan_that_answer_runs() {
    let mut db = views_db();
    db.enable_plan_cache(8);
    let strategy = Strategy::gcov_default();
    let sparql = format!("{Q_KNOWS} LIMIT 1");
    let q = db.parse_query(&sparql).unwrap();
    assert_eq!(db.pin_cover_fragments(&q, &strategy, None).unwrap(), 1);

    let hits = |db: &RdfDatabase| db.view_stats().unwrap().hits;
    let plans = |db: &RdfDatabase| {
        let s = db.plan_cache_stats().unwrap();
        (s.plan_hits, s.plan_misses)
    };
    let before = hits(&db);
    let answered = db.answer(&q, &strategy).unwrap();
    assert_eq!(answered.rows.len(), 1, "LIMIT 1 of the two knows rows");
    assert_eq!(answered.counters.view_hits, 1);
    assert_eq!(hits(&db), before + 1);
    assert_eq!(plans(&db), (0, 1), "answer lowered the plan and cached it");

    // explain: no execution, the cached plan, its ViewScan leaf.
    let explained = db.explain(&q, &strategy).unwrap();
    assert_eq!(hits(&db), before + 1, "explain executes nothing");
    assert_eq!(plans(&db), (1, 1), "explain read the plan answer cached");
    assert!(explained.contains("ViewScan"), "{explained}");
    assert!(explained.contains("Limit: the first 1 row(s)"), "{explained}");

    // explain analyze: the same run again — one more view hit, the same
    // cached plan, the same single row.
    let analyzed = db.explain_analyze(&q, &strategy).unwrap();
    assert_eq!(hits(&db), before + 2, "explain analyze resolved the view like answer");
    assert_eq!(plans(&db), (2, 1));
    assert!(analyzed.contains("ViewScan"), "{analyzed}");
    assert!(analyzed.contains("Total: 1 row(s)"), "{analyzed}");
    assert!(analyzed.contains("Limit: the first 1 row(s)"), "{analyzed}");

    // Both open with one header and print the same operator tree.
    let tree = |text: &str| -> Vec<String> {
        let lines = text.lines().skip_while(|l| !l.contains("Physical plan"));
        lines.take_while(|l| !l.contains("EXPLAIN ANALYZE")).map(str::to_owned).collect()
    };
    assert!(tree(&explained).len() > 1, "{explained}");
    assert_eq!(tree(&explained), tree(&analyzed));
    for text in [&explained, &analyzed] {
        assert_eq!(text.matches("Strategy: GCov (target: plain store)").count(), 1, "{text}");
        assert_eq!(text.matches("Cover:").count(), 1, "{text}");
    }
}

/// The catalog is a *cross-query* cache: the canonical signature
/// renumbers variables, so pinning the `knows` fragment from one query
/// must serve an isomorphic fragment of a *different* query whose
/// VarIds differ (here the fragment sits after another atom, so its
/// variables number 1,2 instead of 0,1). The copy must be positional —
/// realigning by per-query VarId panics or permutes columns.
#[test]
fn cross_query_isomorphic_fragment_serves_from_the_catalog() {
    const CHAIN_TTL: &str = r#"
        @prefix ex: <http://example.org/> .
        ex:advises rdfs:subPropertyOf ex:knows .
        ex:teaches rdfs:subPropertyOf ex:employs .
        ex:a1 ex:advises ex:s1 .
        ex:a2 ex:knows ex:s2 .
        ex:u1 ex:teaches ex:a1 .
        ex:u2 ex:employs ex:a2 .
    "#;
    const Q_CHAIN: &str = "SELECT ?a ?b ?c WHERE { \
         ?a <http://example.org/employs> ?b . \
         ?b <http://example.org/knows> ?c . }";

    let mut db = RdfDatabase::new();
    db.load_turtle(CHAIN_TTL).expect("schema + data load");
    db.enable_views(10_000);

    // Pin query A's single `knows` fragment (head VarIds 0, 1).
    let qa = db.parse_query(Q_KNOWS).unwrap();
    assert_eq!(db.pin_cover_fragments(&qa, &Strategy::Scq, None).unwrap(), 1);

    // Query B's SCQ cover contains an isomorphic `knows` fragment with
    // different VarIds; it must hit the pinned entry and the chain join
    // must still bind the columns correctly.
    let hits_before = db.view_stats().unwrap().hits;
    let qb = db.parse_query(Q_CHAIN).unwrap();
    let r = db.answer(&qb, &Strategy::Scq).expect("cross-query view hit answers");
    let got = fingerprint(db.decode_rows(&r.rows));
    assert!(
        db.view_stats().unwrap().hits > hits_before,
        "the isomorphic fragment resolved from the catalog"
    );
    assert_eq!(got.len(), 2, "both employs∘knows chains bind");

    // Differential check against a view-free database.
    let mut oracle = RdfDatabase::new();
    oracle.load_turtle(CHAIN_TTL).unwrap();
    let q = oracle.parse_query(Q_CHAIN).unwrap();
    let want_rows = oracle.answer(&q, &Strategy::Scq).unwrap().rows;
    let want = fingerprint(oracle.decode_rows(&want_rows));
    assert_eq!(got, want, "view-served chain answer identical to the no-views oracle");
}

#[test]
fn saturation_never_consults_the_catalog() {
    let mut db = views_db();
    let q = db.parse_query(Q_KNOWS).unwrap();
    db.pin_cover_fragments(&q, &Strategy::Ucq, None).unwrap();
    let expected = {
        let r = db.answer(&q, &Strategy::Ucq).unwrap();
        fingerprint(db.decode_rows(&r.rows))
    };
    let hits = db.view_stats().unwrap().hits;
    let r = db.answer(&q, &Strategy::Saturation).unwrap();
    assert_eq!(fingerprint(db.decode_rows(&r.rows)), expected);
    assert_eq!(
        db.view_stats().unwrap().hits,
        hits,
        "saturation plans must not read plain-store views"
    );
}

#[test]
fn incremental_update_invalidates_exactly_intersecting_fragments() {
    let mut db = views_db();
    for sparql in [Q_KNOWS, Q_EMPLOYS] {
        let q = db.parse_query(sparql).unwrap();
        assert_eq!(db.pin_cover_fragments(&q, &Strategy::Ucq, None).unwrap(), 1);
    }
    assert_eq!(db.view_stats().unwrap().entries, 2);

    // A known-vocabulary insert on `advises`: intersects the `knows`
    // fragment (reformulation reads sub-properties), not `employs`.
    let delta = [Triple::new(
        Term::uri("http://example.org/a3"),
        Term::uri("http://example.org/advises"),
        Term::uri("http://example.org/s3"),
    )];
    let report = db.apply_data_updates(&delta, &[]);
    assert!(report.incremental, "known-vocabulary data insert takes the incremental path");

    let stats = db.view_stats().unwrap();
    assert_eq!(stats.entries, 1, "exactly the intersecting fragment was dropped");
    assert_eq!(stats.invalidated, 1);

    // The invalidated query falls back to the union and sees the new
    // row; the surviving view still serves (restamped) and its answer
    // is unchanged.
    let knows = answer(&mut db, Q_KNOWS);
    assert_eq!(knows.len(), 3, "the new advises edge is visible");
    let hits_before = db.view_stats().unwrap().hits;
    let employs = answer(&mut db, Q_EMPLOYS);
    assert_eq!(employs.len(), 2);
    assert!(db.view_stats().unwrap().hits > hits_before, "survivor serves at the new epoch");

    // Differential check against a view-free database with the same
    // final state.
    let mut oracle = RdfDatabase::new();
    oracle.load_turtle(TTL).unwrap();
    oracle.apply_data_updates(&delta, &[]);
    assert_eq!(answer(&mut oracle, Q_KNOWS), knows);
    assert_eq!(answer(&mut oracle, Q_EMPLOYS), employs);
}

#[test]
fn schema_update_rebuild_drops_the_whole_catalog() {
    let mut db = views_db();
    let q = db.parse_query(Q_KNOWS).unwrap();
    db.pin_cover_fragments(&q, &Strategy::Ucq, None).unwrap();
    assert_eq!(db.view_stats().unwrap().entries, 1);

    // A schema triple forces a non-incremental rebuild: the closure the
    // views were reformulated under changed, so nothing in the catalog
    // can survive.
    let schema = [Triple::new(
        Term::uri("http://example.org/mentors"),
        Term::uri(jucq_model::vocab::RDFS_SUBPROPERTY_OF),
        Term::uri("http://example.org/knows"),
    )];
    let report = db.apply_data_updates(&schema, &[]);
    assert!(!report.incremental, "schema changes rebuild");
    assert_eq!(db.view_stats().unwrap().entries, 0);

    // And answering still works (pure fallback).
    assert_eq!(answer(&mut db, Q_KNOWS).len(), 2);
}

#[test]
fn serving_pins_survive_updates_and_old_snapshots_stay_exact() {
    let mut db = RdfDatabase::new();
    db.load_turtle(TTL).unwrap();
    db.enable_views(10_000);
    let serving = ServingDb::new(db);

    assert_eq!(serving.pin_views(Q_KNOWS, &Strategy::Ucq).expect("pin"), 1);
    assert_eq!(serving.pin_views(Q_EMPLOYS, &Strategy::Ucq).expect("pin"), 1);
    assert_eq!(serving.view_stats().expect("views enabled").entries, 2);

    let old = serving.snapshot();
    let old_epoch = old.epoch();
    let q = old.parse_query(Q_KNOWS).unwrap();
    let old_knows = fingerprint(old.decode_rows(&old.answer(&q, &Strategy::Ucq).unwrap().rows));
    assert_eq!(old_knows.len(), 2);

    // Update intersecting the `knows` pin; the serving layer replays
    // pins, so the dropped view is re-materialized at the new epoch.
    let delta = [Triple::new(
        Term::uri("http://example.org/a3"),
        Term::uri("http://example.org/advises"),
        Term::uri("http://example.org/s3"),
    )];
    let report = serving.apply_data_updates(&delta, &[]);
    assert!(report.incremental);
    let stats = serving.view_stats().unwrap();
    assert_eq!(stats.entries, 2, "the invalidated pin was re-materialized on replay");
    assert_eq!(stats.epoch, serving.epoch());

    // A fresh snapshot serves the new epoch from the catalog …
    let new = serving.snapshot();
    assert_eq!(new.epoch(), old_epoch + 1);
    let hits_before = serving.view_stats().unwrap().hits;
    let q = new.parse_query(Q_KNOWS).unwrap();
    let new_knows = fingerprint(new.decode_rows(&new.answer(&q, &Strategy::Ucq).unwrap().rows));
    assert_eq!(new_knows.len(), 3, "the replayed view includes the new edge");
    assert!(serving.view_stats().unwrap().hits > hits_before);

    // … while the old snapshot — whose epoch no catalog entry carries
    // any more — falls back to its own frozen store and still answers
    // exactly as before the update.
    let q = old.parse_query(Q_KNOWS).unwrap();
    let replayed = fingerprint(old.decode_rows(&old.answer(&q, &Strategy::Ucq).unwrap().rows));
    assert_eq!(replayed, old_knows, "pinned epoch answers never drift");
}
