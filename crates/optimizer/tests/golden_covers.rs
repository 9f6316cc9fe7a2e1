//! Golden cover-search decisions.
//!
//! `golden_covers.txt` records, for every LUBM-like (1 university) and
//! DBLP-like (2 000 authors) workload query under the `pg_like` profile
//! with [`CostConstants::default`] (calibration is timing-based, so
//! calibrated constants move `explored` by a few covers from process to
//! process), the cover GCov picks, the number of covers it explored and
//! the estimated cost — and the same for ECov on the queries small
//! enough for the exhaustive search to finish. The file was generated
//! before the cover search moved to bitmask covers and a single
//! fragment memo, which it passed unchanged; four lines (LUBM Q19 GCov,
//! DBLP Q08 GCov and ECov, DBLP Q10 GCov) were then regenerated for the
//! fix that made a fragment's join-selectivity domains independent of
//! the head it was first scored under (DESIGN.md §4i lists them with
//! both costs). This test holds every later change of the search to the
//! same decisions.
//!
//! Regenerate (only for a change that is *meant* to move decisions, and
//! list every moved line in the PR):
//! `cargo test --release -p jucq-optimizer --test golden_covers -- --ignored regenerate`

use std::fmt::Write as _;
use std::time::Duration;

use jucq_core::RdfDatabase;
use jucq_datagen::{dblp, lubm, NamedQuery};
use jucq_optimizer::{ecov, gcov, CostConstants, CoverSearch, CoverSearchResult, PaperCostModel};
use jucq_reformulation::{BgpQuery, ReformulationEnv};
use jucq_store::EngineProfile;

/// ECov is recorded for queries of at most this many atoms: beyond it
/// the exhaustive search runs for seconds or hits its budget, and a
/// truncated search's numbers depend on the clock.
const ECOV_MAX_ATOMS: usize = 6;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_covers.txt");

#[derive(Clone, Copy)]
enum Algo {
    GCov,
    ECov,
}

impl Algo {
    fn name(self) -> &'static str {
        match self {
            Algo::GCov => "gcov",
            Algo::ECov => "ecov",
        }
    }
}

/// One search to record: dataset, query name, query, algorithm.
struct Case<'a> {
    dataset: &'static str,
    name: &'a str,
    query: &'a BgpQuery,
    algo: Algo,
}

/// Run `visit` over every recorded search of one dataset, with a
/// `run` callback that performs the search on a fresh [`CoverSearch`].
fn for_each_case(
    dataset: &'static str,
    graph: jucq_model::Graph,
    workload: Vec<NamedQuery>,
    visit: &mut dyn FnMut(&Case<'_>, &dyn Fn() -> CoverSearchResult),
) {
    let profile = EngineProfile::pg_like();
    let union_limit = profile.max_union_terms;
    let range_pricing = profile.range_scans;
    let mut db = RdfDatabase::from_graph(graph, profile);
    db.set_cost_constants(CostConstants::default());
    let queries: Vec<(String, BgpQuery)> = workload
        .into_iter()
        .map(|nq| {
            let q = db.parse_query(&nq.sparql).expect("workload queries parse");
            (nq.name, q)
        })
        .collect();
    let closure = db.closure().clone();
    let rdf_type = db.rdf_type();
    let store = db.plain_store();
    let env = ReformulationEnv { closure: &closure, rdf_type };
    for (name, q) in &queries {
        for algo in [Algo::GCov, Algo::ECov] {
            if matches!(algo, Algo::ECov) && q.len() > ECOV_MAX_ATOMS {
                continue;
            }
            let run = || {
                let model =
                    PaperCostModel::new(store.table(), store.stats(), CostConstants::default())
                        .with_range_pricing(range_pricing);
                let search = CoverSearch::new(q, env, &model).with_union_limit(union_limit);
                let result = match algo {
                    Algo::GCov => gcov(&search, Duration::from_secs(60), 10_000),
                    Algo::ECov => ecov(&search, Duration::from_secs(60)),
                }
                .expect("workload queries are connected");
                assert!(!result.truncated, "{dataset} {name} {} truncated", algo.name());
                result
            };
            visit(&Case { dataset, name, query: q, algo }, &run);
        }
    }
}

fn for_each_search(visit: &mut dyn FnMut(&Case<'_>, &dyn Fn() -> CoverSearchResult)) {
    for_each_case("lubm1", lubm::generate(&lubm::LubmConfig::new(1)), lubm::workload(), visit);
    for_each_case(
        "dblp2000",
        dblp::generate(&dblp::DblpConfig::new(2_000)),
        dblp::workload(),
        visit,
    );
}

/// `dataset query algo explored cost cover` — the cover last because
/// its rendering contains spaces.
fn render() -> String {
    let mut out = String::new();
    for_each_search(&mut |case, run| {
        let r = run();
        writeln!(
            out,
            "{} {} {} {} {:.17e} {}",
            case.dataset,
            case.name,
            case.algo.name(),
            r.explored,
            r.estimated_cost,
            r.cover
        )
        .expect("write to string");
    });
    out
}

#[test]
fn decisions_match_golden_file() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden_covers.txt is committed");
    let mut expected = golden.lines();
    let mut diffs = Vec::new();
    let mut checked = 0usize;
    for_each_search(&mut |case, run| {
        let line = expected.next().expect("golden file has a line per search");
        let mut parts = line.splitn(6, ' ');
        let mut field = || parts.next().expect("six fields per golden line");
        let (dataset, name, algo) = (field(), field(), field());
        assert_eq!(
            (dataset, name, algo),
            (case.dataset, case.name, case.algo.name()),
            "golden file order"
        );
        let explored: usize = field().parse().expect("explored count");
        let cost: f64 = field().parse().expect("cost");
        let cover = field();
        let r = run();
        let rel = ((r.estimated_cost - cost) / cost).abs();
        if r.cover.to_string() != cover || r.explored != explored || rel.is_nan() || rel > 1e-9 {
            diffs.push(format!(
                "{dataset} {name} {algo} ({} atoms)\n  golden: {cover} explored={explored} cost={cost:e}\n  now:    {} explored={} cost={:e}",
                case.query.len(),
                r.cover,
                r.explored,
                r.estimated_cost
            ));
        }
        checked += 1;
    });
    assert!(expected.next().is_none(), "golden file has more lines than searches");
    assert!(checked >= 38, "28 LUBM + 10 DBLP GCov searches at least, got {checked}");
    assert!(diffs.is_empty(), "{} decisions moved:\n{}", diffs.len(), diffs.join("\n"));
}

#[test]
fn searches_are_deterministic_within_a_process() {
    for_each_search(&mut |case, run| {
        let first = run();
        for round in 1..20 {
            let again = run();
            assert_eq!(
                (again.explored, again.estimated_cost.to_bits(), &again.cover),
                (first.explored, first.estimated_cost.to_bits(), &first.cover),
                "{} {} {} differs on run {round}",
                case.dataset,
                case.name,
                case.algo.name()
            );
        }
    });
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate() {
    std::fs::write(GOLDEN, render()).expect("write golden file");
}
