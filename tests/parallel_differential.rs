//! Differential test for the parallel JUCQ execution engine: a
//! parallel run must be indistinguishable from a sequential one.
//!
//! For every engine profile, every generated workload (LUBM and DBLP)
//! and every strategy with a fragment-evaluation phase, running the
//! same query at parallelism 1 (strictly sequential), 2 and 8 must
//! yield *identical* sorted answer rows and *identical* aggregate
//! executor `Counters` (the probe cursors' lookups and reseeks among
//! them: a cursor lives in one operator invocation, never in shared
//! state) — the order-stable merge makes worker scheduling
//! unobservable. When the sequential run fails (budget,
//! timeout), the parallel run must fail too.

use jucq_core::{RdfDatabase, Strategy};
use jucq_datagen::{dblp, lubm};
use jucq_model::Graph;
use jucq_store::{Counters, EngineProfile, Relation};

const PARALLELISMS: [usize; 3] = [1, 2, 8];

type Observation = Result<(Vec<Vec<jucq_model::TermId>>, Counters), String>;

fn tuned(profile: EngineProfile) -> EngineProfile {
    profile
        .with_max_union_terms(2_000_000)
        .with_memory_budget(100_000_000)
        .with_timeout(std::time::Duration::from_secs(60))
}

fn sorted_rows(mut r: Relation) -> Vec<Vec<jucq_model::TermId>> {
    r.sort();
    r.to_rows()
}

/// Answer `sparql` under `strategy` at each parallelism level and
/// return one (rows, counters) observation per level; a failed run
/// records its error message instead.
fn observe(
    graph: &Graph,
    profile: &EngineProfile,
    sparql: &str,
    strategy: &Strategy,
) -> Vec<Observation> {
    PARALLELISMS
        .iter()
        .map(|&p| {
            let mut db =
                RdfDatabase::from_graph(graph.clone(), tuned(profile.clone().with_parallelism(p)));
            db.set_cost_constants(Default::default());
            let q = db.parse_query(sparql).expect("workload query parses");
            match db.answer(&q, strategy) {
                Ok(r) => Ok((sorted_rows(r.rows), r.counters)),
                Err(e) => Err(e.to_string()),
            }
        })
        .collect()
}

/// Returns the sequential runs' total `(index_probes, probe_reseeks)`,
/// so a caller can tell the equality below was not of zeros.
fn check_workload(
    graph: &Graph,
    queries: &[jucq_datagen::NamedQuery],
    profiles: &[EngineProfile],
) -> (u64, u64) {
    let mut probes = (0, 0);
    for profile in profiles {
        for nq in queries {
            for strategy in [Strategy::Ucq, Strategy::gcov_default()] {
                let obs = observe(graph, profile, &nq.sparql, &strategy);
                let (reference, rest) = obs.split_first().expect("three parallelism levels");
                if let Ok((_, c)) = reference {
                    probes = (probes.0 + c.index_probes, probes.1 + c.probe_reseeks);
                }
                for (level, got) in PARALLELISMS[1..].iter().zip(rest) {
                    match (reference, got) {
                        (Ok((ref_rows, ref_counters)), Ok((rows, counters))) => {
                            assert_eq!(
                                ref_rows,
                                rows,
                                "{}/{}: rows differ at parallelism {level}",
                                nq.name,
                                strategy.name()
                            );
                            assert_eq!(
                                ref_counters,
                                counters,
                                "{}/{}: counters differ at parallelism {level}",
                                nq.name,
                                strategy.name()
                            );
                        }
                        (Err(_), Err(_)) => {
                            // Same-failure equality: both runs hit an
                            // engine limit. The exact message may
                            // differ (parallel holds every member
                            // result until the merge, so it can breach
                            // the memory budget earlier).
                        }
                        (Ok(_), Err(e)) => {
                            // The parallel memory model reserves all
                            // member results at once; only a memory
                            // budget breach may appear at higher
                            // parallelism where sequential passed.
                            assert!(
                                e.contains("memory budget"),
                                "{}/{}: parallelism {level} failed where sequential \
                                 passed, and not on the memory budget: {e}",
                                nq.name,
                                strategy.name()
                            );
                        }
                        (Err(e), Ok(_)) => panic!(
                            "{}/{}: parallelism {level} succeeded where sequential \
                             failed ({e})",
                            nq.name,
                            strategy.name()
                        ),
                    }
                }
            }
        }
    }
    probes
}

#[test]
fn lubm_parallel_matches_sequential_across_profiles() {
    let graph = lubm::generate(&lubm::LubmConfig { universities: 1, seed: 42 });
    // A selective slice of the workload keeps the full profile ×
    // strategy × parallelism matrix fast; the chosen queries span
    // single-atom, star and reformulation-heavy shapes.
    let picked = ["q1", "Q08", "Q15", "Q22"];
    let queries: Vec<_> = lubm::motivating_queries()
        .into_iter()
        .chain(lubm::workload())
        .filter(|q| picked.contains(&q.name.as_str()))
        .collect();
    assert_eq!(queries.len(), picked.len(), "all sampled queries found");
    let (probes, reseeks) = check_workload(&graph, &queries, &EngineProfile::rdbms_trio());
    assert!(probes > 0 && reseeks > 0, "no probe cursor ran: {probes} lookups, {reseeks} reseeks");
}

#[test]
fn dblp_parallel_matches_sequential_across_profiles() {
    let graph = dblp::generate(&dblp::DblpConfig { authors: 200, seed: 7 });
    let queries: Vec<_> = dblp::workload().into_iter().take(4).collect();
    check_workload(&graph, &queries, &EngineProfile::rdbms_trio());
}
