//! The traced replay: one request taken stage by stage through the
//! layers' public functions, with a span around each call.
//!
//! This mirrors `jucq_core`'s answering pipeline (`answer_on` /
//! `plan_jucq_on` in `crates/core/src/database.rs`) for the four
//! strategies the benchmark runs; `core.answer.overhead_ms` reports how
//! far the mirror's total is from the real `answer()`.

use std::sync::Arc;
use std::time::Instant;

use jucq_core::parser::parse_query;
use jucq_core::plan_cache::PlanKey;
use jucq_core::{AnswerError, PlanCache, Strategy};
use jucq_model::schema::SchemaClosure;
use jucq_model::{Graph, Term, TermId};
use jucq_optimizer::{calibrate, gcov, CostConstants, CoverSearch, PaperCostModel};
use jucq_reformulation::jucq::jucq_for_cover_bounded;
use jucq_reformulation::saturation::schema_triples;
use jucq_reformulation::{saturate, Cover, ReformulationEnv};
use jucq_store::{Counters, EngineError, EngineProfile, Store, StoreJucq, StoreUcq};

use crate::check::render;
use crate::trace::{Stage, StageTimes, Tracer};

/// Set-up time and size per layer.
#[derive(Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub saturate_s: f64,
    pub build_s: f64,
    pub calibrate_s: f64,
    pub triples: usize,
    pub saturated_triples: usize,
}

/// The prepared state `RdfDatabase::prepare` builds, held as its parts.
pub struct StagedEngine {
    graph: Graph,
    closure: SchemaClosure,
    rdf_type: TermId,
    plain: Store,
    saturated: Store,
    constants: CostConstants,
    profile: EngineProfile,
    cache: Option<PlanCache>,
}

/// What one staged request did.
pub struct StagedAnswer {
    pub rows: usize,
    pub terms: usize,
    pub union_terms: usize,
    pub covers_explored: usize,
    pub counters: Counters,
    pub times: StageTimes,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *slot += started.elapsed().as_secs_f64();
    out
}

impl StagedEngine {
    /// `RdfDatabase::prepare` stage by stage, timing each layer.
    pub fn build(
        generate: impl FnOnce() -> Graph,
        profile: EngineProfile,
        plan_cache: Option<usize>,
    ) -> (Self, SetupTimes) {
        let mut t = SetupTimes::default();
        let mut graph = timed(&mut t.generate_s, generate);
        let closure = graph.schema_closure();
        let rdf_type = graph.rdf_type();
        let schema = schema_triples(&mut graph, &closure);
        let store = |mut triples: Vec<jucq_model::TripleId>| {
            triples.extend_from_slice(&schema);
            triples.sort_unstable();
            triples.dedup();
            Store::from_triples(&triples, profile.clone())
        };
        let plain = timed(&mut t.build_s, || store(graph.data().to_vec()));
        let entailed = timed(&mut t.saturate_s, || saturate(&mut graph));
        let saturated = timed(&mut t.build_s, || store(entailed));
        let constants = timed(&mut t.calibrate_s, || calibrate(&plain));
        t.triples = plain.table().len();
        t.saturated_triples = saturated.table().len();
        let engine = StagedEngine {
            graph,
            closure,
            rdf_type,
            plain,
            saturated,
            constants,
            profile,
            cache: plan_cache.map(PlanCache::new),
        };
        (engine, t)
    }

    /// Drop cached physical plans, as a data update does.
    pub fn clear_plans(&mut self) {
        if let Some(cache) = &mut self.cache {
            cache.clear_plans();
        }
    }

    /// Answer `sparql` stage by stage, rendering into `out`.
    pub fn request(
        &mut self,
        tracer: &mut Tracer,
        request: u32,
        sparql: &str,
        strategy: &Strategy,
        out: &mut String,
    ) -> Result<StagedAnswer, AnswerError> {
        let root = tracer.begin(Stage::Request, None, request);
        let result = self.stages(tracer, root, sparql, strategy, out);
        tracer.end(root);
        result.map(|mut answer| {
            answer.times = tracer.self_times(root);
            answer
        })
    }

    fn stages(
        &mut self,
        tracer: &mut Tracer,
        root: u32,
        sparql: &str,
        strategy: &Strategy,
        out: &mut String,
    ) -> Result<StagedAnswer, AnswerError> {
        let q = tracer
            .child(Stage::Parser, root, || parse_query(self.graph.dict_mut(), sparql))
            .expect("workload queries parse");
        let env = ReformulationEnv { closure: &self.closure, rdf_type: self.rdf_type };
        let limit = self.profile.max_union_terms;
        let too_large =
            |n: usize| AnswerError::from(EngineError::UnionTooLarge { terms: n, limit });

        let mut key: Option<PlanKey> = None;
        let mut covers_explored = 0usize;
        let (jucq, saturated) = match strategy {
            Strategy::Saturation => {
                let head = q.head.clone();
                let ucq = StoreUcq::new(vec![q.to_store_cq()], head.clone());
                (StoreJucq::new(vec![ucq], head), true)
            }
            Strategy::Ucq | Strategy::Scq => {
                let cover = if matches!(strategy, Strategy::Ucq) {
                    Cover::single_fragment(&q)?
                } else {
                    Cover::singletons(&q)?
                };
                let jucq = tracer
                    .child(Stage::Jucq, root, || jucq_for_cover_bounded(&q, &cover, &env, limit))
                    .map_err(too_large)?;
                (jucq, false)
            }
            Strategy::GCov { budget, max_moves, .. } => {
                // Covers are cached under the query's canonical form and
                // translated through this query's atom permutation.
                let cached = self.cache.as_mut().map(|cache| {
                    tracer.child(Stage::PlanCache, root, || {
                        let (canonical, perm) = q.canonicalize();
                        let k = PlanKey::new(
                            canonical.clone(),
                            strategy.name(),
                            &self.profile.plan_cache_key(),
                        );
                        let hit = cache.get(&k);
                        (canonical, perm, k, hit)
                    })
                });
                let cover = match &cached {
                    Some((_, perm, _, Some((canonical_cover, _)))) => {
                        let fragments = canonical_cover
                            .fragments()
                            .into_iter()
                            .map(|f| f.into_iter().map(|i| perm[i]).collect())
                            .collect();
                        Cover::new(&q, fragments)?
                    }
                    _ => {
                        let found = tracer.child(Stage::Search, root, || {
                            let model = PaperCostModel::new(
                                self.plain.table(),
                                self.plain.stats(),
                                self.constants,
                            )
                            .with_range_pricing(self.profile.range_scans);
                            let search = CoverSearch::new(&q, env, &model)
                                .with_union_limit(limit)
                                .with_parallelism(self.profile.effective_parallelism());
                            gcov(&search, *budget, *max_moves)
                        })?;
                        covers_explored = found.explored;
                        found.cover
                    }
                };
                let jucq = tracer
                    .child(Stage::Jucq, root, || jucq_for_cover_bounded(&q, &cover, &env, limit))
                    .map_err(too_large)?;
                if let Some((canonical, perm, k, hit)) = cached {
                    if hit.is_none() {
                        let cache = self.cache.as_mut().expect("a lookup implies a cache");
                        tracer.child(Stage::PlanCache, root, || {
                            let mut inverse = vec![0usize; perm.len()];
                            for (canonical_index, &own_index) in perm.iter().enumerate() {
                                inverse[own_index] = canonical_index;
                            }
                            let fragments = cover
                                .fragments()
                                .into_iter()
                                .map(|f| f.into_iter().map(|i| inverse[i]).collect())
                                .collect();
                            if let Ok(canonical_cover) = Cover::new(&canonical, fragments) {
                                cache.put(k.clone(), canonical_cover, Some(covers_explored));
                            }
                        });
                    }
                    key = Some(k);
                }
                (jucq, false)
            }
            other => unreachable!("the benchmark does not run {}", other.name()),
        };

        let target = if saturated { &self.saturated } else { &self.plain };
        let union_terms = jucq.union_terms();
        let lower = |tracer: &mut Tracer| {
            tracer.child(Stage::Plan, root, || target.plan_jucq(&jucq)).map(Arc::new)
        };
        let plan = match (self.cache.as_mut(), &key) {
            (Some(cache), Some(k)) => {
                match tracer.child(Stage::PlanCache, root, || cache.get_plan(k, &q)) {
                    Some(plan) => plan,
                    None => {
                        let plan = lower(tracer)?;
                        cache.attach_plan(k, q.clone(), Arc::clone(&plan));
                        plan
                    }
                }
            }
            _ => lower(tracer)?,
        };
        let mut outcome = tracer.child(Stage::Exec, root, || target.eval_plan(&plan))?;
        if let Some(n) = q.limit {
            outcome.relation.truncate(n);
        }
        let dict = self.graph.dict();
        let decoded: Vec<Vec<Term>> = tracer.child(Stage::Decode, root, || {
            outcome.relation.rows().map(|r| r.iter().map(|&id| dict.decode(id)).collect()).collect()
        });
        tracer.child(Stage::Render, root, || render(&decoded, out));
        let rows = decoded.len();
        // Freeing the decoded terms is the other half of allocating them.
        tracer.child(Stage::Decode, root, || drop(decoded));
        Ok(StagedAnswer {
            rows,
            terms: rows * outcome.relation.width(),
            union_terms,
            covers_explored,
            counters: outcome.counters,
            times: [0; Stage::COUNT],
        })
    }
}
