//! The in-process workloads: one client thread calling
//! `RdfDatabase::{parse_query, answer, decode_rows}` in a closed loop.

use std::time::Instant;

use jucq_core::{AnswerError, PlanCacheStats, RdfDatabase, Strategy};
use jucq_store::EngineError;

use crate::check::{fingerprint, Rng};
use crate::dataset::{self, Query, Source, DEADLINE};
use crate::report::Report;
use crate::shape::Shape;
use crate::staged::{SetupTimes, StagedEngine};
use crate::stats::{low_decile, median, ms, percentile};
use crate::trace::{Stage, StageTimes, Tracer};
use crate::Options;

/// A pass runs every leg in order; a leg is every query of one dataset
/// under one strategy.
pub struct Workload {
    pub sources: Vec<Source>,
    pub plan_cache: Option<usize>,
    pub legs: Vec<(usize, Strategy)>,
    /// Drop cached physical plans before every n-th request of the
    /// traced replay, as the serving workload's data updates do.
    pub replan_every: Option<u32>,
}

/// How the untraced reference answers one request of dataset `.0`:
/// parse, answer, decode, render; returns the row count.
pub type Requester<'a> =
    dyn FnMut(usize, &str, &Strategy, &mut String) -> Result<usize, AnswerError> + 'a;

#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Check one outcome against the oracle. The only accepted error is
    /// the engine refusing an oversized union under a fixed strategy
    /// (UCQ, SCQ cannot route around the union limit; GCov must): the
    /// paper's missing bars. Returns whether the request was answered.
    pub fn check(
        &mut self,
        query: &Query,
        strategy: &Strategy,
        outcome: &Result<usize, AnswerError>,
        rendered: &str,
    ) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(_) => {
                if fingerprint(rendered) != query.expected {
                    eprintln!("WRONG ANSWER: {} under {}", query.name, strategy.name());
                    self.failed += 1;
                }
                true
            }
            Err(AnswerError::Engine(EngineError::UnionTooLarge { .. }))
                if matches!(strategy, Strategy::Ucq | Strategy::Scq) =>
            {
                false
            }
            Err(e) => {
                eprintln!("FAILED: {} under {}: {e}", query.name, strategy.name());
                self.failed += 1;
                false
            }
        }
    }
}

/// One timed request of a pass.
pub struct Sample {
    leg: usize,
    query: usize,
    pub ms: f64,
    pub answered: bool,
}

/// The queries of a leg in this pass's arrival order: shuffled by the
/// seed in timed passes, the workload's own order in warm-up passes so
/// that what the plan cache holds does not depend on the seed (queries
/// with one canonical form share a cached cover, and the first to
/// arrive chooses it).
fn arrival_order(rng: Option<&mut Rng>, queries: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..queries).collect();
    if let Some(rng) = rng {
        rng.shuffle(&mut order);
    }
    order
}

fn untraced_pass(
    w: &Workload,
    request: &mut Requester<'_>,
    queries: &[Vec<Query>],
    mut rng: Option<&mut Rng>,
    out: &mut String,
    tally: &mut Tally,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for (leg, (dataset, strategy)) in w.legs.iter().enumerate() {
        for qi in arrival_order(rng.as_deref_mut(), queries[*dataset].len()) {
            let query = &queries[*dataset][qi];
            out.clear();
            let started = Instant::now();
            let outcome = request(*dataset, &query.sparql, strategy, out);
            let elapsed = started.elapsed();
            // Checked off the clock: a pass's time is the sum of its requests'.
            let answered = tally.check(query, strategy, &outcome, out);
            samples.push(Sample { leg, query: qi, ms: elapsed.as_secs_f64() * 1e3, answered });
        }
    }
    samples
}

/// Per-layer counts over one traced pass.
#[derive(Default, Clone, PartialEq)]
struct Counts {
    scanned: u64,
    joined: u64,
    materialized: u64,
    deduped: u64,
    rows: u64,
    terms: u64,
    union_terms: u64,
    covers: u64,
}

/// Per-layer sums over one traced pass.
#[derive(Default)]
struct LayerPass {
    times: StageTimes,
    exec_by_shape: [u64; Shape::ALL.len()],
    counts: Counts,
}

/// What the traced replay carries from pass to pass.
struct Replay<'a> {
    w: &'a Workload,
    engines: &'a mut [StagedEngine],
    queries: &'a [Vec<Query>],
    requests: u32,
    out: String,
}

impl Replay<'_> {
    fn pass(
        &mut self,
        mut rng: Option<&mut Rng>,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> LayerPass {
        let mut pass = LayerPass::default();
        for (dataset, strategy) in &self.w.legs {
            let engine = &mut self.engines[*dataset];
            for qi in arrival_order(rng.as_deref_mut(), self.queries[*dataset].len()) {
                let query = &self.queries[*dataset][qi];
                self.out.clear();
                self.requests += 1;
                if self.w.replan_every.is_some_and(|n| self.requests.is_multiple_of(n)) {
                    engine.clear_plans();
                }
                let answer =
                    engine.request(tracer, self.requests, &query.sparql, strategy, &mut self.out);
                let outcome = answer.as_ref().map(|a| a.rows).map_err(Clone::clone);
                tally.check(query, strategy, &outcome, &self.out);
                let Ok(a) = answer else { continue };
                for (sum, t) in pass.times.iter_mut().zip(a.times) {
                    *sum += t;
                }
                pass.exec_by_shape[query.shape.index()] += a.times[Stage::Exec as usize];
                let c = &mut pass.counts;
                c.scanned += a.counters.tuples_scanned;
                c.joined += a.counters.tuples_joined;
                c.materialized += a.counters.tuples_materialized;
                c.deduped += a.counters.tuples_deduped;
                c.rows += a.rows as u64;
                c.terms += a.terms as u64;
                c.union_terms += a.union_terms as u64;
                c.covers += a.covers_explored as u64;
            }
        }
        pass
    }
}

/// Requests per pass the engine refused by design (see [`Tally::check`]).
fn refused(passes: &[Vec<Sample>]) -> usize {
    passes.first().map_or(0, |pass| pass.iter().filter(|s| !s.answered).count())
}

fn pass_ms(samples: &[Sample]) -> f64 {
    samples.iter().map(|s| s.ms).sum()
}

/// The part of one pass spent under the strategy called `name` (over
/// every dataset it ran on).
fn strategy_ms(w: &Workload, pass: &[Sample], name: &str) -> f64 {
    pass.iter().filter(|s| w.legs[s.leg].1.name() == name).map(|s| s.ms).sum()
}

/// Σ_q t_GCov(q) / Σ_q min(t_UCQ, t_SCQ, t_GCov)(q) over per-query
/// lower deciles; a refused query costs its strategy the deadline. 0 unless
/// the workload runs all three strategies.
fn gcov_regret(w: &Workload, queries: &[Vec<Query>], passes: &[Vec<Sample>]) -> f64 {
    let leg_of = |name: &str| w.legs.iter().position(|(_, s)| s.name() == name);
    let (Some(ucq), Some(scq), Some(gcov)) = (leg_of("UCQ"), leg_of("SCQ"), leg_of("GCov")) else {
        return 0.0;
    };
    let per_query = |leg: usize, query: usize| -> f64 {
        let times: Vec<f64> = passes
            .iter()
            .flatten()
            .filter(|s| s.leg == leg && s.query == query)
            .map(|s| if s.answered { s.ms } else { DEADLINE.as_secs_f64() * 1e3 })
            .collect();
        low_decile(&times)
    };
    let (mut chosen, mut best) = (0.0, 0.0);
    for query in 0..queries[w.legs[gcov].0].len() {
        let t = per_query(gcov, query);
        chosen += t;
        best += t.min(per_query(ucq, query)).min(per_query(scq, query));
    }
    chosen / best
}

fn cache_stats(dbs: &[RdfDatabase]) -> PlanCacheStats {
    let mut total = PlanCacheStats::default();
    for s in dbs.iter().filter_map(RdfDatabase::plan_cache_stats) {
        total.hits += s.hits;
        total.misses += s.misses;
        total.plan_hits += s.plan_hits;
        total.plan_misses += s.plan_misses;
    }
    total
}

/// Report the plan cache's hit ratios over a window.
pub fn report_cache(report: &mut Report, before: PlanCacheStats, after: PlanCacheStats) {
    let ratio = |hits: usize, misses: usize| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    report.set(
        "core.plan_cache.cover_hit_ratio",
        ratio(after.hits - before.hits, after.misses - before.misses),
        lookups,
    );
    report.set(
        "core.plan_cache.plan_hit_ratio",
        ratio(after.plan_hits - before.plan_hits, after.plan_misses - before.plan_misses),
        lookups,
    );
}

pub fn shapes_note(report: &mut Report, queries: &[Vec<Query>], sources: &[Source]) {
    for (qs, source) in queries.iter().zip(sources) {
        let line: Vec<String> =
            qs.iter().map(|q| format!("{}={}", q.name, q.shape.name())).collect();
        eprintln!("shapes {}: {}", source.label(), line.join(" "));
        report.note(&format!("shapes.{}", source.label()), line.join(" "));
    }
}

/// What a client saw over one pass.
#[derive(Clone, Copy)]
pub struct PassStats {
    /// Time of every operation of the pass, summed.
    pub ms: f64,
    /// Operations completed.
    pub operations: usize,
    /// Median and 95th-percentile latency of the pass's answered queries.
    pub p50_ms: f64,
    pub p95_ms: f64,
}

impl PassStats {
    pub fn new(ms: f64, operations: usize, query_ms: &[f64]) -> Self {
        PassStats { ms, operations, p50_ms: median(query_ms), p95_ms: percentile(query_ms, 95.0) }
    }
}

/// Report `pass_ms` and `qps` over passes (see [`low_decile`] for why
/// not the median or a mean). Request latency goes to the notes: its
/// run-set medians drift by more than any bound the pipeline admits.
pub fn report_passes(report: &mut Report, passes: &[PassStats], clients: usize) {
    let n = passes.len();
    report.set("pass_ms", over(passes, |p| p.ms), n);
    // The rate of the same pass `pass_ms` reports: the upper decile.
    let ms_per_operation = over(passes, |p| p.ms / p.operations as f64);
    report.set("qps", clients as f64 * 1e3 / ms_per_operation, n);
    report.note("query_p50_ms", over(passes, |p| p.p50_ms).to_string());
    report.note("query_p95_ms", over(passes, |p| p.p95_ms).to_string());
}

/// Report a pass's median and 95th-percentile request latency (traced
/// run).
pub fn report_request_latency(report: &mut Report, passes: &[PassStats]) {
    report.set("core.request.p50_ms", over(passes, |p| p.p50_ms), passes.len());
    report.set("core.request.p95_ms", over(passes, |p| p.p95_ms), passes.len());
}

fn over(passes: &[PassStats], f: fn(&PassStats) -> f64) -> f64 {
    low_decile(&passes.iter().map(f).collect::<Vec<_>>())
}

fn pass_stats(passes: &[Vec<Sample>]) -> Vec<PassStats> {
    passes
        .iter()
        .map(|pass| {
            let answered: Vec<f64> = pass.iter().filter(|s| s.answered).map(|s| s.ms).collect();
            PassStats::new(pass_ms(pass), pass.len(), &answered)
        })
        .collect()
}

/// The end-to-end run: tracing off.
pub fn run(w: &Workload, opts: &Options, report: &mut Report) {
    let (mut dbs, setup) = dataset::build_timed(!opts.quick, || {
        w.sources.iter().map(|s| dataset::build(*s, w.plan_cache)).collect::<Vec<_>>()
    });
    let queries: Vec<Vec<Query>> =
        dbs.iter_mut().zip(&w.sources).map(|(db, s)| dataset::oracle(db, *s)).collect();
    shapes_note(report, &queries, &w.sources);
    let mut request = |d: usize, sparql: &str, strategy: &Strategy, out: &mut String| {
        dataset::request(&mut dbs[d], sparql, strategy, out)
    };

    // Warm-up, untimed: fills the plan cache and the allocator. A wrong
    // answer here still fails the run.
    let mut tally = Tally { failed: warm_up(w, &mut request, &queries), ..Tally::default() };

    let passes = untraced_loop(w, &mut request, &queries, opts.seed, opts.seconds, &mut tally);

    report.set("setup_s", low_decile(&setup), setup.len());
    report_passes(report, &pass_stats(&passes), 1);
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.note("refused", refused(&passes).to_string());
}

/// The staged engines of a workload with their set-up cost per layer.
pub fn build_engines(w: &Workload) -> (Vec<StagedEngine>, SetupTimes) {
    let mut setup = SetupTimes::default();
    let mut engines = Vec::new();
    for source in &w.sources {
        let (engine, t) =
            StagedEngine::build(|| source.generate(), dataset::profile(), w.plan_cache);
        setup.generate_s += t.generate_s;
        setup.saturate_s += t.saturate_s;
        setup.build_s += t.build_s;
        setup.calibrate_s += t.calibrate_s;
        setup.triples += t.triples;
        setup.saturated_triples += t.saturated_triples;
        engines.push(engine);
    }
    (engines, setup)
}

/// One untimed pass through `request`; returns the wrong answers seen.
pub fn warm_up(w: &Workload, request: &mut Requester<'_>, queries: &[Vec<Query>]) -> u64 {
    let mut tally = Tally::default();
    untraced_pass(w, request, queries, None, &mut String::new(), &mut tally);
    tally.failed
}

/// Whole passes through `request`, untraced, until `seconds` have passed.
pub fn untraced_loop(
    w: &Workload,
    request: &mut Requester<'_>,
    queries: &[Vec<Query>],
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Vec<Vec<Sample>> {
    let mut rng = Rng(seed);
    let mut out = String::new();
    let mut passes = Vec::new();
    let window = Instant::now();
    loop {
        passes.push(untraced_pass(w, request, queries, Some(&mut rng), &mut out, tally));
        eprintln!("pass {}: {:.1} ms", passes.len(), pass_ms(passes.last().expect("just pushed")));
        if window.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    passes
}

/// Whole passes stage by stage under spans until `seconds` have passed,
/// then the per-layer metrics. `reference` is the same passes taken
/// untraced through the engine's own `answer()`.
#[allow(clippy::too_many_arguments)]
pub fn traced_loop(
    w: &Workload,
    engines: &mut [StagedEngine],
    setup: &SetupTimes,
    queries: &[Vec<Query>],
    reference: &[Vec<Sample>],
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) {
    let mut rng = Rng(seed);
    let mut replay = Replay { w, engines, queries, requests: 0, out: String::new() };
    replay.pass(None, &mut Tracer::new(), tally);

    let mut layers: Vec<LayerPass> = Vec::new();
    let window = Instant::now();
    loop {
        layers.push(replay.pass(Some(&mut rng), tracer, tally));
        if window.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let n = layers.len();
    let stage =
        |s: Stage| low_decile(&layers.iter().map(|p| ms(p.times[s as usize])).collect::<Vec<_>>());
    let staged_ms: Vec<f64> = layers
        .iter()
        .map(|p| ms(p.times.iter().sum::<u64>() - p.times[Stage::Request as usize]))
        .collect();
    let traced_wall =
        low_decile(&layers.iter().map(|p| ms(p.times.iter().sum())).collect::<Vec<_>>());
    let untraced = low_decile(&reference.iter().map(|p| pass_ms(p)).collect::<Vec<_>>());

    report.set("core.parser.ms", stage(Stage::Parser), n);
    report.set("core.plan_cache.ms", stage(Stage::PlanCache), n);
    report.set("optimizer.search_ms", stage(Stage::Search), n);
    report.set("reformulation.jucq_ms", stage(Stage::Jucq), n);
    report.set("store.plan.ms", stage(Stage::Plan), n);
    report.set("store.exec.ms", stage(Stage::Exec), n);
    report.set("model.dict.decode_ms", stage(Stage::Decode), n);
    report.set("model.dict.render_ms", stage(Stage::Render), n);
    for shape in Shape::ALL {
        let per_pass: Vec<f64> =
            layers.iter().map(|p| ms(p.exec_by_shape[shape.index()])).collect();
        report.set(&format!("store.exec.ms.{}", shape.name()), low_decile(&per_pass), n);
    }

    // Counts are per pass and must repeat exactly from pass to pass
    // (unless plans are dropped mid-pass at a cadence that is not the
    // pass length).
    let counts = layers.last().map(|p| p.counts.clone()).unwrap_or_default();
    if w.replan_every.is_none() && layers.iter().any(|p| p.counts != counts) {
        eprintln!("FAILED: per-layer counts differ between passes");
        tally.failed += 1;
    }
    let count = |v: u64| v as f64;
    report.set("optimizer.covers_explored", count(counts.covers), n);
    report.set("reformulation.union_terms", count(counts.union_terms), n);
    report.set("store.exec.tuples_scanned", count(counts.scanned), n);
    report.set("store.exec.tuples_joined", count(counts.joined), n);
    report.set("store.exec.tuples_materialized", count(counts.materialized), n);
    report.set("store.exec.tuples_deduped", count(counts.deduped), n);
    report.set("model.dict.terms_decoded", count(counts.terms), n);
    if counts.rows > 0 {
        report.set("store.exec.scanned_per_row", count(counts.scanned) / count(counts.rows), n);
    }
    if counts.covers > 0 {
        report.set("optimizer.us_per_cover", stage(Stage::Search) * 1e3 / count(counts.covers), n);
    }
    if counts.terms > 0 {
        let dict_ms = stage(Stage::Decode) + stage(Stage::Render);
        report.set("model.dict.ns_per_term", dict_ms * 1e6 / count(counts.terms), n);
    }
    report.set("core.answer.overhead_ms", untraced - low_decile(&staged_ms), n);
    report_request_latency(report, &pass_stats(reference));
    report.set("trace.overhead_ratio", traced_wall / untraced, n);

    for name in ["SAT", "UCQ", "SCQ", "GCov"] {
        let per_pass: Vec<f64> = reference.iter().map(|p| strategy_ms(w, p, name)).collect();
        let metric = format!("core.strategy.{}_pass_ms", name.to_lowercase());
        report.set(&metric, low_decile(&per_pass), n);
    }
    report.set("core.strategy.gcov_regret", gcov_regret(w, queries, reference), n);
    report.set("core.strategy.refused", refused(reference) as f64, n);

    report.set("datagen.generate_s", setup.generate_s, 1);
    report.set("reformulation.saturate_s", setup.saturate_s, 1);
    report.set("store.build_s", setup.build_s, 1);
    report.set("optimizer.calibrate_s", setup.calibrate_s, 1);
    report.set("store.triples", setup.triples as f64, 1);
    report.set("store.saturated_triples", setup.saturated_triples as f64, 1);

    let shares: Vec<String> = [
        Stage::Parser,
        Stage::PlanCache,
        Stage::Search,
        Stage::Jucq,
        Stage::Plan,
        Stage::Exec,
        Stage::Decode,
        Stage::Render,
        Stage::Request,
    ]
    .iter()
    .map(|&s| format!("{}={:.1}%", s.name(), 100.0 * stage(s) / traced_wall))
    .collect();
    eprintln!("layer shares of the traced pass: {}", shares.join(" "));
    report.note("layer_shares", shares.join(" "));
}

/// The traced run of an in-process workload: the reference passes
/// through `answer()` first, then, with that database dropped so memory
/// holds one copy of the data as in the end-to-end run, the same passes
/// stage by stage.
pub fn run_traced(w: &Workload, opts: &Options, report: &mut Report, tracer: &mut Tracer) {
    let mut dbs: Vec<RdfDatabase> =
        w.sources.iter().map(|s| dataset::build(*s, w.plan_cache)).collect();
    let queries: Vec<Vec<Query>> =
        dbs.iter_mut().zip(&w.sources).map(|(db, s)| dataset::oracle(db, *s)).collect();
    shapes_note(report, &queries, &w.sources);

    let mut request = |d: usize, sparql: &str, strategy: &Strategy, out: &mut String| {
        dataset::request(&mut dbs[d], sparql, strategy, out)
    };
    let mut tally = Tally { failed: warm_up(w, &mut request, &queries), ..Tally::default() };
    let cache_before = cache_stats(&dbs);
    let mut request = |d: usize, sparql: &str, strategy: &Strategy, out: &mut String| {
        dataset::request(&mut dbs[d], sparql, strategy, out)
    };
    let half = opts.seconds / 2.0;
    let reference = untraced_loop(w, &mut request, &queries, opts.seed, half, &mut tally);
    report_cache(report, cache_before, cache_stats(&dbs));
    drop(dbs);

    let (mut engines, setup) = build_engines(w);
    traced_loop(
        w,
        &mut engines,
        &setup,
        &queries,
        &reference,
        opts.seed,
        half,
        tracer,
        report,
        &mut tally,
    );
    report.attempted = tally.attempted;
    report.failed = tally.failed;
}
