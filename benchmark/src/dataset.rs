//! The generated datasets, the engine configuration every workload
//! runs under, and the Saturation oracle.

use std::time::{Duration, Instant};

use jucq_core::{AnswerError, RdfDatabase, Strategy};
use jucq_datagen::{dblp, lubm, NamedQuery};
use jucq_model::Graph;
use jucq_store::EngineProfile;

use crate::check::{fingerprint, render, Fingerprint};
use crate::shape::{classify, Shape};

/// The per-query deadline of every workload.
pub const DEADLINE: Duration = Duration::from_secs(10);
/// The plan-cache capacity `jucq serve` deploys.
pub const PLAN_CACHE: usize = 256;

/// What `jucq serve` deploys: the PostgreSQL-like profile at
/// engine-default parallelism; views stay off because no catalog is
/// ever enabled.
pub fn profile() -> EngineProfile {
    EngineProfile::pg_like().with_timeout(DEADLINE)
}

#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// LUBM-like, by universities.
    Lubm(usize),
    /// DBLP-like, by authors.
    Dblp(usize),
}

impl Source {
    pub fn label(self) -> String {
        match self {
            Source::Lubm(n) => format!("lubm{n}"),
            Source::Dblp(n) => format!("dblp{n}"),
        }
    }

    /// The dataset at the generator's own seed. As in TPC-style
    /// benchmarks the data is fixed per scale and `--seed` drives the
    /// request stream: a generator seed moves the data size by several
    /// percent (a LUBM-like university draws 15–20 departments), which
    /// would drown the run-to-run differences the benchmark exists to
    /// resolve.
    pub fn generate(self) -> Graph {
        match self {
            Source::Lubm(universities) => lubm::generate(&lubm::LubmConfig::new(universities)),
            Source::Dblp(authors) => dblp::generate(&dblp::DblpConfig::new(authors)),
        }
    }

    pub fn queries(self) -> Vec<NamedQuery> {
        match self {
            Source::Lubm(_) => lubm::workload(),
            Source::Dblp(_) => dblp::workload(),
        }
    }
}

/// Set-up as a user pays it: generate, load, prepare (closure, both
/// stores, saturation, calibration), plan cache.
pub fn build(source: Source, plan_cache: Option<usize>) -> RdfDatabase {
    let mut db = RdfDatabase::from_graph(source.generate(), profile());
    db.prepare();
    if let Some(capacity) = plan_cache {
        db.enable_plan_cache(capacity);
    }
    db
}

/// Set-up repeats behind `setup_s`: at least
/// [`SETUP_MIN_REPEATS`], and for set-ups of a fraction of a second as
/// many more (up to [`SETUP_MAX_REPEATS`]) as fit in
/// [`SETUP_MIN_SECONDS`], so a small workload's figure rests on more
/// samples.
pub const SETUP_MIN_REPEATS: usize = 3;
pub const SETUP_MAX_REPEATS: usize = 9;
pub const SETUP_MIN_SECONDS: f64 = 2.0;

/// Run `build` repeatedly (once if `!repeat`), keeping the last result,
/// and return each repeat's duration in seconds. Earlier results are
/// dropped off the clock, before the next build, so peak memory holds
/// one copy.
pub fn build_timed<T>(repeat: bool, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let started = Instant::now();
        last = Some(build());
        samples.push(started.elapsed().as_secs_f64());
        let enough = samples.len() >= SETUP_MIN_REPEATS
            && (samples.iter().sum::<f64>() >= SETUP_MIN_SECONDS
                || samples.len() >= SETUP_MAX_REPEATS);
        if !repeat || enough {
            break;
        }
    }
    (last.expect("at least one repeat"), samples)
}

/// One request as a user issues it: parse, answer, decode, render into
/// `out`. Returns the row count.
pub fn request(
    db: &mut RdfDatabase,
    sparql: &str,
    strategy: &Strategy,
    out: &mut String,
) -> Result<usize, AnswerError> {
    let q = db.parse_query(sparql).expect("workload queries parse");
    let report = db.answer(&q, strategy)?;
    let rows = db.decode_rows(&report.rows);
    render(&rows, out);
    Ok(rows.len())
}

/// A query of a workload with its shape and expected answer.
pub struct Query {
    pub name: String,
    pub sparql: String,
    pub shape: Shape,
    pub expected: Fingerprint,
}

/// The workload's queries with the Saturation answer of each over the
/// database's current state.
pub fn oracle(db: &mut RdfDatabase, source: Source) -> Vec<Query> {
    let mut out = String::new();
    source
        .queries()
        .into_iter()
        .map(|nq| {
            out.clear();
            request(db, &nq.sparql, &Strategy::Saturation, &mut out)
                .unwrap_or_else(|e| panic!("oracle {} failed: {e}", nq.name));
            let shape = classify(&db.parse_query(&nq.sparql).expect("workload queries parse"));
            Query { name: nq.name, sparql: nq.sparql, shape, expected: fingerprint(&out) }
        })
        .collect()
}
