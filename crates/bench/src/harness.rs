//! Shared experiment-harness utilities.

use std::time::Duration;

use jucq_core::{AnswerError, RdfDatabase, Strategy};
use jucq_datagen::{dblp, lubm, NamedQuery};
use jucq_optimizer::calibrate;
use jucq_reformulation::BgpQuery;
use jucq_store::EngineProfile;

/// Default per-query engine deadline for experiments (the paper kills
/// runs after two hours; we scale that down with the data).
pub const EXPERIMENT_TIMEOUT: Duration = Duration::from_secs(10);

/// RAII handle from [`obs_sidecar`]: writes the metrics sidecar when
/// the experiment finishes (i.e. on drop).
pub struct ObsSidecar {
    path: std::path::PathBuf,
}

/// Opt-in observability for an experiment binary: when the `JUCQ_OBS`
/// environment variable is set, enable collection and, when the
/// returned guard drops, write the spans/metrics of the whole run to
/// `results/<experiment>.metrics.json` — a sidecar next to the
/// experiment's `results/<experiment>.txt` artifact. Without
/// `JUCQ_OBS`, collection stays disabled and benchmarks run at full
/// speed.
pub fn obs_sidecar(experiment: &str) -> Option<ObsSidecar> {
    std::env::var_os("JUCQ_OBS")?;
    jucq_obs::reset();
    jucq_obs::set_enabled(true);
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    Some(ObsSidecar { path: dir.join(format!("{experiment}.metrics.json")) })
}

impl Drop for ObsSidecar {
    fn drop(&mut self) {
        jucq_obs::set_enabled(false);
        let session = jucq_obs::take_session();
        match std::fs::write(&self.path, jucq_obs::export::to_json(&session)) {
            Ok(()) => eprintln!("wrote metrics sidecar {}", self.path.display()),
            Err(e) => eprintln!("failed to write metrics sidecar {}: {e}", self.path.display()),
        }
    }
}

/// Read a positional CLI argument as a scale, with a default.
pub fn arg_scale(position: usize, default: usize) -> usize {
    std::env::args().nth(position).and_then(|a| a.parse().ok()).unwrap_or(default)
}

/// Build and calibrate a LUBM-like database under `profile`.
pub fn lubm_db(universities: usize, profile: EngineProfile) -> RdfDatabase {
    let graph = lubm::generate(&lubm::LubmConfig::new(universities));
    let mut db = RdfDatabase::from_graph(graph, profile.with_timeout(EXPERIMENT_TIMEOUT));
    db.prepare();
    // Pin what `prepare` calibrated, so re-preparation keeps it.
    let constants = db.cost_constants();
    db.set_cost_constants(constants);
    db
}

/// Build and calibrate a DBLP-like database under `profile`.
pub fn dblp_db(authors: usize, profile: EngineProfile) -> RdfDatabase {
    let graph = dblp::generate(&dblp::DblpConfig::new(authors));
    let mut db = RdfDatabase::from_graph(graph, profile.with_timeout(EXPERIMENT_TIMEOUT));
    db.prepare();
    // Pin what `prepare` calibrated, so re-preparation keeps it.
    let constants = db.cost_constants();
    db.set_cost_constants(constants);
    db
}

/// Switch a prepared database to another engine profile and recalibrate
/// the cost constants for it (the paper calibrates per system). Stores
/// are not rebuilt — only execution behaviour and the model change.
pub fn switch_profile(db: &mut RdfDatabase, profile: EngineProfile) {
    db.set_profile(profile.with_timeout(EXPERIMENT_TIMEOUT));
    let constants = calibrate(db.plain_store());
    db.set_cost_constants(constants);
}

/// One measured cell of a figure/table: a time, or the paper's
/// "missing bar".
#[derive(Debug, Clone)]
pub enum Cell {
    /// Evaluation time plus plan shape.
    Time {
        /// Query-evaluation wall-clock time.
        eval: Duration,
        /// Planning (reformulation + cover search) time.
        planning: Duration,
        /// Result rows.
        rows: usize,
        /// Union terms of the evaluated query.
        union_terms: usize,
    },
    /// The engine failed (UnionTooLarge / memory / timeout) — rendered
    /// as the figures' missing bars.
    Failed(String),
}

impl Cell {
    /// Render compactly for text tables.
    pub fn render(&self) -> String {
        match self {
            Cell::Time { eval, .. } => format!("{:.1}", eval.as_secs_f64() * 1e3),
            Cell::Failed(reason) => {
                let short = if reason.contains("stack depth") {
                    "FAIL(union)"
                } else if reason.contains("materialize") {
                    "FAIL(mem)"
                } else if reason.contains("timed out") {
                    "FAIL(time)"
                } else {
                    "FAIL"
                };
                short.to_owned()
            }
        }
    }
}

/// Run one strategy, averaged over `warm` warm executions after one
/// warm-up (the paper averages over 3 warm executions).
pub fn run_strategy(db: &mut RdfDatabase, q: &BgpQuery, strategy: &Strategy, warm: u32) -> Cell {
    match db.answer(q, strategy) {
        Err(AnswerError::Engine(e)) => Cell::Failed(e.to_string()),
        Err(AnswerError::Cover(e)) => Cell::Failed(e.to_string()),
        Ok(first) => {
            let mut total = Duration::ZERO;
            let mut last = first;
            for _ in 0..warm {
                match db.answer(q, strategy) {
                    Ok(r) => {
                        total += r.eval_time;
                        last = r;
                    }
                    Err(e) => return Cell::Failed(e.to_string()),
                }
            }
            Cell::Time {
                eval: total / warm.max(1),
                planning: last.planning_time,
                rows: last.rows.len(),
                union_terms: last.union_terms,
            }
        }
    }
}

/// Parse a named workload against a database.
pub fn parse_workload(db: &mut RdfDatabase, queries: &[NamedQuery]) -> Vec<(String, BgpQuery)> {
    queries
        .iter()
        .map(|nq| {
            let q = db
                .parse_query(&nq.sparql)
                .unwrap_or_else(|e| panic!("query {} fails to parse: {e}\n{}", nq.name, nq.sparql));
            (nq.name.clone(), q)
        })
        .collect()
}

/// Run a (query × strategy) matrix, returning one row per query:
/// `[name, cell…]` with evaluation milliseconds or failure tags.
pub fn strategy_matrix(
    db: &mut RdfDatabase,
    queries: &[(String, BgpQuery)],
    strategies: &[(&str, Strategy)],
    warm: u32,
) -> Vec<Vec<String>> {
    let mut rows = Vec::with_capacity(queries.len());
    for (name, q) in queries {
        eprint!("  {name}:");
        let mut row = vec![name.clone()];
        for (label, s) in strategies {
            let cell = run_strategy(db, q, s, warm);
            eprint!(" {label}={}", cell.render());
            row.push(cell.render());
        }
        eprintln!();
        rows.push(row);
    }
    rows
}

/// The four contenders of Figures 4–6: UCQ, SCQ, ECov JUCQ, GCov JUCQ.
pub fn figure_strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("UCQ", Strategy::Ucq),
        ("SCQ", Strategy::Scq),
        ("ECov", Strategy::ecov_default()),
        ("GCov", Strategy::gcov_default()),
    ]
}

/// The Figures 4–6 experiment: for each RDBMS-like profile, run every
/// query under UCQ / SCQ / ECov / GCov and print one table per engine.
pub fn rdbms_figure(title: &str, db: &mut RdfDatabase, queries: &[NamedQuery]) {
    let parsed = parse_workload(db, queries);
    let strategies = figure_strategies();
    for profile in EngineProfile::rdbms_trio() {
        let engine = profile.name.clone();
        eprintln!("[{engine}] calibrating + running...");
        switch_profile(db, profile);
        let rows = strategy_matrix(db, &parsed, &strategies, 2);
        let header: Vec<String> = std::iter::once("q".to_string())
            .chain(strategies.iter().map(|(n, _)| format!("{n} (ms)")))
            .collect();
        println!("{}", render_table(&format!("{title} — engine {engine}"), &header, &rows));
    }
}

/// Render an aligned text table.
pub fn render_table(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(c.len()))
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_rendering() {
        let c = Cell::Time {
            eval: Duration::from_millis(12),
            planning: Duration::ZERO,
            rows: 5,
            union_terms: 3,
        };
        assert_eq!(c.render(), "12.0");
        assert_eq!(Cell::Failed("stack depth limit exceeded: ...".into()).render(), "FAIL(union)");
        assert_eq!(Cell::Failed("evaluation timed out after 1s".into()).render(), "FAIL(time)");
    }

    #[test]
    fn table_alignment() {
        let t = render_table(
            "demo",
            &["q".into(), "ms".into()],
            &[vec!["Q1".into(), "1.5".into()], vec!["Q22".into(), "123.4".into()]],
        );
        assert!(t.contains("== demo =="));
        assert!(t.lines().count() >= 4);
    }
}
