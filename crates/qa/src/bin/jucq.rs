//! `jucq` — a command-line front end for the library.
//!
//! ```text
//! jucq query <data.ttl> "<SPARQL>" [--strategy S] [--profile P] [--compare]
//!            [--explain-analyze] [--trace]
//!            [--metrics-json PATH] [--query-log PATH] [--slow-ms N]
//!            [--trace-out PATH]
//! jucq explain <data.ttl> "<SPARQL>" [--analyze] [--strategy S] [--profile P]
//!                                             # physical plan (est vs actual with --analyze)
//! jucq covers <data.ttl> "<SPARQL>"           # every cover, sized & timed
//! jucq stats <data.ttl>                       # dataset & schema statistics
//! jucq repl  <data.ttl>                       # interactive session
//! jucq replay <data.ttl> <log.jsonl> [--report PATH]    # regression replay
//! jucq advise <log.jsonl> [--budget-tuples N]           # view advisor
//! jucq fuzz  [--seed S] [--cases N] [--profile P|all]   # differential fuzzing
//! jucq serve <data.ttl> [--port N] [--threads N] [--deadline-ms N]
//!            [--queue-depth N] [--strategy S] [--profile P]
//!            [--plan-cache N] [--query-log PATH] [--slow-ms N]
//!            [--view-budget-tuples N] [--auto-views LOG]  # HTTP endpoint
//! ```
//!
//! Strategies: `sat`, `ucq`, `scq`, `ecov`, `gcov` (default) — or the
//! names the query log records (`Strategy::from_name`).
//! Profiles: `pg` (default), `db2`, `mysql`.
//! Threads: a query runs on one thread, start to finish. `serve
//! --threads N` sizes the HTTP worker pool, so the server answers up to
//! N requests at once.
//!
//! Observability: `--explain-analyze` renders per-node estimated vs.
//! actual rows with Q-errors instead of the result rows; `--trace`
//! prints the pipeline span tree to stderr; `--metrics-json PATH`
//! writes the collected spans and metrics as JSON; `--trace-out PATH`
//! writes them as a Chrome-trace-event (catapult) file loadable in
//! Perfetto; `--query-log PATH` appends one structured JSONL record per
//! answered query (`JUCQ_QUERY_LOG` is the env equivalent) and
//! `--slow-ms N` additionally embeds the rendered `EXPLAIN ANALYZE`
//! tree for queries at or above the threshold (`JUCQ_SLOW_MS`).
//! `jucq replay` re-executes a recorded log and reports row-count
//! mismatches, latency percentile deltas, and Q-error drift, exiting
//! non-zero on any mismatch.
//!
//! Materialized views: `jucq advise <log.jsonl>` aggregates a recorded
//! workload and prints the cover fragments worth materializing under a
//! tuple budget (best measured benefit per stored tuple first). `jucq
//! serve --view-budget-tuples N` enables the view catalog, and
//! `--auto-views <log.jsonl>` runs the advisor at startup and pins the
//! advised queries before the first request; pins are re-materialized
//! automatically after every data update.

use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::time::Duration;

use jucq_core::model::Dictionary;
use jucq_core::reformulation::Cover;
use jucq_core::rows::term_rows;
use jucq_core::store::{EngineProfile, Relation};
use jucq_core::{RdfDatabase, Strategy};

fn usage() -> ! {
    eprintln!(
        "usage:\n  jucq query    <data.ttl|.snap> \"<SPARQL>\" [--strategy sat|ucq|scq|ecov|gcov] [--profile pg|db2|mysql] [--compare] [--explain-analyze] [--trace] [--metrics-json PATH] [--query-log PATH] [--slow-ms N] [--trace-out PATH]\n  jucq explain  <data.ttl|.snap> \"<SPARQL>\" [--analyze] [--strategy ...] [--profile ...]\n  jucq covers   <data.ttl|.snap> \"<SPARQL>\"\n  jucq stats    <data.ttl|.snap>\n  jucq repl     <data.ttl|.snap> [--profile ...]\n  jucq replay   <data.ttl|.snap> <log.jsonl> [--profile ...] [--report PATH]\n  jucq snapshot <data.ttl> <out.snap>\n  jucq advise   <log.jsonl> [--budget-tuples N]\n  jucq fuzz     [--seed S] [--cases N] [--profile pg|db2|mysql|all] [--quiet]\n  jucq serve    <data.ttl|.snap> [--port N] [--threads N] [--deadline-ms N] [--queue-depth N] [--strategy ...] [--profile ...] [--plan-cache N] [--query-log PATH] [--slow-ms N] [--view-budget-tuples N] [--auto-views LOG]"
    );
    std::process::exit(2)
}

fn parse_profile(name: &str) -> Option<EngineProfile> {
    match name {
        "pg" => Some(EngineProfile::pg_like()),
        "db2" => Some(EngineProfile::db2_like()),
        "mysql" => Some(EngineProfile::mysql_like()),
        _ => None,
    }
}

fn load(path: &str, profile: EngineProfile) -> Result<RdfDatabase, Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path)?;
    // Snapshot files self-identify by magic; anything else is Turtle.
    let db = if bytes.starts_with(b"JUCQSNAP") {
        let graph = jucq_core::snapshot::load(&bytes)?;
        RdfDatabase::from_graph(graph, profile)
    } else {
        let text = String::from_utf8(bytes)?;
        let mut db = RdfDatabase::with_profile(profile);
        db.load_turtle(&text)?;
        db
    };
    eprintln!(
        "loaded {} data triples, {} schema constraints",
        db.data_len(),
        db.graph().schema().len()
    );
    Ok(db)
}

fn cmd_snapshot(args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let [input, output] = args.as_slice() else { usage() };
    let db = load(input, EngineProfile::pg_like())?;
    let bytes = db.save_snapshot();
    std::fs::write(output, &bytes)?;
    eprintln!("wrote {} ({} bytes)", output, bytes.len());
    Ok(())
}

/// Print the first `max_rows` rows of an answer, tab-separated, and how
/// many were left out. Only the printed rows are looked up in the
/// dictionary. A reader that has closed the pipe (`jucq query … |
/// head`) has what it wanted: that is not an error.
fn print_rows(dict: &Dictionary, rows: &Relation, max_rows: usize) -> io::Result<()> {
    let mut out = io::BufWriter::new(io::stdout().lock());
    let mut print = || -> io::Result<()> {
        for row in term_rows(dict, rows).take(max_rows) {
            for (i, cell) in row.enumerate() {
                if i > 0 {
                    out.write_all(b"\t")?;
                }
                write!(out, "{cell}")?;
            }
            out.write_all(b"\n")?;
        }
        if rows.len() > max_rows {
            writeln!(out, "... ({} more rows)", rows.len() - max_rows)?;
        }
        out.flush()
    };
    match print() {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        result => result,
    }
}

/// Answer one query and print its rows. A parse error or engine
/// failure is returned, so one-shot subcommands exit non-zero; the
/// repl prints it and carries on.
fn run_query(
    db: &mut RdfDatabase,
    sparql: &str,
    strategy: &Strategy,
    max_rows: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let q = db.parse_query(sparql)?;
    let report = db.answer(&q, strategy)?;
    print_rows(db.graph().dict(), &report.rows, max_rows)?;
    eprintln!(
        "-- {}: {} rows, {} union terms, plan {:?} + eval {:?}{}",
        report.strategy,
        report.rows.len(),
        report.union_terms,
        report.planning_time,
        report.eval_time,
        report.cover.map(|c| format!(", cover {c}")).unwrap_or_default(),
    );
    if let Some(stats) = db.plan_cache_stats() {
        eprintln!(
            "-- plan cache: {} hit(s), {} miss(es), {} eviction(s)",
            stats.hits, stats.misses, stats.evictions
        );
    }
    Ok(())
}

fn run_explain_analyze(
    db: &mut RdfDatabase,
    sparql: &str,
    strategy: &Strategy,
) -> Result<(), Box<dyn std::error::Error>> {
    let q = db.parse_query(sparql)?;
    print!("{}", db.explain_analyze(&q, strategy)?);
    Ok(())
}

fn cmd_query(mut args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    if args.len() < 2 {
        usage();
    }
    let mut strategy = Strategy::gcov_default();
    let mut profile = EngineProfile::pg_like();
    let mut compare = false;
    let mut explain_analyze = false;
    let mut trace = false;
    let mut metrics_json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut query_log: Option<String> = None;
    let mut slow_ms: Option<u64> = None;
    let mut positional: Vec<String> = Vec::new();
    while !args.is_empty() {
        let a = args.remove(0);
        match a.as_str() {
            "--strategy" => {
                let v = args.first().cloned().unwrap_or_default();
                args.drain(..1.min(args.len()));
                strategy = Strategy::from_name(&v).unwrap_or_else(|| usage());
            }
            "--profile" => {
                let v = args.first().cloned().unwrap_or_default();
                args.drain(..1.min(args.len()));
                profile = parse_profile(&v).unwrap_or_else(|| usage());
            }
            "--compare" => compare = true,
            "--explain-analyze" => explain_analyze = true,
            "--trace" => trace = true,
            "--metrics-json" => {
                let v = args.first().cloned().unwrap_or_default();
                args.drain(..1.min(args.len()));
                if v.is_empty() {
                    usage();
                }
                metrics_json = Some(v);
            }
            "--trace-out" => {
                let v = args.first().cloned().unwrap_or_default();
                args.drain(..1.min(args.len()));
                if v.is_empty() {
                    usage();
                }
                trace_out = Some(v);
            }
            "--query-log" => {
                let v = args.first().cloned().unwrap_or_default();
                args.drain(..1.min(args.len()));
                if v.is_empty() {
                    usage();
                }
                query_log = Some(v);
            }
            "--slow-ms" => {
                let v = args.first().cloned().unwrap_or_default();
                args.drain(..1.min(args.len()));
                slow_ms = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            _ => positional.push(a),
        }
    }
    let [path, sparql] = positional.as_slice() else {
        usage();
    };
    let observing = trace || metrics_json.is_some() || trace_out.is_some();
    if observing {
        jucq_obs::set_enabled(true);
    }
    // CLI flags win over the environment; either installs the sink.
    let log_path = query_log
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("JUCQ_QUERY_LOG").map(PathBuf::from));
    let slow_threshold =
        slow_ms.map(Duration::from_millis).or_else(jucq_obs::record::slow_ms_from_env);
    if log_path.is_some() || slow_threshold.is_some() {
        jucq_obs::record::install(jucq_obs::QueryLogConfig {
            path: log_path,
            ring_capacity: 0,
            slow_threshold,
        })?;
    }
    let mut db = load(path, profile)?;
    db.enable_plan_cache(64);
    let outcome = if explain_analyze {
        run_explain_analyze(&mut db, sparql, &strategy)
    } else if compare {
        // Every strategy runs; any failure fails the command.
        let mut failed = 0;
        for s in [Strategy::Saturation, Strategy::Ucq, Strategy::Scq, Strategy::gcov_default()] {
            if let Err(e) = run_query(&mut db, sparql, &s, 0) {
                eprintln!("{e}");
                failed += 1;
            }
        }
        if failed == 0 {
            Ok(())
        } else {
            Err(format!("{failed} strategies failed").into())
        }
    } else {
        run_query(&mut db, sparql, &strategy, 1000)
    };
    if observing {
        jucq_obs::set_enabled(false);
        let session = jucq_obs::take_session();
        if trace {
            eprint!("{}", jucq_obs::export::to_text(&session));
        }
        if let Some(path) = &metrics_json {
            std::fs::write(path, jucq_obs::export::to_json(&session))?;
            eprintln!("wrote metrics to {path}");
        }
        if let Some(path) = &trace_out {
            std::fs::write(path, jucq_obs::to_chrome_trace(&session))?;
            eprintln!("wrote catapult trace to {path} (load in Perfetto or about://tracing)");
        }
    }
    jucq_obs::record::uninstall();
    outcome
}

fn cmd_replay(mut args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let mut profile = EngineProfile::pg_like();
    let mut report_path: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    while !args.is_empty() {
        let a = args.remove(0);
        match a.as_str() {
            "--profile" => {
                let v = args.first().cloned().unwrap_or_default();
                args.drain(..1.min(args.len()));
                profile = parse_profile(&v).unwrap_or_else(|| usage());
            }
            "--report" => {
                let v = args.first().cloned().unwrap_or_default();
                args.drain(..1.min(args.len()));
                if v.is_empty() {
                    usage();
                }
                report_path = Some(v);
            }
            _ => positional.push(a),
        }
    }
    let [path, log] = positional.as_slice() else {
        usage();
    };
    let text = std::fs::read_to_string(log)?;
    let (records, errors) = jucq_obs::record::parse_log(&text);
    for e in &errors {
        eprintln!("query-log: skipping {e}");
    }
    if records.is_empty() {
        return Err(format!("no replayable records in {log}").into());
    }
    let mut db = load(path, profile)?;
    db.enable_plan_cache(64);
    let report = jucq_core::telemetry::replay(&mut db, &records);
    eprintln!(
        "replayed {} record(s): {} row mismatch(es), {} outcome mismatch(es), {} replay error(s)",
        report.total, report.row_mismatches, report.outcome_mismatches, report.replay_errors,
    );
    let (rec, rep) = (&report.recorded_latency, &report.replayed_latency);
    eprintln!(
        "latency p50/p95/p99: recorded {:.3}/{:.3}/{:.3} ms, replayed {:.3}/{:.3}/{:.3} ms",
        rec.p50 as f64 / 1e6,
        rec.p95 as f64 / 1e6,
        rec.p99 as f64 / 1e6,
        rep.p50 as f64 / 1e6,
        rep.p95 as f64 / 1e6,
        rep.p99 as f64 / 1e6,
    );
    if let (Some(max), Some(mean)) = (report.max_q_error_drift, report.mean_q_error_drift) {
        eprintln!("Q-error drift: max {max:.2}, mean {mean:.2}");
    }
    match &report_path {
        Some(p) => {
            std::fs::write(p, report.to_json())?;
            eprintln!("wrote replay report to {p}");
        }
        None => println!("{}", report.to_json()),
    }
    if report.mismatches() > 0 {
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_advise(mut args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let mut budget_tuples: usize = 1_000_000;
    let mut positional: Vec<String> = Vec::new();
    while !args.is_empty() {
        let a = args.remove(0);
        match a.as_str() {
            "--budget-tuples" => {
                let v = args.first().cloned().unwrap_or_default();
                args.drain(..1.min(args.len()));
                budget_tuples = v.parse().unwrap_or_else(|_| usage());
            }
            _ => positional.push(a),
        }
    }
    let [log] = positional.as_slice() else {
        usage();
    };
    let text = std::fs::read_to_string(log)?;
    let (records, errors) = jucq_obs::record::parse_log(&text);
    for e in &errors {
        eprintln!("query-log: skipping {e}");
    }
    if records.is_empty() {
        return Err(format!("no records in {log}").into());
    }
    let report = jucq_core::advisor::advise(&records, budget_tuples);
    print!("{}", jucq_core::advisor::render(&report));
    Ok(())
}

/// Run the advisor over `log` and pin each advised query's fragments
/// into `serving`'s view catalog (one pin per distinct (query,
/// strategy); the catalog's tuple budget is the hard cap, so a pin that
/// would overflow it is simply refused at insert time).
fn auto_pin_views(
    serving: &jucq_core::ServingDb,
    log: &str,
    budget_tuples: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(log)?;
    let (records, errors) = jucq_obs::record::parse_log(&text);
    for e in &errors {
        eprintln!("query-log: skipping {e}");
    }
    let report = jucq_core::advisor::advise(&records, budget_tuples);
    eprint!("{}", jucq_core::advisor::render(&report));
    let mut seen: Vec<(String, String)> = Vec::new();
    let mut pinned = 0usize;
    for a in &report.advice {
        let key = (a.query.clone(), a.strategy.clone());
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let strategy = match a.strategy.as_str() {
            "Cover" => {
                let Some(cover) = &a.cover else { continue };
                let Ok(q) = serving.snapshot().parse_query(&a.query) else { continue };
                let fragments: Vec<Vec<usize>> =
                    cover.iter().map(|f| f.iter().map(|&i| i as usize).collect()).collect();
                match Cover::new(&q, fragments) {
                    Ok(c) => Strategy::FixedCover(c),
                    Err(_) => continue,
                }
            }
            // `SAT` never reaches here: the advisor filters it.
            name => match Strategy::from_name(name) {
                Some(s) => s,
                None => continue,
            },
        };
        match serving.pin_views(&a.query, &strategy) {
            Ok(n) => pinned += n,
            Err(e) => eprintln!("auto-views: skipping `{}`: {e}", a.query),
        }
    }
    if let Some(stats) = serving.view_stats() {
        eprintln!(
            "auto-views: {pinned} fragment(s) pinned, catalog {} entr(ies) / {} of {} tuples",
            stats.entries, stats.total_tuples, stats.budget_tuples
        );
    }
    Ok(())
}

fn cmd_explain(mut args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let mut strategy = Strategy::gcov_default();
    let mut profile = EngineProfile::pg_like();
    let mut analyze = false;
    let mut positional: Vec<String> = Vec::new();
    while !args.is_empty() {
        let a = args.remove(0);
        match a.as_str() {
            "--strategy" => {
                let v = args.first().cloned().unwrap_or_default();
                args.drain(..1.min(args.len()));
                strategy = Strategy::from_name(&v).unwrap_or_else(|| usage());
            }
            "--profile" => {
                let v = args.first().cloned().unwrap_or_default();
                args.drain(..1.min(args.len()));
                profile = parse_profile(&v).unwrap_or_else(|| usage());
            }
            "--analyze" => analyze = true,
            _ => positional.push(a),
        }
    }
    let [path, sparql] = positional.as_slice() else {
        usage();
    };
    let mut db = load(path, profile)?;
    let q = db.parse_query(sparql)?;
    let text =
        if analyze { db.explain_analyze(&q, &strategy)? } else { db.explain(&q, &strategy)? };
    print!("{text}");
    Ok(())
}

fn cmd_covers(args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let [path, sparql] = args.as_slice() else {
        usage();
    };
    let mut db = load(path, EngineProfile::pg_like())?;
    let q = db.parse_query(sparql)?;
    // Enumerate two-fragment covers plus the extremes, report sizes and
    // measured times (the Table 2 experience for any query).
    let mut covers: Vec<(String, Cover)> = Vec::new();
    if let Ok(c) = Cover::single_fragment(&q) {
        covers.push(("UCQ (single fragment)".into(), c));
    }
    if let Ok(c) = Cover::singletons(&q) {
        covers.push(("SCQ (singletons)".into(), c));
    }
    let n = q.len();
    for i in 0..n {
        let rest: Vec<usize> = (0..n).filter(|&j| j != i).collect();
        if rest.is_empty() {
            continue;
        }
        if let Ok(c) = Cover::new(&q, vec![vec![i], rest.clone()]) {
            covers.push((format!("{{t{}}} | rest", i + 1), c));
        }
    }
    for (label, cover) in covers {
        match db.answer(&q, &Strategy::FixedCover(cover)) {
            Ok(r) => println!(
                "{label:<24} {:>8} terms  {:>10.1} ms  {:>8} rows",
                r.union_terms,
                r.eval_time.as_secs_f64() * 1e3,
                r.rows.len()
            ),
            Err(e) => println!("{label:<24} failed: {e}"),
        }
    }
    let best = db.answer(&q, &Strategy::gcov_default())?;
    println!(
        "GCov chooses {} ({} terms, {:.1} ms)",
        best.cover.expect("cover-based"),
        best.union_terms,
        best.eval_time.as_secs_f64() * 1e3
    );
    Ok(())
}

fn cmd_stats(args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let [path] = args.as_slice() else { usage() };
    let mut db = load(path, EngineProfile::pg_like())?;
    db.prepare();
    let plain = db.plain_store();
    println!("data triples (plain store): {}", plain.stats().total());
    println!("distinct predicates:        {}", plain.stats().distinct_predicates());
    let sat = db.saturated_store();
    println!("saturated triples:          {}", sat.stats().total());
    let entailed = sat.tables().layers().last().map_or(0, |t| t.len());
    println!("  of which entailed layer:  {entailed}");
    let closure = db.closure();
    println!("classes:                    {}", closure.classes().len());
    println!("properties:                 {}", closure.properties().len());
    let c = db.cost_constants();
    println!("calibrated constants:       c_db={:.2e} c_t={:.2e} c_j={:.2e} c_m={:.2e} c_l={:.2e} c_k={:.2e} c_range={:.2e}",
        c.c_db, c.c_t, c.c_j, c.c_m, c.c_l, c.c_k, c.c_range);
    Ok(())
}

fn cmd_repl(mut args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let mut profile = EngineProfile::pg_like();
    let mut positional = Vec::new();
    while !args.is_empty() {
        let a = args.remove(0);
        if a == "--profile" {
            let v = args.first().cloned().unwrap_or_default();
            args.drain(..1.min(args.len()));
            profile = parse_profile(&v).unwrap_or_else(|| usage());
        } else {
            positional.push(a);
        }
    }
    let [path] = positional.as_slice() else { usage() };
    let mut db = load(path, profile)?;
    db.enable_plan_cache(64);
    if jucq_obs::record::install_from_env() {
        eprintln!("query log installed from JUCQ_QUERY_LOG/JUCQ_SLOW_MS");
    }
    let mut strategy = Strategy::gcov_default();
    eprintln!("jucq repl — enter a SPARQL query, or :strategy/:profile/:help/:quit");
    let stdin = std::io::stdin();
    loop {
        eprint!("jucq> ");
        std::io::stderr().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(cmd) = line.strip_prefix(':') {
            let mut parts = cmd.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("quit" | "q"), _) => break,
                (Some("strategy"), Some(v)) => match Strategy::from_name(v) {
                    Some(s) => strategy = s,
                    None => eprintln!("unknown strategy `{v}`"),
                },
                (Some("profile"), Some(v)) => match parse_profile(v) {
                    Some(p) => db.set_profile(p),
                    None => eprintln!("unknown profile `{v}`"),
                },
                (Some("help"), _) => {
                    eprintln!(":strategy sat|ucq|scq|ecov|gcov, :profile pg|db2|mysql, :quit")
                }
                _ => eprintln!("unknown command; try :help"),
            }
            continue;
        }
        if let Err(e) = run_query(&mut db, line, &strategy, 50) {
            eprintln!("{e}");
        }
    }
    Ok(())
}

fn cmd_serve(mut args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let mut port: u16 = 8677;
    let mut threads: Option<usize> = None;
    let mut queue_depth: usize = 64;
    let mut deadline_ms: Option<u64> = None;
    let mut strategy = Strategy::gcov_default();
    let mut profile = EngineProfile::pg_like();
    let mut plan_cache: usize = 256;
    let mut query_log: Option<String> = None;
    let mut slow_ms: Option<u64> = None;
    let mut view_budget_tuples: Option<usize> = None;
    let mut auto_views: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    while !args.is_empty() {
        let a = args.remove(0);
        let mut flag_value = || {
            let v = args.first().cloned().unwrap_or_default();
            args.drain(..1.min(args.len()));
            if v.is_empty() {
                usage();
            }
            v
        };
        match a.as_str() {
            "--port" => port = flag_value().parse().unwrap_or_else(|_| usage()),
            "--threads" => threads = Some(flag_value().parse().unwrap_or_else(|_| usage())),
            "--queue-depth" => queue_depth = flag_value().parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => {
                deadline_ms = Some(flag_value().parse().unwrap_or_else(|_| usage()));
            }
            "--strategy" => {
                strategy = Strategy::from_name(&flag_value()).unwrap_or_else(|| usage());
            }
            "--profile" => profile = parse_profile(&flag_value()).unwrap_or_else(|| usage()),
            "--plan-cache" => plan_cache = flag_value().parse().unwrap_or_else(|_| usage()),
            "--query-log" => query_log = Some(flag_value()),
            "--slow-ms" => slow_ms = Some(flag_value().parse().unwrap_or_else(|_| usage())),
            "--view-budget-tuples" => {
                view_budget_tuples = Some(flag_value().parse().unwrap_or_else(|_| usage()));
            }
            "--auto-views" => auto_views = Some(flag_value()),
            _ => positional.push(a),
        }
    }
    let [path] = positional.as_slice() else {
        usage();
    };

    jucq_obs::set_enabled(true);
    let log_path = query_log
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("JUCQ_QUERY_LOG").map(PathBuf::from));
    let slow_threshold =
        slow_ms.map(Duration::from_millis).or_else(jucq_obs::record::slow_ms_from_env);
    if log_path.is_some() || slow_threshold.is_some() {
        jucq_obs::record::install(jucq_obs::QueryLogConfig {
            path: log_path,
            ring_capacity: 0,
            slow_threshold,
        })?;
    }

    let mut db = load(path, profile)?;
    if plan_cache > 0 {
        db.enable_plan_cache(plan_cache);
    }
    // --auto-views implies a catalog; default its budget if unset.
    let budget = match (view_budget_tuples, &auto_views) {
        (Some(n), _) => Some(n),
        (None, Some(_)) => Some(1_000_000),
        (None, None) => None,
    };
    if let Some(n) = budget {
        db.enable_views(n);
        eprintln!("view catalog enabled: budget {n} tuples");
    }
    let serving = std::sync::Arc::new(jucq_core::ServingDb::new(db));
    if let (Some(log), Some(n)) = (&auto_views, budget) {
        auto_pin_views(&serving, log, n)?;
    }
    eprintln!("prepared and published epoch {}", serving.epoch());

    let mut config = jucq_server::ServeConfig {
        addr: std::net::SocketAddr::from(([127, 0, 0, 1], port)),
        queue_depth: queue_depth.max(1),
        deadline: deadline_ms.map(Duration::from_millis),
        strategy,
        ..jucq_server::ServeConfig::default()
    };
    if let Some(n) = threads {
        config.threads = n.max(1);
    }
    let server = jucq_server::Server::start(serving, config)?;
    // The listening line goes to stdout so scripts can scrape the port
    // (`--port 0` lets the OS pick one).
    println!("listening on http://{}", server.local_addr());
    println!("endpoints: POST /query  GET /metrics  GET /health");
    use std::io::Write as _;
    std::io::stdout().flush()?;
    loop {
        std::thread::park();
    }
}

fn cmd_fuzz(mut args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let mut seed: u64 = 1;
    let mut cases: usize = 500;
    let mut profile = String::from("all");
    let mut verbose = true;
    while !args.is_empty() {
        let a = args.remove(0);
        match a.as_str() {
            "--seed" => {
                let v = args.first().cloned().unwrap_or_default();
                args.drain(..1.min(args.len()));
                seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--cases" => {
                let v = args.first().cloned().unwrap_or_default();
                args.drain(..1.min(args.len()));
                cases = v.parse().unwrap_or_else(|_| usage());
            }
            "--profile" => {
                let v = args.first().cloned().unwrap_or_default();
                args.drain(..1.min(args.len()));
                profile = v;
            }
            "--quiet" => verbose = false,
            _ => usage(),
        }
    }
    let profiles = jucq_qa::profiles_for(&profile).unwrap_or_else(|| usage());
    eprintln!("jucq-qa: fuzzing {cases} cases from seed {seed} against profile(s) `{profile}`");
    let report = jucq_qa::run_fuzz(seed, cases, &profiles, verbose);
    eprintln!(
        "jucq-qa: {} cases, {} answers compared, {} covers enumerated, {} range_scans, {} failure(s)",
        report.cases,
        report.answers_checked,
        report.covers_enumerated,
        report.range_scans,
        report.failures.len()
    );
    if !report.ok() {
        for f in &report.failures {
            eprintln!("jucq-qa: failing seed {} — rerun with `jucq fuzz --seed {} --cases 1 --profile {profile}`", f.seed, f.seed);
        }
        std::process::exit(1);
    }
    Ok(())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "query" => cmd_query(args),
        "explain" => cmd_explain(args),
        "covers" => cmd_covers(args),
        "stats" => cmd_stats(args),
        "repl" => cmd_repl(args),
        "replay" => cmd_replay(args),
        "advise" => cmd_advise(args),
        "snapshot" => cmd_snapshot(args),
        "serve" => cmd_serve(args),
        "fuzz" => cmd_fuzz(args),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
