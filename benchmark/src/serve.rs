//! The serving workload: `jucq_server::Server` over real loopback HTTP,
//! reads beside writes.
//!
//! One closed-loop client per core posts the selective queries (small
//! answers, so per-request cost dominates); the first client replaces
//! every [`UPDATE_EVERY`]-th request with a data update that alternately
//! inserts and deletes one batch, so the database alternates between two
//! states and a response's `X-Jucq-Epoch` parity says which oracle
//! checks it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use jucq_core::{ServingDb, Strategy};
use jucq_datagen::lubm;
use jucq_model::{vocab, Term, Triple};
use jucq_server::{ServeConfig, Server};

use crate::check::{render, Rng};
use crate::dataset::{self, Query, Source, PLAN_CACHE};
use crate::inproc::{self, PassStats, Workload};
use crate::report::Report;
use crate::stats::{low_decile, median};
use crate::trace::Tracer;
use crate::Options;

/// Queries whose base answer has more rows than this are left out.
const SELECTIVE_ROWS: usize = 5_000;
/// The first client's every n-th operation is an update.
const UPDATE_EVERY: u32 = 20;
/// New graduate students per update batch (three triples each).
const BATCH_STUDENTS: usize = 100;
/// The traced run's share of the window spent over HTTP; the rest goes
/// to the staged replay.
const HTTP_SHARE: f64 = 0.6;

/// An in-vocabulary batch: new graduate students of department 0,
/// named after the seed so no two seeds share a subject.
fn batch(seed: u64) -> Vec<Triple> {
    let dept = lubm::generator::department_uri(0, 0);
    let univ = lubm::generator::university_uri(0);
    let mut out = Vec::with_capacity(BATCH_STUDENTS * 3);
    for i in 0..BATCH_STUDENTS {
        let s = Term::uri(format!("{dept}/new-{seed:x}-{i}"));
        let triple = |p: String, o: String| Triple::new(s.clone(), Term::uri(p), Term::uri(o));
        out.push(triple(vocab::RDF_TYPE.to_owned(), lubm::Ontology::uri("GraduateStudent")));
        out.push(triple(lubm::Ontology::uri("memberOf"), dept.clone()));
        out.push(triple(lubm::Ontology::uri("doctoralDegreeFrom"), univ.clone()));
    }
    out
}

struct Reply {
    status: u16,
    epoch: Option<u64>,
    row_count: Option<usize>,
    bytes: usize,
}

/// One `POST /query` on a fresh connection (the server closes each
/// connection after one response).
fn post_query(addr: SocketAddr, sparql: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "POST /query HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n",
        sparql.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(sparql.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;

    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap_or(raw.len());
    let head = String::from_utf8_lossy(&raw[..split]);
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let epoch = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("x-jucq-epoch"))
        .and_then(|(_, v)| v.trim().parse().ok());
    let body = String::from_utf8_lossy(&raw[(split + 4).min(raw.len())..]);
    let row_count = body.split_once("\"row_count\":").and_then(|(_, rest)| {
        rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().ok()
    });
    Ok(Reply { status, epoch, row_count, bytes: raw.len() })
}

#[derive(Default)]
struct ClientLog {
    passes: Vec<PassStats>,
    queries: usize,
    update_ms: Vec<f64>,
    first_query_after_update_ms: Vec<f64>,
    /// HTTP round trip minus the same query answered in-process on the
    /// same epoch's snapshot (traced run only).
    server_overhead_ms: Vec<f64>,
    response_bytes: u64,
    rejected_429: u64,
    attempted: u64,
    failed: u64,
}

struct Client<'a> {
    id: u64,
    addr: SocketAddr,
    serving: &'a ServingDb,
    /// The selective queries with their expected answer per state:
    /// `[base, base + batch]`, indexed by epoch parity.
    queries: &'a [[&'a Query; 2]],
    batch: &'a [Triple],
    seed: u64,
    seconds: f64,
    traced: bool,
}

impl Client<'_> {
    fn run(&self) -> ClientLog {
        let mut log = ClientLog::default();
        let mut rng = Rng(self.seed ^ (self.id + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut order: Vec<usize> = (0..self.queries.len()).collect();
        let mut rendered = String::new();
        let (mut operations, mut updates, mut just_updated) = (0u32, 0u32, false);
        let window = Instant::now();
        loop {
            rng.shuffle(&mut order);
            let mut pass = 0.0;
            let mut query_ms = Vec::with_capacity(order.len());
            for &qi in &order {
                operations += 1;
                log.attempted += 1;
                if self.id == 0 && operations % UPDATE_EVERY == 0 {
                    let started = Instant::now();
                    let report = if updates % 2 == 0 {
                        self.serving.apply_data_updates(self.batch, &[])
                    } else {
                        self.serving.apply_data_updates(&[], self.batch)
                    };
                    let elapsed = started.elapsed().as_secs_f64() * 1e3;
                    if !report.incremental || report.inserted + report.deleted != self.batch.len() {
                        eprintln!("FAILED: update {updates} was not absorbed incrementally");
                        log.failed += 1;
                    }
                    updates += 1;
                    just_updated = true;
                    log.update_ms.push(elapsed);
                    pass += elapsed;
                    continue;
                }
                let sparql = &self.queries[qi][0].sparql;
                let started = Instant::now();
                let reply = post_query(self.addr, sparql);
                let elapsed = started.elapsed().as_secs_f64() * 1e3;
                pass += elapsed;
                match reply {
                    Ok(r) => {
                        log.response_bytes += r.bytes as u64;
                        log.rejected_429 += u64::from(r.status == 429);
                        let expected =
                            r.epoch.map(|e| self.queries[qi][(e % 2) as usize].expected.rows);
                        if r.status != 200 || r.row_count.is_none() || r.row_count != expected {
                            eprintln!(
                                "FAILED: {} status {} rows {:?} expected {expected:?}",
                                self.queries[qi][0].name, r.status, r.row_count
                            );
                            log.failed += 1;
                            continue;
                        }
                        query_ms.push(elapsed);
                        if std::mem::take(&mut just_updated) {
                            log.first_query_after_update_ms.push(elapsed);
                        }
                        if self.traced {
                            let snapshot = self.serving.snapshot();
                            if Some(snapshot.epoch()) == r.epoch {
                                rendered.clear();
                                let started = Instant::now();
                                let q =
                                    snapshot.parse_query(sparql).expect("workload queries parse");
                                let answer = snapshot.answer(&q, &Strategy::gcov_default());
                                if let Ok(a) = answer {
                                    render(&snapshot.decode_rows(&a.rows), &mut rendered);
                                    let inproc = started.elapsed().as_secs_f64() * 1e3;
                                    log.server_overhead_ms.push(elapsed - inproc);
                                }
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("FAILED: {}: {e}", self.queries[qi][0].name);
                        log.failed += 1;
                    }
                }
            }
            log.queries += query_ms.len();
            log.passes.push(PassStats::new(pass, order.len(), &query_ms));
            if window.elapsed().as_secs_f64() >= self.seconds {
                break;
            }
        }
        // Leave the database in its base state.
        if updates % 2 == 1 {
            self.serving.apply_data_updates(&[], self.batch);
        }
        log
    }
}

pub fn run(source: Source, opts: &Options, report: &mut Report, tracer: &mut Tracer) {
    let batch = batch(opts.seed);
    // The oracle of both states, from a database of its own.
    let (base, with_batch) = {
        let mut db = dataset::build(source, None);
        let base = dataset::oracle(&mut db, source);
        assert!(db.apply_data_updates(&batch, &[]).incremental, "the batch stays in vocabulary");
        (base, dataset::oracle(&mut db, source))
    };
    inproc::shapes_note(report, std::slice::from_ref(&base), &[source]);
    let selective: Vec<[&Query; 2]> = base
        .iter()
        .zip(&with_batch)
        .filter(|(b, _)| b.expected.rows <= SELECTIVE_ROWS)
        .map(|(b, w)| [b, w])
        .collect();
    let names: Vec<&str> = selective.iter().map(|q| q[0].name.as_str()).collect();
    eprintln!("selective subset ({} of {}): {}", names.len(), base.len(), names.join(" "));
    report.note("selective_subset", names.join(" "));

    let clients = std::thread::available_parallelism().map_or(2, |n| n.get());
    let ((serving, server), setup) = dataset::build_timed(!opts.quick && !opts.traced, || {
        let db = dataset::build(source, Some(PLAN_CACHE));
        let serving = Arc::new(ServingDb::new(db));
        let config = ServeConfig { threads: clients, ..ServeConfig::default() };
        let server = Server::start(Arc::clone(&serving), config).expect("loopback server starts");
        (serving, server)
    });
    let addr = server.local_addr();

    // Warm-up, untimed: every query once over HTTP fills the plan cache.
    let mut warm_failed = 0u64;
    for q in &selective {
        let ok = post_query(addr, &q[0].sparql)
            .is_ok_and(|r| r.status == 200 && r.row_count == Some(q[0].expected.rows));
        warm_failed += u64::from(!ok);
    }

    let cache_before = serving.snapshot().plan_cache_stats().unwrap_or_default();
    let http_seconds = if opts.traced { opts.seconds * HTTP_SHARE } else { opts.seconds };
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|id| {
                let client = Client {
                    id,
                    addr,
                    serving: &serving,
                    queries: &selective,
                    batch: &batch,
                    seed: opts.seed,
                    seconds: http_seconds,
                    traced: opts.traced,
                };
                scope.spawn(move || client.run())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let cache_after = serving.snapshot().plan_cache_stats().unwrap_or_default();

    let all = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let sum = |f: fn(&ClientLog) -> u64| -> u64 { logs.iter().map(f).sum() };
    report.attempted = sum(|l| l.attempted);
    report.failed = sum(|l| l.failed) + warm_failed;
    let queries: usize = logs.iter().map(|l| l.queries).sum();
    let update_ms = all(|l| &l.update_ms);

    let passes: Vec<PassStats> = logs.iter().flat_map(|l| l.passes.iter().copied()).collect();
    if !opts.traced {
        report.set("setup_s", low_decile(&setup), setup.len());
        inproc::report_passes(report, &passes, clients);
        report.note("update_ms", low_decile(&update_ms).to_string());
        return;
    }

    // The traced run's second part: the same queries replayed stage by
    // stage, against the snapshot path as the untraced reference. Plans
    // are dropped at the update cadence, as `apply_data_updates` does.
    let w = Workload {
        sources: vec![source],
        plan_cache: Some(PLAN_CACHE),
        legs: vec![(0, Strategy::gcov_default())],
        replan_every: Some(UPDATE_EVERY),
    };
    let (mut engines, staged_setup) = inproc::build_engines(&w);
    let subset = vec![base.into_iter().filter(|q| q.expected.rows <= SELECTIVE_ROWS).collect()];
    let mut request = |_: usize, sparql: &str, strategy: &Strategy, out: &mut String| {
        let snapshot = serving.snapshot();
        let q = snapshot.parse_query(sparql).expect("workload queries parse");
        let answer = snapshot.answer(&q, strategy)?;
        let rows = snapshot.decode_rows(&answer.rows);
        render(&rows, out);
        Ok(rows.len())
    };
    let replay_seconds = (opts.seconds - http_seconds) / 2.0;
    let mut tally = inproc::Tally::default();
    let reference =
        inproc::untraced_loop(&w, &mut request, &subset, opts.seed, replay_seconds, &mut tally);
    inproc::traced_loop(
        &w,
        &mut engines,
        &staged_setup,
        &subset,
        &reference,
        opts.seed,
        replay_seconds,
        tracer,
        report,
        &mut tally,
    );
    report.attempted += tally.attempted;
    report.failed += tally.failed;

    inproc::report_cache(report, cache_before, cache_after);
    inproc::report_request_latency(report, &passes);
    let overhead = all(|l| &l.server_overhead_ms);
    let first = all(|l| &l.first_query_after_update_ms);
    report.set(
        "server.response_bytes",
        sum(|l| l.response_bytes) as f64 / queries.max(1) as f64,
        queries,
    );
    report.set("server.rejected_429", sum(|l| l.rejected_429) as f64, queries);
    report.set("core.serving.update_ms", low_decile(&update_ms), update_ms.len());
    // Medians where the samples are different queries, not repeats of one.
    report.set("server.overhead_ms_p50", median(&overhead), overhead.len());
    report.set("core.serving.first_query_after_update_ms", median(&first), first.len());
}
