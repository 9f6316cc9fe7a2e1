//! End-to-end tests over a real socket: the endpoint answers exactly
//! like the library, rejects what it must, and sheds load with 429
//! when the admission queue is full.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use jucq_core::model::{vocab, Term, Triple};
use jucq_core::store::EngineProfile;
use jucq_core::{RdfDatabase, ServingDb, Strategy};
use jucq_server::{ServeConfig, Server};

fn t(s: &str, p: &str, o: Term) -> Triple {
    Triple::new(Term::uri(s), Term::uri(p), o)
}

fn library_db() -> RdfDatabase {
    let mut db = RdfDatabase::new();
    let mut triples = vec![
        t("Novel", vocab::RDFS_SUBCLASS_OF, Term::uri("Book")),
        t("Book", vocab::RDFS_SUBCLASS_OF, Term::uri("Work")),
        t("Article", vocab::RDFS_SUBCLASS_OF, Term::uri("Work")),
    ];
    for (i, class) in ["Novel", "Book", "Article"].into_iter().enumerate() {
        triples.push(t(&format!("doc{i}"), vocab::RDF_TYPE, Term::uri(class)));
    }
    db.extend(&triples);
    db
}

/// One-shot HTTP exchange: returns (status, headers, body).
fn exchange_full(addr: std::net::SocketAddr, request: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("recv");
    let status: u16 = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {response:?}"));
    let (head, body) = response.split_once("\r\n\r\n").unwrap_or((response.as_str(), ""));
    (status, head.to_owned(), body.to_owned())
}

/// One-shot HTTP exchange: returns (status, body).
fn exchange(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
    let (status, _, body) = exchange_full(addr, request);
    (status, body)
}

fn post_query(addr: std::net::SocketAddr, target: &str, sparql: &str) -> (u16, String) {
    let request = format!(
        "POST {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{sparql}",
        sparql.len()
    );
    exchange(addr, &request)
}

/// Serializes the tests that switch the process-global obs collection
/// on and off around a `/metrics` scrape.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One `/metrics` scrape: requests seen, queries answered, handler panics.
fn scraped_counters(addr: std::net::SocketAddr) -> [u64; 3] {
    let (status, body) = exchange(addr, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
    assert_eq!(status, 200);
    let metrics = jucq_obs::json::parse(&body).expect("metrics are valid JSON");
    ["server.requests", "queries.answered", "server.panics"].map(|name| {
        metrics.get("counters").and_then(|c| c.get(name)).and_then(|v| v.as_u64()).unwrap_or(0)
    })
}

/// A constant the epoch has never seen parses to a sentinel id no
/// dictionary decodes. With a query-log sink installed, the request's
/// record is built from it all the same — one record per query: the
/// one worker answers (nothing matches), and is still there for the
/// next request.
#[test]
fn a_query_naming_an_unknown_iri_is_answered_and_costs_no_worker() {
    let _serial = obs_lock();
    let serving = Arc::new(ServingDb::new(library_db()));
    let config = ServeConfig { threads: 1, ..ServeConfig::default() };
    let server = Server::start(serving, config).expect("bind");
    let addr = server.local_addr();
    jucq_obs::set_enabled(true);
    jucq_obs::record::install(jucq_obs::QueryLogConfig::default()).expect("ring-only sink");
    let [requests, answered, panics] = scraped_counters(addr);

    let unknown =
        "SELECT ?x WHERE { ?x rdf:type <http://nowhere.example/Never> . ?x <never> \"seen\" }";
    for strategy in ["gcov", "ucq", "sat"] {
        let request = format!(
            "POST /query?strategy={strategy} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{unknown}",
            unknown.len()
        );
        let (status, head, body) = exchange_full(addr, &request);
        assert_eq!(status, 200, "{strategy}: {body}");
        assert!(head.contains("X-Jucq-Epoch: 0"), "{head:?}");
        let parsed = jucq_obs::json::parse(&body).expect("valid JSON");
        assert_eq!(parsed.get("row_count").and_then(|v| v.as_u64()), Some(0), "{strategy}");
    }

    // The same worker answers the next request.
    let (status, body) =
        post_query(addr, "/query?strategy=ucq", "SELECT ?x WHERE { ?x rdf:type <Work> . }");
    assert_eq!(status, 200, "{body}");
    let parsed = jucq_obs::json::parse(&body).expect("valid JSON");
    assert_eq!(parsed.get("row_count").and_then(|v| v.as_u64()), Some(3));

    // Four queries and this scrape, all accounted for, none of them by
    // the panic counter. (Other tests' servers share the process-wide
    // registry, hence at-least.)
    let after = scraped_counters(addr);
    assert!(after[0] >= requests + 5 && after[1] >= answered + 4, "{after:?}");
    assert_eq!(after[2], panics);

    // One record per query that named the unknown IRI (logged under its
    // sentinel name), each with its strategy. (Tests that do not take the lock may add records of
    // their own while the sink is installed, hence the filter.)
    let records = jucq_obs::record::drain_ring();
    jucq_obs::record::uninstall();
    let mut strategies: Vec<&str> = records
        .iter()
        .filter(|r| r.query.contains("urn:jucq:unknown:"))
        .map(|r| r.strategy.as_str())
        .collect();
    strategies.sort_unstable();
    assert_eq!(strategies, ["GCov", "SAT", "UCQ"], "{records:?}");
    jucq_obs::set_enabled(false);
}

#[test]
fn endpoint_matches_the_library_and_validates_requests() {
    let _serial = obs_lock();
    let serving = Arc::new(ServingDb::new(library_db()));
    let config = ServeConfig { threads: 2, ..ServeConfig::default() };
    let server = Server::start(Arc::clone(&serving), config).expect("bind");
    let addr = server.local_addr();

    let sparql = "SELECT ?x WHERE { ?x rdf:type <Work> . }";
    // The library's own answer, decoded the same way the server does.
    let snapshot = serving.snapshot();
    let q = snapshot.parse_query(sparql).unwrap();
    let mut expected: Vec<String> = Vec::new();
    let report = snapshot.answer(&q, &Strategy::Ucq).unwrap();
    for row in snapshot.decode_rows(&report.rows) {
        expected.push(format!("[\"{}\"]", row[0]));
    }
    expected.sort();
    assert_eq!(expected.len(), 3);

    let request = format!(
        "POST /query?strategy=ucq HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{sparql}",
        sparql.len()
    );
    let (status, head, body) = exchange_full(addr, &request);
    assert_eq!(status, 200, "{body}");
    assert!(
        head.contains("X-Jucq-Epoch: 0"),
        "every /query response names its pinned epoch: {head:?}"
    );
    let parsed = jucq_obs::json::parse(&body).expect("valid JSON");
    assert_eq!(parsed.get("epoch").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(parsed.get("strategy").and_then(|v| v.as_str()), Some("UCQ"));
    assert_eq!(parsed.get("row_count").and_then(|v| v.as_u64()), Some(3));
    let mut served: Vec<String> = parsed
        .get("rows")
        .and_then(|v| v.as_arr())
        .expect("rows array")
        .iter()
        .map(|row| {
            let cells: Vec<String> = row
                .as_arr()
                .expect("row array")
                .iter()
                .map(|c| format!("\"{}\"", c.as_str().expect("string cell")))
                .collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    served.sort();
    assert_eq!(served, expected, "HTTP rows match the library's");

    // Every listed strategy serves the same complete answer.
    for strategy in ["sat", "scq", "ecov", "gcov"] {
        let (status, body) = post_query(addr, &format!("/query?strategy={strategy}"), sparql);
        assert_eq!(status, 200, "{strategy}: {body}");
        let parsed = jucq_obs::json::parse(&body).unwrap();
        assert_eq!(
            parsed.get("row_count").and_then(|v| v.as_u64()),
            Some(3),
            "strategy {strategy}"
        );
    }

    // limit truncates rows but reports the full count.
    let (_, body) = post_query(addr, "/query?strategy=ucq&limit=1", sparql);
    let parsed = jucq_obs::json::parse(&body).unwrap();
    assert_eq!(parsed.get("row_count").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(parsed.get("rows").and_then(|v| v.as_arr()).map(<[_]>::len), Some(1));

    // Malformed SPARQL → 400 with a JSON error (epoch header still set:
    // the request did pin a snapshot).
    let bad = "SELECT WHERE {";
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{bad}",
        bad.len()
    );
    let (status, head, body) = exchange_full(addr, &request);
    assert_eq!(status, 400);
    assert!(head.contains("X-Jucq-Epoch: 0"), "{head:?}");
    assert!(jucq_obs::json::parse(&body).unwrap().get("error").is_some());

    // Unknown strategy → 400; unknown path → 404; bad method → 405.
    for unknown in ["bogus", "range"] {
        let (status, _) = post_query(addr, &format!("/query?strategy={unknown}"), sparql);
        assert_eq!(status, 400, "strategy {unknown}");
    }
    let (status, _) = post_query(addr, "/nope", sparql);
    assert_eq!(status, 404);
    let (status, _) =
        exchange(addr, "DELETE /query HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 405);

    // /health names the current epoch; /metrics is well-formed
    // jucq-obs JSON carrying the server counters.
    let (status, body) = exchange(addr, "GET /health HTTP/1.1\r\nHost: localhost\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.starts_with("ok epoch=0"), "{body}");
    jucq_obs::set_enabled(true);
    let (_, _) = post_query(addr, "/query?strategy=ucq", sparql);
    let (status, body) = exchange(addr, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
    assert_eq!(status, 200);
    let metrics = jucq_obs::json::parse(&body).expect("metrics are valid JSON");
    assert_eq!(metrics.get("schema").and_then(|v| v.as_str()), Some("jucq-obs/1"));
    let requests = metrics
        .get("counters")
        .and_then(|c| c.get("server.requests"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    assert!(requests >= 1, "server.requests counted while obs enabled");
    let epoch_gauge =
        metrics.get("gauges").and_then(|g| g.get("serving.epoch")).and_then(|v| v.as_f64());
    assert_eq!(epoch_gauge, Some(0.0), "scrape-time serving.epoch gauge");
    jucq_obs::set_enabled(false);

    // An update publishes a new epoch; subsequent requests see it in
    // the body, the header, and the scraped gauge.
    serving.apply_data_updates(&[t("doc9", vocab::RDF_TYPE, Term::uri("Novel"))], &[]);
    let request = format!(
        "POST /query?strategy=ucq HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{sparql}",
        sparql.len()
    );
    let (_, head, body) = exchange_full(addr, &request);
    assert!(head.contains("X-Jucq-Epoch: 1"), "{head:?}");
    let parsed = jucq_obs::json::parse(&body).unwrap();
    assert_eq!(parsed.get("epoch").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(parsed.get("row_count").and_then(|v| v.as_u64()), Some(4));
    jucq_obs::set_enabled(true);
    let (_, body) = exchange(addr, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
    let metrics = jucq_obs::json::parse(&body).unwrap();
    assert_eq!(
        metrics.get("gauges").and_then(|g| g.get("serving.epoch")).and_then(|v| v.as_f64()),
        Some(1.0)
    );
    jucq_obs::set_enabled(false);
}

#[test]
fn full_admission_queue_sheds_load_with_429() {
    let serving = Arc::new(ServingDb::new(library_db()));
    let config = ServeConfig {
        threads: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let server = Server::start(serving, config).expect("bind");
    let addr = server.local_addr();

    // Occupy the single worker with a connection that never sends its
    // request, then fill the depth-1 queue with a second one.
    let blocker = TcpStream::connect(addr).expect("connect blocker");
    std::thread::sleep(Duration::from_millis(150));
    let queued = TcpStream::connect(addr).expect("connect queued");
    std::thread::sleep(Duration::from_millis(150));

    // The next connection finds the queue full and is turned away at
    // the door, Retry-After attached.
    let mut rejected = TcpStream::connect(addr).expect("connect rejected");
    rejected.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut response = String::new();
    rejected.read_to_string(&mut response).expect("read 429");
    assert!(response.starts_with("HTTP/1.1 429 "), "{response:?}");
    assert!(response.contains("Retry-After: 1"), "{response:?}");

    // Releasing the blockers lets the server drain and shut down.
    drop(blocker);
    drop(queued);
}

#[test]
fn per_request_deadline_rides_the_profile() {
    let mut db = library_db();
    // A generous server-side default; the request tightens it to zero.
    db.set_profile(EngineProfile::pg_like().with_timeout(Duration::from_secs(30)));
    let serving = Arc::new(ServingDb::new(db));
    let server = Server::start(serving, ServeConfig::default()).expect("bind");
    let addr = server.local_addr();

    let sparql = "SELECT ?x WHERE { ?x rdf:type <Work> . }";
    let request = format!(
        "POST /query?strategy=ucq HTTP/1.1\r\nHost: localhost\r\nX-Jucq-Deadline-Ms: 0\r\nContent-Length: {}\r\n\r\n{sparql}",
        sparql.len()
    );
    let (status, body) = exchange(addr, &request);
    assert_eq!(status, 504, "a zero deadline must time out: {body}");
    let parsed = jucq_obs::json::parse(&body).unwrap();
    assert!(
        parsed.get("error").and_then(|v| v.as_str()).unwrap_or("").contains("timed out"),
        "{body}"
    );

    // Without the header the server default applies and the query runs.
    let (status, _) = post_query(addr, "/query?strategy=ucq", sparql);
    assert_eq!(status, 200);
}

#[test]
fn limit_returns_the_first_rows_of_the_full_answer() {
    // Titles that need the literal escaper, the JSON escaper, or both.
    let hostile = "say \"hi\"\t\\ naïve";
    let titles = [hostile, "plain", "tab\tonly", "ünï", "back\\slash", "q\"uote", "last"];
    let mut db = RdfDatabase::new();
    let triples: Vec<Triple> = titles
        .iter()
        .enumerate()
        .map(|(i, title)| t(&format!("doc{i}"), "title", Term::literal(title)))
        .collect();
    db.extend(&triples);
    let server = Server::start(Arc::new(ServingDb::new(db)), ServeConfig::default()).expect("bind");
    let addr = server.local_addr();

    let sparql = "SELECT ?x ?t WHERE { ?x <title> ?t . }";
    let rows_of = |target: &str| -> (u64, Vec<Vec<String>>, String) {
        let (status, body) = post_query(addr, target, sparql);
        assert_eq!(status, 200, "{body}");
        let parsed = jucq_obs::json::parse(&body).expect("valid JSON");
        let rows = parsed.get("rows").and_then(|v| v.as_arr()).expect("rows array");
        let rows = rows
            .iter()
            .map(|row| {
                let cells = row.as_arr().expect("row array").iter();
                cells.map(|c| c.as_str().expect("string cell").to_owned()).collect()
            })
            .collect();
        (parsed.get("row_count").and_then(|v| v.as_u64()).expect("row_count"), rows, body)
    };

    let (count, full, body) = rows_of("/query?strategy=ucq");
    assert_eq!(count, titles.len() as u64);
    // Every cell is the term's display form, whatever it took to quote.
    let mut served: Vec<&str> = full.iter().map(|row| row[1].as_str()).collect();
    let mut expected: Vec<String> = titles.iter().map(|t| Term::literal(t).to_string()).collect();
    served.sort_unstable();
    expected.sort_unstable();
    assert_eq!(served, expected);
    // …and the bytes on the wire are the ones the escapers always wrote.
    assert!(body.contains(r#""\"say \\\"hi\\\"\\t\\\\ naïve\"""#), "{body}");
    assert!(body.contains(r#"["<doc1>","\"plain\""]"#), "{body}");

    for limit in [0, 1, 3, titles.len(), titles.len() + 5] {
        let (count, rows, _) = rows_of(&format!("/query?strategy=ucq&limit={limit}"));
        assert_eq!(count, titles.len() as u64, "limit={limit} keeps the full count");
        assert_eq!(rows, full[..limit.min(full.len())], "limit={limit}");
    }
}
