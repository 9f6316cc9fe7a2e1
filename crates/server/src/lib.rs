//! `jucq-server` — a zero-dependency HTTP/1.1 SPARQL endpoint over
//! snapshot-isolated reads.
//!
//! The serving stack, bottom to top:
//!
//! * [`jucq_core::ServingDb`] publishes immutable epoch snapshots;
//!   every request pins one [`jucq_core::Snapshot`] for its whole
//!   lifetime (parse, answer, decode) and so observes exactly one
//!   consistent database state;
//! * a fixed worker pool (`--threads`) drains a **bounded** admission
//!   queue; when the queue is full new connections are turned away
//!   with `429 Too Many Requests` + `Retry-After` right on the accept
//!   thread — load sheds at the door instead of queueing unboundedly;
//! * per-request execution limits (deadline, memory budget) ride on
//!   [`jucq_core::Snapshot::request_profile`]: they tighten execution
//!   without touching plan identity, so the shared plan cache stays
//!   warm across requests with different limits;
//! * every served query is answered through
//!   [`jucq_core::Snapshot::answer_with_limits`], which profiles it and
//!   submits its record to the jucq-obs query log only when a sink is
//!   installed; its metrics land in the obs registry, scraped via
//!   `GET /metrics`.
//!
//! Endpoints:
//!
//! | Method | Path       | Body / params                                    | Response |
//! |--------|------------|--------------------------------------------------|----------|
//! | POST   | `/query`   | SPARQL text; `?strategy=sat\|ucq\|scq\|ecov\|gcov`, `?limit=N`; headers `X-Jucq-Deadline-Ms`, `X-Jucq-Memory-Tuples` | JSON: epoch, strategy, rows; `X-Jucq-Epoch` header (on errors too) |
//! | GET    | `/metrics` | —                                                | jucq-obs/1 JSON (spans drained, counters cumulative, `serving.epoch` / `views.*` gauges refreshed at scrape) |
//! | GET    | `/health`  | —                                                | `ok` + current epoch |
//!
//! Status codes: `400` unparseable query, `404` unknown path, `405`
//! wrong method, `413` oversized body, `422` cover/engine refusal
//! (union too large, memory budget), `429` queue full, `504` deadline
//! exceeded, `500` a request handler panicked (counted in
//! `server.panics`; the worker survives).

use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jucq_core::rows::term_rows;
use jucq_core::store::EngineProfile;
use jucq_core::{AnswerError, ServingDb, Snapshot, Strategy};
use jucq_obs::export::{escape_json, JsonEscaped};

pub mod http;

use http::{read_request, respond, RecvError, Request};

/// Serving knobs. `Default` gives a loopback endpoint on an
/// OS-assigned port with one worker per core (min 2).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Port 0 lets the OS pick (see
    /// [`Server::local_addr`]).
    pub addr: SocketAddr,
    /// Worker threads draining the admission queue.
    pub threads: usize,
    /// Bounded admission-queue depth; beyond it connections get 429.
    pub queue_depth: usize,
    /// Default per-request deadline (individual requests may tighten
    /// it further via `X-Jucq-Deadline-Ms`; never loosen).
    pub deadline: Option<Duration>,
    /// Strategy when the request names none.
    pub strategy: Strategy,
    /// Request-body cap in bytes.
    pub max_body_bytes: usize,
    /// Socket read timeout (slowloris guard).
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).max(2);
        ServeConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            threads,
            queue_depth: 64,
            deadline: None,
            strategy: Strategy::gcov_default(),
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(10),
        }
    }
}

const MAX_HEAD_BYTES: usize = 16 << 10;

/// The bounded admission queue: accepted connections wait here for a
/// worker. `push` never blocks — a full queue is the backpressure
/// signal (429), not a place to park the accept thread.
struct ConnQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
}

struct QueueInner {
    conns: std::collections::VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(capacity: usize) -> Self {
        ConnQueue {
            inner: Mutex::new(QueueInner {
                conns: std::collections::VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue if there is room; `Err` hands the stream back for a 429.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut inner = self.lock();
        if inner.closed || inner.conns.len() >= self.capacity {
            return Err(stream);
        }
        inner.conns.push_back(stream);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until a connection or shutdown; `None` means drain and exit.
    fn pop(&self) -> Option<TcpStream> {
        let mut inner = self.lock();
        loop {
            if let Some(stream) = inner.conns.pop_front() {
                return Some(stream);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// A running endpoint. Dropping it (or calling [`Server::shutdown`])
/// stops the accept loop, drains the queue, and joins every worker.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept thread and the worker pool, and return.
    /// The endpoint is ready as soon as this returns.
    pub fn start(serving: Arc<ServingDb>, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(ConnQueue::new(config.queue_depth));

        let workers = (0..config.threads.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let serving = Arc::clone(&serving);
                let config = config.clone();
                std::thread::spawn(move || {
                    while let Some(stream) = queue.pop() {
                        serve_connection(&serving, &config, stream);
                    }
                })
            })
            .collect();

        let accept_handle = {
            let stop = Arc::clone(&stop);
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if let Err(mut rejected) = queue.push(stream) {
                        jucq_obs::metrics::counter_add("server.rejected", 1);
                        let _ = respond(
                            &mut rejected,
                            429,
                            "Too Many Requests",
                            "text/plain",
                            &[("Retry-After", "1")],
                            b"queue full\n",
                        );
                    }
                }
            })
        };

        Ok(Server { local_addr, stop, queue, accept_handle: Some(accept_handle), workers })
    }

    /// The bound address (resolves port 0 to the OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, drain in-flight requests, join every thread.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// [`handle_connection`], with a panic in it confined to the request:
/// the client gets a `500`, `server.panics` counts it, and the worker
/// goes back to the queue. (Shared state stays usable: every lock a
/// request takes recovers from poisoning.)
fn serve_connection(serving: &ServingDb, config: &ServeConfig, stream: TcpStream) {
    let client = stream.try_clone();
    let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle_connection(serving, config, stream);
    }));
    if handled.is_err() {
        jucq_obs::metrics::counter_add("server.panics", 1);
        if let Ok(mut client) = client {
            let _ = respond(&mut client, 500, "Internal Server Error", "text/plain", &[], b"");
        }
    }
}

fn handle_connection(serving: &ServingDb, config: &ServeConfig, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let request = match read_request(&mut stream, MAX_HEAD_BYTES, config.max_body_bytes) {
        Ok(request) => request,
        Err(RecvError::TooLarge) => {
            let _ = respond(&mut stream, 413, "Content Too Large", "text/plain", &[], b"");
            return;
        }
        Err(RecvError::Malformed) => {
            let _ = respond(&mut stream, 400, "Bad Request", "text/plain", &[], b"");
            return;
        }
        Err(RecvError::Io(_)) => return,
    };
    jucq_obs::metrics::counter_add("server.requests", 1);
    let started = Instant::now();
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/query") => handle_query(serving, config, &request, &mut stream),
        ("GET", "/metrics") => {
            // Point-in-time gauges are refreshed at scrape time, so the
            // exported value is current even if no query ran since the
            // last epoch change.
            jucq_obs::metrics::gauge_set("serving.epoch", serving.epoch() as f64);
            if let Some(stats) = serving.view_stats() {
                jucq_obs::metrics::gauge_set("views.entries", stats.entries as f64);
                jucq_obs::metrics::gauge_set("views.tuples", stats.total_tuples as f64);
            }
            let body = jucq_obs::export::to_json(&jucq_obs::take_session());
            let _ = respond(&mut stream, 200, "OK", "application/json", &[], body.as_bytes());
        }
        ("GET", "/health") => {
            let body = format!("ok epoch={}\n", serving.epoch());
            let _ = respond(&mut stream, 200, "OK", "text/plain", &[], body.as_bytes());
        }
        ("POST" | "GET", _) => {
            let _ = respond(&mut stream, 404, "Not Found", "text/plain", &[], b"");
        }
        _ => {
            let _ = respond(&mut stream, 405, "Method Not Allowed", "text/plain", &[], b"");
        }
    }
    jucq_obs::metrics::histogram_record("server.request_us", started.elapsed().as_micros() as u64);
}

fn handle_query(
    serving: &ServingDb,
    config: &ServeConfig,
    request: &Request,
    stream: &mut TcpStream,
) {
    // Pin one epoch for the request's whole lifetime. Every response
    // names it in `X-Jucq-Epoch`, success or failure: a client replaying
    // a mixed read/write workload can tell exactly which database state
    // answered each request.
    let snapshot: Arc<Snapshot> = serving.snapshot();
    let epoch = snapshot.epoch().to_string();
    let epoch_header = ("X-Jucq-Epoch", epoch.as_str());

    let strategy = match request.query_param("strategy") {
        Some(name) => match Strategy::from_name(name) {
            Some(s) => s,
            None => {
                jucq_obs::metrics::counter_add("server.errors", 1);
                let body = error_json(&format!("unknown strategy `{name}`"));
                let _ =
                    respond(stream, 400, "Bad Request", "application/json", &[epoch_header], &body);
                return;
            }
        },
        None => config.strategy.clone(),
    };

    let sparql = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => {
            jucq_obs::metrics::counter_add("server.errors", 1);
            let body = error_json("request body is not UTF-8");
            let _ = respond(stream, 400, "Bad Request", "application/json", &[epoch_header], &body);
            return;
        }
    };
    let q = match snapshot.parse_query(sparql) {
        Ok(q) => q,
        Err(e) => {
            jucq_obs::metrics::counter_add("server.errors", 1);
            let body = error_json(&e.to_string());
            let _ = respond(stream, 400, "Bad Request", "application/json", &[epoch_header], &body);
            return;
        }
    };

    // Per-request limits: a request may tighten the server deadline,
    // never loosen it.
    let deadline = match request.header("x-jucq-deadline-ms").and_then(|v| v.parse::<u64>().ok()) {
        Some(ms) => {
            let requested = Duration::from_millis(ms);
            Some(config.deadline.map_or(requested, |server| requested.min(server)))
        }
        None => config.deadline,
    };
    let memory = request.header("x-jucq-memory-tuples").and_then(|v| v.parse::<usize>().ok());
    let limits: Option<EngineProfile> = (deadline.is_some() || memory.is_some())
        .then(|| snapshot.request_profile(deadline, memory));

    match snapshot.answer_with_limits(&q, &strategy, limits.as_ref()) {
        Ok(report) => {
            let limit = request
                .query_param("limit")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(usize::MAX);
            let body = answer_json(&snapshot, &report, limit);
            let _ = respond(stream, 200, "OK", "application/json", &[epoch_header], &body);
        }
        Err(e) => {
            jucq_obs::metrics::counter_add("server.errors", 1);
            let (status, reason) = match &e {
                AnswerError::Engine(jucq_core::store::EngineError::Timeout { .. }) => {
                    (504, "Gateway Timeout")
                }
                _ => (422, "Unprocessable Content"),
            };
            let body = error_json(&e.to_string());
            let _ = respond(stream, status, reason, "application/json", &[epoch_header], &body);
        }
    }
}

/// Render an answer as JSON: the first `limit` rows, under the full
/// `row_count`. Row cells use the same rendering as the `jucq query`
/// CLI (the term's Turtle-ish form), so HTTP and CLI results diff
/// cleanly; they are written from the snapshot's dictionary through
/// the escaper, so only the rows that are returned are looked up.
fn answer_json(snapshot: &Snapshot, report: &jucq_core::AnswerReport, limit: usize) -> Vec<u8> {
    let rows = &report.rows;
    let mut out = String::with_capacity(256 + rows.len().min(limit) * 32);
    let _ = write!(
        out,
        "{{\"epoch\":{},\"strategy\":\"{}\",\"row_count\":{},\"union_terms\":{},\"planning_us\":{},\"eval_us\":{},\"rows\":[",
        snapshot.epoch(),
        escape_json(report.strategy),
        rows.len(),
        report.union_terms,
        report.planning_time.as_micros(),
        report.eval_time.as_micros(),
    );
    for (i, row) in term_rows(snapshot.dict(), rows).take(limit).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, term) in row.enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            let _ = write!(JsonEscaped(&mut out), "{term}");
            out.push('"');
        }
        out.push(']');
    }
    out.push_str("]}");
    out.into_bytes()
}

fn error_json(message: &str) -> Vec<u8> {
    format!("{{\"error\":\"{}\"}}", escape_json(message)).into_bytes()
}
