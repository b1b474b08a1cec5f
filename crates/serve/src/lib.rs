//! # fmsa-serve — the FMSA merge daemon
//!
//! A long-running merge service over the [`fmsa`] session API
//! ([`fmsa::MergeSession`]): a content-addressed function store with a
//! durable LSH index (persisted under `--store`, reloaded on restart)
//! behind a dependency-free std-TCP HTTP/JSON layer. Uploads are wasm
//! binaries or textual IR (`fmsa_opt`'s auto-detection, via
//! [`fmsa::load_module_bytes`]); responses stream the merged module back
//! with per-request statistics in `X-Fmsa-*` headers. Because requests
//! run through the same [`fmsa::optimize`] entry point as the batch CLI,
//! a daemon response is byte-identical to `fmsa_opt` output for the same
//! input and configuration.
//!
//! ## Endpoints
//!
//! | Method | Path                | Purpose                                    |
//! |--------|---------------------|--------------------------------------------|
//! | GET    | `/healthz`          | liveness probe (`ok`)                      |
//! | GET    | `/v1/stats`         | session totals + store/queue gauges (JSON) |
//! | POST   | `/v1/modules`       | merge an uploaded module (body = wasm/IR)  |
//! | POST   | `/v1/admin/compact` | compact the store log now                  |
//! | GET    | `/v1/store`         | store summary (JSON)                       |
//! | GET    | `/v1/store/:hash`   | canonical text of one stored function      |
//! | GET    | `/v1/similar/:hash` | cross-module similar functions (`?k=N`)    |
//! | GET    | `/metrics`          | Prometheus text exposition (flight recorder) |
//! | GET    | `/v1/merges/recent` | most recent merge decision records (`?n=K`)|
//!
//! ## Observability
//!
//! The daemon carries the [`fmsa::telemetry`] flight recorder: every
//! request is timed into per-route/status latency histograms, merges
//! into a merge-duration histogram, and the store/session/queue
//! counters are mirrored into gauges at scrape time — all rendered as
//! Prometheus text on `GET /metrics`. The per-attempt merge decision
//! log is queryable at `GET /v1/merges/recent?n=K`. An optional access
//! log ([`ServerConfig::log_level`], `FMSA_LOG` on the binary) writes
//! one line per request to stderr, as text or JSON lines
//! ([`ServerConfig::log_format`]). See `docs/observability.md`.
//!
//! ## Resilience
//!
//! The daemon is built to degrade loudly rather than fall over:
//!
//! * **Graceful shutdown** — [`RunningServer::stop`] (and SIGTERM/ctrl-c
//!   in the binary) stops accepting, drains in-flight connections up to
//!   [`ServerConfig::shutdown_deadline`], then flushes and compacts the
//!   store. [`RunningServer::kill`] skips all of that — the crash path
//!   the chaos harness exercises.
//! * **Backpressure** — connections beyond
//!   [`ServerConfig::max_connections`] get `503`, merges beyond
//!   [`ServerConfig::max_pending_merges`] get `429`; both carry a
//!   `Retry-After` header and a structured JSON body, and both are
//!   counted in `/v1/stats` under `queue`.
//! * **Deadlines** — [`ServerConfig::request_timeout`] bounds each merge;
//!   a timed-out request gets `503` + `Retry-After` while the merge
//!   finishes into the response cache in the background, so the client's
//!   retry is served from cache rather than recomputed.
//!
//! See `docs/service.md` for the protocol details, the store format, and
//! the replay workflow; `docs/robustness.md` for the durability story.

use fmsa::core::store::SimilarEntry;
use fmsa::telemetry::metrics::latency_buckets;
use fmsa::telemetry::{json_escape, trace, DecisionOutcome, Registry};
use fmsa::{Config, ContentHash, Error, MergeOutcome, MergeSession, StoreOptions};
use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

pub mod client;
pub mod http;
pub mod json;

use http::{Request, RequestError};
use json::Json;

/// Access-log verbosity on stderr. `Off` by default so the daemon
/// stays quiet under load tests; `Info` writes one line per request;
/// `Debug` adds connection accept/close events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// No access logging.
    Off,
    /// One line per request (method, path, status, duration, bytes, peer).
    Info,
    /// Request lines plus connection accept/close events.
    Debug,
}

impl LogLevel {
    /// Parses `off` / `info` / `debug` (the `FMSA_LOG` vocabulary).
    pub fn parse(s: &str) -> Result<LogLevel, String> {
        match s {
            "off" => Ok(LogLevel::Off),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            other => Err(format!("unknown log level {other:?} (expected off | info | debug)")),
        }
    }
}

/// Access-log line format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// Human-readable single line.
    Text,
    /// One JSON object per line (machine-ingestible).
    Json,
}

impl LogFormat {
    /// Parses `text` / `json` (the `FMSA_LOG_FORMAT` vocabulary).
    pub fn parse(s: &str) -> Result<LogFormat, String> {
        match s {
            "text" => Ok(LogFormat::Text),
            "json" => Ok(LogFormat::Json),
            other => Err(format!("unknown log format {other:?} (expected text | json)")),
        }
    }
}

/// How the daemon is set up — address, limits, store location, and the
/// merge [`Config`] every request runs under.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7070` (`:0` for an ephemeral
    /// port).
    pub addr: String,
    /// Store directory; `None` keeps the store in memory only (nothing
    /// survives a restart).
    pub store_dir: Option<PathBuf>,
    /// Store durability/compaction/fault options (only meaningful with a
    /// persistent `store_dir`).
    pub store: StoreOptions,
    /// Maximum accepted request body, in bytes.
    pub max_body: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Maximum concurrent connections; excess connections get a 503
    /// with `Retry-After`.
    pub max_connections: usize,
    /// Maximum merges in flight (including backgrounded timed-out
    /// ones); excess merge requests get a 429 with `Retry-After`.
    pub max_pending_merges: usize,
    /// Wall-clock budget for one merge request; a request past it gets
    /// a 503 while the merge completes into the response cache in the
    /// background. `None` = unbounded.
    pub request_timeout: Option<Duration>,
    /// How long a graceful shutdown waits for in-flight connections to
    /// drain before flushing and compacting the store anyway.
    pub shutdown_deadline: Duration,
    /// Value of the `Retry-After` header on 429/503 shed responses.
    pub retry_after_secs: u64,
    /// Access-log verbosity on stderr (default [`LogLevel::Off`]).
    pub log_level: LogLevel,
    /// Access-log format (default [`LogFormat::Text`]).
    pub log_format: LogFormat,
    /// The merge configuration applied to every upload.
    pub merge: Config,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            store_dir: None,
            store: StoreOptions::default(),
            max_body: 32 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            max_connections: 32,
            max_pending_merges: 8,
            request_timeout: None,
            shutdown_deadline: Duration::from_secs(5),
            retry_after_secs: 1,
            log_level: LogLevel::Off,
            log_format: LogFormat::Text,
            merge: Config::new(),
        }
    }
}

/// Load/shed counters surfaced under `queue` in `/v1/stats`.
#[derive(Debug, Default)]
struct Gauges {
    active: AtomicUsize,
    pending_merges: AtomicUsize,
    shed_connections: AtomicU64,
    shed_requests: AtomicU64,
    timed_out: AtomicU64,
}

/// Everything a connection handler needs, cheaply cloneable.
#[derive(Clone)]
struct Ctx {
    session: Arc<Mutex<MergeSession>>,
    cfg: Arc<ServerConfig>,
    gauges: Arc<Gauges>,
    metrics: Arc<Registry>,
    stop: Arc<AtomicBool>,
    started: Instant,
    started_unix: u64,
}

/// A bound (but not yet running) daemon.
pub struct Server {
    listener: TcpListener,
    session: Arc<Mutex<MergeSession>>,
    cfg: Arc<ServerConfig>,
    metrics: Arc<Registry>,
    stop: Arc<AtomicBool>,
    hard: Arc<AtomicBool>,
    started: Instant,
    started_unix: u64,
}

/// Handle to a daemon running on a background thread (see
/// [`Server::spawn`]); stopping joins the accept loop.
pub struct RunningServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    hard: Arc<AtomicBool>,
    join: Option<JoinHandle<std::io::Result<()>>>,
}

impl RunningServer {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, drain in-flight connections
    /// up to the configured deadline, flush and compact the store, then
    /// join the accept loop.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake_and_join();
    }

    /// Hard stop: no drain, no flush, no compaction — the closest an
    /// in-process harness gets to `kill -9`. What survives is whatever
    /// the store's write-ahead log already holds; the chaos experiment
    /// additionally truncates the log tail to simulate dying mid-write.
    pub fn kill(&mut self) {
        self.hard.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        self.wake_and_join();
    }

    /// Connects once to the listener so its blocking `accept` returns
    /// and the loop sees the stop flag, then joins it. An unspecified
    /// bind address (`0.0.0.0`, `::`) is reached over loopback.
    fn wake_and_join(&mut self) {
        let Some(join) = self.join.take() else { return };
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        let _ = join.join();
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Server {
    /// Binds the listener and opens (or creates) the session store.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let session = match &cfg.store_dir {
            Some(dir) => MergeSession::open_with(cfg.merge.clone(), dir, cfg.store.clone())
                .map_err(|e| std::io::Error::other(format!("opening store: {e}")))?,
            None => MergeSession::new(cfg.merge.clone()),
        };
        let started_unix = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Ok(Server {
            listener,
            session: Arc::new(Mutex::new(session)),
            cfg: Arc::new(cfg),
            metrics: Arc::new(Registry::new()),
            stop: Arc::new(AtomicBool::new(false)),
            hard: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            started_unix,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the current thread until stopped, then —
    /// unless hard-killed — drains in-flight connections and flushes +
    /// compacts the store.
    pub fn run(self) -> std::io::Result<()> {
        let ctx = Ctx {
            session: Arc::clone(&self.session),
            cfg: Arc::clone(&self.cfg),
            gauges: Arc::new(Gauges::default()),
            metrics: Arc::clone(&self.metrics),
            stop: Arc::clone(&self.stop),
            started: self.started,
            started_unix: self.started_unix,
        };
        loop {
            let accepted = self.listener.accept();
            // Checked after every accept: the connection that
            // `RunningServer::stop`/`kill` opens to wake this loop is
            // neither served nor shed.
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok((stream, peer)) = accepted else { continue };
            let t0 = Instant::now();
            if ctx.gauges.active.load(Ordering::SeqCst) >= self.cfg.max_connections {
                ctx.gauges.shed_connections.fetch_add(1, Ordering::SeqCst);
                let body = Json::obj([
                    ("error", Json::s("too many connections")),
                    ("limit", Json::i(self.cfg.max_connections as i128)),
                    ("retry_after_secs", Json::i(self.cfg.retry_after_secs as i128)),
                ])
                .0;
                let _ = http::write_response(
                    &stream,
                    503,
                    &retry_after(&self.cfg),
                    "application/json",
                    body.as_bytes(),
                );
                record_request(&ctx, peer, "-", "-", "shed", 503, body.len() as u64, t0.elapsed());
                continue;
            }
            ctx.gauges.active.fetch_add(1, Ordering::SeqCst);
            let ctx = ctx.clone();
            std::thread::spawn(move || {
                let _ = handle_connection(&stream, peer, &ctx);
                ctx.gauges.active.fetch_sub(1, Ordering::SeqCst);
            });
        }
        if self.hard.load(Ordering::SeqCst) {
            return Ok(()); // simulated crash: leave the log exactly as-is
        }
        // Drain: connection handlers see the stop flag and close after
        // their in-flight response, so active falls to zero unless a
        // client stalls past the deadline.
        let deadline = Instant::now() + self.cfg.shutdown_deadline;
        while ctx.gauges.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut session = lock_session(&self.session);
        let _ = session.flush();
        let _ = session.compact();
        Ok(())
    }

    /// Runs the accept loop on a background thread, returning a stop
    /// handle — how tests and the in-process load generator boot the
    /// daemon.
    pub fn spawn(self) -> std::io::Result<RunningServer> {
        let addr = self.local_addr()?;
        let stop = Arc::clone(&self.stop);
        let hard = Arc::clone(&self.hard);
        let join = std::thread::spawn(move || self.run());
        Ok(RunningServer { addr, stop, hard, join: Some(join) })
    }
}

fn lock_session(session: &Mutex<MergeSession>) -> std::sync::MutexGuard<'_, MergeSession> {
    // optimize() catches merge panics, so poisoning is unreachable in
    // practice; recover rather than wedge the daemon if it ever happens.
    session.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn retry_after(cfg: &ServerConfig) -> Vec<(&'static str, String)> {
    vec![("Retry-After", cfg.retry_after_secs.to_string())]
}

fn handle_connection(stream: &TcpStream, peer: SocketAddr, ctx: &Ctx) -> std::io::Result<()> {
    let _conn_span = trace::span("serve", "connection");
    debug_log(ctx, peer, "accept");
    let result = serve_requests(stream, peer, ctx);
    debug_log(ctx, peer, "close");
    result
}

/// Serves a connection's requests in order. One reader lives as long as
/// the connection, so bytes of a pipelined request that arrived with the
/// previous one stay buffered for the next read.
fn serve_requests(stream: &TcpStream, peer: SocketAddr, ctx: &Ctx) -> std::io::Result<()> {
    stream.set_read_timeout(Some(ctx.cfg.read_timeout))?;
    let mut reader = BufReader::new(stream);
    loop {
        let t0 = Instant::now();
        let request = match http::read_request(&mut reader, ctx.cfg.max_body) {
            Ok(r) => r,
            Err(RequestError::Closed) | Err(RequestError::Io(_)) => return Ok(()),
            Err(RequestError::Malformed(msg)) => {
                let body = Json::obj([("error", Json::s(&msg))]).0;
                let r = http::write_response(stream, 400, &[], "application/json", body.as_bytes());
                record_request(ctx, peer, "-", "-", "error", 400, body.len() as u64, t0.elapsed());
                return r;
            }
            Err(RequestError::TooLarge { declared, limit }) => {
                let body = Json::obj([
                    ("error", Json::s("request body too large")),
                    ("declared", Json::i(declared as i128)),
                    ("limit", Json::i(limit as i128)),
                ])
                .0;
                let r = http::write_response(stream, 413, &[], "application/json", body.as_bytes());
                record_request(ctx, peer, "-", "-", "error", 413, body.len() as u64, t0.elapsed());
                return r;
            }
        };
        let keep_alive = request.keep_alive();
        let route = route_label(request.path_query().0);
        let (status, bytes) = {
            let _req_span = trace::span_with("serve", "request", || {
                vec![("method", request.method.clone()), ("path", request.target.clone())]
            });
            respond(stream, &request, ctx)?
        };
        record_request(
            ctx,
            peer,
            &request.method,
            request.path_query().0,
            route,
            status,
            bytes,
            t0.elapsed(),
        );
        // A stopping daemon finishes the in-flight response, then closes
        // even a keep-alive connection so the drain can complete.
        if !keep_alive || ctx.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

/// Normalizes a request path onto a bounded route label so hostile
/// paths can't mint unbounded metric series.
fn route_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/v1/stats" => "/v1/stats",
        "/v1/modules" => "/v1/modules",
        "/v1/admin/compact" => "/v1/admin/compact",
        "/v1/store" => "/v1/store",
        "/v1/merges/recent" => "/v1/merges/recent",
        "/metrics" => "/metrics",
        p if p.starts_with("/v1/store/") => "/v1/store/:hash",
        p if p.starts_with("/v1/similar/") => "/v1/similar/:hash",
        _ => "other",
    }
}

/// Records one finished request: the route/status counter and latency
/// histogram, the per-route response-byte counter, and the access log.
#[allow(clippy::too_many_arguments)]
fn record_request(
    ctx: &Ctx,
    peer: SocketAddr,
    method: &str,
    path: &str,
    route: &'static str,
    status: u16,
    bytes: u64,
    dur: Duration,
) {
    let status_s = status.to_string();
    ctx.metrics
        .counter_with(
            "fmsa_http_requests_total",
            "HTTP requests served, by route and status.",
            &[("route", route), ("status", &status_s)],
        )
        .inc();
    ctx.metrics
        .histogram_with(
            "fmsa_http_request_duration_seconds",
            "HTTP request latency in seconds, by route and status.",
            &latency_buckets(),
            &[("route", route), ("status", &status_s)],
        )
        .observe(dur.as_secs_f64());
    ctx.metrics
        .counter_with(
            "fmsa_http_response_bytes_total",
            "HTTP response body bytes written, by route.",
            &[("route", route)],
        )
        .add(bytes);
    if ctx.cfg.log_level >= LogLevel::Info {
        let ms = dur.as_secs_f64() * 1e3;
        match ctx.cfg.log_format {
            LogFormat::Text => {
                eprintln!("fmsa_serve: {peer} \"{method} {path}\" {status} {ms:.3}ms {bytes}B");
            }
            LogFormat::Json => eprintln!(
                "{{\"ts\":{},\"peer\":\"{}\",\"method\":\"{}\",\"path\":\"{}\",\
                 \"status\":{},\"duration_ms\":{:.3},\"bytes\":{}}}",
                unix_now_secs(),
                json_escape(&peer.to_string()),
                json_escape(method),
                json_escape(path),
                status,
                ms,
                bytes
            ),
        }
    }
}

/// Connection lifecycle events, logged only at [`LogLevel::Debug`].
fn debug_log(ctx: &Ctx, peer: SocketAddr, event: &str) {
    if ctx.cfg.log_level < LogLevel::Debug {
        return;
    }
    match ctx.cfg.log_format {
        LogFormat::Text => eprintln!("fmsa_serve: {peer} connection {event}"),
        LogFormat::Json => eprintln!(
            "{{\"ts\":{},\"peer\":\"{}\",\"event\":\"connection-{}\"}}",
            unix_now_secs(),
            json_escape(&peer.to_string()),
            json_escape(event)
        ),
    }
}

fn unix_now_secs() -> u64 {
    SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}

/// `debug` or `release` — surfaced as build metadata in `/v1/stats`
/// and the `fmsa_build_info` metric.
fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Writes a fixed-length response and reports `(status, body bytes)`
/// so the caller can record metrics and the access log.
fn send(
    stream: &TcpStream,
    status: u16,
    headers: &[(&str, String)],
    content_type: &str,
    body: &[u8],
) -> std::io::Result<(u16, u64)> {
    http::write_response(stream, status, headers, content_type, body)?;
    Ok((status, body.len() as u64))
}

/// Routes one request, writes its response, and returns the status and
/// body size for the request record.
fn respond(stream: &TcpStream, request: &Request, ctx: &Ctx) -> std::io::Result<(u16, u64)> {
    let (path, query) = request.path_query();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => send(stream, 200, &[], "text/plain", b"ok\n"),
        ("GET", "/v1/stats") => {
            let body = stats_json(ctx);
            send(stream, 200, &[], "application/json", body.as_bytes())
        }
        ("GET", "/metrics") => {
            let body = render_metrics(ctx);
            send(stream, 200, &[], "text/plain; version=0.0.4; charset=utf-8", body.as_bytes())
        }
        ("GET", "/v1/merges/recent") => {
            let n = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("n="))
                .and_then(|v| v.parse().ok())
                .unwrap_or(50usize)
                .min(1000);
            let session = lock_session(&ctx.session);
            let log = session.decisions();
            let records: Vec<String> = log.recent(n).iter().map(|r| r.to_json()).collect();
            let body = format!(
                "{{\"total\":{},\"retained\":{},\"dropped\":{},\"records\":[{}]}}",
                log.total(),
                log.len(),
                log.dropped(),
                records.join(",")
            );
            send(stream, 200, &[], "application/json", body.as_bytes())
        }
        ("POST", "/v1/modules") => serve_merge(stream, request, ctx),
        ("POST", "/v1/admin/compact") => {
            let mut session = lock_session(&ctx.session);
            match session.compact() {
                Ok(c) => {
                    let body = Json::obj([
                        ("entries", Json::i(c.entries as i128)),
                        ("bytes_before", Json::i(c.bytes_before as i128)),
                        ("bytes_after", Json::i(c.bytes_after as i128)),
                    ])
                    .0;
                    send(stream, 200, &[], "application/json", body.as_bytes())
                }
                Err(e) => {
                    let body = Json::obj([
                        ("error", Json::s(&e.to_string())),
                        ("stage", Json::s(e.stage())),
                    ])
                    .0;
                    send(stream, 500, &[], "application/json", body.as_bytes())
                }
            }
        }
        ("GET", "/v1/store") => {
            let session = lock_session(&ctx.session);
            let store = session.store();
            let entries = store.entries().take(100).map(|e| {
                Json::obj([
                    ("hash", Json::s(&e.hash.to_string())),
                    ("name", Json::s(&e.name)),
                    ("seen", Json::i(e.seen as i128)),
                    ("bytes", Json::i(e.text.len() as i128)),
                ])
            });
            let body = Json::obj([
                ("functions", Json::i(store.len() as i128)),
                ("hits", Json::i(store.hits() as i128)),
                ("misses", Json::i(store.misses() as i128)),
                ("hit_rate", Json::f(store.hit_rate())),
                ("entries", Json::arr(entries)),
            ])
            .0;
            send(stream, 200, &[], "application/json", body.as_bytes())
        }
        ("GET", p) if p.starts_with("/v1/store/") => {
            let hash = p.trim_start_matches("/v1/store/");
            let Some(hash) = ContentHash::from_hex(hash) else {
                let body = Json::obj([("error", Json::s("bad hash"))]).0;
                return send(stream, 400, &[], "application/json", body.as_bytes());
            };
            let session = lock_session(&ctx.session);
            match session.store().get(hash) {
                Some(entry) => {
                    let headers = vec![
                        ("X-Fmsa-Name", entry.name.clone()),
                        ("X-Fmsa-Seen", entry.seen.to_string()),
                    ];
                    send(stream, 200, &headers, "text/plain; charset=utf-8", entry.text.as_bytes())
                }
                None => {
                    let body = Json::obj([("error", Json::s("unknown hash"))]).0;
                    send(stream, 404, &[], "application/json", body.as_bytes())
                }
            }
        }
        ("GET", p) if p.starts_with("/v1/similar/") => {
            let hash = p.trim_start_matches("/v1/similar/");
            let Some(hash) = ContentHash::from_hex(hash) else {
                let body = Json::obj([("error", Json::s("bad hash"))]).0;
                return send(stream, 400, &[], "application/json", body.as_bytes());
            };
            let k = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("k="))
                .and_then(|v| v.parse().ok())
                .unwrap_or(5usize)
                .min(100);
            let session = lock_session(&ctx.session);
            let similar: Vec<SimilarEntry> = session.store().similar(hash, k);
            let body = Json::arr(similar.iter().map(|s| {
                Json::obj([
                    ("hash", Json::s(&s.hash.to_string())),
                    ("name", Json::s(&s.name)),
                    ("score", Json::f(s.score)),
                ])
            }))
            .0;
            send(stream, 200, &[], "application/json", body.as_bytes())
        }
        (
            _,
            "/healthz" | "/v1/stats" | "/v1/modules" | "/v1/store" | "/v1/admin/compact"
            | "/metrics" | "/v1/merges/recent",
        ) => {
            let body = Json::obj([("error", Json::s("method not allowed"))]).0;
            send(stream, 405, &[], "application/json", body.as_bytes())
        }
        _ => {
            let body = Json::obj([("error", Json::s("not found"))]).0;
            send(stream, 404, &[], "application/json", body.as_bytes())
        }
    }
}

/// `POST /v1/modules`: merge-queue admission, the optional request
/// deadline, and the success/error responses.
fn serve_merge(stream: &TcpStream, request: &Request, ctx: &Ctx) -> std::io::Result<(u16, u64)> {
    // Admission control first: shedding is the one thing the daemon must
    // still do quickly when it is saturated.
    let pending = ctx.gauges.pending_merges.fetch_add(1, Ordering::SeqCst);
    if pending >= ctx.cfg.max_pending_merges {
        ctx.gauges.pending_merges.fetch_sub(1, Ordering::SeqCst);
        ctx.gauges.shed_requests.fetch_add(1, Ordering::SeqCst);
        let body = Json::obj([
            ("error", Json::s("merge queue full")),
            ("pending", Json::i(pending as i128)),
            ("limit", Json::i(ctx.cfg.max_pending_merges as i128)),
            ("retry_after_secs", Json::i(ctx.cfg.retry_after_secs as i128)),
        ])
        .0;
        return send(stream, 429, &retry_after(&ctx.cfg), "application/json", body.as_bytes());
    }
    let name = request.header("x-fmsa-name").unwrap_or("upload").to_owned();
    let outcome = match ctx.cfg.request_timeout {
        None => {
            let out = merge_upload(ctx, &request.body, &name);
            ctx.gauges.pending_merges.fetch_sub(1, Ordering::SeqCst);
            out
        }
        Some(limit) => {
            // Run the merge on a worker so this handler can give up at
            // the deadline. The worker owns the gauge decrement: a
            // timed-out merge is still pending work until it finishes
            // (into the response cache, making the client's retry a
            // cache hit).
            let (tx, rx) = mpsc::channel();
            let worker_ctx = ctx.clone();
            let body = request.body.clone();
            std::thread::spawn(move || {
                let out = merge_upload(&worker_ctx, &body, &name);
                worker_ctx.gauges.pending_merges.fetch_sub(1, Ordering::SeqCst);
                let _ = tx.send(out);
            });
            match rx.recv_timeout(limit) {
                Ok(out) => out,
                Err(_) => {
                    ctx.gauges.timed_out.fetch_add(1, Ordering::SeqCst);
                    let body = Json::obj([
                        ("error", Json::s("request deadline exceeded")),
                        ("timeout_ms", Json::i(limit.as_millis() as i128)),
                        ("retry_after_secs", Json::i(ctx.cfg.retry_after_secs as i128)),
                    ])
                    .0;
                    return send(
                        stream,
                        503,
                        &retry_after(&ctx.cfg),
                        "application/json",
                        body.as_bytes(),
                    );
                }
            }
        }
    };
    match outcome {
        Ok(out) => {
            let headers = stats_headers(&out);
            http::write_chunked_response(
                stream,
                200,
                &headers,
                "text/plain; charset=utf-8",
                out.output.as_bytes(),
            )?;
            Ok((200, out.output.len() as u64))
        }
        Err(e) => {
            let status = error_status(&e);
            let mut pairs = vec![("error", Json::s(&e.to_string())), ("stage", Json::s(e.stage()))];
            if let Some(f) = e.function() {
                pairs.push(("function", Json::s(f)));
            }
            let body = Json::obj(pairs).0;
            send(stream, status, &[], "application/json", body.as_bytes())
        }
    }
}

/// The `/v1/stats` document: session totals, store counters (including
/// durability/recovery state), and the load-shedding gauges.
fn stats_json(ctx: &Ctx) -> String {
    let session = lock_session(&ctx.session);
    let totals = *session.totals();
    let store = session.store();
    let recovery = *store.recovery();
    Json::obj([
        ("version", Json::s(env!("CARGO_PKG_VERSION"))),
        ("profile", Json::s(build_profile())),
        ("started_at", Json::i(ctx.started_unix as i128)),
        ("uptime_ms", Json::i(ctx.started.elapsed().as_millis() as i128)),
        ("requests", Json::i(totals.requests as i128)),
        ("merges", Json::i(totals.merges as i128)),
        ("functions", Json::i(totals.functions as i128)),
        ("cache_hits", Json::i(totals.cache_hits as i128)),
        ("wall_ms", Json::i(totals.wall.as_millis() as i128)),
        (
            "store",
            Json::obj([
                ("functions", Json::i(store.len() as i128)),
                ("hits", Json::i(store.hits() as i128)),
                ("misses", Json::i(store.misses() as i128)),
                ("hit_rate", Json::f(store.hit_rate())),
                ("persistent", Json::b(store.dir().is_some())),
                ("format_version", Json::i(fmsa::core::store::FORMAT_VERSION as i128)),
                ("fsync", Json::s(&store.fsync_policy().to_string())),
                ("total_bytes", Json::i(store.total_bytes() as i128)),
                ("dead_bytes", Json::i(store.dead_bytes() as i128)),
                ("dead_ratio", Json::f(store.dead_ratio())),
                ("compactions", Json::i(store.compactions() as i128)),
                ("compact_failures", Json::i(store.compact_failures() as i128)),
                (
                    "recovery",
                    Json::obj([
                        ("entries", Json::i(recovery.entries as i128)),
                        ("seen_records", Json::i(recovery.seen_records as i128)),
                        ("skipped_records", Json::i(recovery.skipped_records as i128)),
                        ("bytes_dropped", Json::i(recovery.bytes_dropped as i128)),
                    ]),
                ),
            ]),
        ),
        (
            "queue",
            Json::obj([
                ("active_connections", Json::i(ctx.gauges.active.load(Ordering::SeqCst) as i128)),
                (
                    "pending_merges",
                    Json::i(ctx.gauges.pending_merges.load(Ordering::SeqCst) as i128),
                ),
                (
                    "shed_connections",
                    Json::i(ctx.gauges.shed_connections.load(Ordering::SeqCst) as i128),
                ),
                ("shed_requests", Json::i(ctx.gauges.shed_requests.load(Ordering::SeqCst) as i128)),
                ("timed_out", Json::i(ctx.gauges.timed_out.load(Ordering::SeqCst) as i128)),
            ]),
        ),
    ])
    .0
}

/// The full merge path for one upload: response-cache probe on the raw
/// bytes, format auto-detection, session merge. Actual merges (cache
/// misses) are timed into the `fmsa_merge_duration_seconds` histogram.
fn merge_upload(ctx: &Ctx, body: &[u8], name: &str) -> Result<MergeOutcome, Error> {
    if body.is_empty() {
        return Err(Error::config("empty request body (expected wasm or textual IR)"));
    }
    let cache_result = |r: &'static str| {
        ctx.metrics
            .counter_with(
                "fmsa_merge_cache_total",
                "Response-cache probes on merge uploads, by result.",
                &[("result", r)],
            )
            .inc();
    };
    let key = ContentHash::of_bytes(body);
    let mut session = lock_session(&ctx.session);
    if let Some(out) = session.merge_cached(key) {
        cache_result("hit");
        return Ok(out);
    }
    cache_result("miss");
    let module = fmsa::load_module_bytes(body, name)?;
    let t0 = Instant::now();
    let out = session.merge_module(module, Some(key));
    ctx.metrics
        .histogram(
            "fmsa_merge_duration_seconds",
            "Wall-clock duration of one merge request (cache misses only).",
            &latency_buckets(),
        )
        .observe(t0.elapsed().as_secs_f64());
    out
}

/// `GET /metrics`: mirrors the store/session/queue/decision counters
/// into gauges at scrape time (request-path metrics are recorded live),
/// then renders the registry as Prometheus text exposition.
fn render_metrics(ctx: &Ctx) -> String {
    let m = &ctx.metrics;
    let g = |name: &str, help: &str, v: f64| m.gauge(name, help).set(v);
    {
        let session = lock_session(&ctx.session);
        let totals = *session.totals();
        let store = session.store();
        g("fmsa_store_functions", "Functions in the content-addressed store.", store.len() as f64);
        g(
            "fmsa_store_total_bytes",
            "Bytes in the store log, live and dead.",
            store.total_bytes() as f64,
        );
        g("fmsa_store_dead_bytes", "Dead bytes awaiting compaction.", store.dead_bytes() as f64);
        g("fmsa_store_dead_ratio", "Dead-byte fraction of the store log.", store.dead_ratio());
        g("fmsa_store_hits", "Store lookups that hit.", store.hits() as f64);
        g("fmsa_store_misses", "Store lookups that missed.", store.misses() as f64);
        g("fmsa_store_compactions", "Completed store compactions.", store.compactions() as f64);
        g(
            "fmsa_session_requests",
            "Merge requests the session has processed.",
            totals.requests as f64,
        );
        g("fmsa_session_merges", "Function merges committed by the session.", totals.merges as f64);
        g(
            "fmsa_session_functions",
            "Functions processed across the session.",
            totals.functions as f64,
        );
        g(
            "fmsa_session_cache_hits",
            "Response-cache hits across the session.",
            totals.cache_hits as f64,
        );
        g(
            "fmsa_session_wall_seconds",
            "Wall-clock seconds the session has spent merging.",
            totals.wall.as_secs_f64(),
        );
        totals.pipeline.record_into(m);
        let log = session.decisions();
        for outcome in DecisionOutcome::ALL {
            m.gauge_with(
                "fmsa_merge_decisions",
                "Merge attempts by outcome (see docs/observability.md).",
                &[("outcome", outcome.as_str())],
            )
            .set(log.count(outcome) as f64);
        }
        let store_format = fmsa::core::store::FORMAT_VERSION.to_string();
        m.gauge_with(
            "fmsa_build_info",
            "Build metadata carried in labels; value is always 1.",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("profile", build_profile()),
                ("store_format", &store_format),
            ],
        )
        .set(1.0);
    }
    g(
        "fmsa_queue_active_connections",
        "Open client connections.",
        ctx.gauges.active.load(Ordering::SeqCst) as f64,
    );
    g(
        "fmsa_queue_pending_merges",
        "Merges in flight (including backgrounded timed-out ones).",
        ctx.gauges.pending_merges.load(Ordering::SeqCst) as f64,
    );
    g(
        "fmsa_queue_shed_connections",
        "Connections shed with 503 at the connection limit.",
        ctx.gauges.shed_connections.load(Ordering::SeqCst) as f64,
    );
    g(
        "fmsa_queue_shed_requests",
        "Merge requests shed with 429 at the queue limit.",
        ctx.gauges.shed_requests.load(Ordering::SeqCst) as f64,
    );
    g(
        "fmsa_queue_timed_out",
        "Merge requests that hit the request deadline.",
        ctx.gauges.timed_out.load(Ordering::SeqCst) as f64,
    );
    g("fmsa_started_at_seconds", "Unix time the daemon started.", ctx.started_unix as f64);
    g(
        "fmsa_uptime_seconds",
        "Seconds since the daemon started.",
        ctx.started.elapsed().as_secs_f64(),
    );
    m.snapshot().render_prometheus()
}

fn stats_headers(out: &MergeOutcome) -> Vec<(&'static str, String)> {
    let s = &out.stats;
    vec![
        ("X-Fmsa-Functions", s.functions.to_string()),
        ("X-Fmsa-Merges", s.merges.to_string()),
        ("X-Fmsa-Size-Before", s.size_before.to_string()),
        ("X-Fmsa-Size-After", s.size_after.to_string()),
        ("X-Fmsa-Reduction-Percent", format!("{:.4}", s.reduction_percent)),
        ("X-Fmsa-Store-Hits", s.store_hits.to_string()),
        ("X-Fmsa-Store-Misses", s.store_misses.to_string()),
        ("X-Fmsa-Store-Size", s.store_size.to_string()),
        ("X-Fmsa-Quarantined", s.quarantined.to_string()),
        ("X-Fmsa-Wall-Micros", s.wall.as_micros().to_string()),
        ("X-Fmsa-Cache", if s.from_cache { "hit" } else { "miss" }.to_string()),
    ]
}

/// Maps a library [`Error`] onto an HTTP status: caller faults are 4xx
/// (bad uploads stay the client's problem), internal failures are 5xx.
fn error_status(e: &Error) -> u16 {
    match e.stage() {
        "parse" | "decode" | "config" => 400,
        "verify-input" => 422,
        _ => 500,
    }
}
