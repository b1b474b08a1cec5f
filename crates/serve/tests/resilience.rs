//! Resilience tests for the daemon: load shedding with `Retry-After`,
//! per-request deadlines, the compaction endpoint, and graceful
//! shutdown draining an in-flight upload (the in-process equivalent of
//! holding a slow POST open across SIGTERM).

use fmsa_serve::client::{self, RetryPolicy};
use fmsa_serve::{Server, ServerConfig};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fmsa-resilience-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn boot(cfg: ServerConfig) -> fmsa_serve::RunningServer {
    Server::bind(cfg).unwrap().spawn().unwrap()
}

fn wasm_corpus(functions: usize, seed: u64) -> Vec<u8> {
    let mut cfg = fmsa_workloads::WasmFixtureConfig::with_functions(functions);
    cfg.seed = seed;
    fmsa_workloads::wasm_fixture_bytes(&cfg)
}

#[test]
fn connection_shed_is_structured_json_with_retry_after() {
    let cfg = ServerConfig { max_connections: 0, ..ServerConfig::default() };
    let server = boot(cfg);
    let resp = client::get(server.addr(), "/healthz").unwrap();
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"), "headers: {:?}", resp.headers);
    let text = resp.text();
    assert!(text.contains("\"error\":\"too many connections\""), "body: {text}");
    assert!(text.contains("\"retry_after_secs\":1"), "body: {text}");
}

#[test]
fn merge_queue_shed_is_429_with_retry_after() {
    let cfg = ServerConfig { max_pending_merges: 0, ..ServerConfig::default() };
    let server = boot(cfg);
    // Merges are shed...
    let resp = client::post(server.addr(), "/v1/modules", b"module m\n").unwrap();
    assert_eq!(resp.status, 429, "body: {}", resp.text());
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(resp.text().contains("\"error\":\"merge queue full\""), "body: {}", resp.text());
    // ...but read-only traffic still flows.
    assert_eq!(client::get(server.addr(), "/healthz").unwrap().status, 200);
    let stats = client::get(server.addr(), "/v1/stats").unwrap().text();
    assert!(stats.contains("\"shed_requests\":1"), "stats: {stats}");
}

#[test]
fn request_deadline_returns_503_then_retry_hits_cache() {
    // A deadline far below merge time: the first upload must time out
    // (503 + Retry-After) while the merge finishes into the response
    // cache, so the retrying client eventually gets a 200 cache hit.
    let cfg = ServerConfig {
        request_timeout: Some(Duration::from_millis(5)),
        retry_after_secs: 1,
        ..ServerConfig::default()
    };
    let server = boot(cfg);
    let corpus = wasm_corpus(48, 9);

    let first = client::post(server.addr(), "/v1/modules", &corpus).unwrap();
    assert_eq!(first.status, 503, "body: {}", first.text());
    assert_eq!(first.header("retry-after"), Some("1"));
    assert!(first.text().contains("request deadline exceeded"), "body: {}", first.text());

    let policy = RetryPolicy { max_attempts: 60, seed: 42, ..RetryPolicy::default() };
    let retried =
        client::request_with_retry(server.addr(), "POST", "/v1/modules", &[], &corpus, &policy)
            .unwrap();
    assert_eq!(retried.status, 200, "body: {}", retried.text());
    assert_eq!(retried.header("x-fmsa-cache"), Some("hit"));

    let stats = client::get(server.addr(), "/v1/stats").unwrap().text();
    assert!(stats.contains("\"timed_out\":"), "stats: {stats}");
    assert!(!stats.contains("\"timed_out\":0"), "at least one deadline fired: {stats}");
}

#[test]
fn admin_compact_rewrites_the_log_and_reports_in_stats() {
    let dir = temp_dir("compact");
    let cfg = ServerConfig { store_dir: Some(dir.clone()), ..ServerConfig::default() };
    let server = boot(cfg);
    let corpus = wasm_corpus(12, 4);
    assert_eq!(client::post(server.addr(), "/v1/modules", &corpus).unwrap().status, 200);
    // Cache-hit replay appends durable seen-bump records: dead bytes.
    assert_eq!(client::post(server.addr(), "/v1/modules", &corpus).unwrap().status, 200);
    let stats = client::get(server.addr(), "/v1/stats").unwrap().text();
    assert!(!stats.contains("\"dead_bytes\":0,"), "bumps should be dead weight: {stats}");

    assert_eq!(client::get(server.addr(), "/v1/admin/compact").unwrap().status, 405);
    let resp = client::post(server.addr(), "/v1/admin/compact", b"").unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let text = resp.text();
    assert!(text.contains("\"entries\":"), "body: {text}");
    assert!(text.contains("\"bytes_after\":"), "body: {text}");

    let stats = client::get(server.addr(), "/v1/stats").unwrap().text();
    assert!(stats.contains("\"dead_bytes\":0,"), "compaction folds bumps: {stats}");
    assert!(stats.contains("\"compactions\":1"), "stats: {stats}");
    assert!(stats.contains("\"recovery\":{"), "stats: {stats}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_shutdown_drains_in_flight_upload_then_compacts() {
    let dir = temp_dir("drain");
    let cfg = ServerConfig {
        store_dir: Some(dir.clone()),
        shutdown_deadline: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let mut server = boot(cfg);
    let addr = server.addr();
    let corpus = wasm_corpus(12, 21);

    // Hold a slow upload open: headers + half the body, then stall.
    let mut stream = TcpStream::connect(addr).unwrap();
    let head =
        format!("POST /v1/modules HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n", corpus.len());
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(&corpus[..corpus.len() / 2]).unwrap();
    stream.flush().unwrap();
    // Let the daemon accept + start reading before we ask it to stop.
    std::thread::sleep(Duration::from_millis(200));

    // Graceful stop on another thread: it must block draining us.
    let stopper = std::thread::spawn(move || {
        server.stop();
        server
    });
    std::thread::sleep(Duration::from_millis(300));
    assert!(!stopper.is_finished(), "stop() must wait for the in-flight upload");

    // Finish the upload; the draining daemon still serves it fully.
    stream.write_all(&corpus[corpus.len() / 2..]).unwrap();
    stream.flush().unwrap();
    let resp = client::read_response(&mut BufReader::new(&stream)).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let merges: usize = resp.header("x-fmsa-merges").unwrap().parse().unwrap();
    assert!(merges > 0);
    drop(stopper.join().unwrap());

    // Shutdown flushed + compacted: the log reopens clean and complete.
    let store = fmsa::FunctionStore::open(&dir).unwrap();
    assert!(!store.is_empty(), "drained upload must be durable");
    assert_eq!(store.recovery().skipped_records, 0);
    assert_eq!(store.dead_bytes(), 0, "shutdown compaction leaves no dead bytes");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `f` on a helper thread and fails unless it returns within
/// `limit` — a stop that never wakes the accept loop hangs instead.
fn returns_within(limit: Duration, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    assert!(rx.recv_timeout(limit).is_ok(), "did not return within {limit:?}");
}

#[test]
fn idle_daemon_stops_and_dies_promptly() {
    let mut stopped = boot(ServerConfig::default());
    returns_within(Duration::from_secs(5), move || stopped.stop());
    let mut killed = boot(ServerConfig::default());
    returns_within(Duration::from_secs(5), move || killed.kill());
}

#[test]
fn daemon_bound_to_the_unspecified_address_stops() {
    let mut server = boot(ServerConfig { addr: "0.0.0.0:0".to_owned(), ..ServerConfig::default() });
    assert!(server.addr().ip().is_unspecified());
    let loopback = std::net::SocketAddr::from(([127, 0, 0, 1], server.addr().port()));
    assert_eq!(client::get(loopback, "/healthz").unwrap().status, 200);
    returns_within(Duration::from_secs(5), move || server.stop());
}
