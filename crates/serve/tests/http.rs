//! End-to-end tests for the merge daemon: protocol round-trips, parity
//! with batch optimization, store/cache behavior across uploads and
//! restarts, and hardening against malformed/truncated/oversized
//! requests (the protocol-level counterpart of
//! `crates/wasm/tests/hardening.rs`).

use fmsa_serve::{client, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fmsa-serve-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
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

/// What batch `fmsa_opt` would print for the same bytes and config.
fn batch_reference(bytes: &[u8], name: &str) -> String {
    let mut module = fmsa::load_module_bytes(bytes, name).unwrap();
    fmsa::optimize(&mut module, &fmsa::Config::new()).unwrap();
    fmsa::ir::printer::print_module(&module)
}

#[test]
fn upload_matches_batch_fmsa_opt_byte_for_byte() {
    let server = boot(ServerConfig::default());
    let corpus = wasm_corpus(24, 7);
    let reference = batch_reference(&corpus, "corpus");

    let resp = client::request(
        server.addr(),
        "POST",
        "/v1/modules",
        &[("X-Fmsa-Name", "corpus")],
        &corpus,
    )
    .unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    assert_eq!(resp.text(), reference, "daemon output diverges from batch fmsa_opt");
    assert_eq!(resp.header("x-fmsa-cache"), Some("miss"));
    let merges: usize = resp.header("x-fmsa-merges").unwrap().parse().unwrap();
    assert!(merges > 0, "fixture corpus should produce merges");
}

#[test]
fn textual_ir_round_trips() {
    let server = boot(ServerConfig::default());
    let text = "module demo\n\ndefine i32 @id(i32 %x) {\nentry:\n  ret i32 %x\n}\n";
    let resp = client::post(server.addr(), "/v1/modules", text.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    assert!(resp.text().contains("@id"), "merged output should keep the function");
    assert_eq!(resp.header("x-fmsa-functions"), Some("1"));
}

#[test]
fn second_upload_is_cache_hit_with_full_store_hits() {
    let server = boot(ServerConfig::default());
    let corpus = wasm_corpus(16, 3);

    let first = client::post(server.addr(), "/v1/modules", &corpus).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-fmsa-cache"), Some("miss"));

    let second = client::post(server.addr(), "/v1/modules", &corpus).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-fmsa-cache"), Some("hit"));
    assert_eq!(
        second.body, first.body,
        "re-uploading identical bytes must return byte-identical output"
    );
    let functions: u64 = second.header("x-fmsa-functions").unwrap().parse().unwrap();
    let hits: u64 = second.header("x-fmsa-store-hits").unwrap().parse().unwrap();
    assert_eq!(hits, functions, "a replayed corpus is all store hits");

    let stats = client::get(server.addr(), "/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    let text = stats.text();
    assert!(text.contains("\"cache_hits\":1"), "stats: {text}");
    assert!(!text.contains("\"hit_rate\":0.000000"), "hit rate must be nonzero: {text}");
}

#[test]
fn store_survives_restart() {
    let dir = temp_dir("restart");
    let corpus = wasm_corpus(12, 11);

    let cfg = ServerConfig { store_dir: Some(dir.clone()), ..ServerConfig::default() };
    let mut server = boot(cfg.clone());
    let first = client::post(server.addr(), "/v1/modules", &corpus).unwrap();
    assert_eq!(first.status, 200);
    let misses: u64 = first.header("x-fmsa-store-misses").unwrap().parse().unwrap();
    assert!(misses > 0);
    server.stop();

    // A fresh process over the same directory reloads the index: the
    // same corpus is now all hits (the response cache died with the old
    // process, so this exercises the store, not the cache).
    let server = boot(cfg);
    let again = client::post(server.addr(), "/v1/modules", &corpus).unwrap();
    assert_eq!(again.status, 200);
    assert_eq!(again.header("x-fmsa-cache"), Some("miss"));
    assert_eq!(again.body, first.body, "restart must not change merge output");
    let hits: u64 = again.header("x-fmsa-store-hits").unwrap().parse().unwrap();
    let functions: u64 = again.header("x-fmsa-functions").unwrap().parse().unwrap();
    assert_eq!(hits, functions, "reloaded index should recognize every function");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_and_similar_endpoints() {
    let server = boot(ServerConfig::default());
    let corpus = wasm_corpus(16, 5);
    assert_eq!(client::post(server.addr(), "/v1/modules", &corpus).unwrap().status, 200);

    let store = client::get(server.addr(), "/v1/store").unwrap();
    assert_eq!(store.status, 200);
    let text = store.text();
    assert!(text.contains("\"functions\":"), "store summary: {text}");
    // Pull one hash out of the summary and fetch its canonical text.
    let hash = text.split("\"hash\":\"").nth(1).unwrap().split('"').next().unwrap().to_owned();
    assert_eq!(hash.len(), 32);

    let entry = client::get(server.addr(), &format!("/v1/store/{hash}")).unwrap();
    assert_eq!(entry.status, 200);
    assert!(entry.text().starts_with("define "), "canonical text: {}", entry.text());

    let similar = client::get(server.addr(), &format!("/v1/similar/{hash}?k=3")).unwrap();
    assert_eq!(similar.status, 200);
    assert!(similar.text().starts_with('['), "similar: {}", similar.text());

    assert_eq!(client::get(server.addr(), "/v1/store/nothex").unwrap().status, 400);
    let missing = format!("{:032x}", 0xdead_beefu128);
    assert_eq!(client::get(server.addr(), &format!("/v1/store/{missing}")).unwrap().status, 404);
}

#[test]
fn routing_rejects_unknown_paths_and_methods() {
    let server = boot(ServerConfig::default());
    assert_eq!(client::get(server.addr(), "/healthz").unwrap().status, 200);
    assert_eq!(client::get(server.addr(), "/nope").unwrap().status, 404);
    assert_eq!(client::post(server.addr(), "/healthz", b"x").unwrap().status, 405);
    assert_eq!(client::get(server.addr(), "/v1/modules").unwrap().status, 405);
}

#[test]
fn bad_uploads_get_clean_4xx_not_a_dead_daemon() {
    let server = boot(ServerConfig::default());

    // Empty body.
    let resp = client::post(server.addr(), "/v1/modules", b"").unwrap();
    assert_eq!(resp.status, 400, "body: {}", resp.text());

    // Truncated wasm: magic then nothing.
    let resp = client::post(server.addr(), "/v1/modules", b"\0asm").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("\"stage\":\"decode\""), "body: {}", resp.text());

    // Textual IR that does not parse.
    let resp = client::post(server.addr(), "/v1/modules", b"define nonsense {").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("\"stage\":\"parse\""), "body: {}", resp.text());

    // Binary garbage (not wasm, not UTF-8).
    let resp = client::post(server.addr(), "/v1/modules", &[0xff, 0xfe, 0x01, 0x02]).unwrap();
    assert_eq!(resp.status, 400);

    // The daemon is still alive and its store is still empty (failed
    // uploads must not pollute it).
    let stats = client::get(server.addr(), "/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    assert!(stats.text().contains("\"store\":{\"functions\":0"), "stats: {}", stats.text());
}

fn raw_roundtrip(addr: SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(payload).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn malformed_requests_get_400() {
    let server = boot(ServerConfig::default());
    for payload in [
        b"not http at all\r\n\r\n".as_slice(),
        b"get /lowercase HTTP/1.1\r\n\r\n",
        b"GET noslash HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/2.0\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nbroken header line\r\n\r\n",
        b"POST /v1/modules HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        b"POST /v1/modules HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        // Body shorter than its declared length.
        b"POST /v1/modules HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort",
    ] {
        let reply = raw_roundtrip(server.addr(), payload);
        assert!(
            reply.starts_with("HTTP/1.1 400 "),
            "payload {:?} got: {reply}",
            String::from_utf8_lossy(payload)
        );
    }
}

#[test]
fn oversized_declaration_is_rejected_without_allocation() {
    // A tiny max_body plus an absurd Content-Length: the daemon must
    // answer 413 from the headers alone. (If it tried to allocate the
    // declared 2^60 bytes this test would OOM, not fail an assert.)
    let cfg = ServerConfig { max_body: 4096, ..ServerConfig::default() };
    let server = boot(cfg);
    let reply = raw_roundtrip(
        server.addr(),
        b"POST /v1/modules HTTP/1.1\r\nContent-Length: 1152921504606846976\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 413 "), "got: {reply}");
    assert!(reply.contains("\"limit\":4096"), "got: {reply}");

    // At exactly the limit the request is accepted (and then rejected
    // as a bad module, which is the point: the *transport* let it in).
    let mut body = b"define nonsense {".to_vec();
    body.resize(4096, b'z');
    let resp = client::post(server.addr(), "/v1/modules", &body).unwrap();
    assert_eq!(resp.status, 400);
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let server = boot(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    for _ in 0..3 {
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        stream.flush().unwrap();
        let mut reader = std::io::BufReader::new(&mut stream);
        let resp = client::read_response(&mut reader).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"ok\n");
    }
}

#[test]
fn pipelined_keep_alive_requests_are_both_answered_in_order() {
    let server = boot(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // A daemon that dropped the bytes read past the first request would
    // leave the second unanswered until its read timeout.
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nGET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut reader = std::io::BufReader::new(&stream);
    let first = client::read_response(&mut reader).unwrap();
    assert_eq!((first.status, first.body.as_slice()), (200, b"ok\n".as_slice()));
    let second = client::read_response(&mut reader).expect("second pipelined response");
    assert_eq!(second.status, 404, "responses must come back in request order");
}

#[test]
fn sequential_requests_do_not_wait_on_the_accept_loop() {
    // Every request opens a fresh connection; an accept loop that slept
    // 2 ms between polls would charge each one up to a tick, 400 ms or
    // more per round. Up to five rounds run, so a round that a busy host
    // preempted does not fail the test; a polling loop fails them all.
    let server = boot(ServerConfig::default());
    assert_eq!(client::get(server.addr(), "/healthz").unwrap().status, 200);
    let limit = std::time::Duration::from_millis(200);
    let mut rounds = Vec::new();
    while rounds.len() < 5 && rounds.iter().all(|&took| took >= limit) {
        let t0 = std::time::Instant::now();
        for _ in 0..200 {
            assert_eq!(client::get(server.addr(), "/healthz").unwrap().status, 200);
        }
        rounds.push(t0.elapsed());
    }
    assert!(rounds.iter().any(|&took| took < limit), "rounds of 200 requests took {rounds:?}");
}

#[test]
fn metrics_endpoint_serves_prometheus_exposition() {
    let server = boot(ServerConfig::default());
    // One real merge so request, cache, store, and decision series all
    // have data behind them.
    let corpus = wasm_corpus(16, 5);
    assert_eq!(client::post(server.addr(), "/v1/modules", &corpus).unwrap().status, 200);

    let resp = client::get(server.addr(), "/metrics").unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.header("content-type").unwrap().contains("version=0.0.4"),
        "exposition content type, got {:?}",
        resp.header("content-type")
    );
    let body = resp.text();
    for family in [
        "fmsa_http_requests_total",
        "fmsa_http_request_duration_seconds_bucket",
        "fmsa_http_response_bytes_total",
        "fmsa_merge_cache_total",
        "fmsa_merge_duration_seconds_bucket",
        "fmsa_merge_decisions",
        "fmsa_build_info",
        "fmsa_store_functions",
        "fmsa_session_merges",
        "fmsa_queue_active_connections",
        "fmsa_started_at_seconds",
        "fmsa_uptime_seconds",
        "fmsa_pipeline_gate_skipped",
        "fmsa_pipeline_gate_missed",
    ] {
        assert!(body.contains(family), "missing family {family} in:\n{body}");
    }
    // The upload itself is visible as a counted, histogrammed request.
    assert!(
        body.contains(r#"fmsa_http_requests_total{route="/v1/modules",status="200"} 1"#),
        "upload not counted:\n{body}"
    );
    assert!(body.contains(r#"le="+Inf""#));
    // Build metadata rides as labels on a constant gauge.
    let build = body.lines().find(|l| l.starts_with("fmsa_build_info{")).unwrap();
    assert!(build.contains("version=\"") && build.contains("store_format=\""));
    assert!(build.ends_with(" 1"));
    // Every family gets HELP + TYPE exactly once.
    assert_eq!(body.matches("# TYPE fmsa_http_requests_total ").count(), 1);
}

#[test]
fn merges_recent_returns_bounded_decision_records() {
    let server = boot(ServerConfig::default());
    let corpus = wasm_corpus(24, 9);
    assert_eq!(client::post(server.addr(), "/v1/modules", &corpus).unwrap().status, 200);

    let resp = client::get(server.addr(), "/v1/merges/recent?n=3").unwrap();
    assert_eq!(resp.status, 200);
    let body = resp.text();
    assert!(body.contains("\"total\":") && body.contains("\"records\":["), "got: {body}");
    // n caps the returned records.
    let records = body.matches("\"subject\":").count();
    assert!(records <= 3, "asked for 3, got {records}: {body}");
    assert!(records > 0, "a merged corpus must leave decision records: {body}");
    // Decision totals reconcile with the merge count the upload reported.
    let merged = body.matches("\"outcome\":\"merged\"").count()
        + body.matches("\"outcome\":\"conflict-fallback\"").count();
    assert!(merged <= records);

    // Default n, no query string.
    let resp = client::get(server.addr(), "/v1/merges/recent").unwrap();
    assert_eq!(resp.status, 200);
}

#[test]
fn stats_carries_build_metadata() {
    let server = boot(ServerConfig::default());
    let resp = client::get(server.addr(), "/v1/stats").unwrap();
    assert_eq!(resp.status, 200);
    let body = resp.text();
    for key in ["\"version\":", "\"profile\":", "\"started_at\":", "\"uptime_ms\":"] {
        assert!(body.contains(key), "missing {key} in {body}");
    }
}

#[test]
fn access_log_levels_parse_and_default_off() {
    use fmsa_serve::{LogFormat, LogLevel};
    assert_eq!(LogLevel::parse("off").unwrap(), LogLevel::Off);
    assert_eq!(LogLevel::parse("info").unwrap(), LogLevel::Info);
    assert_eq!(LogLevel::parse("debug").unwrap(), LogLevel::Debug);
    assert!(LogLevel::parse("verbose").is_err());
    assert_eq!(LogFormat::parse("text").unwrap(), LogFormat::Text);
    assert_eq!(LogFormat::parse("json").unwrap(), LogFormat::Json);
    assert!(LogFormat::parse("yaml").is_err());
    assert_eq!(ServerConfig::default().log_level, LogLevel::Off);
    assert_eq!(ServerConfig::default().log_format, LogFormat::Text);
    assert!(LogLevel::Debug > LogLevel::Info && LogLevel::Info > LogLevel::Off);
}
