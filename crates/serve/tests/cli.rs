//! Tests of the `fmsa_serve` binary's command line, run against the
//! built executable.

use fmsa_serve::client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

/// Kills the daemon even when an assertion fails first.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `fmsa_serve` with `args` on an ephemeral loopback port and
/// returns it with the address it reports on stderr.
fn spawn(args: &[&str]) -> (Daemon, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fmsa_serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fmsa_serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let daemon = Daemon(child);
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines.next().expect("daemon exited before listening").expect("stderr");
        if let Some(rest) = line.strip_prefix("fmsa_serve: listening on http://") {
            let addr = rest.split_whitespace().next().expect("address");
            break addr.parse().expect("socket address");
        }
    };
    (daemon, addr)
}

/// The value of an unlabelled gauge in a Prometheus exposition.
fn gauge(metrics: &str, name: &str) -> Option<f64> {
    metrics.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Uploads one small wasm corpus to a daemon started with `args` and
/// returns its `/metrics` exposition.
fn metrics_after_one_upload(args: &[&str]) -> String {
    let (_daemon, addr) = spawn(args);
    let mut cfg = fmsa_workloads::WasmFixtureConfig::with_functions(24);
    cfg.seed = 3;
    let corpus = fmsa_workloads::wasm_fixture_bytes(&cfg);
    let upload = client::post(addr, "/v1/modules", &corpus).expect("upload");
    assert_eq!(upload.status, 200, "{}", upload.text());
    client::get(addr, "/metrics").expect("scrape").text()
}

#[test]
fn threads_zero_runs_the_pipeline_on_every_core() {
    let metrics = metrics_after_one_upload(&["--threads", "0"]);
    let threads = gauge(&metrics, "fmsa_pipeline_threads").expect("pipeline threads gauge");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    assert_eq!(threads, cores as f64, "--threads 0 must use every core");
}

#[test]
fn default_daemon_reports_a_one_thread_pipeline() {
    let metrics = metrics_after_one_upload(&[]);
    let threads = gauge(&metrics, "fmsa_pipeline_threads").expect("pipeline threads gauge");
    assert_eq!(threads, 1.0, "the default is one pipeline thread");
    let generations =
        gauge(&metrics, "fmsa_pipeline_generations").expect("pipeline generations gauge");
    assert!(generations > 0.0, "the upload ran the pipeline, got {generations} generations");
}
