//! `fmsa_serve` — the FMSA merge daemon.
//!
//! ```text
//! fmsa_serve --addr 127.0.0.1:7070 --store .fmsa-store --threads 4
//! ```
//!
//! Uploads (`POST /v1/modules`, body = wasm binary or textual IR) come
//! back merged, byte-identical to batch `fmsa_opt` output for the same
//! configuration. With `--store`, the content-addressed function store
//! and its LSH index persist across restarts. SIGTERM/ctrl-c trigger a
//! graceful shutdown: stop accepting, drain in-flight requests up to
//! `--shutdown-deadline`, then flush and compact the store. See
//! `docs/service.md`.

use fmsa::core::FaultPlan;
use fmsa::{Config, FsyncPolicy};
use fmsa_serve::{LogFormat, LogLevel, Server, ServerConfig};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const USAGE: &str = "usage: fmsa_serve [options]

options:
  --addr HOST:PORT        listen address (default 127.0.0.1:7070; port 0 = ephemeral)
  --store DIR             persist the function store + LSH index under DIR
                          (default: in-memory, nothing survives a restart)
  --fsync POLICY          store durability: never | per-ingest | interval:SECS
                          (default per-ingest)
  --threads N             parallel merge pipeline with N workers; 0 = available
                          parallelism (default: sequential)
  --threshold N           alignment profitability threshold (default 1)
  --search MODE           candidate search: exact | lsh | auto (default auto)
  --min-similarity F      skip candidate pairs below estimated similarity F
  --max-body BYTES        largest accepted upload (default 33554432)
  --read-timeout SECS     per-connection socket read timeout (default 10)
  --request-timeout SECS  merge deadline; past it the request gets 503 +
                          Retry-After (default: unbounded)
  --max-pending N         merges in flight before shedding with 429 (default 8)
  --shutdown-deadline SECS  drain budget for graceful shutdown (default 5)
  --log-level LEVEL       access log on stderr: off | info | debug
                          (default off; FMSA_LOG env sets the default)
  --log-format FMT        access log lines: text | json
                          (default text; FMSA_LOG_FORMAT env sets the default)
  -h, --help              this help

Set FMSA_FAULTS (e.g. \"seed=7 rate=0.01 sites=store-write,store-fsync\")
to inject deterministic store I/O faults — the chaos harness's knob.
";

/// Set by the SIGTERM/SIGINT handlers; polled by main.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Dependency-free signal(2) binding: the handler only stores a flag
    // (async-signal-safe); main polls it and runs the graceful path.
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn fail(msg: &str) -> ExitCode {
    eprintln!("fmsa_serve: error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut cfg = ServerConfig { addr: "127.0.0.1:7070".to_owned(), ..ServerConfig::default() };
    let mut merge = Config::new();

    // Env defaults first; explicit flags below override them.
    if let Ok(v) = std::env::var("FMSA_LOG") {
        match LogLevel::parse(&v) {
            Ok(level) => cfg.log_level = level,
            Err(msg) => return fail(&format!("FMSA_LOG: {msg}")),
        }
    }
    if let Ok(v) = std::env::var("FMSA_LOG_FORMAT") {
        match LogFormat::parse(&v) {
            Ok(format) => cfg.log_format = format,
            Err(msg) => return fail(&format!("FMSA_LOG_FORMAT: {msg}")),
        }
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        let result: Result<(), String> = (|| {
            match arg {
                "-h" | "--help" => {
                    print!("{USAGE}");
                    std::process::exit(0);
                }
                "--addr" => cfg.addr = value("--addr")?,
                "--store" => cfg.store_dir = Some(value("--store")?.into()),
                "--fsync" => cfg.store.fsync = FsyncPolicy::parse(&value("--fsync")?)?,
                "--threads" => {
                    let n: usize = value("--threads")?
                        .parse()
                        .map_err(|_| "--threads needs a number".to_owned())?;
                    merge = merge.clone().parallel(n);
                }
                "--threshold" => {
                    let n = value("--threshold")?
                        .parse()
                        .map_err(|_| "--threshold needs a number".to_owned())?;
                    merge = merge.clone().threshold(n);
                }
                "--search" => {
                    let mode = value("--search")?;
                    let strategy = match mode.as_str() {
                        "exact" => fmsa::core::SearchStrategy::Exact,
                        "lsh" => fmsa::core::SearchStrategy::Lsh(Default::default()),
                        "auto" => fmsa::core::SearchStrategy::Auto,
                        other => return Err(format!("unknown search mode {other:?}")),
                    };
                    merge = merge.clone().search(strategy);
                }
                "--min-similarity" => {
                    let f: f64 = value("--min-similarity")?
                        .parse()
                        .map_err(|_| "--min-similarity needs a number".to_owned())?;
                    merge = merge.clone().min_similarity(f);
                }
                "--max-body" => {
                    cfg.max_body = value("--max-body")?
                        .parse()
                        .map_err(|_| "--max-body needs a byte count".to_owned())?;
                }
                "--read-timeout" => {
                    let secs: u64 = value("--read-timeout")?
                        .parse()
                        .map_err(|_| "--read-timeout needs seconds".to_owned())?;
                    cfg.read_timeout = Duration::from_secs(secs.max(1));
                }
                "--request-timeout" => {
                    let secs: u64 = value("--request-timeout")?
                        .parse()
                        .map_err(|_| "--request-timeout needs seconds".to_owned())?;
                    cfg.request_timeout = Some(Duration::from_secs(secs.max(1)));
                }
                "--max-pending" => {
                    cfg.max_pending_merges = value("--max-pending")?
                        .parse()
                        .map_err(|_| "--max-pending needs a number".to_owned())?;
                }
                "--log-level" => cfg.log_level = LogLevel::parse(&value("--log-level")?)?,
                "--log-format" => cfg.log_format = LogFormat::parse(&value("--log-format")?)?,
                "--shutdown-deadline" => {
                    let secs: u64 = value("--shutdown-deadline")?
                        .parse()
                        .map_err(|_| "--shutdown-deadline needs seconds".to_owned())?;
                    cfg.shutdown_deadline = Duration::from_secs(secs);
                }
                other => return Err(format!("unknown option {other:?}")),
            }
            Ok(())
        })();
        if let Err(msg) = result {
            return fail(&msg);
        }
        i += 1;
    }
    cfg.merge = merge;
    // The same FMSA_FAULTS grammar the merge pipeline honors, restricted
    // by the plan's own `sites=` filter to the store I/O sites.
    cfg.store.faults = FaultPlan::from_env().unwrap_or_else(FaultPlan::disabled);

    let server = match Server::bind(cfg.clone()) {
        Ok(s) => s,
        Err(e) => return fail(&format!("binding {}: {e}", cfg.addr)),
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => return fail(&e.to_string()),
    };
    let store = cfg
        .store_dir
        .as_ref()
        .map_or("in-memory".to_owned(), |d| format!("persistent at {}", d.display()));
    eprintln!("fmsa_serve: listening on http://{addr} (store: {store})");

    install_signal_handlers();
    let mut running = match server.spawn() {
        Ok(r) => r,
        Err(e) => return fail(&e.to_string()),
    };
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("fmsa_serve: shutting down (draining, then flush + compact)");
    running.stop();
    ExitCode::SUCCESS
}
