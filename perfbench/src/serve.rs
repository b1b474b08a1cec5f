//! The `serve` workload: an in-process `fmsa_serve` daemon over a fresh
//! store directory, driven as a closed loop by one client connection
//! that uploads 96-function wasm corpora in a seeded order.
//!
//! Before the clock starts the pool is uploaded once, which fills the
//! store and the session's 32-entry response cache. The measured
//! requests are then of three kinds, in a fixed mix per 100 requests:
//!
//! - 90 hot: one of 6 *hot* corpora, a cache hit unless the cache
//!   evicted it since its last miss (then a merge that re-caches it);
//! - 7 cold: the next *cold* corpus in a seeded round-robin over more
//!   corpora than the cache holds, so always an evicted repeat (store
//!   reads, then a merge);
//! - 3 new: a fresh seeded corpus (decode, lower, store write, merge).
//!
//! About 88 % of requests are then hits and 12 % merges: the median
//! lies among the hits and p95 near the middle of the merges, each well
//! away from the boundary between the two.
//!
//! One client, not `nproc`: each merge already runs on `nproc` threads,
//! so a second client's hits wait for a core behind the merge workers,
//! and on a 2-core machine that made the median flip between about
//! 2.3 ms and 4.5 ms from run to run.

use crate::check::targets_diff;
use crate::compile::{measure, size_reduction_pct};
use crate::stats::{geomean, median};
use crate::{mix, out_dir, trace, Args, Report};
use fmsa::core::FunctionStore;
use fmsa::interp::batch::wire_targets;
use fmsa::interp::{run_differential_batch, BatchConfig};
use fmsa::ir::{parser::parse_module, printer::print_module, verify_module, Module};
use fmsa::workloads::{wasm_fixture_bytes, WasmFixtureConfig};
use fmsa::{Config, MergeSession};
use fmsa_serve::{client, RunningServer, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Functions per uploaded corpus.
const CORPUS_FUNCTIONS: usize = 96;
/// Corpora that stay in the response cache between their requests.
const HOT: usize = 6;
/// Corpora requested round-robin; more than the 32 cached responses,
/// so each is evicted before its next request.
const COLD: usize = 34;
/// The pool uploaded before the clock starts: hot and cold corpora.
/// Corpus ids from `POOL` on are fresh corpora.
const POOL: usize = HOT + COLD;
/// Requests per schedule block.
const BLOCK: usize = 100;
/// Fresh corpora per block.
const NEW_PER_BLOCK: usize = 3;
/// Cold corpora per block; the rest of a block goes to hot corpora.
const COLD_PER_BLOCK: usize = 7;
/// Share of `--seconds` spent under load; the rest times the in-process
/// reference compile of the pool.
const LOAD_SHARE: f64 = 0.6;
/// Requests the load phase completes at least, so p95 has ten samples
/// beyond it.
const MIN_REQUESTS: usize = 220;
/// Seeded inputs per exported function in the runtime-overhead check.
const INPUTS_PER_EXPORT: u64 = 1;
/// Seeded inputs per exported function in the differential batch.
const BATCH_PER_EXPORT: usize = 1;

/// One finished request.
struct Sample {
    corpus: usize,
    ms: f64,
    status: u16,
    cache_hit: bool,
    store_hits: u64,
    store_misses: u64,
    session_us: u64,
}

/// The wasm bytes of corpus `id`.
fn corpus(seed: u64, id: usize) -> Vec<u8> {
    let cfg = WasmFixtureConfig {
        seed: mix(seed, 100 + id as u64),
        ..WasmFixtureConfig::with_functions(CORPUS_FUNCTIONS)
    };
    wasm_fixture_bytes(&cfg)
}

/// The seeded order of the cold corpora: priming uploads them in this
/// order, and the load phase requests them round-robin in it.
fn cold_order(seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 6));
    let mut cold: Vec<usize> = (HOT..POOL).collect();
    for k in (1..cold.len()).rev() {
        cold.swap(k, rng.gen_range(0..=k));
    }
    cold
}

/// The seeded request order: corpus ids, fresh ones numbered from
/// [`POOL`] on. Every block of [`BLOCK`] requests holds exactly
/// [`NEW_PER_BLOCK`] fresh and [`COLD_PER_BLOCK`] cold requests in a
/// seeded order, so the mix does not vary from run to run.
fn schedule(seed: u64, blocks: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 7));
    let cold = cold_order(seed);
    let (mut next_cold, mut next_fresh) = (0, POOL);
    let mut order = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        // Slot kinds: 0 fresh, 1 cold, 2 hot. Shuffle the kinds, then
        // fill cold slots strictly round-robin, so 33 other cold
        // corpora always come between two requests for one.
        let mut kinds = vec![2u8; BLOCK];
        kinds[..NEW_PER_BLOCK].fill(0);
        kinds[NEW_PER_BLOCK..NEW_PER_BLOCK + COLD_PER_BLOCK].fill(1);
        for k in (1..BLOCK).rev() {
            kinds.swap(k, rng.gen_range(0..=k));
        }
        for kind in kinds {
            order.push(match kind {
                0 => {
                    next_fresh += 1;
                    next_fresh - 1
                }
                1 => {
                    next_cold += 1;
                    cold[(next_cold - 1) % COLD]
                }
                _ => rng.gen_range(0..HOT),
            });
        }
    }
    order
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| it.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

fn boot(dir: &PathBuf, merge: &Config) -> Result<RunningServer, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = ServerConfig {
        store_dir: Some(dir.clone()),
        merge: merge.clone(),
        ..ServerConfig::default()
    };
    Server::bind(cfg).and_then(Server::spawn).map_err(|e| format!("booting the daemon: {e}"))
}

/// A daemon over a fresh store directory.
struct Daemon {
    server: RunningServer,
    store_dir: PathBuf,
}

impl Daemon {
    /// Stops the daemon and removes its store.
    fn stop(mut self) {
        trace::timed("serve.stop", || self.server.stop());
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

/// One set-up: the pool, and a daemon over a fresh store.
struct SetUp {
    /// Seconds the whole set-up took.
    seconds: f64,
    /// Of `seconds`, the pool generation.
    generate_s: f64,
    pool: Vec<Vec<u8>>,
    daemon: Daemon,
}

/// Sets up once: generates the pool, then binds and spawns a daemon and
/// opens its fresh store.
fn set_up(seed: u64, merge: &Config, rep: usize) -> Result<SetUp, String> {
    let _s = trace::span("bench.setup");
    trace::timed("alloc.trim", crate::release_free_memory);
    let t0 = Instant::now();
    let pool =
        trace::timed("workloads.generate", || (0..POOL).map(|id| corpus(seed, id)).collect());
    let generate_s = t0.elapsed().as_secs_f64();
    let store_dir = out_dir().join(format!("serve-store-{}-{rep}", std::process::id()));
    let server = trace::timed("serve.boot", || boot(&store_dir, merge))?;
    let seconds = t0.elapsed().as_secs_f64();
    Ok(SetUp { seconds, generate_s, pool, daemon: Daemon { server, store_dir } })
}

/// One round of set-up repetitions; returns the last pool and daemon.
fn setup_round(
    seed: u64,
    merge: &Config,
    times: &mut Vec<f64>,
    generate_s: &mut Vec<f64>,
) -> Result<(Vec<Vec<u8>>, Daemon), String> {
    let mut pool = Vec::new();
    let mut daemon: Option<Daemon> = None;
    crate::setup_round(times, |rep| {
        if let Some(old) = daemon.take() {
            old.stop();
        }
        drop(std::mem::take(&mut pool));
        let once = set_up(seed, merge, rep)?;
        generate_s.push(once.generate_s);
        pool = once.pool;
        daemon = Some(once.daemon);
        Ok(once.seconds)
    })?;
    Ok((pool, daemon.expect("at least one set-up")))
}

/// The child side of a set-up round: one round, its daemon stopped.
pub fn setup_round_child(seed: u64, times: &mut Vec<f64>) -> Result<(), String> {
    let merge = Config::new().parallel(crate::nproc());
    let (_, daemon) = setup_round(seed, &merge, times, &mut Vec::new())?;
    daemon.stop();
    Ok(())
}

fn header_u64(resp: &client::Response, name: &str) -> u64 {
    resp.header(name).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Bodies of the first response per corpus, and what went wrong.
#[derive(Default)]
struct Seen {
    bodies: BTreeMap<usize, Vec<u8>>,
    errors: Vec<String>,
}

/// Uploads corpus `id` and records the response. Every later response
/// for a corpus must equal its first, byte for byte.
fn upload(addr: std::net::SocketAddr, id: usize, bytes: &[u8], seen: &mut Seen) -> Sample {
    let t = Instant::now();
    let resp = trace::timed("http.request", || client::post(addr, "/v1/modules", bytes));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let mut s = Sample {
        corpus: id,
        ms,
        status: 0,
        cache_hit: false,
        store_hits: 0,
        store_misses: 0,
        session_us: 0,
    };
    match resp {
        Ok(resp) => {
            s.status = resp.status;
            s.cache_hit = resp.header("x-fmsa-cache") == Some("hit");
            s.store_hits = header_u64(&resp, "x-fmsa-store-hits");
            s.store_misses = header_u64(&resp, "x-fmsa-store-misses");
            s.session_us = header_u64(&resp, "x-fmsa-wall-micros");
            if resp.status == 200 {
                match seen.bodies.get(&id) {
                    None => {
                        seen.bodies.insert(id, resp.body);
                    }
                    Some(b) if *b != resp.body => {
                        seen.errors.push(format!("corpus {id}: two responses differ"));
                    }
                    Some(_) => {}
                }
            }
        }
        Err(e) => seen.errors.push(format!("corpus {id}: {e}")),
    }
    s
}

/// Counts a response into the tally: 429/503 are refusals, any other
/// status but 200 an error (transport errors were counted already).
fn account(r: &mut Report, s: &Sample) {
    match s.status {
        200 => r.tally.record(true),
        429 | 503 => r.tally.refusal(),
        0 => {}
        other => r.fail(format!("corpus {}: HTTP {other}", s.corpus)),
    }
}

/// Runs `serve` into `r`.
pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    let threads = crate::nproc();
    let merge = Config::new().parallel(threads);

    // Set-up, in rounds spread over the run; the median is reported.
    // The last daemon of the first round serves the load.
    let (mut setup_s, mut generate_s) = (Vec::new(), Vec::new());
    let (pool, daemon) = setup_round(args.seed, &merge, &mut setup_s, &mut generate_s)?;
    let inputs: Vec<Module> = trace::timed("wasm.load", || {
        pool.iter().map(|b| fmsa::load_module_bytes(b, "upload")).collect::<Result<_, _>>()
    })
    .map_err(|e| format!("loading a corpus: {e}"))?;

    // Prime: upload the pool once, cold corpora first, so the store
    // holds it and the response cache holds the hot corpora.
    let addr = daemon.server.addr();
    let mut seen = Seen::default();
    let t_prime = Instant::now();
    {
        let _p = trace::span("bench.prime");
        for id in cold_order(args.seed).into_iter().chain(0..HOT) {
            account(r, &upload(addr, id, &pool[id], &mut seen));
        }
    }
    let prime_s = t_prime.elapsed().as_secs_f64();

    // Closed loop: each upload is sent when the previous one returned.
    let load_s = args.seconds * LOAD_SHARE;
    let order = schedule(args.seed, 2000);
    let mut samples = Vec::new();
    let mut fresh = BTreeMap::<usize, Vec<u8>>::new();
    let t_load = Instant::now();
    {
        let _load = trace::span("bench.load");
        for (i, &id) in order.iter().enumerate() {
            if i >= MIN_REQUESTS && t_load.elapsed().as_secs_f64() >= load_s {
                break;
            }
            let bytes = if id < POOL {
                &pool[id]
            } else {
                let bytes = trace::timed("workloads.generate", || corpus(args.seed, id));
                fresh.entry(id).or_insert(bytes)
            };
            samples.push(upload(addr, id, bytes, &mut seen));
        }
    }
    let load_wall = t_load.elapsed().as_secs_f64();
    r.set("store.log_bytes", dir_bytes(&daemon.store_dir) as f64);
    daemon.stop();
    for e in std::mem::take(&mut seen.errors) {
        r.fail(e);
    }

    for s in &samples {
        account(r, s);
    }
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.status == 200).collect();
    let refused = samples.iter().filter(|s| matches!(s.status, 429 | 503)).count() as u64;
    let ok_ms: Vec<f64> = ok.iter().map(|s| s.ms).collect();
    crate::set_latency(r, &ok_ms, refused);
    r.set("throughput_rps", ok.len() as f64 / load_wall);
    let misses: Vec<&Sample> = ok.iter().copied().filter(|s| !s.cache_hit).collect();
    let hits = ok.len() - misses.len();
    let new = misses.iter().filter(|s| s.store_misses > 0).count();
    let share = |n: usize| n as f64 / ok.len().max(1) as f64;
    r.set("serve.hit_share", share(hits));
    r.set("serve.new_share", share(new));
    r.set("serve.evicted_share", share(misses.len() - new));
    r.set("session.cache_hit_ratio", share(hits));
    r.set("http.shed", refused as f64);
    let med = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    r.set("http.hit_ms", med(ok.iter().filter(|s| s.cache_hit).map(|s| s.ms).collect()));
    r.set("http.merge_ms", med(misses.iter().map(|s| s.ms).collect()));
    r.set("http.overhead_ms", med(ok.iter().map(|s| s.ms - s.session_us as f64 / 1e3).collect()));
    r.set("session.merge_s", med(misses.iter().map(|s| s.session_us as f64 / 1e6).collect()));
    let (sh, sm) = misses.iter().fold((0, 0), |(h, m), s| (h + s.store_hits, m + s.store_misses));
    r.set("store.hit_ratio", sh as f64 / (sh + sm).max(1) as f64);
    r.note(format!("priming uploaded the {POOL}-corpus pool in {prime_s:.2} s"));
    let mut merge_ms: Vec<f64> = misses.iter().map(|s| s.ms).collect();
    merge_ms.sort_by(f64::total_cmp);
    if !merge_ms.is_empty() {
        let deciles: Vec<f64> =
            (1..=9).map(|d| crate::stats::percentile(&merge_ms, d as f64 * 10.0)).collect();
        r.note(format!("merge latency deciles (ms): {deciles:.1?}"));
    }
    r.note(format!(
        "{} requests in {load_wall:.2} s from one client: {hits} cache hits ({:.1} %), \
         {new} new corpora ({:.1} %), {} evicted repeats ({:.1} %), {refused} refused",
        samples.len(),
        100.0 * share(hits),
        100.0 * share(new),
        misses.len() - new,
        100.0 * share(misses.len() - new),
    ));

    // In-process reference compile of the pool: `compile_s` for serve,
    // and the bytes every response must equal.
    let ref_s = (args.seconds - load_wall).max(0.0);
    let reference = measure(&inputs, &merge, ref_s, args.trace, r, || {
        crate::setup_round_in_child(&args.workload, args.seed, &mut setup_s)
    })?
    .out;
    r.set("setup_s", median(&setup_s));
    r.set("workloads.generate_s", median(&generate_s));
    r.note(format!("{} set-ups, median {:.4} s", setup_s.len(), median(&setup_s)));
    let size =
        trace::timed("target.size", || size_reduction_pct(&inputs, &reference.modules, &merge));
    r.set("size_reduction_pct", size);

    // Output checks on every corpus served: byte-identical to the
    // in-process compile, verifies, and behaves like its input.
    let t_check = Instant::now();
    let mut ratios = Vec::new();
    let (mut steps, mut steps_s, mut pairs) = (0u64, 0.0, 0u64);
    for (id, body) in seen.bodies {
        let (pre, expected) = if id < POOL {
            (inputs[id].clone(), reference.texts[id].clone())
        } else {
            let pre = trace::timed("wasm.load", || fmsa::load_module_bytes(&fresh[&id], "upload"))
                .map_err(|e| format!("loading corpus {id}: {e}"))?;
            let _o = trace::span("optimize.module");
            let mut m = pre.clone();
            fmsa::optimize(&mut m, &merge).map_err(|e| format!("optimize corpus {id}: {e}"))?;
            (pre, print_module(&m))
        };
        r.check(body == expected.as_bytes(), || {
            format!("corpus {id}: response differs from in-process optimize + print")
        });
        let parsed = trace::timed("ir.parse", || parse_module(&String::from_utf8_lossy(&body)));
        let mut post = match parsed {
            Ok(m) => m,
            Err(e) => {
                r.fail(format!("corpus {id}: response does not parse: {e}"));
                continue;
            }
        };
        let errs = trace::timed("ir.verify", || verify_module(&post));
        r.check(errs.is_empty(), || format!("corpus {id}: response does not verify: {}", errs[0]));
        let _c = trace::span("interp.check");
        let mut pre = pre;
        let targets = wire_targets(&mut pre, &mut post, true);
        let bcfg = BatchConfig {
            threads,
            seed: mix(args.seed, 500 + id as u64),
            per_target: BATCH_PER_EXPORT,
            ..BatchConfig::default()
        };
        let batch = run_differential_batch(&pre, &post, &targets, &bcfg);
        r.check(batch.mismatches.is_empty() && batch.panics_caught == 0, || {
            format!(
                "corpus {id}: {} differential mismatches, {} panics",
                batch.mismatches.len(),
                batch.panics_caught
            )
        });
        let t = Instant::now();
        let d = targets_diff(&pre, &post, &targets, mix(args.seed, id as u64), INPUTS_PER_EXPORT);
        steps_s += t.elapsed().as_secs_f64();
        r.check(d.mismatches == 0, || format!("corpus {id}: {} outcomes changed", d.mismatches));
        ratios.push(d.overhead());
        steps += d.pre_steps + d.post_steps;
        pairs += batch.pairs_run as u64 + d.pairs;
    }
    r.set("runtime_overhead", geomean(&ratios));
    r.set("interp.check_s", t_check.elapsed().as_secs_f64());
    r.set("interp.steps_per_s", steps as f64 / steps_s);
    r.set("interp.diff_pairs", pairs as f64);

    if args.trace {
        layer_pass(r, &pool, &merge, &reference.texts)?;
    }
    Ok(())
}

/// Traced run only: each request layer on its own over the pool —
/// decode, lower, store ingest, session merge — through their public
/// functions, each in a span.
fn layer_pass(
    r: &mut Report,
    pool: &[Vec<u8>],
    merge: &Config,
    texts: &[String],
) -> Result<(), String> {
    let dir = out_dir().join(format!("serve-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = trace::timed("store.open", || FunctionStore::open(&dir))
        .map_err(|e| format!("opening a store: {e}"))?;
    let mut session = MergeSession::new(merge.clone());
    for (k, bytes) in pool.iter().enumerate() {
        let w = trace::timed("wasm.decode", || fmsa::wasm::parse_wasm(bytes))
            .map_err(|e| format!("corpus {k}: {e}"))?;
        let m = trace::timed("wasm.lower", || fmsa::wasm::lower_module(&w, "upload"))
            .map_err(|e| format!("corpus {k}: {e}"))?;
        trace::timed("store.ingest", || store.ingest_module(&m))
            .map_err(|e| format!("corpus {k}: {e}"))?;
        let out = trace::timed("session.merge", || session.merge_module(m, None))
            .map_err(|e| format!("corpus {k}: {e}"))?;
        r.check(out.output == texts[k], || format!("corpus {k}: session output differs"));
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let spans = trace::spans();
    r.set("wasm.decode_s", trace::total_s(&spans, "wasm.decode"));
    r.set("wasm.lower_s", trace::total_s(&spans, "wasm.lower"));
    r.set("store.ingest_s", trace::total_s(&spans, "store.ingest"));
    Ok(())
}
