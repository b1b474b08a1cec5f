//! The merge session: store-backed, cache-accelerated request lifecycle.
//!
//! A [`MergeSession`] is what a long-running server holds between
//! requests: the unified [`Config`], the content-addressed
//! [`FunctionStore`] (with its durable LSH index), a bounded
//! whole-response cache, and running totals. Each request is one
//! [`MergeSession::merge_module`] call: ingest the upload into the store
//! (hit/miss accounting), run the shared [`optimize`] entry point, and
//! print the result — so a session response is **byte-identical** to a
//! batch `fmsa_opt` run with the same configuration, by construction.
//!
//! The response cache is keyed by a caller-supplied [`ContentHash`]
//! (the daemon hashes the raw upload bytes before even parsing them): a
//! byte-identical re-upload skips parse, ingest and merge entirely, and
//! its functions are replayed into the store's hit counters — they are
//! definitionally all stored. Merge *decisions* never read the cache or
//! the store, so cross-request state can accelerate but never alter a
//! response.

use crate::config::{optimize, Config};
use crate::error::Error;
use crate::pipeline::PipelineStats;
use crate::store::{CompactStats, ContentHash, FunctionStore, StoreOptions};
use crate::telemetry::{trace, DecisionLog};
use fmsa_ir::{printer, Module};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Whole-response cache entries kept per session; the cache exists to
/// make byte-identical re-uploads cheap, not to be a CDN — keep it
/// small and bounded.
const CACHE_CAP: usize = 32;

/// Per-request statistics, reported alongside every merge response.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestStats {
    /// Defined functions in the uploaded module.
    pub functions: usize,
    /// Merges committed by this request.
    pub merges: usize,
    /// Module size before merging, in cost-model bytes.
    pub size_before: u64,
    /// Module size after merging.
    pub size_after: u64,
    /// Code-size reduction, percent.
    pub reduction_percent: f64,
    /// Uploaded functions already present in the store.
    pub store_hits: usize,
    /// Uploaded functions newly added to the store.
    pub store_misses: usize,
    /// Distinct functions in the store after this request.
    pub store_size: usize,
    /// Pairs quarantined during this request (degraded, not failed).
    pub quarantined: usize,
    /// Wall clock spent serving the request.
    pub wall: Duration,
    /// Whether the response came from the whole-response cache.
    pub from_cache: bool,
}

/// The result of one merge request.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The merged module, printed in textual IR.
    pub output: String,
    /// Per-request statistics.
    pub stats: RequestStats,
}

/// Session-lifetime totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionTotals {
    /// Requests served (successful merges, including cached replays).
    pub requests: u64,
    /// Total merges committed.
    pub merges: u64,
    /// Total functions uploaded.
    pub functions: u64,
    /// Requests served from the response cache.
    pub cache_hits: u64,
    /// Total wall clock across requests.
    pub wall: Duration,
    /// Pipeline counters and timers, summed over the merges run.
    pub pipeline: PipelineStats,
}

struct CachedResponse {
    key: u128,
    output: String,
    stats: RequestStats,
    /// Content hashes of the upload's functions, so a replay can
    /// durably bump their `seen` counts without re-parsing anything.
    hashes: Vec<ContentHash>,
}

/// Merge decision records retained per session for
/// `GET /v1/merges/recent` — a diagnostic window, not an archive.
const SESSION_DECISION_CAP: usize = 4096;

/// A long-lived merging session over a [`FunctionStore`].
pub struct MergeSession {
    config: Config,
    store: FunctionStore,
    cache: VecDeque<CachedResponse>,
    totals: SessionTotals,
    decisions: DecisionLog,
}

impl MergeSession {
    /// A session over a fresh in-memory store.
    pub fn new(config: Config) -> MergeSession {
        MergeSession {
            config,
            store: FunctionStore::in_memory(),
            cache: VecDeque::new(),
            totals: SessionTotals::default(),
            decisions: DecisionLog::new(SESSION_DECISION_CAP),
        }
    }

    /// A session over the persistent store at `dir` (created if absent,
    /// reloaded — entries and LSH index — if present).
    pub fn open(config: Config, dir: impl Into<PathBuf>) -> Result<MergeSession, Error> {
        MergeSession::open_with(config, dir, StoreOptions::default())
    }

    /// [`MergeSession::open`] with explicit store durability, compaction,
    /// and fault-injection options — how the daemon wires `--fsync` and
    /// `FMSA_FAULTS` store sites through to the log.
    pub fn open_with(
        config: Config,
        dir: impl Into<PathBuf>,
        opts: StoreOptions,
    ) -> Result<MergeSession, Error> {
        Ok(MergeSession {
            config,
            store: FunctionStore::open_with(dir, opts)?,
            cache: VecDeque::new(),
            totals: SessionTotals::default(),
            decisions: DecisionLog::new(SESSION_DECISION_CAP),
        })
    }

    /// The session's merge configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The underlying function store.
    pub fn store(&self) -> &FunctionStore {
        &self.store
    }

    /// Compacts the store log (folding durable `seen` bumps, migrating a
    /// v1 log to v2) — the daemon's `POST /v1/admin/compact` and its
    /// graceful-shutdown path both land here. Merge state (cache,
    /// totals) is untouched: compaction only rewrites the log.
    pub fn compact(&mut self) -> Result<CompactStats, Error> {
        self.store.compact()
    }

    /// Fsyncs any unsynced store appends — the final durability point of
    /// a graceful shutdown.
    pub fn flush(&mut self) -> Result<(), Error> {
        self.store.flush()
    }

    /// Session-lifetime totals.
    pub fn totals(&self) -> &SessionTotals {
        &self.totals
    }

    /// The session's rolling merge decision log (bounded; counts stay
    /// exact past the bound). Cached replays add no records — decisions
    /// are only made when a merge actually runs.
    pub fn decisions(&self) -> &DecisionLog {
        &self.decisions
    }

    /// Serves a request straight from the response cache, if `key` (a
    /// hash of the raw upload) matches a previous request. The cached
    /// upload's functions are replayed into the store's hit counters:
    /// a byte-identical re-upload consists entirely of stored bodies.
    pub fn merge_cached(&mut self, key: ContentHash) -> Option<MergeOutcome> {
        let t0 = Instant::now();
        let hit = self.cache.iter().find(|c| c.key == key.0)?;
        let mut stats = hit.stats.clone();
        let output = hit.output.clone();
        let hashes = hit.hashes.clone();
        stats.from_cache = true;
        stats.store_hits = stats.functions;
        stats.store_misses = 0;
        stats.store_size = self.store.len();
        stats.wall = t0.elapsed();
        // Durable seen bumps (and hit accounting) for the replayed
        // functions; a failed append degrades to under-counting rather
        // than failing a cache hit.
        let _ = self.store.bump_seen(&hashes);
        self.totals.requests += 1;
        self.totals.merges += stats.merges as u64;
        self.totals.functions += stats.functions as u64;
        self.totals.cache_hits += 1;
        self.totals.wall += stats.wall;
        Some(MergeOutcome { output, stats })
    }

    /// Merges one uploaded module: store ingest, the shared
    /// [`optimize`] run, and printing. Pass `key` (a hash of the raw
    /// upload bytes) to make the response replayable via
    /// [`MergeSession::merge_cached`].
    pub fn merge_module(
        &mut self,
        mut module: Module,
        key: Option<ContentHash>,
    ) -> Result<MergeOutcome, Error> {
        let _req_span = trace::span("session", "merge_request");
        let t0 = Instant::now();
        // Verify before ingest: an invalid upload must be rejected
        // without leaving its functions behind in the store.
        let errs = {
            let _s = trace::span("session", "verify_input");
            fmsa_ir::verify_module(&module)
        };
        if let Some(e) = errs.first() {
            return Err(Error::verify(false, &e.func, e.to_string()));
        }
        // The ingest hashes the *uploaded* functions, before optimize
        // mutates the module: that is what a cached replay re-serves.
        let (ingest, hashes) = {
            let _s = trace::span("session", "ingest");
            self.store.ingest_module_hashed(&module)?
        };
        let mut stats = optimize(&mut module, &self.config)?;
        self.decisions.append(&mut stats.decisions);
        let output = {
            let _s = trace::span("session", "print");
            printer::print_module(&module)
        };
        let request = RequestStats {
            functions: ingest.functions,
            merges: stats.merges,
            size_before: stats.size_before,
            size_after: stats.size_after,
            reduction_percent: stats.reduction_percent(),
            store_hits: ingest.hits,
            store_misses: ingest.misses,
            store_size: self.store.len(),
            quarantined: stats.quarantine.len(),
            wall: t0.elapsed(),
            from_cache: false,
        };
        self.totals.requests += 1;
        self.totals.merges += request.merges as u64;
        self.totals.functions += request.functions as u64;
        self.totals.wall += request.wall;
        self.totals.pipeline.accumulate(&stats.pipeline.unwrap_or_default());
        if let Some(key) = key {
            if self.cache.len() >= CACHE_CAP {
                self.cache.pop_front();
            }
            self.cache.push_back(CachedResponse {
                key: key.0,
                output: output.clone(),
                stats: request.clone(),
                hashes,
            });
        }
        Ok(MergeOutcome { output, stats: request })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::{FuncBuilder, Value};

    fn clone_module(count: usize) -> Module {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
        for k in 0..count {
            let f = m.create_function(format!("fam{k}"), fn_ty);
            let mut b = FuncBuilder::new(&mut m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for j in 0..12 {
                v = b.add(v, b.const_i32(j));
                v = b.mul(v, Value::Param(1));
            }
            v = b.xor(v, b.const_i32(k as i32 + 100));
            b.ret(Some(v));
        }
        m
    }

    #[test]
    fn session_output_matches_batch_optimize() {
        let cfg = Config::new().threshold(5);
        let mut session = MergeSession::new(cfg.clone());
        let out = session.merge_module(clone_module(4), None).unwrap();
        let mut batch = clone_module(4);
        optimize(&mut batch, &cfg).unwrap();
        assert_eq!(out.output, printer::print_module(&batch));
        assert!(out.stats.merges >= 2);
        assert_eq!(out.stats.store_misses, 4);
    }

    #[test]
    fn repeat_upload_hits_the_store() {
        let mut session = MergeSession::new(Config::new().threshold(5));
        let first = session.merge_module(clone_module(4), None).unwrap();
        let second = session.merge_module(clone_module(4), None).unwrap();
        assert_eq!(first.output, second.output, "same input, same bytes out");
        assert_eq!(second.stats.store_hits, 4);
        assert_eq!(second.stats.store_misses, 0);
        assert!(session.store().hit_rate() > 0.0);
    }

    #[test]
    fn response_cache_replays_byte_identically() {
        let mut session = MergeSession::new(Config::new().threshold(5));
        let key = ContentHash::of_bytes(b"upload-1");
        assert!(session.merge_cached(key).is_none());
        let first = session.merge_module(clone_module(4), Some(key)).unwrap();
        let replay = session.merge_cached(key).expect("cached");
        assert_eq!(replay.output, first.output);
        assert!(replay.stats.from_cache);
        assert_eq!(replay.stats.store_hits, replay.stats.functions);
        assert_eq!(session.totals().cache_hits, 1);
        assert!(session.store().hits() >= 4);
    }

    #[test]
    fn cached_replay_bumps_seen_durably() {
        let dir = std::env::temp_dir().join(format!(
            "fmsa-session-seen-{}-{:p}",
            std::process::id(),
            &CACHE_CAP
        ));
        std::fs::remove_dir_all(&dir).ok();
        let key = ContentHash::of_bytes(b"upload-1");
        {
            let mut session = MergeSession::open(Config::new().threshold(5), &dir).unwrap();
            session.merge_module(clone_module(3), Some(key)).unwrap();
            // Two cache replays: without durable bumps these would leave
            // every seen count at its first-ingest value of 1.
            session.merge_cached(key).expect("cached");
            session.merge_cached(key).expect("cached");
            assert!(session.store().entries().all(|e| e.seen == 3));
        }
        let session = MergeSession::open(Config::new().threshold(5), &dir).unwrap();
        assert_eq!(session.store().len(), 3);
        assert!(
            session.store().entries().all(|e| e.seen == 3),
            "replayed seen bumps must survive a restart"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_request_leaves_session_usable() {
        let mut session = MergeSession::new(Config::new());
        let mut broken = Module::new("broken");
        let i32t = broken.types.i32();
        let fn_ty = broken.types.func(i32t, vec![]);
        let f = broken.create_function("f", fn_ty);
        let b = broken.func_mut(f).add_block("entry");
        broken.func_mut(f).append_inst(
            b,
            fmsa_ir::Inst::new(
                fmsa_ir::Opcode::Add,
                i32t,
                vec![Value::ConstInt { ty: i32t, bits: 1 }, Value::ConstInt { ty: i32t, bits: 2 }],
            ), // no terminator
        );
        let err = session.merge_module(broken, None).unwrap_err();
        assert_eq!(err.stage(), "verify-input");
        assert!(session.store().is_empty(), "rejected upload must not pollute the store");
        // The session still serves valid requests afterwards.
        let ok = session.merge_module(clone_module(2), None).unwrap();
        assert!(ok.stats.merges >= 1);
    }
}
